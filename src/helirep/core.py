"""Labeled matrices, weight bases, Lorentz irrep labels and group points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .halfint import HalfInt, _weights, lrange, mrange
from .kernels import _ANGLES, _finite


class BasisIndex(NamedTuple):
    """One weight vector (l, m; ldot, mdot) of a finite-dimensional carrier."""

    l: HalfInt
    m: HalfInt
    ldot: HalfInt
    mdot: HalfInt

    def __str__(self):
        return f"({self.l},{self.m};{self.ldot},{self.mdot})"


def enumerate_basis(l, ldot=0):
    """Weight basis of the (l, ldot) carrier.

    Ordered with m descending, then mdot descending, matching the row
    convention used by every operator builder in this package.
    """
    l, ldot = HalfInt(l), HalfInt(ldot)
    return [
        BasisIndex(l, m, ldot, md) for m in mrange(l) for md in mrange(ldot)
    ]


@dataclass(frozen=True)
class RepLabel:
    """The finite-dimensional Lorentz irrep with the spin pair (l1, l2).

    Its two-spinor carrier is `enumerate_basis(l1, l2)`.  In
    Gel'fand-Naimark's labels it is (l0, l1 + l2 + 1) with l0 = l2 - l1,
    signed: its towers are the spins |l0|, ..., l1 + l2 of `tower_spins`.
    """

    l1: HalfInt
    l2: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "l1", _weights(self.l1)[0])
        object.__setattr__(self, "l2", _weights(self.l2)[0])

    @property
    def dim(self):
        return (self.l1.twice + 1) * (self.l2.twice + 1)

    def basis(self):
        return enumerate_basis(self.l1, self.l2)

    def tower_spins(self):
        """The spin towers |l1 - l2|, ..., l1 + l2, ascending."""
        return lrange(abs(self.l1 - self.l2), self.l1 + self.l2)

    def tower_slices(self):
        """{l: slice} of each tower's rows: the one statement of the tower
        layout (`gn_ops`, `RepChain`), m descending within a tower."""
        out, start = {}, 0
        for l in self.tower_spins():
            out[l] = slice(start, start + l.twice + 1)
            start += l.twice + 1
        return out


class Labels(tuple):
    """The distinct labels of one matrix axis with their position map,
    checked and built once: ``Labels(x)`` is ``x`` when it already is one,
    so every matrix on a carrier shares the carrier's labels."""

    def __new__(cls, labels):
        if isinstance(labels, cls):
            return labels
        self = super().__new__(cls, labels)
        try:
            self.position = {lab: i for i, lab in enumerate(self)}
        except TypeError as exc:
            raise ValueError(f"labels must be hashable ({exc})") from None
        if len(self.position) != len(self):
            raise ValueError("duplicate labels")
        return self

    def positions(self, labels):
        """The positions of ``labels``; a label not among these, an
        unhashable one included, is a ValueError that names it."""
        out = []
        for lab in labels:
            try:
                out.append(self.position[lab])
            except (KeyError, TypeError):
                raise ValueError(f"label {lab} is not on this axis") from None
        return out


def _axes(row_labels, col_labels):
    """The (row, column) `Labels` of a matrix: one object for both when
    ``col_labels`` is None or ``row_labels`` itself."""
    rows = Labels(row_labels)
    if col_labels is None or col_labels is row_labels:
        return rows, rows
    return rows, Labels(col_labels)


class CMatrix:
    """A complex matrix whose axes carry `Labels`: one for both axes when
    it is square, its operands' for a result of the algebra.

    Products and comparisons are label-aware: matmul requires the inner
    label tuples to agree, and ``residual_vs`` aligns label order before
    subtracting, so differing storage conventions cannot silently
    misalign entries.
    """

    __slots__ = ("data", "row_labels", "col_labels")

    def __init__(self, data, row_labels, col_labels=None):
        self.row_labels, self.col_labels = _axes(row_labels, col_labels)
        self.data = np.asarray(data, dtype=complex)
        if self.data.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"data shape {self.data.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, row_labels, col_labels=None):
        rows, cols = _axes(row_labels, col_labels)
        return cls(np.zeros((len(rows), len(cols)), dtype=complex), rows, cols)

    @classmethod
    def identity(cls, labels):
        labels = Labels(labels)
        return cls(np.eye(len(labels), dtype=complex), labels)

    # -- lookups ----------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def at(self, row_label, col_label):
        """Entry addressed by labels (a missing one is a ValueError naming it)."""
        return complex(self.data[self.row_labels.positions([row_label])[0],
                                 self.col_labels.positions([col_label])[0]])

    def reindexed(self, row_labels, col_labels=None):
        """Same matrix with rows/columns permuted to the given label order."""
        rows, cols = _axes(row_labels, col_labels)
        if set(rows) != set(self.row_labels) or set(cols) != set(self.col_labels):
            raise ValueError("reindex labels must be a permutation of the current ones")
        perm = np.ix_(self.row_labels.positions(rows), self.col_labels.positions(cols))
        return CMatrix(self.data[perm], rows, cols)

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        other = self._aligned(other)
        return CMatrix(self.data + other.data, self.row_labels, self.col_labels)

    def __sub__(self, other):
        other = self._aligned(other)
        return CMatrix(self.data - other.data, self.row_labels, self.col_labels)

    def __neg__(self):
        return CMatrix(-self.data, self.row_labels, self.col_labels)

    def __mul__(self, scalar):
        return CMatrix(self.data * scalar, self.row_labels, self.col_labels)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, CMatrix):
            raise TypeError("matmul requires another CMatrix")
        if self.col_labels != other.row_labels:
            if set(self.col_labels) != set(other.row_labels):
                raise ValueError("matmul label mismatch")
            other = other.reindexed(self.col_labels, other.col_labels)
        return CMatrix(self.data @ other.data, self.row_labels, other.col_labels)

    def dagger(self):
        return CMatrix(self.data.conj().T, self.col_labels, self.row_labels)

    def commutator(self, other):
        return self @ other - other @ self

    def kron(self, other, combine=None):
        """Kronecker product; labels are combined pairwise (outer, inner),
        on one `Labels` for both axes when both factors are square."""
        if combine is None:
            combine = lambda a, b: (a, b)
        rows = [combine(a, b) for a in self.row_labels for b in other.row_labels]
        if self.row_labels is self.col_labels and other.row_labels is other.col_labels:
            cols = rows
        else:
            cols = [combine(a, b) for a in self.col_labels for b in other.col_labels]
        return CMatrix(np.kron(self.data, other.data), rows, cols)

    # -- metrics ----------------------------------------------------------
    def norm_inf(self):
        """Largest entry magnitude."""
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def residual_vs(self, other):
        """Max entry difference after aligning label order."""
        other = self._aligned(other)
        return float(np.max(np.abs(self.data - other.data))) if self.data.size else 0.0

    def _aligned(self, other):
        if not isinstance(other, CMatrix):
            raise TypeError("expected a CMatrix")
        if (
            self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
        ):
            return other
        return other.reindexed(self.row_labels, self.col_labels)

    def __repr__(self):
        return f"CMatrix({len(self.row_labels)}x{len(self.col_labels)})"


@dataclass(frozen=True)
class GroupPoint:
    """Six real coordinates of a group element.

    ``phi`` and ``eps`` are the phase/rapidity pair acting on the row
    side, ``psi`` and ``veps`` the pair acting on the column side, with
    ``theta`` (rotation) and ``tau`` (boost) in between.  The complex
    combinations phi - i*eps, theta - i*tau, psi - i*veps play the role
    of complexified angles.  Every coordinate must be finite.
    """

    phi: float = 0.0
    eps: float = 0.0
    theta: float = 0.0
    tau: float = 0.0
    psi: float = 0.0
    veps: float = 0.0

    def __post_init__(self):
        _finite(_ANGLES, *self.as_tuple())

    def as_tuple(self):
        return (self.phi, self.eps, self.theta, self.tau, self.psi, self.veps)
