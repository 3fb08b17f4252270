"""Labeled matrices, weight bases, and group parameter tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .halfint import HalfInt, mrange
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


class CMatrix:
    """A complex matrix with hashable row/column labels.

    Products and comparisons are label-aware: matmul requires the inner
    label tuples to agree, and ``residual_vs`` aligns label order before
    subtracting, so differing storage conventions cannot silently
    misalign entries.
    """

    __slots__ = ("data", "row_labels", "col_labels", "_rindex", "_cindex")

    def __init__(self, data, row_labels, col_labels=None):
        if col_labels is None:
            col_labels = row_labels
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        self._set_data(data)
        self._rindex = {lab: i for i, lab in enumerate(self.row_labels)}
        self._cindex = {lab: i for i, lab in enumerate(self.col_labels)}
        if len(self._rindex) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(self._cindex) != len(self.col_labels):
            raise ValueError("duplicate column labels")

    def _set_data(self, data):
        self.data = np.asarray(data, dtype=complex)
        if self.data.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"data shape {self.data.shape} does not match labels "
                f"({len(self.row_labels)}, {len(self.col_labels)})"
            )

    def _with_data(self, data, labels=None):
        """A CMatrix holding ``data`` under labels that were already checked.

        ``labels`` is (row_labels, col_labels, row_index, col_index) of
        validated operands and defaults to this matrix's own.  The tuples
        and index maps are shared, not rebuilt; only the shape is checked.
        """
        if labels is None:
            labels = (self.row_labels, self.col_labels, self._rindex, self._cindex)
        out = object.__new__(CMatrix)
        out.row_labels, out.col_labels, out._rindex, out._cindex = labels
        out._set_data(data)
        return out

    # -- constructors -----------------------------------------------------
    @classmethod
    def zeros(cls, row_labels, col_labels=None):
        row_labels = tuple(row_labels)
        col_labels = row_labels if col_labels is None else tuple(col_labels)
        return cls(
            np.zeros((len(row_labels), len(col_labels)), dtype=complex),
            row_labels,
            col_labels,
        )

    @classmethod
    def identity(cls, labels):
        labels = tuple(labels)
        return cls(np.eye(len(labels), dtype=complex), labels, labels)

    # -- lookups ----------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def at(self, row_label, col_label):
        """Entry addressed by labels."""
        return complex(self.data[self._rindex[row_label], self._cindex[col_label]])

    def reindexed(self, row_labels, col_labels=None):
        """Same matrix with rows/columns permuted to the given label order."""
        row_labels = tuple(row_labels)
        col_labels = row_labels if col_labels is None else tuple(col_labels)
        if set(row_labels) != set(self.row_labels) or set(col_labels) != set(
            self.col_labels
        ):
            raise ValueError("reindex labels must be a permutation of the current ones")
        rperm = [self._rindex[lab] for lab in row_labels]
        cperm = [self._cindex[lab] for lab in col_labels]
        return CMatrix(self.data[np.ix_(rperm, cperm)], row_labels, col_labels)

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        other = self._aligned(other)
        return self._with_data(self.data + other.data)

    def __sub__(self, other):
        other = self._aligned(other)
        return self._with_data(self.data - other.data)

    def __neg__(self):
        return self._with_data(-self.data)

    def __mul__(self, scalar):
        return self._with_data(self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, CMatrix):
            raise TypeError("matmul requires another CMatrix")
        if self.col_labels != other.row_labels:
            if set(self.col_labels) != set(other.row_labels):
                raise ValueError("matmul label mismatch")
            other = other.reindexed(self.col_labels, other.col_labels)
        return self._with_data(
            self.data @ other.data,
            (self.row_labels, other.col_labels, self._rindex, other._cindex),
        )

    def dagger(self):
        return self._with_data(
            self.data.conj().T,
            (self.col_labels, self.row_labels, self._cindex, self._rindex),
        )

    def commutator(self, other):
        return self @ other - other @ self

    def kron(self, other, combine=None):
        """Kronecker product; labels are combined pairwise (outer, inner)."""
        if combine is None:
            combine = lambda a, b: (a, b)
        rows = [combine(a, b) for a in self.row_labels for b in other.row_labels]
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
