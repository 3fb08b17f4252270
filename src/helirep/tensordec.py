"""Tensor-product decomposition machinery.

Product representations labeled by a spin pair decompose into a
rectangle of coupled pairs; this module enumerates that series, builds
the coupled basis vectors with factorized coupling coefficients, and
provides the symmetric-space helpers: the antidiagonal bilinear form
and the one-row symmetrizer on m two-dimensional factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CMatrix, RepLabel
from .generators import _LADDER_KINDS, waerden_ops
from .halfint import HalfInt, _weights, half, lrange
from .kernels import _int_arg
from .su2 import cg_su2


def cg_series(a: RepLabel, b: RepLabel):
    """Coupled labels appearing in the product of two carriers.

    Each first-slot spin k between |a.l1 - b.l1| and a.l1 + b.l1 pairs
    with each second-slot spin k' in the analogous range, every
    combination exactly once.
    """
    return [
        RepLabel(k, kp)
        for k in lrange(abs(a.l1 - b.l1), a.l1 + b.l1)
        for kp in lrange(abs(a.l2 - b.l2), a.l2 + b.l2)
    ]


@dataclass(frozen=True)
class CoupledVector:
    """One coupled basis vector inside a product carrier.

    ``amplitudes`` maps product-basis label pairs (u, v) to real
    coefficients; only pairs whose slot projections add up to (m, mp)
    appear.
    """

    l: HalfInt
    lp: HalfInt
    m: HalfInt
    mp: HalfInt
    amplitudes: dict

    def vector(self, pair_order):
        """Dense coefficient vector in the given product-basis order."""
        return np.array(
            [self.amplitudes.get(p, 0.0) for p in pair_order], dtype=complex
        )

    def norm(self):
        return math.sqrt(sum(v * v for v in self.amplitudes.values()))


def product_basis(a: RepLabel, b: RepLabel):
    """Pairs (u, v) of the two carriers' weight vectors, in kron order."""
    return [(u, v) for u in a.basis() for v in b.basis()]


def coupled_vector(a: RepLabel, b: RepLabel, l, lp, m, mp):
    """Coupled vector with total labels (l, lp) and projections (m, mp).

    Amplitudes factorize into a first-slot coupling of (u.m, v.m) to m
    and a second-slot coupling of (u.mdot, v.mdot) to mp.
    """
    l, m = _weights(l, m)
    lp, mp = _weights(lp, mp)
    if RepLabel(l, lp) not in cg_series(a, b):
        raise ValueError(
            f"target ({l},{lp}) does not appear in the product series"
        )
    amps = {}
    for u, v in product_basis(a, b):
        if u.m + v.m != m or u.mdot + v.mdot != mp:
            continue
        c = cg_su2(a.l1, b.l1, l, u.m, v.m, m) * cg_su2(
            a.l2, b.l2, lp, u.mdot, v.mdot, mp
        )
        if c != 0.0:
            amps[(u, v)] = c
    return CoupledVector(l, lp, m, mp, amps)


def total_operator(kind, a: RepLabel, b: RepLabel):
    """Ladder operator ``kind`` (X+, X-, X3, Y+, Y-, Y3) acting
    simultaneously on both product factors."""
    if kind not in _LADDER_KINDS:
        raise ValueError(f"unknown ladder operator kind {kind!r}")
    op_a = waerden_ops(a.l1, a.l2)[kind]
    op_b = waerden_ops(b.l1, b.l2)[kind]
    ident_a = CMatrix.identity(a.basis())
    ident_b = CMatrix.identity(b.basis())
    return op_a.kron(ident_b) + ident_a.kron(op_b)


def bilinear_form(k, r, lam):
    """Antidiagonal bilinear-form matrix of the equivalence map.

    Entry (i, n-1-i) is lam * (-1)^(i+1) with n = (r+k)/2 + 1; the
    alternation makes the matrix symmetric when (r+k)/2 is even and
    skew-symmetric when it is odd.
    """
    k, r = _int_arg("k", k, 0), _int_arg("r", r, 0)
    if (k + r) % 2:
        raise ValueError(f"k + r must be even, got {k} + {r}")
    n = (k + r) // 2 + 1
    data = np.zeros((n, n), dtype=complex)
    for i in range(n):
        data[i, n - 1 - i] = lam * (-1.0) ** (i + 1)
    labels = list(range(n))
    return CMatrix(data, labels, labels)


_SYMMETRIZER_CAP = 10


def _binary_basis(m):
    """Labels of (C^2)^tensor-m in kron order: tuples of ±1/2."""
    return list(itertools.product((half(1), half(-1)), repeat=m))


def _transposition_matrix(m, i, j):
    """Permutation matrix swapping tensor factors i and j (0-based): the
    identity's columns, read as m binary axes, with axes i and j swapped."""
    dim = 2 ** m
    cube = np.eye(dim).reshape((2,) * m + (dim,))
    return np.swapaxes(cube, i, j).reshape(dim, dim)


def symmetrizer_one_row(m):
    """Projector onto the fully symmetric part of (C^2)^tensor-m.

    Equals the average of all m! factor permutations; built by the
    partial-average recursion S_j = (S_{j-1} x 1) (1 + sum_k T_{k,j})/j
    so the cost stays polynomial.  Idempotent with rank m + 1.
    """
    m = _int_arg("m", m, 1, _SYMMETRIZER_CAP)
    proj = np.eye(2)
    for j in range(2, m + 1):
        proj = np.kron(proj, np.eye(2))
        step = np.eye(2 ** j)
        for kfac in range(j - 1):
            step = step + _transposition_matrix(j, kfac, j - 1)
        proj = proj @ (step / j)
    labels = _binary_basis(m)
    return CMatrix(proj, labels, labels)
