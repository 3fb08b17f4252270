"""Representation matrix elements mixing a rotation and a boost angle.

Z^l_mn(theta, tau) is a sum over an internal label k of a rotation
factor times a boost factor.  Two routes evaluate it, and they share no
coefficient, normalization or reflection code, so each checks the other:

- the series route sums the direct double series, with log-factorial
  prefactors and a float coefficient recurrence (``z_series_grid``);
- the factorized route sums outer products of the exact-norm rotation
  and boost tabulators of ``su2`` (``z_grid``).

Each route has one evaluator; ``z_series`` and ``z_factorized`` are the
one-point views of the two tables.  On top sit the phase-dressed matrix
elements, the representation matrices, and the 2x2 closed form with its
six-factor product.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .core import BasisIndex, CMatrix, GroupPoint, enumerate_basis
from .halfint import HalfInt, mrange
from .kernels import _horner, ipow, ln_factorial
from .su2 import _finite, _jac_vec, _sph_vec, _weights

_MEMO = 4096  # entries per memoized table, keyed by twice-int labels


@functools.lru_cache(maxsize=_MEMO)
def _ln_pref(tl, ta, tb):
    """log of sqrt((l+a)!(l-b)!/((l-a)!(l+b)!)) / (a-b)! for a >= b (twice-ints)."""
    return 0.5 * (
        ln_factorial((tl + ta) // 2)
        + ln_factorial((tl - tb) // 2)
        - ln_factorial((tl - ta) // 2)
        - ln_factorial((tl + tb) // 2)
    ) - ln_factorial((ta - tb) // 2)


@functools.lru_cache(maxsize=_MEMO)
def _gauss_float_coeffs(tl, ta, tb):
    """Ascending float coefficients of 2F1(a-l, -l-b; a-b+1; .), a >= b.

    The series stops at degree min(l-a, l+b), where a numerator
    parameter reaches zero.
    """
    fa, fb = (ta - tl) / 2, (-tl - tb) / 2
    d = (ta - tb) // 2
    out = [1.0]
    for t in range(min(tl - ta, tl + tb) // 2):
        out.append(out[-1] * (fa + t) * (fb + t) / ((d + 1 + t) * (t + 1)))
    out = np.array(out)
    out.flags.writeable = False
    return out


def _series_table(tl, tm, tn, thetas, taus):
    """Z^l_mn on a theta x tau table by the direct sum (twice-int labels).

    Each internal label k adds the outer product of a rotation and a
    boost factor, each a log-factorial prefactor times a terminating
    Gauss series.  The rotation factor is cos^(2l-d) sin^d (theta/2)
    times the series in -tan^2(theta/2) while |tan(theta/2)| <= 1, and
    past that the reversed series in -cot^2(theta/2) with the powers
    traded accordingly, so every power stays bounded up to theta = pi.
    """
    thetas = np.asarray(thetas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    ct, st = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    inner = np.abs(st) <= np.abs(ct)
    big, small = np.where(inner, ct, st), np.where(inner, st, ct)
    y = -((small / big) ** 2)
    ch, th = np.cosh(0.5 * taus), np.tanh(0.5 * taus)
    out = np.zeros((thetas.size, taus.size), dtype=complex)
    for tk in range(tl, -tl - 1, -2):
        ta, tb = max(tm, tk), min(tm, tk)
        d = (ta - tb) // 2
        coeffs = _gauss_float_coeffs(tl, ta, tb)
        top = coeffs.size - 1
        poly = _horner(np.where(inner, coeffs[:, None], coeffs[::-1, None]), y)
        power = np.where(
            inner,
            big ** (tl - d) * small**d,
            (-1) ** top * small ** (tl - d - 2 * top) * big ** (d + 2 * top),
        )
        rot = ipow(d) * math.exp(_ln_pref(tl, ta, tb)) * power * poly
        ta, tb = max(tk, tn), min(tk, tn)
        d = (ta - tb) // 2
        poly = _horner(_gauss_float_coeffs(tl, ta, tb), th * th)
        boost = math.exp(_ln_pref(tl, ta, tb)) * ch**tl * th**d * poly
        out += np.outer(rot, boost)
    return out


def z_series(l, m, n, theta, tau):
    """Z^l_mn at one point by the series route: the one-point view of
    ``z_series_grid``."""
    l, m, n = _weights(l, m, n)
    _finite(theta, tau)
    return complex(_series_table(l.twice, m.twice, n.twice, [theta], [tau])[0, 0])


def z_series_grid(l, m, n, thetas, taus):
    """Z^l_mn tabulated on a theta x tau grid by the direct double sum.

    Returns an array of shape (len(thetas), len(taus)); each internal
    label contributes an outer product, so grid cost stays linear in the
    edges.
    """
    l, m, n = _weights(l, m, n)
    _finite(thetas, taus)
    return _series_table(l.twice, m.twice, n.twice, thetas, taus)


def z_factorized(l, m, n, theta, tau):
    """Z^l_mn at one point by the factorized route: the one-point view of
    ``z_grid``, which validates the labels."""
    return complex(z_grid(l, m, n, [theta], [tau])[0, 0])


def z_grid(l, m, n, thetas, taus):
    """Z^l_mn tabulated on a theta x tau grid by the factorized route.

    Returns an array of shape (len(thetas), len(taus)); each internal
    label contributes an outer product of one rotation-axis and one
    boost-axis tabulation, so the cost is linear in the grid edges.
    """
    l, m, n = _weights(l, m, n)
    _finite(thetas, taus)
    tl, tm, tn = l.twice, m.twice, n.twice
    return sum(
        np.outer(_sph_vec(tl, tm, tk, thetas), _jac_vec(tl, tk, tn, taus))
        for tk in range(tl, -tl - 1, -2)
    )


def z_matrix(l, theta, tau):
    """The full [Z^l_mn] matrix, rows/columns labeled m descending.

    The product of the rotation matrix [sph_p(l, m, k)] and the boost
    matrix [jac_p(l, k, n)], filled from the tabulators on twice-int
    labels once ``l`` is validated.
    """
    (l,) = _weights(l)
    _finite(theta, tau)
    ms = mrange(l)
    tl, ts = l.twice, [m.twice for m in ms]
    rot = np.array([[_sph_vec(tl, tm, tk, [theta])[0] for tk in ts] for tm in ts])
    boost = np.array([[_jac_vec(tl, tk, tn, [tau])[0] for tn in ts] for tk in ts])
    return CMatrix(rot @ boost, ms, ms)


def m_function(l, m, n, g: GroupPoint):
    """Phase-dressed matrix element of the six-parameter group element."""
    l, m, n = HalfInt(l), HalfInt(m), HalfInt(n)
    left = cmath.exp(-float(m) * (g.eps + 1j * g.phi))
    right = cmath.exp(-float(n) * (g.veps + 1j * g.psi))
    return left * z_factorized(l, m, n, g.theta, g.tau) * right


def m_matrix(l, g: GroupPoint):
    """Full representation matrix at spin l, rows labeled m descending."""
    l = HalfInt(l)
    ms = mrange(l)
    zc = z_matrix(l, g.theta, g.tau)
    left = np.array([cmath.exp(-float(m) * (g.eps + 1j * g.phi)) for m in ms])
    right = np.array([cmath.exp(-float(n) * (g.veps + 1j * g.psi)) for n in ms])
    return CMatrix(left[:, None] * zc.data * right[None, :], ms, ms)


_HALF_UP = HalfInt.from_twice(1)
_HALF_DOWN = HalfInt.from_twice(-1)
_ASCENDING = (_HALF_DOWN, _HALF_UP)


def fundamental_matrix(g: GroupPoint):
    """The 2x2 group element in closed form.

    Rows and columns are labeled by projection ascending (-1/2 first),
    the convention in which the closed form is usually displayed; all
    comparisons against descending-labeled matrices go through label
    alignment.
    """
    theta_c = complex(g.theta, -g.tau)
    c, s = cmath.cos(0.5 * theta_c), cmath.sin(0.5 * theta_c)
    core = np.array([[c, 1j * s], [1j * s, c]])
    phi_c = complex(g.phi, -g.eps)
    psi_c = complex(g.psi, -g.veps)
    left = np.array(
        [cmath.exp(-1j * float(m) * phi_c) for m in _ASCENDING]
    )
    right = np.array(
        [cmath.exp(-1j * float(n) * psi_c) for n in _ASCENDING]
    )
    return CMatrix(left[:, None] * core * right[None, :], _ASCENDING, _ASCENDING)


def euler_product(g: GroupPoint):
    """Same 2x2 element as a product of six one-parameter factors."""

    def diag(a, b):
        return np.array([[a, 0], [0, b]], dtype=complex)

    rot = np.array(
        [
            [math.cos(0.5 * g.theta), 1j * math.sin(0.5 * g.theta)],
            [1j * math.sin(0.5 * g.theta), math.cos(0.5 * g.theta)],
        ]
    )
    boost = np.array(
        [
            [math.cosh(0.5 * g.tau), math.sinh(0.5 * g.tau)],
            [math.sinh(0.5 * g.tau), math.cosh(0.5 * g.tau)],
        ]
    )
    out = (
        diag(cmath.exp(0.5j * g.phi), cmath.exp(-0.5j * g.phi))
        @ diag(math.exp(0.5 * g.eps), math.exp(-0.5 * g.eps))
        @ rot
        @ boost
        @ diag(cmath.exp(0.5j * g.psi), cmath.exp(-0.5j * g.psi))
        @ diag(math.exp(0.5 * g.veps), math.exp(-0.5 * g.veps))
    )
    return CMatrix(out, _ASCENDING, _ASCENDING)


def rep_matrix(l, ldot, g: GroupPoint):
    """Representation matrix on the (l, ldot) carrier.

    Kronecker product of the spin-l matrix with the entrywise conjugate
    of the spin-ldot matrix, labeled by the standard weight basis.
    """
    l, ldot = HalfInt(l), HalfInt(ldot)
    left = m_matrix(l, g)
    right = m_matrix(ldot, g)
    right = CMatrix(right.data.conj(), right.row_labels, right.col_labels)
    combined = left.kron(
        right, combine=lambda a, b: BasisIndex(l, a, ldot, b)
    )
    want = enumerate_basis(l, ldot)
    return combined.reindexed(want, want)
