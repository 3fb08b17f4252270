"""Representation matrix elements mixing a rotation and a boost angle.

Z^l_mn(theta, tau) is a sum over an internal label k of a rotation
factor times a boost factor.  Two routes evaluate it, and they share no
coefficient, normalization or reflection code, so each checks the other:

- the series route sums the direct double series, with log-factorial
  prefactors and a float coefficient recurrence (``_series_table``);
- the factorized route sums outer products of the exact-norm rotation
  and boost tabulators of ``su2`` (``_factorized_table``).

Each route has one evaluator, over sets of labels: it tabulates every
(m, n) of a spin on a theta x tau grid as an (m, n, theta, tau) table,
each label's factors once per angle block.  ``z_series_grid`` and
``z_grid`` are its one-label views, and ``z_series`` and
``z_factorized`` its one-point views.  Both routes hand their factors to
one blocked k-sum (``_ksum_table``), which adds in k order and knows no
coefficient.  On top sit the phase-dressed matrix elements, the
representation matrices, and the 2x2 closed form with its six-factor
product, each refusing a point whose value overflows a float.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .core import BasisIndex, CMatrix, GroupPoint
from .halfint import HalfInt, _weights, mrange
from .kernels import (_ANGLES, _Memo, _column, _finite, _horner, _ksum,
                      _powers, _spin_cap, _squares, _stack, ipow, ln_factorial)
from .su2 import _jac_vec, _sph_vec

_CELLS = 1 << 14  # cells per block: labels x angles, and labels x thetas x taus


def _ln_pref(tl, ta, tb):
    """log of sqrt((l+a)!(l-b)!/((l-a)!(l+b)!)) / (a-b)! for a >= b (twice-ints)."""
    return 0.5 * (
        ln_factorial((tl + ta) // 2)
        + ln_factorial((tl - tb) // 2)
        - ln_factorial((tl - ta) // 2)
        - ln_factorial((tl + tb) // 2)
    ) - ln_factorial((ta - tb) // 2)


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
    return out


class _SeriesBlock(NamedTuple):
    """The rows k = l, l-1, ..., -l that pair with one label x, each pair
    ordered a >= b; ``prefs``, ``scales`` and ``signs`` are (2l+1, 1)
    columns, ``powers`` holds four of them and ``squares`` their rows
    equal to 2."""

    forward: np.ndarray  # stacked ascending coefficients, see kernels._stack
    backward: np.ndarray  # each row's series reversed, stacked alike
    prefs: np.ndarray  # exp(_ln_pref) of each pair
    scales: np.ndarray  # i^(a-b) exp(_ln_pref), the rotation's prefactor
    signs: np.ndarray  # (-1)^degree, the sign of the reversed series
    powers: np.ndarray  # exponents of cos and sin, inner then outer
    squares: tuple  # kernels._squares of each column of ``powers``


@_Memo
def _series_block(tl, tx):
    """The float-recurrence block of label x at spin l (twice-ints).

    The rotation reads it with x = m and the boost with x = n.
    """
    _spin_cap(tl)
    pairs = [(max(tx, tk), min(tx, tk)) for tk in range(tl, -tl - 1, -2)]
    series = [_gauss_float_coeffs(tl, ta, tb) for ta, tb in pairs]
    forward = _stack(series)
    backward = _stack([c[::-1] for c in series])
    prefs = [math.exp(_ln_pref(tl, ta, tb)) for ta, tb in pairs]
    dists = [(ta - tb) // 2 for ta, tb in pairs]
    tops = [len(c) - 1 for c in series]
    powers = _column([[tl - d for d in dists], dists,
                      [tl - d - 2 * top for d, top in zip(dists, tops)],
                      [d + 2 * top for d, top in zip(dists, tops)]])
    return _SeriesBlock(forward, backward, _column(prefs),
                        _column([ipow(d) * p for d, p in zip(dists, prefs)]),
                        _column([(-1.0) ** top for top in tops]), powers,
                        tuple(map(_squares, powers)))


def _series_rotation(tl, tm, thetas):
    """The rotation factors (m, k) of the series route, rows k, columns
    theta; labels as twice-ints.

    cos^(2l-d) sin^d (theta/2) times the series in -tan^2(theta/2) while
    |tan(theta/2)| <= 1, and past that the reversed series in
    -cot^2(theta/2) with the powers traded accordingly, so every power
    stays bounded up to theta = pi.
    """
    block = _series_block(tl, tm)
    half = 0.5 * thetas
    ct, st = np.cos(half), np.sin(half)
    inner = np.abs(st) <= np.abs(ct)
    count = np.count_nonzero(inner)
    cos_in, sin_in, cos_out, sin_out = zip(block.powers, block.squares)
    if count == thetas.size:
        poly = _horner(block.forward, -((st / ct) ** 2))
        power = _powers(ct, *cos_in) * _powers(st, *sin_in)
    elif not count:
        poly = _horner(block.backward, -((ct / st) ** 2))
        power = block.signs * _powers(ct, *cos_out) * _powers(st, *sin_out)
    else:
        out = np.empty((tl + 1, thetas.size), dtype=complex)
        for cells in (inner, ~inner):
            out[:, cells] = _series_rotation(tl, tm, thetas[cells])
        return out
    return block.scales * power * poly


def _series_boost(tl, tn, taus):
    """The boost factors (k, n) of the series route, rows k, columns tau;
    labels as twice-ints."""
    block = _series_block(tl, tn)
    ch, th = np.cosh(0.5 * taus), np.tanh(0.5 * taus)
    poly = _horner(block.forward, th * th)
    return block.prefs * ch**tl * _powers(th, block.powers[1], block.squares[1]) * poly


def _angle_blocks(size, width):
    """Slices of an angle axis for blocks of about _CELLS cells, where each
    angle takes ``width`` cells."""
    step = max(1, _CELLS // width)
    if 0 < size <= step:
        return (slice(0, size),)
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _ksum_table(rotation, boost, tl, tms, tns, thetas, taus):
    """The (m, n, theta, tau) table of sum_k rotation(tl, m, thetas)[k]
    boost(tl, n, taus)[k] over the twice-int labels ``tms`` and ``tns``,
    for tabulators of all 2l+1 labels k on 1-D float angles.

    Each label's tabulation runs once per angle block, whose cells count
    every label's k x angles, and serves every cell of its row or column;
    ``_ksum`` adds each (m, n) cell in k order (a matmul would reorder the
    sum), on blocks of k x thetas x taus products.
    """
    thetas = np.asarray(thetas, dtype=float).ravel()
    taus = np.asarray(taus, dtype=float).ravel()
    _finite(_ANGLES, thetas, taus)
    rows = tl + 1
    out = np.empty((len(tms), len(tns), thetas.size, taus.size), dtype=complex)
    for cols in _angle_blocks(taus.size, rows * len(tns)):
        boosts = [boost(tl, tn, taus[cols]) for tn in tns]
        for cells in _angle_blocks(thetas.size, rows * len(tms)):
            for row, tm in enumerate(tms):
                rot = rotation(tl, tm, thetas[cells])
                blocks = _angle_blocks(rot.shape[1], rows * boosts[0].shape[1])
                for col, factors in enumerate(boosts):
                    part = out[row, col, cells, cols]
                    for sums in blocks:
                        part[sums] = _ksum(rot[:, sums], factors)
    return out


def _series_table(tl, tms, tns, thetas, taus):
    """Z^l_mn by the direct sum on an (m, n, theta, tau) table (twice-int
    labels).

    Each internal label k adds the outer product of a rotation and a
    boost factor, each a log-factorial prefactor times a terminating
    Gauss series, tabulated for all k at once.
    """
    return _ksum_table(_series_rotation, _series_boost, tl, tms, tns, thetas, taus)


def _factorized_table(tl, tms, tns, thetas, taus):
    """Z^l_mn by the factorized route on an (m, n, theta, tau) table
    (twice-int labels): the exact-norm rotation and boost tabulators of
    ``su2``, each giving all k at once."""
    return _ksum_table(_sph_vec, _jac_vec, tl, tms, tns, thetas, taus)


def z_series(l, m, n, theta, tau):
    """Z^l_mn at one point by the series route: the one-point view of
    ``z_series_grid``."""
    l, m, n = _weights(l, m, n)
    table = _series_table(l.twice, [m.twice], [n.twice], [theta], [tau])
    return complex(table[0, 0, 0, 0])


def z_series_grid(l, m, n, thetas, taus):
    """Z^l_mn tabulated on a theta x tau grid by the direct double sum: the
    one-label view of the series route's table.

    Returns an array of shape (len(thetas), len(taus)); each internal
    label contributes an outer product, so grid cost stays linear in the
    edges.
    """
    l, m, n = _weights(l, m, n)
    return _series_table(l.twice, [m.twice], [n.twice], thetas, taus)[0, 0]


def z_factorized(l, m, n, theta, tau):
    """Z^l_mn at one point by the factorized route: the one-point view of
    ``z_grid``."""
    l, m, n = _weights(l, m, n)
    table = _factorized_table(l.twice, [m.twice], [n.twice], [theta], [tau])
    return complex(table[0, 0, 0, 0])


def z_grid(l, m, n, thetas, taus):
    """Z^l_mn tabulated on a theta x tau grid by the factorized route: the
    one-label view of its table.

    Returns an array of shape (len(thetas), len(taus)); each internal
    label contributes an outer product of one rotation-axis and one
    boost-axis tabulation, so the cost is linear in the grid edges.  The
    tabulators of ``su2`` give all labels at once, block by block along
    the angle axes.
    """
    l, m, n = _weights(l, m, n)
    return _factorized_table(l.twice, [m.twice], [n.twice], thetas, taus)[0, 0]


def z_matrix(l, theta, tau):
    """The full [Z^l_mn] matrix, rows/columns labeled m descending.

    The product of the rotation matrix [sph_p(l, m, k)] and the boost
    matrix [jac_p(l, k, n)], filled row by row from the tabulators on
    twice-int labels once ``l`` is validated; the boost factor is
    symmetric, so its row k is the tabulation of label k.
    """
    (l,) = _weights(l)
    _finite(_ANGLES, theta, tau)
    ms = mrange(l)
    tl, ts = l.twice, [m.twice for m in ms]
    rot = np.array([_sph_vec(tl, tm, [theta])[:, 0] for tm in ts])
    boost = np.array([_jac_vec(tl, tk, [tau])[:, 0] for tk in ts])
    return CMatrix(rot @ boost, ms, ms)


def _finite_element(build):
    """``build(..., g)`` for a matrix element or matrix of the group element
    ``g`` (the last argument of every wrapped builder) whose entries must
    fit a float: an entry past the float range (an OverflowError from
    cmath or math, or an inf or NaN from the numpy products) is a
    ValueError naming the overflow, with no numpy warning."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = build(*args, **kwargs)
        except OverflowError:
            out = None
        if out is None or not np.isfinite(getattr(out, "data", out)).all():
            g = kwargs["g"] if "g" in kwargs else args[-1]
            raise ValueError(
                f"{build.__name__}: an entry of the element at {g} "
                "overflows a float")
        return out

    return checked


@_finite_element
def m_function(l, m, n, g: GroupPoint):
    """Phase-dressed matrix element of the six-parameter group element."""
    l, m, n = HalfInt(l), HalfInt(m), HalfInt(n)
    left = cmath.exp(-float(m) * (g.eps + 1j * g.phi))
    right = cmath.exp(-float(n) * (g.veps + 1j * g.psi))
    return left * z_factorized(l, m, n, g.theta, g.tau) * right


@_finite_element
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


@_finite_element
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


@_finite_element
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


@_finite_element
def rep_matrix(l, ldot, g: GroupPoint):
    """Representation matrix on the (l, ldot) carrier.

    Kronecker product of the spin-l matrix with the entrywise conjugate
    of the spin-ldot matrix, labeled by the standard weight basis.
    """
    l, ldot = HalfInt(l), HalfInt(ldot)
    left = m_matrix(l, g)
    right = m_matrix(ldot, g)
    right = CMatrix(right.data.conj(), right.row_labels, right.col_labels)
    # Outer m, inner mdot, both descending: the order of `enumerate_basis`.
    return left.kron(right, combine=lambda a, b: BasisIndex(l, a, ldot, b))
