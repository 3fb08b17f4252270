"""Matrix elements of rotations and boosts for one spin label, and
Clebsch-Gordan coefficients in two independent forms."""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial as fact
from typing import NamedTuple

import numpy as np

from .halfint import HalfInt, _weights
from .kernels import (
    _ANGLES,
    _Memo,
    _column,
    _finite,
    _horner,
    _powers,
    _spin_cap,
    _squares,
    _stack,
    ipow,
    ln_factorial,
    terminating_series,
)


def _series_coeffs(tl, ta, tb):
    """Coefficients of 2F1(a-l, -l-b; a-b+1; x), ascending, for a >= b.

    Labels come as twice-ints.  The recurrence runs on an exact int
    numerator and denominator; each coefficient is rounded to a float
    once, by int true division, which rounds correctly as float(Fraction)
    does.
    """
    d = (ta - tb) // 2
    num, den = 1, 1
    out = [1.0]
    for t in range((tl - ta) // 2):
        num *= (ta - tl + 2 * t) * (-tl - tb + 2 * t)
        den *= 4 * (d + 1 + t) * (t + 1)
        out.append(num / den)
    return out


def _pair_norm(tl, ta, tb):
    """1/(a-b)! * sqrt((l+a)!(l-b)! / ((l-a)!(l+b)!)) for a >= b (twice-ints).

    A ratio or divisor past 2^1000 is scaled into float range by an exact
    power of 4 (ratio) or 2 (divisor), undone by ldexp; powers of two
    scale exactly, so a result that fits a float unscaled is unchanged.
    """
    num = fact((tl + ta) // 2) * fact((tl - tb) // 2)
    den = fact((tl - ta) // 2) * fact((tl + tb) // 2)
    div = fact((ta - tb) // 2)
    s = (max(0, num.bit_length() - den.bit_length() - 1000) + 1) // 2
    t = max(0, div.bit_length() - 1000)
    root = math.sqrt(Fraction(num, den << 2 * s))
    return math.ldexp(root / (div / (1 << t)), s - t)


class _Block(NamedTuple):
    """The rows k = l, l-1, ..., -l that pair with one label x, each pair
    ordered a >= b; the last four fields are (2l+1, 1) columns."""

    coeffs: np.ndarray  # stacked ascending coefficients, see kernels._stack
    squares: np.ndarray  # the rows whose t-exponent is 2, see kernels._squares
    norms: np.ndarray  # _pair_norm of each pair
    powers: np.ndarray  # the t-exponent a - b
    phases: np.ndarray  # the helicity phase i^(a-b)
    mirrors: np.ndarray  # i^(2l-x-k), the factor of the reflection


@_Memo
def _label_block(tl, tx):
    """The exact-coefficient block of label x at spin l (twice-ints).

    The rotation reads it with x = m and the boost with x = n: the boost
    factor is symmetric in (k, n).
    """
    _spin_cap(tl)
    ks = range(tl, -tl - 1, -2)
    pairs = [(max(tx, tk), min(tx, tk)) for tk in ks]
    dists = [(ta - tb) // 2 for ta, tb in pairs]
    powers = _column(dists)
    return _Block(
        _stack([_series_coeffs(tl, ta, tb) for ta, tb in pairs]),
        _squares(powers),
        _column([_pair_norm(tl, ta, tb) for ta, tb in pairs]),
        powers,
        _column([ipow(d) for d in dists]),
        _column([ipow(tl - tx - tk) for tk in ks]),
    )


def _structure(tl, block, c, t, sign):
    """c^{2l} t^{a-b} 2F1(a-l, -l-b; a-b+1; sign t^2) for every row of a
    label block: a (2l+1, len(t)) array."""
    poly = _horner(block.coeffs, sign * t * t)
    return block.norms * c**tl * _powers(t, block.powers, block.squares) * poly


def _row(tl, tk):
    """The row of label k (twice-ints) in a label block or tabulation."""
    return (tl - tk) // 2


def _sph_vec(tl, tm, thetas):
    """The rotation factors (m, k) for every k = l, ..., -l (rows) on a
    1-D array of angles (columns); labels as twice-ints.

    Past the equator (cos theta < 0) it reflects theta -> pi - theta
    through an exact index identity that reverses the rows, keeping the
    series argument -tan^2(theta/2) inside the unit disk.
    """
    thetas = np.asarray(thetas, dtype=float)
    block = _label_block(tl, tm)
    direct = np.cos(thetas) >= 0.0
    count = np.count_nonzero(direct)
    if count == thetas.size:
        half = 0.5 * thetas
        return block.phases * _structure(tl, block, np.cos(half), np.tan(half), -1.0)
    if not count:
        return block.mirrors * _sph_vec(tl, tm, math.pi - thetas)[::-1]
    out = np.empty((tl + 1, thetas.size), dtype=complex)
    for cells in (direct, ~direct):
        out[:, cells] = _sph_vec(tl, tm, thetas[cells])
    return out


def _jac_vec(tl, tn, taus):
    """The boost factors (k, n) for every k = l, ..., -l (rows) on a 1-D
    array of rapidities (columns); labels as twice-ints.

    Every series term is positive, so it is stable for all tau.
    """
    half = 0.5 * np.asarray(taus, dtype=float)
    block = _label_block(tl, tn)
    return _structure(tl, block, np.cosh(half), np.tanh(half), 1.0)


def sph_p(l, m, n, theta):
    """Rotation matrix element carrying the helicity phase i^{m-n}.

    Symmetric under m <-> n (phase included); the one-point view of the
    rotation tabulator, which reflects angles past the equator.
    """
    tl, tm, tn = (x.twice for x in _weights(l, m, n))
    _finite(_ANGLES, theta)
    return complex(_sph_vec(tl, tm, [theta])[_row(tl, tn), 0])


def jac_p(l, m, n, tau):
    """Boost matrix element; real, and symmetric under m <-> n."""
    tl, tm, tn = (x.twice for x in _weights(l, m, n))
    _finite(_ANGLES, tau)
    return float(_jac_vec(tl, tn, [tau])[_row(tl, tm), 0])


def wigner_d(l, m, n, theta):
    """Standard real rotation element d^l_{mn}: the real part of ``sph_p``
    without its helicity phase i^{m-n} (a unit, so the bits stay)."""
    value = sph_p(l, m, n, theta)
    return float((ipow(int(HalfInt(m) - n)) * value).real)


# The sums cost about spin^2: the slowest key at the cap, (1000, 1000, 1000,
# 0, 0, 0), takes 27 ms in cg_su2 on a 2-core Xeon VM.
_MAX_CG_SPIN = 1000


def _cg_labels(l1, l2, l, m1, m2, m):
    """The gate of both CG routes: the six labels as twice-ints, or None
    where a selection rule (m = m1+m2, triangle, integer l1+l2+l,
    projection range and parity) zeroes the coefficient.  The three spins
    pass the spin-label gate and the cap _MAX_CG_SPIN (a ValueError before
    any selection rule).  Past the gate every label the routes halve is even."""
    tl1, tl2, tl = (_weights(x)[0].twice for x in (l1, l2, l))
    if max(tl1, tl2, tl) > 2 * _MAX_CG_SPIN:
        raise ValueError(f"Clebsch-Gordan spins {l1}, {l2}, {l} exceed "
                         f"the cap {_MAX_CG_SPIN}")
    tm1, tm2, tm = (HalfInt(x).twice for x in (m1, m2, m))
    labels = (tl1, tl2, tl, tm1, tm2, tm)
    pairs = ((tl1, tm1), (tl2, tm2), (tl, tm))
    zero = (
        tm != tm1 + tm2
        or not abs(tl1 - tl2) <= tl <= tl1 + tl2
        or (tl1 + tl2 + tl) % 2
        or any(abs(tp) > ts or (ts - tp) % 2 for ts, tp in pairs)
    )
    return None if zero else labels


def _reduced(num, den):
    """The fraction num/den (den > 0) in lowest terms, as a Fraction keeps it."""
    g = math.gcd(num, den)
    return num // g, den // g


def cg_su2(l1, l2, l, m1, m2, m):
    """Clebsch-Gordan coefficient <l1 m1; l2 m2 | l m>, Condon-Shortley.

    Evaluated from the closed single-sum form in exact integer
    arithmetic (each rational a numerator and a denominator in lowest
    terms, as a Fraction holds it) and one final square root.
    Selection-rule violations (m != m1+m2, triangle failures,
    out-of-range projections) return exactly 0.  At high spin the squared
    norm passes 2^1000 and the sum falls below 2^-1000; each is then
    scaled into float range by an exact power of 4 (norm) or 2 (sum),
    undone by ldexp, as in ``_pair_norm``, so a value that fits a float
    unscaled keeps its bits.
    """
    labels = _cg_labels(l1, l2, l, m1, m2, m)
    if labels is None:
        return 0.0
    t1, t2, t, u1, u2, u = labels

    p, q = _reduced(
        (t + 1) * fact((t1 + t2 - t) // 2) * fact((t1 - t2 + t) // 2)
        * fact((t2 - t1 + t) // 2)
        * fact((t1 + u1) // 2) * fact((t1 - u1) // 2) * fact((t2 + u2) // 2)
        * fact((t2 - u2) // 2) * fact((t + u) // 2) * fact((t - u) // 2),
        fact((t1 + t2 + t) // 2 + 1),
    )

    # sum_z (-1)^z / (z!(a-z)!(b-z)!(c-z)!(d+z)!(e+z)!) over one common
    # denominator: ``den`` is a multiple of every term's denominator, and
    # ``term`` = den / (that denominator), stepped exactly from z to z+1.
    a, b, c = (t1 + t2 - t) // 2, (t1 - u1) // 2, (t2 + u2) // 2
    d, e = (t - t2 + u1) // 2, (t - t1 - u2) // 2
    lo, hi = max(0, -d, -e), min(a, b, c)
    den = (fact(hi) * fact(a - lo) * fact(b - lo) * fact(c - lo)
           * fact(d + hi) * fact(e + hi))
    term = (fact(hi) // fact(lo) * (fact(d + hi) // fact(d + lo))
            * (fact(e + hi) // fact(e + lo)))
    num = 0
    for z in range(lo, hi + 1):
        num += -term if z % 2 else term
        term = (term * ((a - z) * (b - z) * (c - z))
                // ((z + 1) * (d + z + 1) * (e + z + 1)))
    num, den = _reduced(num, den)
    s = (max(0, p.bit_length() - q.bit_length() - 1000) + 1) // 2
    r = max(0, den.bit_length() - num.bit_length() - 1000)
    return math.ldexp((num << r) / den * math.sqrt(p / (q << 2 * s)), s - r)


def cg_su2_hyp(l1, l2, l, m1, m2, m):
    """Clebsch-Gordan via a gamma-ratio prefactor and a unit-argument 3F2.

    An alternative closed form whose normalization differs from the
    Condon-Shortley one by the constant factor sqrt(l1+l2+l+1) within
    each (l1, l2, l) triple; comparing the two routes pins that factor
    down.  Raises PoleError exactly on the keys with m < l1 - l2, where
    the series' second denominator parameter l2 - l1 + m + 1 is not
    positive (the benchmark's ``points`` workload counts them as pole
    skips).  Selection rules and label checks as ``cg_su2``.
    Where a factor overflows or underflows a float (high spin; ``cg_su2``
    still evaluates there) it raises ValueError naming the overflow.
    """
    labels = _cg_labels(l1, l2, l, m1, m2, m)
    if labels is None:
        return 0.0
    t1, t2, t, u1, u2, u = labels

    sign = -1.0 if (t1 - u1) // 2 % 2 else 1.0
    try:
        p, q = (t1 + t2 - u) // 2 + 1, (t2 - t1 + u) // 2 + 1
        ratio = math.exp(ln_factorial(p - 1) - ln_factorial(q - 1)) if q > 0 else 0.0
        sq = Fraction(
            fact((t + t2 - t1) // 2) * fact((t1 + u1) // 2)
            * fact((t2 + u2) // 2) * fact((t + u) // 2) * (t + 1),
            fact((t - u) // 2) * fact((t1 - t2 + t) // 2)
            * fact((t1 + t2 - t) // 2) * fact((t1 + t2 + t) // 2)
            * fact((t1 - u1) // 2) * fact((t2 - u2) // 2),
        )
        series = terminating_series(
            ((t + u) // 2 + 1, (u - t) // 2, (u1 - t1) // 2),
            ((u - t1 - t2) // 2, (t2 - t1 + u) // 2 + 1),
        )
        value = sign * ratio * math.sqrt(sq) * float(series)
        # sq > 0, so a zero from a nonzero ratio and series is an underflow.
        if not math.isfinite(value) or (value == 0 and ratio and series):
            raise OverflowError
    except OverflowError:
        raise ValueError(
            f"cg_su2_hyp{(l1, l2, l, m1, m2, m)}: the gamma-ratio route "
            "overflows or underflows a float at these labels") from None
    return value
