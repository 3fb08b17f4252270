"""Terminating hypergeometric kernels, the shared input gates, the
label blocks' read-only column builder and the one component finder.

Everything here evaluates finite sums only: a series whose denominator
parameters vanish before the last needed term raises instead of guessing.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from collections import OrderedDict
from fractions import Fraction

import numpy as np


class PoleError(ArithmeticError):
    """A denominator parameter vanishes before the series terminates."""


def _int_arg(name, value, lo, hi=None):
    """The one gate of counts: ``value`` as an int with lo <= value
    (<= hi, if given): any integral number (numpy ints too), but no bool
    and nothing non-integral, so nothing is silently truncated."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if ok:
        value = int(value)
        ok = lo <= value and (hi is None or value <= hi)
    if not ok:
        bounds = f">= {lo}" if hi is None else f"between {lo} and {hi}"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


# The largest dense spin-ladder carrier the generators build: a complex
# 4096 x 4096 matrix takes 256 MiB, and (2l+1)^2 entries outgrow memory
# soon after.
_MAX_DENSE_ROWS = 4096


def _dense_rows(rows):
    """The one size gate of dense spin-ladder carriers: ``rows`` (the
    carrier's dimension) at most _MAX_DENSE_ROWS, or ValueError before
    any label or matrix is built."""
    return _int_arg("dense carrier rows", rows, 1, _MAX_DENSE_ROWS)


# Twice the largest spin of a Z^l_mn label block: the exact central-label
# coefficients outgrow a float from 2l = 1034, the series prefactor from
# about l = 810.
_MAX_TWICE_SPIN = 1000


def _spin_cap(tl):
    """The label-block builders' one spin cap, before any coefficient."""
    return _int_arg("twice the spin", tl, 0, _MAX_TWICE_SPIN)


# What the finiteness gate names when an angle or rapidity is not finite:
# the rotation tabulator would reflect a NaN angle forever, and a NaN
# rapidity would come back as a NaN value.
_ANGLES = "angles and rapidities"


def _finite(what, *values, dtype=float):
    """The one finiteness gate of inputs: every value (a number or an
    array of them, read as ``dtype``) must be finite, or ValueError."""
    for value in values:
        value = np.asarray(value, dtype=dtype)
        if np.count_nonzero(np.isfinite(value)) != value.size:
            raise ValueError(f"{what} must be finite")


def ipow(k):
    """The imaginary unit to an exact integer power."""
    return (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]


def ln_factorial(n):
    """log(n!) via lgamma; exact enough for ratio work at any size."""
    if n < 0:
        raise ValueError(f"factorial of negative value {n}")
    return math.lgamma(n + 1)


def terminating_series(num_params, den_params):
    """Exact sum of a generalized hypergeometric series at unit argument.

    Parameters are ints, and at least one numerator parameter is not
    positive: the series stops at the smallest |a| among those.  Terms
    follow t_{k+1} = t_k * prod(a+k) / (prod(b+k) * (k+1)) with t_0 = 1;
    a vanishing denominator factor before the final term raises
    PoleError.  The sum is returned as a Fraction.

    The term steps as one integer numerator over one integer
    denominator, and the running sum is kept over the term's
    denominator; the one Fraction, built at the end, reduces it.
    """
    last = min(-a for a in num_params if a <= 0)
    term_num, term_den, total = 1, 1, 1  # the sum is total / term_den
    for t in range(last):
        den = t + 1
        for b in den_params:
            den *= b + t
        if den == 0:
            raise PoleError(
                f"denominator parameter hits zero at term {t + 1} "
                f"before termination at {last}"
            )
        num = 1
        for a in num_params:
            num *= a + t
        term_num *= num
        term_den *= den
        total = total * den + term_num
    return Fraction(total, term_den)


class _Memo:
    """A least-recently-used memo of ``build(*key)``, for builders that
    return tuples of read-only arrays, bounded by the bytes of those
    arrays: a label block at spin l holds O(l^2) numbers, so a bound on
    the count of blocks alone would let high spins take gigabytes."""

    budget = 1 << 23  # bytes held; every block for 2l <= 40 fits

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self._build = build
        self._blocks = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def _size(block):
        return sum(getattr(field, "nbytes", 0) for field in block)

    def __call__(self, *key):
        with self._lock:
            block = self._blocks.get(key)
            if block is not None:
                self._blocks.move_to_end(key)
                return block
        block = self._build(*key)
        with self._lock:
            if key not in self._blocks:
                self._blocks[key] = block
                self._bytes += self._size(block)
                while self._bytes > self.budget and len(self._blocks) > 1:
                    self._bytes -= self._size(self._blocks.popitem(last=False)[1])
        return block


def _stack(series):
    """Ascending coefficient lists stacked as the rows of one Horner
    evaluation: a read-only (degree + 1, rows, 1) array, zero above each
    row's own degree."""
    top = max(map(len, series))
    coeffs = np.zeros((top, len(series), 1))
    for row, c in enumerate(series):
        coeffs[: len(c), row, 0] = c
    coeffs.flags.writeable = False
    return coeffs


def _horner(coeffs, y):
    """Every row of sum_j coeffs[j] * y**j by Horner's rule, for stacked
    coefficients from ``_stack`` and a 1-D finite ``y``: a (rows, len(y))
    array.

    Every row runs every degree, by two in-place operations on operands
    of its own shape.  Above its own degree a row holds +0.0 and meets
    zero coefficients, and 0 * y + 0 is +0.0 for every finite y, either
    sign, so the row enters at its top coefficient c as 0 * y + c,
    exactly as on its own.
    """
    ys = np.empty((coeffs.shape[1], y.size))
    ys[...] = y
    acc = np.zeros(ys.shape)
    for c in coeffs[::-1]:
        acc *= ys
        acc += c
    return acc


def _ksum(rot, boost):
    """sum_k of the outer products of row k of ``rot`` (K, T), complex,
    and row k of ``boost`` (K, U), real: a (T, U) complex array whose
    every cell is added in k order from +0j, as a loop of += would.

    The products are summed through their float view: its inner axis of
    length at least 2 keeps numpy adding whole rows one after another,
    where a complex reduce to a single cell would sum pairwise.  The
    explicit start keeps a sum of -0.0 at +0.0 whatever numpy starts from.
    """
    prod = rot[:, :, None] * boost[:, None, :]
    return np.add.reduce(prod.view(float), axis=0, initial=0.0).view(complex)


def _column(values):
    """A read-only (rows, 1) column of ``values``, or a stack of them."""
    out = np.array(values)[..., None]
    out.flags.writeable = False
    return out


def _squares(exponents):
    """The rows of a (rows, 1) column of integer exponents that are 2, as
    a read-only index array for ``_powers``."""
    rows = np.flatnonzero(exponents[:, 0] == 2)
    rows.flags.writeable = False
    return rows


def _powers(x, exponents, squares):
    """x ** e for a row of bases ``x`` and a (rows, 1) column of integer
    exponents whose rows equal to 2 are ``squares`` (from ``_squares``):
    a (rows, len(x)) array.

    Each row has the bits of ``x ** e`` with a scalar e.  numpy squares
    for a scalar exponent 2 but calls pow for an array exponent, and the
    two differ in the last bit, so rows with e = 2 are squared here.
    """
    out = x ** exponents
    if squares.size:
        out[squares] = x * x
    return out


def _components(count, pairs):
    """Entry k: the smallest node of k's component under the edges ``pairs``
    (union-find, path halving; the smaller root wins, so one pass resolves)."""
    root = list(range(count))
    for a, b in pairs:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        root[max(a, b)] = min(a, b)
    for k in range(count):
        root[k] = root[root[k]]
    return root
