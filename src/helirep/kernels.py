"""Terminating hypergeometric kernels and factorial helpers.

Everything here evaluates finite sums only: series that fail to
terminate, or whose denominator parameters vanish before the last
needed term, raise instead of guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class NonTerminatingError(ValueError):
    """No numerator parameter truncates the series."""


class PoleError(ArithmeticError):
    """A denominator parameter vanishes before the series terminates."""


def ipow(k):
    """The imaginary unit to an exact integer power."""
    return (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]


def fact(n):
    """Exact factorial of a non-negative int."""
    if n < 0:
        raise ValueError(f"factorial of negative value {n}")
    return math.factorial(n)


def ln_factorial(n):
    """log(n!) via lgamma; exact enough for ratio work at any size."""
    if n < 0:
        raise ValueError(f"factorial of negative value {n}")
    return math.lgamma(n + 1)


def terminating_series(num_params, den_params, x):
    """Exact sum of a generalized hypergeometric series that must terminate.

    Parameters are ints or Fractions and x is exact.  Terms follow
    t_{k+1} = t_k * prod(a+k) / (prod(b+k) * (k+1)) * x with t_0 = 1.
    At least one numerator parameter must be a non-positive integer; a
    vanishing denominator factor before the final term raises PoleError.
    The sum is returned as a Fraction.
    """
    stops = [-int(a) for a in num_params if a <= 0 and a == int(a)]
    if not stops:
        raise NonTerminatingError(
            f"no non-positive integer among numerator parameters {list(num_params)}"
        )
    last = min(stops)
    term = Fraction(1)
    total = Fraction(1)
    for t in range(last):
        den = Fraction(t + 1)
        for b in den_params:
            den *= b + t
        if den == 0:
            raise PoleError(
                f"denominator parameter hits zero at term {t + 1} "
                f"before termination at {last}"
            )
        num = Fraction(1)
        for a in num_params:
            num *= a + t
        term = term * num / den * x
        total += term
    return total


def _horner(coeffs, y):
    """Sum of coeffs[j] * y**j (ascending coefficients) by Horner's rule.

    ``y`` is an array; a coefficient may itself be an array that
    broadcasts against it.
    """
    acc = np.zeros_like(y) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * y + c
    return acc


def hyp3f2_unit(a1, a2, a3, b1, b2):
    """Terminating 3F2 at unit argument (exact when parameters are exact)."""
    return terminating_series((a1, a2, a3), (b1, b2), Fraction(1))


def gamma_ratio_int(p, q):
    """Gamma(p)/Gamma(q) for integer arguments with pole bookkeeping.

    A pole in the denominator only (q <= 0 < p) gives exactly 0; a pole
    in the numerator only raises, since the ratio diverges.
    """
    p, q = int(p), int(q)
    if p > 0 and q > 0:
        return math.exp(ln_factorial(p - 1) - ln_factorial(q - 1))
    if p > 0 >= q:
        return 0.0
    if q > 0 >= p:
        raise PoleError(f"Gamma({p}) diverges while Gamma({q}) is finite")
    # Both arguments at poles: reflect to a finite ratio with a sign.
    sign = -1.0 if (q - p) % 2 else 1.0
    return sign * math.exp(ln_factorial(-q) - ln_factorial(-p))
