"""Exact half-integer arithmetic for spin labels."""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

_EXACT_FLOAT = 1 << 53


def _twice_of(value):
    """Twice ``value`` as an exact int, or raise."""
    if isinstance(value, HalfInt):
        return value.twice
    if isinstance(value, numbers.Integral):
        return 2 * int(value)
    if isinstance(value, Fraction):
        doubled = 2 * value
        if doubled.denominator != 1:
            raise ValueError(f"{value} is not a multiple of 1/2")
        return doubled.numerator
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise ValueError(f"cannot parse {value!r} as a half-integer")
            return int(num)
        return 2 * int(text)
    if isinstance(value, numbers.Real):
        real = float(value)
        if not math.isfinite(real):
            raise ValueError(f"{value} is not a finite half-integer")
        num, den = real.as_integer_ratio()
        if den > 2:
            raise ValueError(f"{value} is not a multiple of 1/2")
        return 2 * num // den
    raise TypeError(f"cannot interpret {type(value).__name__} as a half-integer")


class HalfInt:
    """An exact element of (1/2)Z, stored as twice its value.

    Accepts ints, other HalfInts, Fractions, strings such as ``"3/2"`` or
    ``"-2"``, and floats that are exact multiples of one half.  All
    arithmetic between HalfInts and ints is integer-exact.
    """

    __slots__ = ("twice",)

    def __init__(self, value=0):
        object.__setattr__(self, "twice", _twice_of(value))

    @classmethod
    def from_twice(cls, twice):
        """Build from twice the value (an int)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "twice", int(twice))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    # -- queries ----------------------------------------------------------
    @property
    def is_integer(self):
        return self.twice % 2 == 0

    def as_int(self):
        """The value as a plain int; raises if it is a proper half."""
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return HalfInt.from_twice(self.twice + _twice_of(other))

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt.from_twice(self.twice - _twice_of(other))

    def __rsub__(self, other):
        return HalfInt.from_twice(_twice_of(other) - self.twice)

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __abs__(self):
        return HalfInt.from_twice(abs(self.twice))

    def __mul__(self, other):
        """Product with an *integer* (the only closed product in (1/2)Z)."""
        if isinstance(other, numbers.Integral):
            return HalfInt.from_twice(self.twice * int(other))
        return float(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return float(self) / other

    def __rtruediv__(self, other):
        return other / float(self)

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        try:
            return self.twice == _twice_of(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.twice < _twice_of(other)

    def __le__(self, other):
        return self.twice <= _twice_of(other)

    def __gt__(self, other):
        return self.twice > _twice_of(other)

    def __ge__(self, other):
        return self.twice >= _twice_of(other)

    def __hash__(self):
        # Equal to hash(Fraction(twice, 2)), so HalfInt keys meet equal
        # int, Fraction and float keys; a half below 2^53 is an exact float.
        t = self.twice
        if t % 2 == 0:
            return hash(t // 2)
        if abs(t) < _EXACT_FLOAT:
            return hash(t / 2)
        return hash(Fraction(t, 2))

    # -- conversions ------------------------------------------------------
    def __float__(self):
        return self.twice / 2.0

    def __int__(self):
        return self.as_int()

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({str(self)!r})"


def half(p):
    """Shorthand for p/2 as a HalfInt."""
    return HalfInt.from_twice(p)


def _weights(l, *projections):
    """The one gate of spin labels: (l, m, ...) as HalfInts, where l is a
    non-negative spin label and each m one of its projections."""
    l = l if isinstance(l, HalfInt) else HalfInt(l)
    if l.twice < 0:
        raise ValueError(f"spin label {l} must be non-negative")
    out = [l]
    for m in projections:
        m = m if isinstance(m, HalfInt) else HalfInt(m)
        if abs(m.twice) > l.twice or (l.twice - m.twice) % 2:
            raise ValueError(f"projection {m} invalid for spin {l}")
        out.append(m)
    return out


def mrange(l):
    """Projection labels l, l-1, ..., -l in descending order."""
    (l,) = _weights(l)
    return [HalfInt.from_twice(t) for t in range(l.twice, -l.twice - 1, -2)]


def lrange(lo, hi):
    """Spin labels lo, lo+1, ..., hi in ascending order (inclusive)."""
    lo, hi = HalfInt(lo), HalfInt(hi)
    return [HalfInt.from_twice(t) for t in range(lo.twice, hi.twice + 1, 2)]
