"""Tests for the terminating-series kernels and factorial helpers."""

import math
from fractions import Fraction

import pytest

from helirep.kernels import (
    NonTerminatingError,
    PoleError,
    fact,
    gamma_ratio_int,
    hyp3f2_unit,
    ipow,
    ln_factorial,
    terminating_series,
)


class TestSmallHelpers:
    def test_ipow_cycle(self):
        assert [ipow(k) for k in range(4)] == [1, 1j, -1, -1j]
        assert ipow(-1) == -1j

    def test_fact(self):
        assert fact(0) == 1
        assert fact(6) == 720
        with pytest.raises(ValueError):
            fact(-2)

    def test_ln_factorial(self):
        assert ln_factorial(10) == pytest.approx(math.log(math.factorial(10)))
        assert ln_factorial(0) == 0.0


class TestTerminatingSeries:
    def test_binomial_identity_exact(self):
        # 2F1(-2, b; b; x) = (1 - x)^2 for any shared parameter b.
        val = terminating_series((-2, 3), (3,), Fraction(1, 4))
        assert val == Fraction(9, 16)
        assert isinstance(val, Fraction)

    def test_no_truncation_raises(self):
        with pytest.raises(NonTerminatingError):
            terminating_series((Fraction(1, 2), 2), (3,), Fraction(1, 2))

    def test_pole_before_termination_raises(self):
        # c = -1 vanishes at the k = 2 denominator while the series
        # wants to run to k = 3.
        with pytest.raises(PoleError):
            terminating_series((-3, 1), (-1,), Fraction(1))

    def test_pole_after_termination_is_fine(self):
        # Termination at k = 1 precedes the k = 2 pole of c = -1.
        assert terminating_series((-1, 2), (-1,), Fraction(1)) == Fraction(3)

    def test_three_two_at_unit(self):
        # 3F2(-1, a2, a3; b1, b2; 1) = 1 - a2 a3 / (b1 b2).
        assert hyp3f2_unit(-1, 2, 3, 4, 5) == Fraction(7, 10)

    def test_zero_numerator_parameter_gives_one(self):
        assert terminating_series((0, 5), (7,), Fraction(9)) == Fraction(1)


class TestGammaRatio:
    def test_both_positive(self):
        assert gamma_ratio_int(5, 3) == pytest.approx(12.0)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio_int(3, -1) == 0.0
        assert gamma_ratio_int(1, 0) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio_int(-1, 3)

    def test_double_pole_reflects(self):
        # Gamma(-3)/Gamma(-1) -> (-1)^(1-3) * 1!/3! = 1/6.
        assert gamma_ratio_int(-3, -1) == pytest.approx(1.0 / 6.0)
        # Gamma(-2)/Gamma(-1) -> (-1)^1 * 1!/2! = -1/2.
        assert gamma_ratio_int(-2, -1) == pytest.approx(-0.5)
