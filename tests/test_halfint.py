"""Tests for exact half-integer arithmetic."""

from fractions import Fraction

import pytest

from helirep.core import RepLabel
from helirep.generators import helicity_ops, waerden_ops
from helirep.halfint import HalfInt, _weights, half, lrange, mrange
from helirep.hyperspherical import z_grid, z_matrix
from helirep.su2 import cg_su2, cg_su2_hyp, sph_p


class TestConstruction:
    def test_from_int(self):
        assert HalfInt(2).twice == 4

    def test_from_string_fraction(self):
        assert HalfInt("3/2").twice == 3
        assert HalfInt("-2").twice == -4

    def test_from_fraction(self):
        assert HalfInt(Fraction(5, 2)).twice == 5

    def test_from_exact_float(self):
        assert HalfInt(1.5).twice == 3

    def test_from_inexact_float_rejected(self):
        with pytest.raises(ValueError):
            HalfInt(0.3)

    def test_from_thirds_rejected(self):
        with pytest.raises(ValueError):
            HalfInt(Fraction(1, 3))

    def test_half_shorthand(self):
        assert half(3) == HalfInt("3/2")

    def test_immutable(self):
        v = half(1)
        with pytest.raises(AttributeError):
            v.twice = 7


class TestArithmetic:
    def test_add_sub(self):
        assert half(1) + half(2) == half(3)
        assert half(1) - 1 == half(-1)
        assert 1 + half(1) == half(3)

    def test_neg_abs(self):
        assert -half(3) == half(-3)
        assert abs(half(-5)) == half(5)

    def test_int_product_is_exact(self):
        assert half(1) * 3 == half(3)
        assert 2 * half(3) == 3

    def test_float_fallback_product(self):
        assert half(1) * 0.5 == 0.25

    def test_division_goes_to_float(self):
        assert half(1) / 2 == 0.25
        assert 1 / half(2) == 1.0


class TestQueriesAndOrder:
    def test_is_integer(self):
        assert half(4).is_integer
        assert not half(3).is_integer

    def test_as_int_strict(self):
        assert half(4).as_int() == 2
        with pytest.raises(ValueError):
            half(3).as_int()

    def test_ordering(self):
        assert half(1) < 1 < half(3)
        assert half(2) <= 1
        assert half(3) > 1
        assert half(-1) >= -1

    def test_hash_matches_value(self):
        assert hash(half(2)) == hash(1)
        assert len({half(2), 1, Fraction(1)}) == 1

    @pytest.mark.parametrize("twice", [
        0, 1, -1, 2, -2, 7, -7, 2**53 - 1, -(2**53 - 1), 2**53, 2**53 + 1,
        -(2**53) - 1, 2**60 + 3, -(2**61) + 1, 2**70, 3**50,
    ])
    def test_hash_equals_fraction_hash(self, twice):
        assert hash(half(twice)) == hash(Fraction(twice, 2))

    def test_hash_equals_fraction_hash_over_a_sweep(self):
        for twice in list(range(-3000, 3001)) + [
            sign * (2**53 + k) for sign in (1, -1) for k in range(-50, 51)
        ]:
            assert hash(half(twice)) == hash(Fraction(twice, 2)), twice

    def test_dict_lookups_meet_int_fraction_and_float_keys(self):
        table = {half(3): "a", half(4): "b", half(-5): "c", half(2**60 + 1): "d"}
        assert table[Fraction(3, 2)] == table[1.5] == "a"
        assert table[2] == table[2.0] == table[Fraction(2)] == "b"
        assert table[Fraction(-5, 2)] == table[-2.5] == "c"
        assert table[Fraction(2**60 + 1, 2)] == "d"
        keys = {1: "int", Fraction(3, 2): "fraction", -0.5: "float"}
        assert keys[half(2)] == "int"
        assert keys[half(3)] == "fraction"
        assert keys[half(-1)] == "float"

    def test_str_forms(self):
        assert str(half(3)) == "3/2"
        assert str(half(-1)) == "-1/2"
        assert str(half(4)) == "2"

    def test_conversions(self):
        assert float(half(3)) == 1.5
        assert int(half(4)) == 2


class TestRanges:
    def test_mrange_descends(self):
        assert mrange(half(3)) == [half(3), half(1), half(-1), half(-3)]

    def test_mrange_scalar(self):
        assert mrange(0) == [half(0)]

    def test_mrange_negative_rejected(self):
        with pytest.raises(ValueError):
            mrange(half(-1))

    def test_lrange_inclusive(self):
        assert lrange(half(1), half(5)) == [half(1), half(3), half(5)]

    def test_lrange_empty_when_inverted(self):
        assert lrange(1, 0) == []


class TestSpinLabelGate:
    def test_label_and_projections(self):
        assert _weights("3/2", "1/2", "-3/2") == [half(3), half(1), half(-3)]
        assert _weights(0) == [HalfInt(0)]

    @pytest.mark.parametrize("m", ["3/2", "1/2", "-2"])
    def test_projection_out_of_range_or_parity(self, m):
        with pytest.raises(ValueError, match=f"^projection {m} invalid for spin 1$"):
            _weights(1, m)

    # Every entry point that takes a spin label, with -1/2 in that place.
    ENTRY_POINTS = {
        "mrange": lambda l: mrange(l),
        "RepLabel l1": lambda l: RepLabel(l, 0),
        "RepLabel l2": lambda l: RepLabel(0, l),
        "helicity_ops": lambda l: helicity_ops(l),
        "waerden_ops l": lambda l: waerden_ops(l, 0),
        "waerden_ops ldot": lambda l: waerden_ops(0, l),
        "cg_su2": lambda l: cg_su2(1, l, "1/2", 0, 0, 0),
        "cg_su2_hyp": lambda l: cg_su2_hyp(l, 1, "1/2", 0, 0, 0),
        "sph_p": lambda l: sph_p(l, 0, 0, 0.5),
        "z_grid": lambda l: z_grid(l, 0, 0, [0.5], [0.5]),
        "z_matrix": lambda l: z_matrix(l, 0.5, 0.5),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_negative_label_refused_in_one_wording(self, name):
        with pytest.raises(ValueError, match="^spin label -1/2 must be non-negative$"):
            self.ENTRY_POINTS[name]("-1/2")
