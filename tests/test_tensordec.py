"""Tests for product decomposition, coupled vectors, and symmetrizers."""

import itertools
import math

import numpy as np
import pytest

from helirep.core import RepLabel
from helirep.halfint import half, mrange
from helirep.su2 import cg_su2
from helirep.tensordec import (
    _binary_basis,
    _transposition_matrix,
    bilinear_form,
    cg_series,
    coupled_vector,
    product_basis,
    symmetrizer_one_row,
    total_operator,
)


class TestSeries:
    def test_mixed_chirality_pair(self):
        out = cg_series(RepLabel(half(1), 0), RepLabel(0, half(1)))
        assert out == [RepLabel(half(1), half(1))]

    def test_two_undotted_spinors(self):
        out = cg_series(RepLabel(half(1), 0), RepLabel(half(1), 0))
        assert out == [RepLabel(0, 0), RepLabel(half(2), 0)]

    def test_trivial_factor(self):
        out = cg_series(RepLabel(0, 0), RepLabel(half(3), half(2)))
        assert out == [RepLabel(half(3), half(2))]

    def test_dimension_bookkeeping(self):
        for t, u, v, w in itertools.product(range(5), range(5), range(4), range(4)):
            a, b = RepLabel(half(t), half(u)), RepLabel(half(v), half(w))
            assert sum(r.dim for r in cg_series(a, b)) == a.dim * b.dim

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            RepLabel(half(-1), 0)


class TestProductCoupling:
    """A coupled-vector amplitude on (1/2, 0) x (1/2, 0) is the product of
    the two slots' su(2) couplings; selection rules come from the factors."""

    def amplitude(self, l, m1, m2, m):
        a = RepLabel(half(1), 0)
        pair = next((u, v) for u, v in product_basis(a, a) if (u.m, v.m) == (m1, m2))
        product = cg_su2(half(1), half(1), l, m1, m2, m) * cg_su2(0, 0, 0, 0, 0, 0)
        assert coupled_vector(a, a, l, 0, m, 0).amplitudes.get(pair, 0.0) == product
        return product

    def test_all_stretch_is_one(self):
        assert self.amplitude(half(2), half(1), half(1), half(2)) == 1.0

    def test_factorized_value(self):
        v = self.amplitude(half(0), half(1), half(-1), half(0))
        assert v == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_selection_rule_zero(self):
        assert self.amplitude(half(2), half(1), half(1), half(0)) == 0.0


class TestCoupledVector:
    def test_stretch_state_single_amplitude(self):
        a = b = RepLabel(half(1), 0)
        cv = coupled_vector(a, b, 1, 0, 1, 0)
        assert list(cv.amplitudes.values()) == [1.0]

    def test_antisymmetric_singlet(self):
        a = b = RepLabel(half(1), 0)
        cv = coupled_vector(a, b, 0, 0, 0, 0)
        amps = sorted(cv.amplitudes.values())
        assert amps[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
        assert amps[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_eigenvector_of_total_projections(self):
        a, b = RepLabel(half(2), half(1)), RepLabel(half(1), half(1))
        pairs = product_basis(a, b)
        y3 = total_operator("Y3", a, b).data
        x3 = total_operator("X3", a, b).data
        cv = coupled_vector(a, b, half(1), half(2), half(-1), half(0))
        v = cv.vector(pairs)
        assert np.max(np.abs(y3 @ v - float(half(-1)) * v)) <= 1e-12
        assert np.max(np.abs(x3 @ v - 0.0 * v)) <= 1e-12

    def test_highest_weight_annihilated_by_raising(self):
        a, b = RepLabel(half(2), half(1)), RepLabel(half(1), half(1))
        pairs = product_basis(a, b)
        top = coupled_vector(a, b, half(3), half(2), half(3), half(2))
        v = top.vector(pairs)
        for kind in ("Y+", "X+"):
            op = total_operator(kind, a, b).data
            assert np.max(np.abs(op @ v)) <= 1e-12

    def test_orthonormal_complete_family(self):
        a, b = RepLabel(half(2), half(1)), RepLabel(half(1), half(1))
        pairs = product_basis(a, b)
        vecs = [
            coupled_vector(a, b, r.l1, r.l2, m, mp).vector(pairs)
            for r in cg_series(a, b)
            for m in mrange(r.l1)
            for mp in mrange(r.l2)
        ]
        assert len(vecs) == a.dim * b.dim
        gram = np.array([[np.vdot(x, y) for y in vecs] for x in vecs])
        assert np.max(np.abs(gram - np.eye(len(vecs)))) <= 1e-12

    def test_unit_norm(self):
        a, b = RepLabel(half(3), 0), RepLabel(half(2), half(1))
        for r in cg_series(a, b):
            cv = coupled_vector(a, b, r.l1, r.l2, mrange(r.l1)[-1], r.l2)
            assert cv.norm() == pytest.approx(1.0, abs=1e-12)

    def test_target_outside_series_rejected(self):
        a = b = RepLabel(half(1), 0)
        with pytest.raises(ValueError):
            coupled_vector(a, b, half(4), 0, half(4), 0)
        with pytest.raises(ValueError):
            coupled_vector(a, b, half(2), 0, half(6), 0)

    def test_projection_of_wrong_parity_rejected(self):
        a = b = RepLabel(half(1), half(1))
        with pytest.raises(ValueError, match="projection"):
            coupled_vector(a, b, half(2), 0, half(1), 0)
        with pytest.raises(ValueError, match="projection"):
            coupled_vector(a, b, half(2), half(2), 0, half(-1))


class TestTotalOperator:
    def test_unknown_ladder_kind_rejected(self):
        a = RepLabel(half(1), half(1))
        for kind in ("Z+", "X", "X+t", "x3"):
            with pytest.raises(ValueError, match="unknown ladder operator kind"):
                total_operator(kind, a, a)


class TestBilinearForm:
    def test_rank_one_pair_is_skew(self):
        form = bilinear_form(1, 1, 1.0)
        np.testing.assert_allclose(form.data.real, [[0, -1], [1, 0]])
        assert np.allclose(form.data.T, -form.data)

    def test_even_half_sum_is_symmetric(self):
        form = bilinear_form(2, 2, 2.0)
        assert np.allclose(form.data.T, form.data)
        np.testing.assert_allclose(
            form.data.real, [[0, 0, -2], [0, 2, 0], [-2, 0, 0]]
        )

    def test_symmetry_parity_sweep(self):
        for k in range(0, 6):
            for r in range(0, 6):
                if (k + r) % 2:
                    continue
                form = bilinear_form(k, r, 1.5).data
                if ((k + r) // 2) % 2 == 0:
                    assert np.allclose(form.T, form)
                else:
                    assert np.allclose(form.T, -form)

    def test_zero_scale(self):
        assert bilinear_form(3, 1, 0.0).norm_inf() == 0.0

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            bilinear_form(1, 2, 1.0)


class TestSymmetrizer:
    def test_smallest_is_identity(self):
        np.testing.assert_allclose(symmetrizer_one_row(1).data, np.eye(2))

    def test_idempotent_and_rank(self):
        for m in (2, 3, 4, 5):
            p = symmetrizer_one_row(m).data
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert round(np.trace(p).real) == m + 1

    def test_equals_direct_permutation_average(self):
        for m in (2, 3, 4):
            dim = 2 ** m
            total = np.zeros((dim, dim))
            for perm in itertools.permutations(range(m)):
                pm = np.zeros((dim, dim))
                for idx in range(dim):
                    bits = [(idx >> (m - 1 - t)) & 1 for t in range(m)]
                    moved = [bits[perm[t]] for t in range(m)]
                    jdx = 0
                    for bval in moved:
                        jdx = (jdx << 1) | bval
                    pm[jdx, idx] = 1.0
                total += pm
            total /= math.factorial(m)
            assert np.max(np.abs(total - symmetrizer_one_row(m).data)) == 0.0

    def test_binary_basis_in_kron_order(self):
        # Factor t of basis index x is +1/2 where bit m-1-t of x is 0.
        for m in range(5):
            labels = _binary_basis(m)
            assert len(labels) == 2 ** m
            for x, label in enumerate(labels):
                assert label == tuple(
                    half(-1) if (x >> (m - 1 - t)) & 1 else half(1)
                    for t in range(m))

    def test_transposition_matrix_is_the_factor_swap(self):
        # P[swap(x), x] = 1 and every other entry 0, where swap exchanges
        # bits i and j of x (factor t is bit m-1-t).
        for m in range(1, 7):
            dim = 2 ** m
            for i, j in itertools.product(range(m), repeat=2):
                want = np.zeros((dim, dim))
                for x in range(dim):
                    bi, bj = (x >> (m - 1 - i)) & 1, (x >> (m - 1 - j)) & 1
                    y = x ^ ((bi ^ bj) << (m - 1 - i)) ^ ((bi ^ bj) << (m - 1 - j))
                    want[y, x] = 1.0
                got = _transposition_matrix(m, i, j)
                assert got.shape == (dim, dim) and got.dtype == want.dtype
                assert np.array_equal(got, want), (m, i, j)

    def test_commutes_with_simultaneous_action(self):
        rng = np.random.default_rng(31)
        p = symmetrizer_one_row(4).data
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gm = g
            for _ in range(3):
                gm = np.kron(gm, g)
            assert np.max(np.abs(p @ gm - gm @ p)) <= 1e-10

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            symmetrizer_one_row(11)
        with pytest.raises(ValueError):
            symmetrizer_one_row(0)
