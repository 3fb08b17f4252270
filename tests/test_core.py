"""Tests for labeled matrices, weight bases, and group parameters."""

import numpy as np
import pytest

from helirep.core import BasisIndex, CMatrix, GroupPoint, Labels, enumerate_basis
from helirep.halfint import half
from helirep.hyperspherical import m_matrix, rep_matrix, z_matrix


class TestEnumerateBasis:
    def test_order_both_factors(self):
        basis = enumerate_basis(half(1), half(1))
        expected = [
            BasisIndex(half(1), half(1), half(1), half(1)),
            BasisIndex(half(1), half(1), half(1), half(-1)),
            BasisIndex(half(1), half(-1), half(1), half(1)),
            BasisIndex(half(1), half(-1), half(1), half(-1)),
        ]
        assert basis == expected

    def test_single_factor_default(self):
        basis = enumerate_basis(half(2))
        assert [b.m for b in basis] == [half(2), half(0), half(-2)]
        assert all(b.ldot == 0 and b.mdot == 0 for b in basis)

    def test_size(self):
        assert len(enumerate_basis(half(3), half(2))) == 4 * 3

    def test_str_form(self):
        b = BasisIndex(half(1), half(-1), half(2), half(0))
        assert str(b) == "(1/2,-1/2;1,0)"


class TestCMatrix:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CMatrix.zeros([half(1), half(1)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CMatrix(np.eye(3), [half(1), half(-1)])
        # A scalar product that broadcasts to another shape is refused too.
        with pytest.raises(ValueError):
            CMatrix.identity(["u", "v"]) * np.ones((3, 2, 2))

    def test_matmul_aligns_inner_labels(self):
        a = CMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ["r1", "r2"], ["x", "y"])
        b = CMatrix(np.array([[10.0], [20.0]]), ["y", "x"], ["c"])
        prod = a @ b
        # Column order of a is (x, y); b is auto-permuted to match.
        np.testing.assert_allclose(prod.data, [[1 * 20 + 2 * 10], [3 * 20 + 4 * 10]])

    def test_matmul_label_mismatch_rejected(self):
        a = CMatrix.zeros(["r"], ["x"])
        b = CMatrix.zeros(["z"], ["c"])
        with pytest.raises(ValueError):
            a @ b

    def test_reindexed_requires_permutation(self):
        m = CMatrix.identity([half(1), half(-1)])
        with pytest.raises(ValueError):
            m.reindexed([half(1), half(3)])

    def test_reindexed_permutes(self):
        m = CMatrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]), [half(1), half(-1)]
        )
        p = m.reindexed([half(-1), half(1)])
        np.testing.assert_allclose(p.data, [[4.0, 3.0], [2.0, 1.0]])

    def test_residual_aligns_before_subtracting(self):
        labels = [half(1), half(-1)]
        m = CMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), labels)
        swapped = m.reindexed(list(reversed(labels)))
        assert m.residual_vs(swapped) == 0.0

    def test_commutator_and_dagger(self):
        labels = [half(1), half(-1)]
        sx = CMatrix(np.array([[0, 1], [1, 0]], dtype=complex), labels)
        sy = CMatrix(np.array([[0, -1j], [1j, 0]]), labels)
        sz = CMatrix(np.array([[1, 0], [0, -1]], dtype=complex), labels)
        assert sx.commutator(sy).residual_vs(2j * sz) == 0.0
        assert sy.dagger().residual_vs(sy) == 0.0

    def test_kron_combines_labels(self):
        a = CMatrix.identity(["u"])
        b = CMatrix.identity(["v", "w"])
        k = a.kron(b)
        assert k.row_labels == (("u", "v"), ("u", "w"))
        custom = a.kron(b, combine=lambda x, y: f"{x}{y}")
        assert custom.row_labels == ("uv", "uw")

    def test_norm_inf(self):
        m = CMatrix(np.array([[1.0, -3.0j], [0.5, 2.0]]), ["a", "b"])
        assert m.norm_inf() == 3.0

    def test_results_match_freshly_validated_matrices(self):
        rng = np.random.default_rng(3)
        rows = enumerate_basis(1)
        cols = enumerate_basis(half(1))
        outer = ("x", "y", "z", "w")

        def rand(r, c):
            return CMatrix(rng.normal(size=(len(r), len(c))) + 1j, r, c)

        a, b = rand(rows, cols), rand(rows, cols)
        # Operands stored in another label order are aligned first.
        swapped = b.reindexed(rows[::-1], cols[::-1])
        c = rand(cols[::-1], outer)
        results = [
            (a + swapped, rows, cols),
            (a - swapped, rows, cols),
            (-a, rows, cols),
            (a * 2.5j, rows, cols),
            (1.5 * a, rows, cols),
            (a @ c, rows, outer),
            (a.dagger(), cols, rows),
        ]
        for got, want_rows, want_cols in results:
            fresh = CMatrix(got.data, want_rows, want_cols)
            assert got.row_labels == fresh.row_labels
            assert got.col_labels == fresh.col_labels
            assert got.row_labels.position == fresh.row_labels.position
            assert got.col_labels.position == fresh.col_labels.position
            assert got.data.dtype == complex
            assert np.array_equal(got.data, fresh.data)
        assert np.array_equal((a + swapped).data, a.data + b.data)
        assert np.array_equal((a @ c).data, a.data @ c.data[::-1])
        assert np.array_equal(a.dagger().data, a.data.conj().T)

    def test_results_reuse_their_operands_labels(self):
        rows, cols = enumerate_basis(1), enumerate_basis(half(1))
        a = CMatrix(np.ones((3, 2)), rows, cols)
        b = CMatrix(np.ones((2, 4)), a.col_labels, ["x", "y", "z", "w"])
        for got in (a + a, a - a, -a, a * 2.0, 3.0 * a):
            assert got.row_labels is a.row_labels
            assert got.col_labels is a.col_labels
        assert (a @ b).row_labels is a.row_labels
        assert (a @ b).col_labels is b.col_labels
        assert a.dagger().row_labels is a.col_labels
        assert a.dagger().col_labels is a.row_labels

    @pytest.mark.parametrize("build", [
        lambda: CMatrix(np.eye(2), ["u", "v"]),
        lambda: CMatrix(np.eye(2), *[["u", "v"]] * 2),
        lambda: CMatrix.zeros(["u", "v"]),
        lambda: CMatrix.identity(["u", "v"]),
        lambda: CMatrix(np.eye(2), ["u", "v"], ["v", "u"]).reindexed(*[["v", "u"]] * 2),
        lambda: CMatrix.identity(["u"]).kron(CMatrix.identity(["v", "w"])),
        lambda: z_matrix(half(3), 0.3, 0.2),
        lambda: rep_matrix(1, half(1), GroupPoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
    ], ids=["constructor", "same-list", "zeros", "identity", "reindexed", "kron",
            "z_matrix", "rep_matrix"])
    def test_square_matrices_share_one_labels(self, build):
        m = build()
        assert isinstance(m.row_labels, Labels)
        assert m.col_labels is m.row_labels

    @pytest.mark.parametrize("l, ldot", [(half(1), 0), (1, half(1)), (half(3), 2), (0, 1)])
    def test_rep_matrix_is_the_kronecker_product_on_the_weight_basis(self, l, ldot):
        g = GroupPoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        m = rep_matrix(l, ldot, g)
        assert m.row_labels == tuple(enumerate_basis(l, ldot))
        assert m.col_labels is m.row_labels
        want = np.kron(m_matrix(l, g).data, m_matrix(ldot, g).data.conj())
        assert m.data.tobytes() == want.tobytes()

    def test_at_reads_by_label_and_names_a_missing_one(self):
        m = CMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), ["a", "b"], ["x", "y"])
        assert m.at("b", "x") == 3.0
        for row, col, missing in (("c", "x", "c"), ("a", "b", "b")):
            with pytest.raises(ValueError, match=f"label {missing} is not on this axis"):
                m.at(row, col)
        with pytest.raises(ValueError, match="label b is not on this axis"):
            CMatrix.identity(["a"]).at("b", "a")

    def test_an_unhashable_label_is_named_as_not_on_the_axis(self):
        m = CMatrix.identity(["a"])
        for row, col in ((["a"], "a"), ("a", ["a"])):
            with pytest.raises(ValueError, match=r"label \['a'\] is not on this axis"):
                m.at(row, col)

    def test_equal_but_distinct_column_labels_stay_apart(self):
        m = CMatrix.zeros(["u", "v"], ["u", "v"])
        assert m.col_labels == m.row_labels
        assert m.col_labels is not m.row_labels
        k = CMatrix.identity(["u"]).kron(m)
        assert k.col_labels is not k.row_labels


class TestLabels:
    def test_labels_are_built_once(self):
        labels = Labels(["a", "b", "c"])
        assert Labels(labels) is labels
        assert labels == ("a", "b", "c")
        assert labels.position == {"a": 0, "b": 1, "c": 2}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            Labels(["a", "b", "a"])

    def test_unhashable_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be hashable"):
            Labels(["a", ["b"]])
        with pytest.raises(ValueError, match="labels must be hashable"):
            CMatrix.identity(["a"]).reindexed([["a"]])

    def test_positions_name_a_missing_label(self):
        labels = Labels(["a", "b", "c"])
        assert labels.positions(["c", "a"]) == [2, 0]
        with pytest.raises(ValueError, match="label d is not on this axis"):
            labels.positions(["a", "d"])


class TestGroupPoint:
    def test_as_tuple_order(self):
        g = GroupPoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert g.as_tuple() == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
