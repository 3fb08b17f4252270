"""Tests for the infinitesimal-operator realizations and their maps."""

import math
import time

import numpy as np
import pytest

from helirep.core import CMatrix, RepLabel, enumerate_basis
from helirep.gelfand_yaglom import (CoeffTable, RepChain, build_system, chain_generators,
                                    dirac_system)
from helirep.generators import (
    _cartesianize,
    _tower_link,
    ab_from_families,
    basis_change,
    commutator_report,
    gn_ops,
    helicity_ops,
    relation_residuals,
    split_families,
    waerden_ops,
)
from helirep.halfint import half, mrange
from helirep.su2 import cg_su2

SPINS = [half(k) for k in range(1, 7)]  # 1/2 .. 3


def zeros_like(mat):
    return CMatrix.zeros(mat.row_labels, mat.col_labels)


def spin_matrix(axis, tl):
    """Hermitian J_axis at spin tl/2 from its matrix elements, m descending:
    <m+1|J1|m> = <m|J1|m+1> = sqrt((l-m)(l+m+1))/2, J2 the same with -i/+i,
    J3 = diag(m)."""
    ms = range(tl, -tl - 1, -2)
    out = np.zeros((tl + 1, tl + 1), dtype=complex)
    for r, tr in enumerate(ms):
        for c, tc in enumerate(ms):
            if tr == tc + 2:  # raise
                step = math.sqrt((tl - tc) * (tl + tc + 2)) / 4
                out[r, c] = {"1": step, "2": -1j * step, "3": 0}[axis]
            elif tr == tc - 2:  # lower
                step = math.sqrt((tl + tc) * (tl - tc + 2)) / 4
                out[r, c] = {"1": step, "2": 1j * step, "3": 0}[axis]
            elif tr == tc and axis == "3":
                out[r, c] = tc / 2
    return out


class TestAgainstMatrixElements:
    """Each constructor against its entries written out here, integer spins
    included: A_k = -i J_k and B_k = J_k on the (l, 0) carrier, and the
    two-spin ladders act on one projection of the (m, mdot) basis."""

    @pytest.mark.parametrize("tl", range(7))
    @pytest.mark.parametrize("kind", [f"{fam}{k}" for fam in "AB" for k in "123"])
    def test_helicity_ops(self, kind, tl):
        want = spin_matrix(kind[1], tl) * (-1j if kind[0] == "A" else 1)
        got = helicity_ops(half(tl))[kind]
        assert got.row_labels == tuple(enumerate_basis(half(tl), 0))
        assert [b.m.twice for b in got.row_labels] == list(range(tl, -tl - 1, -2))
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tl, tld", [(a, b) for a in range(7) for b in range(7)])
    def test_waerden_op(self, tl, tld):
        ops = waerden_ops(half(tl), half(tld))
        assert list(ops) == ["X+", "X-", "X3", "Y+", "Y-", "Y3"]
        for kind, got in ops.items():
            want = np.zeros(got.shape, dtype=complex)
            for r, row in enumerate(got.row_labels):
                for c, col in enumerate(got.col_labels):
                    # The factor acted on, and the one that must match.
                    tj, tr, tc, same = (
                        (tld, row.mdot.twice, col.mdot.twice, row.m == col.m)
                        if kind[0] == "X"
                        else (tl, row.m.twice, col.m.twice, row.mdot == col.mdot)
                    )
                    if not same:
                        continue
                    if kind[1] == "+" and tr == tc + 2:
                        want[r, c] = math.sqrt((tj - tc) * (tj + tc + 2)) / 2
                    elif kind[1] == "-" and tr == tc - 2:
                        want[r, c] = math.sqrt((tj + tc) * (tj - tc + 2)) / 2
                    elif kind[1] == "3" and tr == tc:
                        want[r, c] = tc / 2
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-15)


class TestSharedLabels:
    """Each carrier builds its `Labels` once, and every operator on it
    uses that one object for both axes."""

    @pytest.mark.parametrize("ops", [
        lambda: gn_ops(RepLabel(1, half(3))),
        lambda: waerden_ops(half(2), half(1)),
    ], ids=["gn_ops", "waerden_ops"])
    def test_one_row_labels_object(self, ops):
        ops = ops()
        first = next(iter(ops.values()))
        assert len(ops) == 6
        for op in ops.values():
            assert op.row_labels is first.row_labels
            assert op.col_labels is first.row_labels

    @pytest.mark.parametrize("system", [
        dirac_system,
        lambda: build_system(RepChain(((half(1), 1), (1, half(1)))),
                             CoeffTable({(0, 1, half(1), half(1)): 1.0})),
    ], ids=["dirac", "two-towers-per-rep"])
    def test_chain_matrices_share_the_chain_labels(self, system):
        system = system()
        labels = system.chain._basis
        assert labels == tuple(system.chain.basis())
        mats = [getattr(system, f"lambda{k}{c}") for k in "123" for c in ("", "c")]
        mats += chain_generators(system.chain).values()
        assert len(mats) == 6 + 12
        for mat in mats:
            assert mat.row_labels is labels
            assert mat.col_labels is labels


class TestHelicityOps:
    def test_a3_half(self):
        a3 = helicity_ops(half(1))["A3"]
        np.testing.assert_allclose(np.diag(a3.data), [-0.5j, 0.5j])

    def test_b3_half(self):
        b3 = helicity_ops(half(1))["B3"]
        np.testing.assert_allclose(np.diag(b3.data), [0.5, -0.5])

    def test_a1_half_is_sigma1_flavored(self):
        a1 = helicity_ops(half(1))["A1"]
        np.testing.assert_allclose(a1.data, [[0, -0.5j], [-0.5j, 0]])

    def test_boost_is_i_times_rotation(self):
        for l in SPINS:
            ops = helicity_ops(l)
            for k in "123":
                assert ops[f"B{k}"].residual_vs(1j * ops[f"A{k}"]) == 0.0

    def test_rotation_boost_relations(self):
        for l in SPINS:
            assert commutator_report(helicity_ops(l), "lorentz")["max_residual"] <= 1e-12

    def test_family_split_collapses_one_side(self):
        # The (l, 0) sextet carries only the Y family; the (0, l) carrier
        # carries only the X family.
        for l in SPINS:
            ops = helicity_ops(l)
            fams = split_families(ops)
            dotted = ab_from_families(waerden_ops(0, l))
            dotted_fams = split_families(dotted)
            for k in "123":
                assert fams[f"X{k}"].norm_inf() == 0.0
                assert fams[f"Y{k}"].residual_vs(ops[f"A{k}"]) == 0.0
                assert dotted_fams[f"Y{k}"].norm_inf() == 0.0
                assert dotted_fams[f"X{k}"].residual_vs(dotted[f"A{k}"]) == 0.0

    def test_split_families_satisfy_pair_relations(self):
        for l in SPINS:
            fams = split_families(helicity_ops(l))
            assert commutator_report(fams, "su2_pair")["max_residual"] <= 1e-12


class TestWaerdenOps:
    def test_x3_diagonal_pattern(self):
        x3 = waerden_ops(half(1), half(1))["X3"]
        np.testing.assert_allclose(np.diag(x3.data), [0.5, -0.5, 0.5, -0.5])

    def test_y_ladders_vanish_on_scalar_first_factor(self):
        ops = waerden_ops(half(0), half(1))
        for kind in ("Y+", "Y-"):
            assert ops[kind].norm_inf() == 0.0

    def test_x_plus_scalar_half(self):
        xp = waerden_ops(half(0), half(1))["X+"]
        np.testing.assert_allclose(xp.data, [[0, 1], [0, 0]])

    def test_pair_relations_all_small_carriers(self):
        for a in range(6):
            for b in range(6):
                ops = waerden_ops(half(a), half(b))
                assert commutator_report(ops, "su2_pair")["max_residual"] <= 1e-13

    def test_ladder_relations_hermitian_flavor(self):
        report = commutator_report(waerden_ops(half(1), half(1)), "ladder")
        assert report["max_residual"] <= 1e-14
        assert report["flavor"] == {"X": "hermitian", "Y": "hermitian"}

    def test_rotation_boost_set_assembled_from_families(self):
        for a in range(6):
            for b in range(6):
                ab = ab_from_families(waerden_ops(half(a), half(b)))
                assert commutator_report(ab, "lorentz")["max_residual"] <= 1e-12

    def test_all_zero_operators_give_zero_residual(self):
        z = CMatrix.zeros([half(1), half(-1)], [half(1), half(-1)])
        ops = {k: z for k in ("X+", "X-", "X3", "Y+", "Y-", "Y3")}
        assert commutator_report(ops, "su2_pair")["max_residual"] == 0.0


class TestDenseSizeGate:
    """Carriers above 4096 rows are refused before any label or matrix is
    built; no test builds one near the cap."""

    @pytest.mark.parametrize("build", [lambda: helicity_ops(10**4),
                                       lambda: waerden_ops(100, 100),
                                       lambda: gn_ops(RepLabel(half(99), half(99))),
                                       lambda: gn_ops(RepLabel(10**9, 10**9))],
                             ids=["helicity_ops", "waerden_ops", "gn_ops", "gn_ops_huge"])
    def test_refused_up_front(self, build):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dense carrier rows"):
            build()
        assert time.perf_counter() - start < 1.0


# The irreps (l1, l2) with 2l1, 2l2 <= 6, l1 > l2 (l0 = l2 - l1 < 0) included.
TOWERS = [RepLabel(half(t1), half(t2)) for t1 in range(7) for t2 in range(7)]


class TestTowerLayout:
    def test_tower_spins(self):
        # Gel'fand-Naimark's (l0, p) = (1/2, 2) and its sign flip.
        for rep in (RepLabel(half(1), 1), RepLabel(1, half(1))):
            assert rep.tower_spins() == [half(1), half(3)]
            assert rep.dim == 6  # (2*1/2+1) + (2*3/2+1)

    @pytest.mark.parametrize("rep", TOWERS, ids=lambda rep: f"({rep.l1},{rep.l2})")
    def test_carrier_rows_follow_the_tower_spins(self, rep):
        labels = gn_ops(rep)["H3"].row_labels
        assert list(labels) == [(l, m) for l in rep.tower_spins() for m in mrange(l)]

    def test_sign_of_l0_flips_only_the_diagonal_coefficient(self):
        # The mirror irrep (l2, l1) is Gel'fand-Naimark's (-l0, l1): the
        # same towers and links, and F's diagonal coefficient
        # i l0 l1 / (l (l+1)) changes sign.
        a, b = gn_ops(RepLabel(half(1), half(4))), gn_ops(RepLabel(half(4), half(1)))
        assert a["F3"].row_labels == b["F3"].row_labels
        for kind in ("H+", "H-", "H3"):
            assert np.array_equal(a[kind].data, b[kind].data)
        diag = np.diag(np.diag(a["F3"].data))
        assert np.allclose(b["F3"].data, a["F3"].data - 2 * diag, rtol=0, atol=1e-15)
        assert np.abs(diag).max() > 0.1


class TestGNOps:
    def test_h3_smallest_tower(self):
        h3 = gn_ops(RepLabel(0, half(1)))["H3"]
        np.testing.assert_allclose(np.diag(h3.data), [0.5, -0.5])

    def test_f3_smallest_tower_diagonal_coefficient(self):
        # Single-block tower: only the diagonal term survives, and the
        # diagonal coefficient evaluates to i there, so F3 = diag(-i m).
        f3 = gn_ops(RepLabel(0, half(1)))["F3"]
        np.testing.assert_allclose(f3.data, [[-0.5j, 0], [0, 0.5j]])

    def test_compact_family_closes(self):
        for rep in TOWERS:
            g = gn_ops(rep)
            r1 = g["H+"].commutator(g["H-"]).residual_vs(2 * g["H3"])
            r2 = g["H3"].commutator(g["H+"]).residual_vs(g["H+"])
            r3 = g["H3"].commutator(g["H-"]).residual_vs(-1 * g["H-"])
            assert max(r1, r2, r3) <= 1e-12

    def test_scalar_tower_has_no_ladder_or_diagonal_action(self):
        # l = 0 block: every H entry and the F diagonal term vanish by
        # the explicit skip; only block-coupling entries may appear.
        g = gn_ops(RepLabel(0, 0))
        for k, op in g.items():
            assert op.norm_inf() == 0.0, k


class TestBasisChange:
    def test_x3_plus_y3_is_minus_i_h3(self):
        g = gn_ops(RepLabel(half(1), half(1)))
        xy = basis_change(g)
        assert (xy["X3"] + xy["Y3"]).residual_vs(-1j * g["H3"]) == 0.0
        assert xy["A3"].residual_vs(-1j * g["H3"]) == 0.0

    def test_zero_input_gives_zero_output(self):
        basis = gn_ops(RepLabel(0, half(1)))["H3"].row_labels
        z = CMatrix.zeros(basis, basis)
        xy = basis_change({k: z for k in ("H+", "H-", "H3", "F+", "F-", "F3")})
        assert all(m.norm_inf() == 0.0 for m in xy.values())

    def test_round_trip_is_exact(self):
        # The map is exactly invertible; numerically each entry where
        # the two input families overlap picks up one float-add
        # rounding per direction, so "exact" means one ulp here.
        for rep in TOWERS:
            g = gn_ops(rep)
            xy = basis_change(g)
            for a in ("+", "-", "3"):
                x, y = xy[f"X{a}"], xy[f"Y{a}"]
                assert (x - y).residual_vs(g[f"F{a}"]) <= 1e-15, a
                assert (1j * (x + y)).residual_vs(g[f"H{a}"]) <= 1e-15, a

    def test_missing_operator_named(self):
        with pytest.raises(KeyError, match="H3"):
            basis_change({"H+": None, "H-": None})

    def test_mapped_towers_satisfy_both_relation_sets(self):
        for rep in TOWERS:
            xy = basis_change(gn_ops(rep))
            assert commutator_report(xy, "lorentz")["max_residual"] <= 1e-12
            assert commutator_report(xy, "su2_pair")["max_residual"] <= 1e-12

    def test_smallest_nontrivial_tower_example(self):
        xy = basis_change(gn_ops(RepLabel(0, 0)))
        assert commutator_report(xy, "lorentz")["max_residual"] <= 1e-12

    def test_two_dim_tower_families_commute(self):
        xy = basis_change(gn_ops(RepLabel(0, half(1))))
        for k in "123":
            for j in "123":
                assert xy[f"X{k}"].commutator(xy[f"Y{j}"]).norm_inf() == 0.0

    def test_mapped_ladders_are_antihermitian_flavored(self):
        xy = basis_change(gn_ops(RepLabel(0, half(1))))
        ladders = {k: xy[k] for k in ("X+", "X-", "X3", "Y+", "Y-", "Y3")}
        report = commutator_report(ladders, "ladder")
        assert report["flavor"]["X"] == "antihermitian"
        assert report["max_residual"] <= 1e-13


class TestTwoSpinorAgainstTower:
    """The two-spinor builder against the Gel'fand–Naimark tower of the
    same irrep (l, ldot).  The two share only the spin ladder and the
    Cartesian map; the tower's diagonal and link coefficients have no
    two-spinor counterpart.  Couple the (l, ldot) weight basis to |j, m'>
    with Clebsch–Gordan columns U and put the tower phase
    D = diag((-i)^(j - l0)) on it: with l0 = ldot - l, signed,
    D U^T W_k U D^-1 is the tower's mapped generator."""

    @pytest.mark.parametrize("tl, tld", [(tl, tld) for tl in range(7) for tld in range(7)])
    def test_coupled_two_spinor_is_the_tower(self, tl, tld):
        l, ldot = half(tl), half(tld)
        two_spinor = ab_from_families(waerden_ops(l, ldot))
        tower = basis_change(gn_ops(RepLabel(l, ldot)))
        cols = tower["A1"].row_labels
        u = np.array([[cg_su2(l, ldot, j, b.m, b.mdot, mp) for j, mp in cols]
                      for b in two_spinor["A1"].row_labels])
        phase = np.array([(-1j) ** int(j - (ldot - l)) for j, _ in cols])
        for k in ("A1", "A2", "A3", "B1", "B2", "B3"):
            got = phase[:, None] * (u.T @ two_spinor[k].data @ u) / phase
            assert np.max(np.abs(got - tower[k].data)) <= 1e-14, k


class TestCasimirReadback:
    """Both Casimir operators read back as scalars on both realizations:
    C1 = sum_k (A_k^2 - B_k^2) = -(l0^2 + l1^2 - 1) and
    C2 = sum_k A_k B_k = i l0 l1.  On both realizations of the irrep
    (l, ldot), l0 = ldot - l (signed) and l1 = l + ldot + 1.  C2 is the
    one that sees the sign of the tower's diagonal coefficient."""

    @staticmethod
    def assert_casimirs(ab, l0, l1):
        one = CMatrix.identity(ab["A1"].row_labels)
        a, b = ([ab[f"{f}{k}"] for k in "123"] for f in "AB")
        c1 = sum((x @ x - y @ y for x, y in zip(a, b)), 0 * one)
        c2 = sum((x @ y for x, y in zip(a, b)), 0 * one)
        for got, want in ((c1, -(l0 * l0 + l1 * l1 - 1)), (c2, 1j * l0 * l1)):
            assert got.residual_vs(want * one) <= 1e-14 * max(1.0, abs(want)), want

    @pytest.mark.parametrize("tl", range(7))
    def test_tower(self, tl):
        # 2l1 <= 6 and 2l2 <= 10: every signed irrep up to 2l1, 2l2 <= 6,
        # and the towers (l0 >= 0, p <= 5) out to 2l2 = 10.
        for tld in range(11):
            ab = basis_change(gn_ops(RepLabel(half(tl), half(tld))))
            self.assert_casimirs(ab, (tld - tl) / 2, (tl + tld) / 2 + 1)

    @pytest.mark.parametrize("tl", range(7))
    def test_two_spinor(self, tl):
        for tld in range(7):
            ab = ab_from_families(waerden_ops(half(tl), half(tld)))
            self.assert_casimirs(ab, (tld - tl) / 2, (tl + tld) / 2 + 1)


class TestCommutatorReport:
    def test_third_relation_cyclic_not_printed(self):
        # The cyclic closure relation holds exactly; the doubtful
        # non-cyclic variant misses by an O(1) margin.
        report = commutator_report(waerden_ops(half(1), half(1)), "su2_pair")
        third = report["third_relation"]
        assert third["holds"] == "cyclic"
        assert third["cyclic [X3,X1]=X2"] <= 1e-13
        assert third["printed [X2,X1]=X2"] > 0.4

    def test_relation_count(self):
        report = commutator_report(helicity_ops(half(2)), "lorentz")
        assert len(report["residuals"]) == 18
        report = commutator_report(waerden_ops(half(1), half(2)), "su2_pair")
        assert len(report["residuals"]) == 15

    def test_missing_operator_is_named(self):
        with pytest.raises(KeyError, match="A2"):
            commutator_report({"A1": helicity_ops(half(1))["A1"]}, "lorentz")

    def test_unknown_relation_set_rejected(self):
        with pytest.raises(ValueError):
            commutator_report({}, "poincare")


class TestRelationResiduals:
    def test_rows_in_order_none_means_vanish(self):
        a, b, c = (helicity_ops(half(2))[f"A{k}"] for k in "123")
        got = relation_residuals([("closes", a, b, c), ("vanishes", a, b, None),
                                  ("self", a, a, None)])
        assert list(got) == ["closes", "vanishes", "self"]
        assert got["closes"] == a.commutator(b).residual_vs(c)
        assert got["vanishes"] == a.commutator(b).norm_inf() > 0.5
        assert got["self"] == 0.0


class TestFlavorTable:
    """The two ladder flavors differ only by the scale s in [X3, X+] = s X+;
    the Cartesian components do not see which one a family carries."""

    @pytest.mark.parametrize("tl, tld", [(1, 1), (1, 2), (2, 1), (3, 2), (4, 4)])
    def test_minus_i_times_a_hermitian_family(self, tl, tld):
        ops = waerden_ops(half(tl), half(tld))
        scaled = {k: -1j * v for k, v in ops.items()}
        for relation_set in ("ladder", "su2_pair"):
            assert commutator_report(ops, relation_set)["flavor"] == {
                "X": "hermitian", "Y": "hermitian"}
            report = commutator_report(scaled, relation_set)
            assert report["flavor"] == {"X": "antihermitian", "Y": "antihermitian"}
            assert report["max_residual"] <= 1e-13
        labels = commutator_report(scaled, "ladder")["residuals"]
        assert list(labels)[:3] == ["[X3,X+]=-iX+", "[X3,X-]=+iX-", "[X+,X-]=-2iX3"]
        for fam in "XY":
            plain, _ = _cartesianize(ops, fam)
            rotated, _ = _cartesianize(scaled, fam)
            for k in "123":
                assert np.array_equal(rotated[k].data, plain[k].data)

    def test_all_zero_family_is_degenerate(self):
        z = CMatrix.zeros([half(1), half(-1)], [half(1), half(-1)])
        ops = {k: z for k in ("X+", "X-", "X3", "Y+", "Y-", "Y3")}
        for relation_set in ("ladder", "su2_pair"):
            report = commutator_report(ops, relation_set)
            assert report["flavor"] == {"X": "degenerate", "Y": "degenerate"}
            assert report["max_residual"] == 0.0


# (twice l, step) of every source tower up to l = 3 with a target tower.
TOWER_STEPS = [(tl, step) for tl in range(7) for step in (-1, 0, 1)
               if tl + 2 * step >= 0]


class TestTowerLink:
    """Wigner-Eckart oracle for `_tower_link`, from `su2.cg_su2`, which
    shares no code with it: each spherical component V_{+1} = -V+/sqrt2,
    V_0 = V3, V_{-1} = V-/sqrt2 divided by <l m; 1 q | l+step, m+q> is one
    constant over m, and vanishes wherever the coefficient does."""

    @pytest.mark.parametrize("twice_l, step", TOWER_STEPS)
    def test_weights_follow_clebsch_gordan(self, twice_l, step):
        l = half(twice_l)
        target = l + step
        vp, vm, v3 = _tower_link(l, step)
        assert v3.shape == (target.twice + 1, twice_l + 1)
        for q, block in ((1, -vp / math.sqrt(2)), (0, v3),
                         (-1, vm / math.sqrt(2))):
            ratios = []
            for i in range(target.twice + 1):
                for j in range(twice_l + 1):
                    cg = cg_su2(l, 1, target, l - j, q, target - i)
                    if cg == 0.0:
                        assert block[i, j] == 0.0, (q, i, j)
                    else:
                        ratios.append(block[i, j] / cg)
            if twice_l == step == 0:  # nothing rank-1 acts within spin 0
                assert not ratios
                continue
            assert ratios and ratios[0] != 0.0
            assert np.allclose(ratios, ratios[0], rtol=1e-13, atol=0)
