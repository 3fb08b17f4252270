import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from helirep.core import CMatrix, RepLabel
from helirep.gelfand_yaglom import (
    ChainIndex,
    CoeffTable,
    RepChain,
    _chain_ladder,
    _relations,
    _sectors,
    assemble_lambda3,
    build_system,
    chain_generators,
    classify,
    dirac_chain,
    dirac_system,
    extract_spin_blocks,
    gamma_similarity,
    is_interlocking,
    lambda12_from_commutators,
    reassemble_spin_blocks,
    spin_content,
    system_from_config,
    system_to_config,
    verify_invariance,
    weyl_gamma_triple,
)
from helirep.generators import split_families
from helirep.halfint import half, mrange
from helirep.radial import assemble_rfs
from test_generators import spin_matrix

SEED = 20260822


def _compare_configs():
    """The seeded chain configs of ``tools/compare_outputs.py``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.configs()


def finite_invariance_check(system, xi=1e-4):
    """First-order spot check with finite group elements.

    Conjugates each matrix by exp(xi * generator) and compares against
    the matrix plus xi times the table right-hand side; the deviation
    must shrink like xi^2.  The exponential is scipy's, not the library's.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    gens = chain_generators(system.chain)
    worst = 0.0
    for family, lambdas, tag in _sectors(system):
        for _, gen, lam, rhs in _relations(family, lambdas, gens, tag):
            moved = expm(xi * gen.data) @ lam.data @ expm(-xi * gen.data)
            first_order = lam.data if rhs is None else lam.data + xi * rhs.data
            worst = max(worst, float(np.max(np.abs(moved - first_order))))
    return {"xi": xi, "max_deviation": worst, "second_order": worst <= 100.0 * xi * xi}


def random_table(chain, rng):
    """Dense random coefficients on every admissible tower pair."""
    keys = []
    nreps = len(chain.reps)
    for kp in range(nreps):
        for k in range(nreps):
            if kp != k and not is_interlocking(chain.reps[kp], chain.reps[k]):
                continue
            for lp in chain.reps[kp].tower_spins():
                for l in chain.reps[k].tower_spins():
                    if abs(lp.twice - l.twice) <= 2:
                        keys.append((kp, k, lp, l))
    return CoeffTable(
        {key: complex(rng.normal(), rng.normal()) for key in keys},
        {key: complex(rng.normal(), rng.normal()) for key in keys},
    )


CHAINS = [
    dirac_chain(),
    RepChain(((half(1), half(1)),)),
    RepChain(((half(1), 1), (1, half(1)))),
    RepChain(((0, half(1)), (half(1), 0), (half(1), 1))),
]


class TestInterlocking:
    def test_half_step_both_slots(self):
        assert is_interlocking(RepLabel(half(1), 0), RepLabel(0, half(1)))
        assert is_interlocking(RepLabel(half(1), 0), RepLabel(1, half(1)))

    def test_unshifted_slot_fails(self):
        assert not is_interlocking(RepLabel(half(1), 0), RepLabel(half(3), 0))

    def test_chain_links(self):
        chain = CHAINS[3]
        assert chain.links == ((0, 1), (0, 2))


class TestClassify:
    def test_two_linked_reps_are_indecomposable(self):
        (component,) = classify(dirac_chain())
        assert component == {"members": (0, 1), "verdict": "indecomposable"}

    def test_unlinked_reps_are_decomposable_singletons(self):
        chain = RepChain(((half(1), 0), (half(3), 0)))
        assert classify(chain) == (
            {"members": (0,), "verdict": "decomposable"},
            {"members": (1,), "verdict": "decomposable"},
        )

    def test_link_closure_joins_three(self):
        (component,) = classify(CHAINS[3])
        assert component["members"] == (0, 1, 2)
        assert component["verdict"] == "indecomposable"


class TestAssembly:
    def test_symmetric_unit_coefficients_swap_the_irreps(self):
        table = CoeffTable(
            undotted={
                (0, 1, half(1), half(1)): 1.0,
                (1, 0, half(1), half(1)): 1.0,
            }
        )
        lambda3, lambda3c = assemble_lambda3(dirac_chain(), table)
        swap = np.zeros((4, 4))
        swap[0, 2] = swap[2, 0] = 0.5
        swap[1, 3] = swap[3, 1] = -0.5
        assert np.array_equal(lambda3.data, swap)
        assert lambda3c.norm_inf() == 0.0

    def test_empty_table_gives_zero(self):
        lambda3, _ = assemble_lambda3(dirac_chain(), CoeffTable())
        assert lambda3.norm_inf() == 0.0

    def test_single_irrep_diagonal_coefficient(self):
        chain = RepChain(((half(1), half(1)),))
        lambda3, _ = assemble_lambda3(chain, CoeffTable(undotted={(0, 0, 1, 1): 1.0}))
        assert np.array_equal(np.diag(lambda3.data).real, [0.0, 1.0, 0.0, -1.0])
        assert np.max(np.abs(lambda3.data - np.diag(np.diag(lambda3.data)))) == 0.0

    def test_tower_gap_rejected_at_table_construction(self):
        with pytest.raises(ValueError, match="more than one step"):
            CoeffTable(undotted={(0, 1, half(1), half(5)): 1.0})

    def test_coefficient_on_non_link_rejected(self):
        chain = RepChain(((half(1), 0), (half(3), 0)))
        table = CoeffTable(undotted={(0, 1, half(1), half(3)): 1.0})
        with pytest.raises(ValueError, match="non-interlocking"):
            assemble_lambda3(chain, table)

    def test_absent_tower_rejected(self):
        table = CoeffTable(undotted={(0, 1, half(3), half(1)): 1.0})
        with pytest.raises(ValueError, match="absent"):
            assemble_lambda3(dirac_chain(), table)

    @pytest.mark.parametrize("rep", [0.9, True, -1])
    def test_table_rep_numbers_are_counts(self, rep):
        # 0.9 used to be truncated to rep 0
        with pytest.raises(ValueError, match=f"^rep must be an integer >= 0, got {rep}$"):
            CoeffTable(undotted={(rep, 1, half(1), half(1)): 1.0})


class TestDiracSystem:
    def test_triple_is_half_the_gamma_triple(self):
        system = dirac_system()
        for lam, gamma in zip(system.lambda_triple(), weyl_gamma_triple()):
            assert np.array_equal(lam.data, gamma / 2)

    def test_conjugate_triple_matches(self):
        system = dirac_system()
        for lam, gamma in zip(system.lambda_triple("conjugate"), weyl_gamma_triple()):
            assert np.array_equal(lam.data, gamma / 2)

    def test_invariance_closes_exactly(self):
        report = verify_invariance(dirac_system())
        assert report["max_residual"] == 0.0
        assert report["violations"] == []
        assert len(report["residuals"]) == 46

    def test_unknown_sector_rejected(self):
        with pytest.raises(ValueError, match="unknown sector 'bogus'"):
            dirac_system().lambda_triple("bogus")
        radial = assemble_rfs(dirac_system(), "1/2", "1/2")
        with pytest.raises(ValueError, match="^unknown sector 'x'$"):
            radial.block("x")

    def test_similarity_to_gamma_triple(self):
        report = gamma_similarity(dirac_system().lambda_triple(), weyl_gamma_triple())
        assert report["scale"] == pytest.approx(0.5, abs=1e-12)
        assert report["residual"] <= 1e-12
        assert report["condition"] <= 1.0 + 1e-9

    def test_spin_half_block_has_nonzero_roots(self):
        system = dirac_system()
        content = spin_content(system.lambda3, system.chain)
        assert content == {half(1): True}

    def test_finite_transform_spot_check(self):
        report = finite_invariance_check(dirac_system(), xi=1e-4)
        assert report["second_order"]
        assert report["max_deviation"] <= 1e-8


class TestRandomTables:
    @pytest.mark.parametrize("chain", CHAINS, ids=lambda c: f"dim{c.dim}")
    def test_invariance_for_random_coefficients(self, chain):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(5):
            system = build_system(chain, random_table(chain, rng))
            worst = max(worst, verify_invariance(system)["max_residual"])
        assert worst <= 1e-12

    def test_ladder_identities_listed_per_sector(self):
        rng = np.random.default_rng(SEED + 1)
        system = build_system(CHAINS[2], random_table(CHAINS[2], rng))
        report = verify_invariance(system)
        assert report["residuals"]["[Y+,[lambda3,Y-]]=2*lambda3"] <= 1e-12
        assert report["residuals"]["[X+t,[lambda3c,X-t]]=2*lambda3c"] <= 1e-12
        assert report["residuals"]["[lambda3,X3]=0"] == 0.0

    def test_perturbed_entry_flags_violations(self):
        system = dirac_system()
        bumped = system.lambda3.data.copy()
        bumped[0, 0] += 1e-3
        broken = type(system)(
            system.chain,
            system.coeffs,
            system.lambda1,
            system.lambda2,
            CMatrix(bumped, system.lambda3.row_labels),
            system.lambda1c,
            system.lambda2c,
            system.lambda3c,
            system.kappa,
            system.kappa_dot,
        )
        report = verify_invariance(broken)
        assert report["violations"]
        assert report["max_residual"] >= 1e-4

    def test_zero_matrix_recovers_zero_pair(self):
        chain = dirac_chain()
        gens = chain_generators(chain)
        zero, _ = assemble_lambda3(chain, CoeffTable())
        lambda1, lambda2 = lambda12_from_commutators(zero, gens)
        assert lambda1.norm_inf() == 0.0
        assert lambda2.norm_inf() == 0.0

    @pytest.mark.parametrize("name", ["chain4", "chain6"])
    def test_postcondition_is_relative_to_the_coefficients(self, name):
        # The compare tool's seeded chains, every coefficient times 1e5:
        # consistent, with round-off residuals of 2.3e-10 and 1.0e-10.
        cfg = _compare_configs()[f"{name}.json"]
        cfg["coeffs"] = [{**row, "re": row["re"] * 1e5, "im": row["im"] * 1e5}
                         for row in cfg["coeffs"]]
        system = system_from_config(cfg)
        assert system.lambda3.norm_inf() > 1e4

    def test_inconsistent_matrix_raises(self):
        chain = dirac_chain()
        gens = chain_generators(chain)
        basis = chain.basis()
        raiser = CMatrix.zeros(basis)
        raiser.data[0, 1] = 1.0  # couples different m within one tower
        with pytest.raises(ValueError, match="inconsisten"):
            lambda12_from_commutators(raiser, gens)


class TestChainGenerators:
    # Each tower's block against the Hermitian J_k of its spin written out
    # from matrix elements: A = -iJ, B = iA = J, At = -A = iJ and
    # Bt = -i At = iA = J.
    FACTOR = {"A": -1j, "B": 1, "At": 1j, "Bt": 1}

    def test_blocks_are_the_tower_generators(self):
        # Integer towers 0, 1, 2 / 0, 1 / 0: each tower's generator sits
        # on the diagonal in basis order, and nothing couples two towers.
        chain = RepChain(((1, 1), (half(1), half(1)), (0, 0)))
        gens = chain_generators(chain)
        basis = chain.basis()
        for (fam, factor), i in itertools.product(self.FACTOR.items(), "123"):
            kind = f"{fam[0]}{i}{fam[1:]}"
            rest = gens[kind].data.copy()
            start = 0
            for k in range(len(chain.reps)):
                for l in chain.reps[k].tower_spins():
                    stop = start + l.twice + 1
                    assert basis[start:stop] == [ChainIndex(k, l, m) for m in mrange(l)]
                    block = factor * spin_matrix(i, l.twice)
                    np.testing.assert_allclose(rest[start:stop, start:stop], block,
                                               rtol=0, atol=1e-15, err_msg=kind)
                    rest[start:stop, start:stop] = 0
                    start = stop
            assert start == len(basis)
            assert not rest.any(), kind


class TestSpinBlocks:
    @pytest.mark.parametrize("chain", CHAINS, ids=lambda c: f"dim{c.dim}")
    def test_extraction_roundtrip_is_lossless(self, chain):
        rng = np.random.default_rng(SEED + 2)
        system = build_system(chain, random_table(chain, rng))
        blocks = extract_spin_blocks(system.lambda3, chain)
        back = reassemble_spin_blocks(blocks, chain)
        assert np.array_equal(back.data, system.lambda3.data)

    def test_block_sizes_count_towers_reaching_m(self):
        chain = CHAINS[2]  # towers 1/2, 3/2 in each of two reps
        system = build_system(chain, random_table(chain, np.random.default_rng(SEED)))
        blocks = extract_spin_blocks(system.lambda3, chain)
        assert blocks[half(3)].shape == (2, 2)
        assert blocks[half(1)].shape == (4, 4)

    def test_dirac_m_half_block(self):
        system = dirac_system()
        block = extract_spin_blocks(system.lambda3, system.chain)[half(1)]
        assert np.array_equal(block.data, np.array([[0, 0.5], [-0.5, 0]]))
        eigs = np.linalg.eigvals(block.data)
        assert sorted(eigs.imag) == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_matrix_without_the_chain_labels_is_named(self):
        with pytest.raises(ValueError, match=r"label \[0\]\(1/2,1/2\) is not on this axis"):
            extract_spin_blocks(CMatrix.identity(["a", "b", "c", "d"]), dirac_chain())

    def test_blocks_of_another_chain_are_named(self):
        chain = CHAINS[2]  # a spin-3/2 tower, which the Dirac chain lacks
        system = build_system(chain, random_table(chain, np.random.default_rng(SEED)))
        blocks = extract_spin_blocks(system.lambda3, chain)
        with pytest.raises(ValueError, match=r"label \[0\]\(3/2,1/2\) is not on this axis"):
            reassemble_spin_blocks(blocks, dirac_chain())


class TestDenseSizeGate:
    """A chain above 4096 rows is refused before any label or matrix is
    built; no test builds one near the cap."""

    @pytest.mark.parametrize("spin", ["32", 10**6], ids=["4225-rows", "spin-1e6"])
    def test_refused_before_any_label(self, monkeypatch, spin):
        def no_labels(*args):
            raise AssertionError("a chain label was built")

        monkeypatch.setattr("helirep.gelfand_yaglom.ChainIndex", no_labels)
        with pytest.raises(ValueError, match="dense carrier rows must be an integer "
                                             "between 1 and 4096, got "):
            RepChain([(spin, spin)])


class TestLadderStructure:
    """The ladders `verify_invariance` reads are those of the generator
    set: `split_families` of the plain sector (A, B) gives X = 0 and
    Y_k = A_k, whose ladder is -i times the chain-wide (J+, J-, J3); of the
    conjugate sector (At, Bt) it gives Y = 0 and X_k = A_kt, whose ladder
    is i times it.  Checked on Dirac and on a chain of two towers per rep."""

    LADDER_CHAINS = [dirac_chain(), CHAINS[2]]

    @staticmethod
    def families(gens, suffix):
        return split_families(
            {f"{f}{i}": gens[f"{f}{i}{suffix}"] for f in "AB" for i in "123"})

    @staticmethod
    def assert_ladder(fams, fam, chain, scale):
        one, two, three = (fams[f"{fam}{k}"] for k in "123")
        for got, j in zip((one + 1j * two, one - 1j * two, three),
                          _chain_ladder(chain)):
            assert got.residual_vs(CMatrix(scale * j, chain.basis())) == 0.0

    def test_plain_sector_raising_family_vanishes(self):
        for chain in self.LADDER_CHAINS:
            gens = chain_generators(chain)
            fams = self.families(gens, "")
            for k in "123":
                assert fams[f"X{k}"].norm_inf() == 0.0
                assert fams[f"Y{k}"].residual_vs(gens[f"A{k}"]) == 0.0
            self.assert_ladder(fams, "Y", chain, -1j)

    def test_conjugate_sector_roles_swap(self):
        for chain in self.LADDER_CHAINS:
            gens = chain_generators(chain)
            fams = self.families(gens, "t")
            for k in "123":
                assert fams[f"Y{k}"].norm_inf() == 0.0
                assert fams[f"X{k}"].residual_vs(gens[f"A{k}t"]) == 0.0
            self.assert_ladder(fams, "X", chain, 1j)


class TestConfigRoundTrip:
    def test_dirac_reproduces(self):
        system = dirac_system()
        rebuilt = system_from_config(system_to_config(system))
        assert np.array_equal(rebuilt.lambda3.data, system.lambda3.data)
        assert np.array_equal(rebuilt.lambda1.data, system.lambda1.data)
        assert rebuilt.kappa == system.kappa

    def test_rep_numbers_are_one_based(self):
        cfg = system_to_config(dirac_system())
        assert {row["from"] for row in cfg["coeffs"]} == {1, 2}
        assert {row["to"] for row in cfg["coeffs"]} == {1, 2}

    def test_empty_reps_rejected(self):
        with pytest.raises(ValueError, match="reps"):
            system_from_config({"reps": []})

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            system_from_config([1, 2])

    @pytest.mark.parametrize("field", ["from", "to"])
    @pytest.mark.parametrize("bad", [2.9, True, 0, "2"])
    def test_rep_numbers_are_counts(self, field, bad):
        # 2.9 used to be read as rep 2 and true as rep 1
        cfg = system_to_config(dirac_system())
        cfg["coeffs"][0][field] = bad
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            system_from_config(cfg)

    @pytest.mark.parametrize("edit, field", [
        (lambda cfg: cfg.update(reps=[5, 6]), r"reps\[0\]"),
        (lambda cfg: cfg.update(reps="ab"), "'reps'"),
        (lambda cfg: cfg["reps"][1].pop("l2"), r"reps\[1\] needs 'l2'"),
        (lambda cfg: cfg.update(coeffs=[3]), r"coeffs\[0\]"),
        (lambda cfg: cfg["coeffs"][1].pop("from"), r"coeffs\[1\] needs 'from'"),
        (lambda cfg: cfg["dotted"][0].pop("lp"), r"dotted\[0\] needs 'lp'"),
        (lambda cfg: cfg.update(kappa=[1, 2, 3]), "'kappa'"),
        (lambda cfg: cfg.update(kappa_dot=1.0), "'kappa_dot'"),
        (lambda cfg: cfg["reps"][0].update(l1=["1/2"]), r"reps\[0\]\.l1"),
        (lambda cfg: cfg["reps"][0].update(l1=True), r"reps\[0\]\.l1"),
        (lambda cfg: cfg["reps"][0].update(l2=float("inf")), r"reps\[0\]\.l2"),
        (lambda cfg: cfg["coeffs"][0].update(l=None), r"coeffs\[0\]\.l\b"),
        (lambda cfg: cfg["coeffs"][0].update(lp="1/3"), r"coeffs\[0\]\.lp"),
        (lambda cfg: cfg["coeffs"][0].update(re="1.0"), r"coeffs\[0\]\.re"),
    ], ids=["reps-ints", "reps-string", "rep-without-l2", "coeffs-int",
            "row-without-from", "dotted-without-lp", "kappa-triple",
            "kappa_dot-scalar", "label-list", "label-bool", "label-inf",
            "label-null", "label-third", "re-string"])
    def test_schema_errors_name_the_field(self, edit, field):
        # These used to escape as a raw KeyError or TypeError ("'l2'").
        cfg = system_to_config(dirac_system())
        edit(cfg)
        with pytest.raises(ValueError, match=field):
            system_from_config(cfg)

    def test_dotted_rows_default_to_plain(self):
        cfg = {
            "reps": [{"l1": "1/2", "l2": "0"}, {"l1": "0", "l2": "1/2"}],
            "coeffs": [
                {"from": 2, "to": 1, "lp": "1/2", "l": "1/2", "re": 1.0, "im": 0.0},
                {"from": 1, "to": 2, "lp": "1/2", "l": "1/2", "re": -1.0, "im": 0.0},
            ],
        }
        system = system_from_config(cfg)
        assert np.array_equal(system.lambda3c.data, system.lambda3.data)


class TestNonFiniteInputs:
    """A NaN or infinite coefficient or mass is refused when the chain is
    built; JSON configs can spell NaN, and it used to reach the solvers."""

    KEY = (0, 1, half(1), half(1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    @pytest.mark.parametrize("sector", ["undotted", "dotted"])
    def test_coefficient_rejected(self, bad, sector):
        with pytest.raises(ValueError, match="coefficient .* must be finite"):
            CoeffTable(**{sector: {self.KEY: bad}})

    @pytest.mark.parametrize("masses", [
        {"kappa": float("nan")},
        {"kappa": complex(1, float("inf"))},
        {"kappa": 1.0, "kappa_dot": float("nan")},
        {"kappa": 1.0, "kappa_dot": -float("inf")},
    ])
    def test_mass_rejected(self, masses):
        name = "kappa_dot" if "kappa_dot" in masses else "kappa"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            dirac_system(**masses)

    def test_config_rows_rejected(self):
        cfg = system_to_config(dirac_system())
        cfg["coeffs"][0]["re"] = float("nan")
        with pytest.raises(ValueError, match="coefficient .* must be finite"):
            system_from_config(cfg)
        cfg = system_to_config(dirac_system())
        cfg["kappa"] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="kappa must be finite"):
            system_from_config(cfg)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_postcondition_fails_a_nan_row(self, bad):
        # NaN is never greater than the tolerance; the rotation-table
        # postcondition must still refuse it.
        system = dirac_system()
        data = system.lambda3.data.copy()
        data[0, 2] = bad
        lambda3 = CMatrix(data, system.lambda3.row_labels)
        with pytest.raises(ValueError, match="rotation table inconsistency.*nan"), \
                np.errstate(invalid="ignore"):
            lambda12_from_commutators(lambda3, chain_generators(system.chain))
