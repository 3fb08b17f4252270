"""Acceptance suite: one test per top-level criterion.

Each test prints a single summary line with its measured margins (visible
under ``pytest -s``); the pass/fail verdict is the test outcome itself.
Tolerances are pinned inline and are not to be loosened.
"""

import json
import math

import numpy as np
import pytest

from helirep.cli import main
from helirep.clifford import (
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    verify_clifford,
    verify_tn_relations,
)
from helirep.core import CMatrix, GroupPoint, RepLabel
from helirep.gelfand_yaglom import (
    CoeffTable,
    RepChain,
    build_system,
    classify,
    dirac_chain,
    dirac_system,
    extract_spin_blocks,
    gamma_similarity,
    is_interlocking,
    reassemble_spin_blocks,
    verify_invariance,
    weyl_gamma_triple,
)
from helirep.generators import (
    ab_from_families,
    basis_change,
    commutator_report,
    gn_ops,
    helicity_ops,
    split_families,
    waerden_ops,
)
from helirep.halfint import HalfInt, half, lrange, mrange
from helirep.hyperspherical import (
    euler_product,
    fundamental_matrix,
    m_matrix,
    z_factorized,
    z_grid,
    z_matrix,
    z_series,
    z_series_grid,
)
from helirep.kernels import PoleError
from helirep.radial import (
    assemble_rfs,
    bessel_probe,
    convergence_order,
    integrate,
    residual,
)
from helirep.su2 import cg_su2, cg_su2_hyp
from helirep.tensordec import (
    cg_series,
    coupled_vector,
    product_basis,
    total_operator,
)

SEED = 20260822


def random_coeff_table(chain, rng):
    """Dense random coefficients on every admissible tower pair."""
    keys = []
    for kp in range(len(chain.reps)):
        for k in range(len(chain.reps)):
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


def test_criterion_1_fundamental_matrix_three_routes():
    rng = np.random.default_rng(SEED)
    spin = HalfInt("1/2")
    worst_explicit = 0.0
    worst_euler = 0.0
    for _ in range(100):
        g = GroupPoint(
            phi=rng.uniform(0, 2 * math.pi),
            eps=rng.uniform(-1, 1),
            theta=rng.uniform(0, math.pi * 0.98),
            tau=rng.uniform(-2, 2),
            psi=rng.uniform(0, 2 * math.pi),
            veps=rng.uniform(-1, 1),
        )
        assembled = m_matrix(spin, g)
        worst_explicit = max(
            worst_explicit, assembled.residual_vs(fundamental_matrix(g))
        )
        worst_euler = max(
            worst_euler, assembled.residual_vs(euler_product(g))
        )
    print(f"[criterion 1] explicit {worst_explicit:.3e}, "
          f"euler {worst_euler:.3e} (tol 1e-12)")
    assert worst_explicit <= 1e-12
    assert worst_euler <= 1e-12


def test_criterion_2_dual_route_agreement():
    thetas = np.linspace(0.0, 1.4, 5)
    taus = np.linspace(-1.2, 1.2, 5)
    worst = 0.0
    keys = [(l, m, n) for l in lrange("0", 4) for m in mrange(l) for n in mrange(l)]
    for count, (l, m, n) in enumerate(keys):
        series = z_series_grid(l, m, n, thetas, taus)
        factorized = z_grid(l, m, n, thetas, taus)
        worst = max(worst, float(np.max(np.abs(series - factorized))))
        # The one-point views reproduce their tables; the spot cell cycles
        # through the grid from key to key.
        i, j = divmod(count % thetas.size**2, thetas.size)
        assert z_series(l, m, n, thetas[i], taus[j]) == series[i, j]
        assert z_factorized(l, m, n, thetas[i], taus[j]) == factorized[i, j]
    print(f"[criterion 2] dual-route worst {worst:.3e} over l<=4 (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_3_one_parameter_group_laws():
    worst_law = 0.0
    worst_unitary = 0.0
    for l in lrange("1/2", 3):
        for t1, t2 in ((0.3, 0.9), (1.1, -0.4), (0.05, 0.55)):
            rot = z_matrix(l, t1, 0.0) @ z_matrix(l, t2, 0.0)
            worst_law = max(
                worst_law, rot.residual_vs(z_matrix(l, t1 + t2, 0.0))
            )
            boost = z_matrix(l, 0.0, t1) @ z_matrix(l, 0.0, t2)
            worst_law = max(
                worst_law, boost.residual_vs(z_matrix(l, 0.0, t1 + t2))
            )
        for theta in (0.3, 1.2, 2.0):
            u = z_matrix(l, theta, 0.0)
            worst_unitary = max(
                worst_unitary,
                (u @ u.dagger()).residual_vs(CMatrix.identity(u.row_labels)),
            )
    print(f"[criterion 3] group law {worst_law:.3e} (tol 1e-10), "
          f"unitarity {worst_unitary:.3e} (tol 1e-12)")
    assert worst_law <= 1e-10
    assert worst_unitary <= 1e-12


def test_criterion_4_commutator_tables_three_realizations():
    worst = 0.0
    for l in lrange("1/2", 3):
        ops = helicity_ops(l)
        worst = max(worst, commutator_report(ops, "lorentz")["max_residual"])
        worst = max(
            worst,
            commutator_report(split_families(ops), "su2_pair")["max_residual"],
        )
    for l in lrange("0", "5/2"):
        for ldot in lrange("0", "5/2"):
            if l.twice == 0 and ldot.twice == 0:
                continue
            ladders = waerden_ops(l, ldot)
            worst = max(
                worst, commutator_report(ladders, "ladder")["max_residual"]
            )
            worst = max(
                worst,
                commutator_report(
                    ab_from_families(ladders), "lorentz"
                )["max_residual"],
            )
    for l1 in lrange("0", 2):
        for l2 in lrange("0", 3):
            mapped = basis_change(gn_ops(RepLabel(l1, l2)))
            worst = max(
                worst, commutator_report(mapped, "lorentz")["max_residual"]
            )
            worst = max(
                worst, commutator_report(mapped, "su2_pair")["max_residual"]
            )
    print(f"[criterion 4] commutator tables worst {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_5_clebsch_gordan_layer():
    worst_orth = 0.0
    for l1 in lrange("1/2", 3):
        for l2 in lrange("1/2", 3):
            table = {}
            for l in lrange(abs(l1 - l2), l1 + l2):
                for m in mrange(l):
                    for m1 in mrange(l1):
                        m2 = m - m1
                        if abs(m2.twice) > l2.twice:
                            continue
                        table[(l, m, m1)] = cg_su2(l1, l2, l, m1, m2, m)
            for l in lrange(abs(l1 - l2), l1 + l2):
                for lp in lrange(abs(l1 - l2), l1 + l2):
                    for m in mrange(min(l, lp, key=lambda s: s.twice)):
                        total = sum(
                            table.get((l, m, m1), 0.0)
                            * table.get((lp, m, m1), 0.0)
                            for m1 in mrange(l1)
                        )
                        want = 1.0 if l == lp else 0.0
                        worst_orth = max(worst_orth, abs(total - want))

    worst_eig = 0.0
    for a, b in ((RepLabel("1/2", "0"), RepLabel("0", "1/2")),
                 (RepLabel("1", "1/2"), RepLabel("1/2", "1/2"))):
        pairs = product_basis(a, b)
        y3 = total_operator("Y3", a, b).data
        x3 = total_operator("X3", a, b).data
        yp = total_operator("Y+", a, b).data
        xp = total_operator("X+", a, b).data
        for lab in cg_series(a, b):
            top = coupled_vector(a, b, lab.l1, lab.l2, lab.l1, lab.l2)
            v = top.vector(pairs)
            worst_eig = max(worst_eig, float(np.max(np.abs(yp @ v))))
            worst_eig = max(worst_eig, float(np.max(np.abs(xp @ v))))
            for m in mrange(lab.l1):
                for mp in mrange(lab.l2):
                    w = coupled_vector(a, b, lab.l1, lab.l2, m, mp).vector(pairs)
                    worst_eig = max(worst_eig, float(np.max(np.abs(
                        y3 @ w - float(m) * w
                    ))))
                    worst_eig = max(worst_eig, float(np.max(np.abs(
                        x3 @ w - float(mp) * w
                    ))))

    bookkeeping_exact = True
    for l1 in lrange("0", 3):
        for l2 in lrange("0", 3):
            a, b = RepLabel(l1, "0"), RepLabel(l2, "0")
            total = sum(lab.dim for lab in cg_series(a, b))
            bookkeeping_exact &= total == a.dim * b.dim

    worst_spread = 0.0
    factors = {}
    for tl1 in range(0, 5):
        for tl2 in range(0, 5):
            l1, l2 = half(tl1), half(tl2)
            for l in lrange(abs(l1 - l2), l1 + l2):
                ratios = []
                for m in mrange(l):
                    for m1 in mrange(l1):
                        m2 = m - m1
                        if abs(m2.twice) > l2.twice:
                            continue
                        base = cg_su2(l1, l2, l, m1, m2, m)
                        if abs(base) < 1e-14:
                            continue
                        try:
                            ratios.append(cg_su2_hyp(l1, l2, l, m1, m2, m) / base)
                        except PoleError:
                            continue
                if ratios:
                    spread = max(ratios) - min(ratios)
                    worst_spread = max(worst_spread, spread)
                    factors[(str(l1), str(l2), str(l))] = ratios[0]

    sample = factors[("2", "2", "2")]
    print(f"[criterion 5] orthogonality {worst_orth:.3e}, ladder/eigen "
          f"{worst_eig:.3e} (tol 1e-12), bookkeeping exact={bookkeeping_exact}, "
          f"series-form factor spread {worst_spread:.3e}; e.g. factor(2,2,2)="
          f"{sample:.12f} vs sqrt(7)={math.sqrt(7):.12f}")
    assert worst_orth <= 1e-12
    assert worst_eig <= 1e-12
    assert bookkeeping_exact
    assert worst_spread <= 1e-11
    assert sample == pytest.approx(math.sqrt(7.0), abs=1e-11)


def test_criterion_6_clifford_and_transpositions():
    for n in range(1, 11):
        report = verify_clifford(brauer_weyl(n))
        assert report["failures"] == []
        assert report["span_ok"]

    signs = []
    for m in range(4, 9):
        report = verify_tn_relations(schur_transpositions(m))
        assert report["ok"]
        signs.append((report["s1"], report["s2"], report["s3"]))
    assert all(s == signs[0] for s in signs)
    assert signs[0][2] == -1

    worst_proj = 0.0
    for m in range(1, 6):
        report = odd_direct_sum(m)
        assert report["volume_central"]
        worst_proj = max(
            worst_proj, report["projection_homomorphism_residual"]
        )
    print(f"[criterion 6] anticommutation exact n<=10; signs "
          f"{signs[0]} stable m=4..8; odd projection {worst_proj:.3e}")
    assert worst_proj <= 1e-12


def test_criterion_7_chain_generator_layer():
    system = dirac_system()
    report = verify_invariance(system)
    worst = report["max_residual"]
    assert len(report["residuals"]) == 46

    rng = np.random.default_rng(SEED)
    chains = (
        dirac_chain(),
        RepChain([("1/2", "1"), ("1", "1/2")]),
        RepChain([("3/2", "1/2"), ("1", "1")]),
        RepChain([("0", "1/2"), ("1/2", "0"), ("1/2", "1")]),
    )
    for chain in chains:
        assert chain.dim <= 20
        for _ in range(3):
            table = random_coeff_table(chain, rng)
            sys_r = build_system(chain, table, kappa=1.0)
            worst = max(worst, verify_invariance(sys_r)["max_residual"])

    sim = gamma_similarity(system.lambda_triple(), weyl_gamma_triple())
    blocks = extract_spin_blocks(system.lambda3, system.chain)
    back = reassemble_spin_blocks(blocks, system.chain)
    lossless = np.array_equal(back.data, system.lambda3.data)
    verdicts = classify(system.chain)
    indecomposable = (
        len(verdicts) == 1 and verdicts[0]["verdict"] == "indecomposable"
    )
    print(f"[criterion 7] tables worst {worst:.3e} (tol 1e-12), similarity "
          f"residual {sim['residual']:.3e} scale {sim['scale']:.3f} "
          f"(tol 1e-8), blocks lossless={lossless}, "
          f"dirac indecomposable={indecomposable}")
    assert worst <= 1e-12
    assert sim["residual"] <= 1e-8
    assert lossless
    assert indecomposable


def test_criterion_8_radial_diagnostics():
    system = dirac_system()
    init = np.array([1.0, 0.0, 1j, 0.0])
    exponents = {}
    defects = {}
    for variant in ("printed", "alt"):
        rs = assemble_rfs(system, "1/2", "1/2", variant=variant)
        sol = integrate(rs, 0.5, 60.0, init, 10000)
        defects[variant] = residual(rs, sol)
        exponents[variant] = bessel_probe(sol)["envelope_exponent"]
    rs = assemble_rfs(system, "1/2", "1/2", variant="alt")
    order = convergence_order(rs, 0.5, 10.0, init, base_steps=200)["order"]
    print(f"[criterion 8] defects {defects['printed']:.3e}/"
          f"{defects['alt']:.3e} (tol 1e-7), order {order:.2f} (>= 4), "
          f"envelope printed {exponents['printed']:+.4f} / "
          f"alt {exponents['alt']:+.4f} (alt target -0.5 +- 0.1)")
    assert defects["printed"] <= 1e-7
    assert defects["alt"] <= 1e-7
    assert order >= 4.0
    assert abs(exponents["alt"] + 0.5) <= 0.1


def test_criterion_9_cli_byte_reproducibility(capsys, tmp_path):
    invocations = [
        ["zfun", "--l", "1/2", "--m", "1/2", "--n", "1/2",
         "--theta", "1.0471975511965976", "--tau", "1.0"],
        ["zfun", "--l", "2", "--grid", "0:1.5:200", "--tau", "0.4",
         "--format", "csv"],
        ["verify", "cg"],
        ["verify", "grouplaw", "--format", "csv"],
        ["radial", "--chain", "dirac", "--variant", "alt",
         "--init", "1,0,1j,0", "--grid", "0.5:20:500"],
        ["radial", "--chain", "dirac", "--grid", "0.5:20:200",
         "--format", "csv"],
    ]
    for argv in invocations:
        first_code = main(list(argv))
        first = capsys.readouterr().out
        second_code = main(list(argv))
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second, f"output drift for {argv}"

    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["gy-build", "--chain", "dirac", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        outs.append({
            name: (out_dir / f"{name}.json").read_bytes()
            for name in ("lambda1", "lambda2", "lambda3",
                         "lambda1c", "lambda2c", "lambda3c")
        })
    assert outs[0] == outs[1]
    print("[criterion 9] all CLI invocations byte-identical across runs")
