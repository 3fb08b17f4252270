"""Named verification suites, one per algebraic layer.

Each suite re-derives a family of identities at runtime and reports
every relation with its residual, a tolerance, and a pass flag.  The
reports are plain dictionaries with deterministic ordering so that the
batch interface can serialize them byte-stably.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import (
    brauer_weyl,
    odd_direct_sum,
    schur_transpositions,
    transposition_homomorphism_report,
    verify_clifford,
    verify_tn_relations,
)
from .gelfand_yaglom import (
    dirac_system,
    extract_spin_blocks,
    gamma_similarity,
    reassemble_spin_blocks,
    verify_invariance,
    weyl_gamma_triple,
)
from .generators import (
    ab_from_families,
    basis_change,
    commutator_report,
    gn_ops,
    helicity_ops,
    waerden_ops,
)
from .core import CMatrix, RepLabel
from .halfint import half, lrange, mrange
from .hyperspherical import (_factorized_table, _series_table, z_factorized,
                             z_matrix, z_series)
from .radial import (_VARIANTS, assemble_rfs, bessel_probe, convergence_order,
                     integrate, residual)
from .su2 import cg_su2
from .tensordec import cg_series, coupled_vector, product_basis

DEFAULT_TOLERANCES = {
    "commutators": 1e-12,
    "addition": 1e-10,
    "grouplaw": 1e-10,
    "cg": 1e-12,
    "clifford": 1e-12,
    "schur": 1e-12,
    "gy": 1e-12,
    "radial": 1e-7,
}


def _check(rows, name, value, tol):
    rows.append(
        {"name": name, "residual": float(value), "tol": float(tol),
         "ok": bool(value <= tol)}
    )


def _checks(rows, prefix, residuals, tol):
    """One check per labeled residual, named ``prefix + label``."""
    for label, value in residuals.items():
        _check(rows, prefix + label, value, tol)


def _flag(rows, name, ok, tol):
    _check(rows, name, 0.0 if ok else 1.0, tol)


def _finish(name, tol, rows, extra=None):
    report = {
        "suite": name,
        "tolerance": tol,
        "checks": rows,
        "max_residual": max((r["residual"] for r in rows), default=0.0),
        "ok": all(r["ok"] for r in rows),
    }
    if extra:
        report.update(extra)
    return report


def suite_commutators(tol):
    """The Lorentz and ladder bracket tables on the two generator builders.

    The two-spin ladders `waerden_ops` are Kronecker products of the spin
    ladder; the Gel'fand–Naimark towers `gn_ops`, mapped by
    `basis_change`, add diagonal and tower-link coefficients.  The
    "helicity l=" rows are the (l, 0) case of the two-spin route
    (`helicity_ops` is that view), kept with their labels and bytes.
    """
    rows = []
    for l in lrange("1/2", 3):
        report = commutator_report(helicity_ops(l), "lorentz")
        _checks(rows, f"helicity l={l} ", report["residuals"], tol)
    for l, ldot in (("1/2", "0"), ("0", "1/2"), ("1/2", "1/2"), ("1", "1/2")):
        ladders = waerden_ops(l, ldot)
        for ops, relation_set in ((ladders, "ladder"),
                                  (ab_from_families(ladders), "lorentz")):
            report = commutator_report(ops, relation_set)
            _checks(rows, f"two-sided ({l},{ldot}) ", report["residuals"], tol)
    # Gel'fand-Naimark's tower (l0, p) is the irrep ((p-1)/2, (p-1)/2 + l0).
    for l0, p in (("0", 2), ("1/2", 2), ("1", 2)):
        mapped = basis_change(gn_ops(RepLabel(half(p - 1), half(p - 1) + l0)))
        report = commutator_report(mapped, "lorentz")
        _checks(rows, f"tower ({l0},p={p}) ", report["residuals"], tol)
        pair = commutator_report(mapped, "su2_pair")
        _check(rows, f"tower ({l0},p={p}) family split",
               pair["max_residual"], tol)
    return _finish("commutators", tol, rows)


def suite_addition(tol):
    """Both routes of Z^l_mn on one 5x5 (theta, tau) grid for every l <= 4:
    each route tabulates all (m, n) of a spin at once, so each label's
    factors are tabulated once per route, and one corner goes again
    through the one-point views of every (m, n)."""
    thetas = np.linspace(0.0, 1.4, 5)
    taus = np.linspace(-1.2, 1.2, 5)
    corner = (thetas[-1], taus[0])
    rows = []
    for l in lrange("0", 4):
        ms = mrange(l)
        twice = [m.twice for m in ms]
        gap = (_series_table(l.twice, twice, twice, thetas, taus)
               - _factorized_table(l.twice, twice, twice, thetas, taus))
        worst = float(np.max(np.abs(gap)))
        for m in ms:
            for n in ms:
                # The one-point views move the residual only if a view
                # drifts from its table.
                spot = z_series(l, m, n, *corner) - z_factorized(l, m, n, *corner)
                worst = max(worst, abs(spot))
        _check(rows, f"dual route l={l} (m,n)x5x5 grid", worst, tol)
    return _finish("addition", tol, rows)


def suite_grouplaw(tol):
    rows = []
    for l in lrange("1/2", 3):
        for t1, t2 in ((0.3, 0.9), (1.1, -0.4)):
            got = z_matrix(l, t1, 0.0) @ z_matrix(l, t2, 0.0)
            _check(rows, f"rotation law l={l} ({t1},{t2})",
                   got.residual_vs(z_matrix(l, t1 + t2, 0.0)), tol)
        for t1, t2 in ((0.25, 0.6), (-0.8, 0.35)):
            got = z_matrix(l, 0.0, t1) @ z_matrix(l, 0.0, t2)
            _check(rows, f"boost law l={l} ({t1},{t2})",
                   got.residual_vs(z_matrix(l, 0.0, t1 + t2)), tol)
        u = z_matrix(l, 0.77, 0.0)
        _check(rows, f"rotation unitarity l={l}",
               (u @ u.dagger()).residual_vs(CMatrix.identity(u.row_labels)),
               min(tol, 1e-12))
    return _finish("grouplaw", tol, rows)


def suite_cg(tol):
    rows = []
    for l1 in lrange("1/2", 2):
        for l2 in lrange("1/2", 2):
            worst = 0.0
            for l in lrange(abs(l1 - l2), l1 + l2):
                for lp in lrange(abs(l1 - l2), l1 + l2):
                    for m in mrange(min(l, lp)):
                        total = sum(
                            cg_su2(l1, l2, l, m1, m - m1, m)
                            * cg_su2(l1, l2, lp, m1, m - m1, m)
                            for m1 in mrange(l1)
                            if abs((m - m1).twice) <= l2.twice
                        )
                        want = 1.0 if l == lp else 0.0
                        worst = max(worst, abs(total - want))
            _check(rows, f"orthogonality ({l1},{l2})", worst, tol)
    for a, b in ((RepLabel("1/2", "0"), RepLabel("0", "1/2")),
                 (RepLabel("1/2", "1/2"), RepLabel("1/2", "1/2"))):
        pairs = product_basis(a, b)
        vecs = []
        for lab in cg_series(a, b):
            for m in mrange(lab.l1):
                for mp in mrange(lab.l2):
                    vecs.append(
                        coupled_vector(a, b, lab.l1, lab.l2, m, mp).vector(pairs)
                    )
        overlap = np.array(vecs).conj() @ np.array(vecs).T
        _check(rows, f"coupled basis unitary ({a.l1},{a.l2})x({b.l1},{b.l2})",
               np.max(np.abs(overlap - np.eye(len(vecs)))), tol)
        total = sum(lab.dim for lab in cg_series(a, b))
        _flag(rows, f"dimension bookkeeping ({a.l1},{a.l2})x({b.l1},{b.l2})",
              total == a.dim * b.dim, tol)
    return _finish("cg", tol, rows)


def suite_clifford(tol):
    rows = []
    for n in range(1, 9):
        report = verify_clifford(brauer_weyl(n))
        _flag(rows, f"anticommutation n={n}", not report["failures"], tol)
        _flag(rows, f"span n={n}", report["span_ok"], tol)
    for m in range(1, 4):
        report = odd_direct_sum(m)
        _flag(rows, f"odd volume central m={m}", report["volume_central"], tol)
        _check(rows, f"odd summand projection m={m}",
               report["projection_homomorphism_residual"], tol)
    return _finish("clifford", tol, rows)


def suite_schur(tol):
    rows = []
    signs = None
    for m in range(2, 9):
        report = verify_tn_relations(schur_transpositions(m))
        _flag(rows, f"transposition relations m={m}", report["ok"], tol)
        if report["s3"] is not None:
            current = tuple(
                int(round(complex(report[key]).real))
                for key in ("s1", "s2", "s3")
            )
            if signs is None:
                signs = current
            _flag(rows, f"sign triple stable m={m}", current == signs, tol)
    for m in range(2, 5):
        report = transposition_homomorphism_report(m)
        _check(rows, f"sign-projective shadow m={m}",
               report["max_sign_mismatch"], tol)
    extra = {"realized_signs": {"s1": signs[0], "s2": signs[1], "s3": signs[2]}}
    return _finish("schur", tol, rows, extra)


def suite_gy(tol, system=None):
    system = dirac_system() if system is None else system
    rows = []
    _checks(rows, "", verify_invariance(system, tol=tol)["residuals"], tol)
    blocks = extract_spin_blocks(system.lambda3, system.chain)
    back = reassemble_spin_blocks(blocks, system.chain)
    _check(rows, "spin-block round trip",
           float(np.max(np.abs(back.data - system.lambda3.data))), tol)
    extra = None
    if system.lambda3.data.shape == (4, 4):
        sim = gamma_similarity(
            system.lambda_triple(), weyl_gamma_triple())
        _check(rows, "gamma-triple similarity", sim["residual"],
               max(tol, 1e-8))
        extra = {"similarity_scale": [sim["scale"].real + 0.0,
                                      sim["scale"].imag + 0.0]}
    return _finish("gy", tol, rows, extra)


def suite_radial(tol, system=None):
    system = dirac_system() if system is None else system
    init = np.zeros(system.chain.dim, dtype=complex)
    init[0] = 1.0
    if system.chain.dim >= 3:
        init[system.chain.dim // 2] = 1j
    top = system.chain.top_spin
    rows = []
    exponents = {}
    for variant in _VARIANTS:
        rs = assemble_rfs(system, top, top, variant=variant)
        sol = integrate(rs, 0.5, 60.0, init, 10000)
        _check(rows, f"equation defect ({variant})", residual(rs, sol), tol)
        probe = bessel_probe(sol)
        exponents[variant] = probe["envelope_exponent"]
        if variant == "alt":
            if probe["envelope_exponent"] is None:
                _flag(rows, "envelope exponent within 0.1 of -0.5", False, tol)
            else:
                _check(rows, "envelope exponent within 0.1 of -0.5",
                       abs(probe["envelope_exponent"] + 0.5), 0.1)
                _check(rows, "wavelength drift", probe["wavelength_drift"], 0.05)
            order = convergence_order(rs, 0.5, 10.0, init, base_steps=200)["order"]
            if not math.isfinite(order):  # the runs overflowed
                _flag(rows, "convergence order deficit (target >= 4)", False, 0.0)
            else:
                _check(rows, "convergence order deficit (target >= 4)",
                       max(0.0, 4.0 - order), 0.0)
    extra = {"envelope_exponents": exponents}
    return _finish("radial", tol, rows, extra)


SUITES = {
    "commutators": suite_commutators,
    "addition": suite_addition,
    "grouplaw": suite_grouplaw,
    "cg": suite_cg,
    "clifford": suite_clifford,
    "schur": suite_schur,
    "gy": suite_gy,
    "radial": suite_radial,
}

# The suites that run on a chain system (``run_suite``'s ``system``).
CHAIN_SUITES = ("gy", "radial")


def run_suite(name, tol=None, system=None):
    """Run one named suite; ``system`` feeds the chain-based suites.  The
    tolerance must be finite and positive: at inf no check could fail, at
    nan none could pass."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    tol = DEFAULT_TOLERANCES[name] if tol is None else float(tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    if name in CHAIN_SUITES:
        return SUITES[name](tol, system=system)
    return SUITES[name](tol)
