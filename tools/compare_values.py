"""Compare the Z^l_mn values, the rotation and boost elements, the
clifford reports and transposition matrices, the radial solves and the
generator realizations of two source trees, array by array, bit for bit.

Usage:

    python tools/compare_values.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding a ``helirep`` package
(a checkout's ``src/``).  Each tree is imported in its own subprocess,
which evaluates a fixed list of arrays and saves them to a ``.npz`` file:

- for every key (l, m, n) with 2l <= 40, ``z_grid`` and ``z_series_grid``
  on one seeded 7 x 4 grid, and ``z_series`` and ``z_factorized`` at five
  seeded points; the angles include 0, pi/2 and pi, one on the reflected
  side (pi/2 < theta < pi), one past pi and one below 0;
- for the same keys, ``sph_p`` and ``wigner_d`` at the seven grid angles
  and ``jac_p`` at the four grid rapidities, and ``z_matrix`` at the five
  points for every 2l <= 20 (the ``grouplaw`` suite's matrices);
- both tables at the shapes the ``tabulate`` benchmark evaluates: 240 x 240
  tables at 2l = 4, 12, 24, 40 and 10 000-angle theta sweeps at one tau at
  2l = 3, 10, 20, 40, plus one 10 000-rapidity tau sweep at 2l = 40;
- the clifford reports ``verify_clifford(brauer_weyl(n))`` for n = 1..10,
  ``odd_direct_sum(m)`` for m = 1..5 (its
  ``projection_homomorphism_residual``, an exact 0.0 or 1.0, included),
  ``verify_tn_relations(schur_transpositions(m))`` for m = 2..10, the
  same report for m = 2..9 of its covers ``1j * t`` and ``10 * t``
  (whose scalars are integral: -1, and 100 and 10^6) and of the cover
  with t_2 + 0.001 I (which fails its classes), and
  ``transposition_homomorphism_report(m)`` for m = 2..6, each saved as
  the text of its ``repr``, which spells every float in its shortest
  round-trip form (so exactly) and names numpy scalar types;
- the transposition matrices themselves: ``np.real(t)`` for every t of
  ``schur_transpositions(m)``, m = 2..9.  It is the real part of a
  complex matrix and the matrix itself of a float one, so equal bytes
  prove equal values, signs of zero included, across either dtype;
- ``cg_su2`` and ``cg_su2_hyp`` on every key (l1, l2, l, m1, m2, m) with
  2l1, 2l2 <= 8 that the selection rules allow, and on the high-spin keys
  of ``tests/test_su2.py::TestCouplingAtHighSpin``; a key each route
  refuses (``PoleError`` or ``ValueError``) is saved as a marker, so a
  changed refusal differs too;
- the radial solves: the ``integrate`` samples of the Dirac system (both
  variants, both sectors, the CLI's default init and grid and the
  ``verify radial`` suite's init), of chain3 and chain4 of
  ``tools/compare_outputs.py`` as its ``radial`` calls integrate them
  (alt variant in the conjugate sector, and ``--l0 7/2 --l0-dot 5/2``,
  on 0.5:10:200), the ``repr`` of ``convergence_order`` on the suite's
  runs (Dirac and chain4, both variants), and the t, y, nfev, success
  and message of ``solve_ivp`` on the two stalling Dirac configs
  (kappa [0, 400] and [1e300, 1e300]) and on a NaN right-hand side;
- the radial assembly: ``assemble_rfs`` of Dirac and of chain0 to chain6
  of ``tools/compare_outputs.py`` (chain5 and chain6 assemble, though
  ``integrate`` refuses them), both variants, at the top weights, at
  (top + 1, top + 2), and at (top + 1, top + 1) with ``mdot = top`` and
  ``m = -top``; ``deriv`` and ``inv_r`` of both sectors and the ``str`` of
  each block's labels;
- the generators, one array per operator: ``gn_ops`` and
  ``basis_change(gn_ops(...))`` on Gel'fand-Naimark's towers (l0, p) for
  2l0 <= 6 and p <= 5 (the irrep ((p-1)/2, (p-1)/2 + l0), built as
  ``GNRepLabel(l0, p)`` on a tree that still has it), ``waerden_ops``
  and ``ab_from_families(waerden_ops(...))`` for 2l, 2ldot <= 8 and
  ``helicity_ops`` for 2l <= 8; on Dirac and on each chain config of
  ``tools/compare_outputs.py``, ``chain_generators``, the six matrices of
  ``build_system`` and the ``repr`` of ``verify_invariance``; with each
  operator and chain matrix also the ``str`` of its row labels and of its
  column labels, so a changed label order or label differs too.

The script then compares the two files array by array (one array per
function and key, per table or per report): equal means the same shape,
dtype and bytes, so a changed sign of zero or NaN payload counts.  It
prints each differing array (marked "signs of zero only" where its values
are still ``np.array_equal``) and the count, and exits 1 if any differs
(2 if a tree fails to evaluate).  Needs numpy; the two subprocesses run at once.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

SEED = 20261019
MAX_TWICE_L = 40
MAX_MATRIX_TWICE_L = 20
TABLE_SPINS = (4, 12, 24, 40)   # 2l of the 240 x 240 tables
TABLE_EDGE = 240
SWEEP_SPINS = (3, 10, 20, 40)   # 2l of the theta sweeps
SWEEP_ANGLES = 10_000
MAX_CG_TWICE_L = 8
MAX_GN_TWICE_L0, MAX_GN_P = 6, 5    # the spin-tower carriers (l0, p)
MAX_GEN_TWICE_L = 8                 # 2l and 2ldot of the two-spin carriers
# (l1, l2, l, m1) of TestCouplingAtHighSpin, with m2 = -m1 if l == 0 else 0
# and m = 0: squared norms past 2^1000, refused by the gamma-ratio route.
CG_HIGH_SPIN = [
    (100, 100, 200, 0), (200, 200, 400, 0), (400, 400, 800, 0),
    (150, 250, 200, 0), (60, 60, 120, 0), (300, 300, 0, 1), (400, 400, 0, -7),
]
# The marker of a CG value: the value itself, or a route's refusal.
CG_VALUE, CG_POLE, CG_VALUE_ERROR = 0.0, 1.0, 2.0


def _angles():
    """The key grid (thetas, taus) and the key points [(theta, tau)]."""
    rng = np.random.default_rng(SEED)
    pi = np.pi
    thetas = np.array([0.0, pi / 2, pi, rng.uniform(0.1, pi / 2),
                       rng.uniform(pi / 2, pi), rng.uniform(pi, 2 * pi),
                       rng.uniform(-pi, 0.0)])
    taus = np.array([0.0, rng.uniform(-3.0, -0.1), rng.uniform(0.1, 3.0),
                     rng.uniform(-3.0, 3.0)])
    points = [(0.0, taus[1]), (pi / 2, taus[2]), (pi, 0.0),
              (thetas[4], taus[3]), (thetas[6], taus[1])]
    return thetas, taus, points


def _keys():
    return [(tl, tm, tn) for tl in range(MAX_TWICE_L + 1)
            for tm in range(tl, -tl - 1, -2) for tn in range(tl, -tl - 1, -2)]


def _cg_keys():
    """Twice-int keys (2l1, 2l2, 2l, 2m1, 2m2, 2m) of the CG comparison."""
    out = []
    for t1 in range(MAX_CG_TWICE_L + 1):
        for t2 in range(MAX_CG_TWICE_L + 1):
            for t in range(abs(t1 - t2), t1 + t2 + 1, 2):
                for u1 in range(-t1, t1 + 1, 2):
                    for u2 in range(-t2, t2 + 1, 2):
                        if abs(u1 + u2) <= t:
                            out.append((t1, t2, t, u1, u2, u1 + u2))
    for l1, l2, l, m1 in CG_HIGH_SPIN:
        out.append((2 * l1, 2 * l2, 2 * l, 2 * m1, -2 * m1 if l == 0 else 0, 0))
    return out


def _shapes():
    """(name, twice labels, thetas, taus) of the benchmark-shaped tables."""
    rng = np.random.default_rng(SEED + 1)

    def label(tl):
        return tl - 2 * int(rng.integers(0, tl + 1))

    out = []
    for tl in TABLE_SPINS:
        out.append((f"table 2l={tl}", (tl, label(tl), label(tl)),
                    np.linspace(0.0, rng.uniform(2.6, 3.1), TABLE_EDGE),
                    np.linspace(-2.0, 2.0, TABLE_EDGE)))
    for tl in SWEEP_SPINS:
        out.append((f"theta sweep 2l={tl}", (tl, label(tl), label(tl)),
                    np.linspace(0.0, rng.uniform(2.6, 3.1), SWEEP_ANGLES),
                    np.array([rng.uniform(-2.0, 2.0)])))
    out.append(("tau sweep 2l=40", (40, label(40), label(40)),
                np.array([0.4, 2.9]), np.linspace(-2.5, 2.5, SWEEP_ANGLES)))
    return out


def dump(src, path):
    """Evaluate every array under the tree ``src`` and save them to ``path``."""
    sys.path.insert(0, os.path.abspath(src))
    from helirep.halfint import HalfInt
    from helirep.hyperspherical import (z_factorized, z_grid, z_matrix, z_series,
                                        z_series_grid)
    from helirep.su2 import jac_p, sph_p, wigner_d

    half = HalfInt.from_twice
    thetas, taus, points = _angles()
    keys = _keys()
    arrays = {name: [] for name in ("z_grid", "z_series_grid", "z_series", "z_factorized",
                                    "sph_p", "jac_p", "wigner_d")}
    for tl, tm, tn in keys:
        args = (half(tl), half(tm), half(tn))
        arrays["z_grid"].append(z_grid(*args, thetas, taus))
        arrays["z_series_grid"].append(z_series_grid(*args, thetas, taus))
        arrays["z_series"].append([z_series(*args, *p) for p in points])
        arrays["z_factorized"].append([z_factorized(*args, *p) for p in points])
        arrays["sph_p"].append([sph_p(*args, theta) for theta in thetas])
        arrays["jac_p"].append([jac_p(*args, tau) for tau in taus])
        arrays["wigner_d"].append([wigner_d(*args, theta) for theta in thetas])
    # np.array keeps each function's own dtype: complex, or float for
    # jac_p and wigner_d.
    out = {f"key {name}": np.array(rows) for name, rows in arrays.items()}
    for tl in range(MAX_MATRIX_TWICE_L + 1):
        out[f"z_matrix 2l={tl}"] = np.array([z_matrix(half(tl), *p).data for p in points])
    for name, (tl, tm, tn), th, ta in _shapes():
        args = (half(tl), half(tm), half(tn), th, ta)
        out[f"z_grid {name}"] = z_grid(*args)
        out[f"z_series_grid {name}"] = z_series_grid(*args)
    out.update(_clifford_reports())
    out.update(_cg_values(half))
    out.update(_radial_values())
    out.update(_radial_assembly_values())
    out.update(_generator_values(half))
    np.savez(path, **out)


def _cg_values(half):
    """Each CG route's [value, marker] rows over ``_cg_keys()``."""
    from helirep.kernels import PoleError
    from helirep.su2 import cg_su2, cg_su2_hyp

    def entry(route, labels):
        try:
            return [route(*labels), CG_VALUE]
        except PoleError:
            return [0.0, CG_POLE]
        except ValueError:
            return [0.0, CG_VALUE_ERROR]

    keys = [tuple(map(half, key)) for key in _cg_keys()]
    return {f"cg {route.__name__}": np.array([entry(route, key) for key in keys])
            for route in (cg_su2, cg_su2_hyp)}


def _radial_values():
    """The radial arrays, each named ``radial ...``."""
    from compare_outputs import configs
    from helirep.gelfand_yaglom import dirac_system, system_from_config
    from helirep.radial import (_prepare, assemble_rfs, convergence_order, integrate,
                                solve_ivp)

    def unit(dim, suite=False):
        # the CLI's default init, or the verify radial suite's
        init = np.zeros(dim, dtype=complex)
        init[0] = 1.0
        if suite and dim >= 3:
            init[dim // 2] = 1j
        return init

    systems = {name: system_from_config(configs()[f"{name}.json"])
              for name in ("chain3", "chain4", "kappa400", "kappa1e300")}
    dirac = dirac_system()
    out = {}
    for variant in ("printed", "alt"):
        rs = assemble_rfs(dirac, "1/2", "1/2", variant=variant)
        for sector in ("plain", "conjugate"):
            for init in ("cli", "suite"):
                sol = integrate(rs, 0.5, 60.0, unit(4, init == "suite"), 10000, sector)
                out[f"radial dirac {variant} {sector} {init} init"] = sol.values
        for name, system in (("dirac", dirac), ("chain4", systems["chain4"])):
            top = system.chain.top_spin
            order = convergence_order(assemble_rfs(system, top, top, variant=variant),
                                      0.5, 10.0, unit(system.chain.dim, True),
                                      base_steps=200)
            out[f"radial convergence_order {name} {variant}"] = np.array(repr(order))
    for name in ("chain3", "chain4"):
        system = systems[name]
        top = system.chain.top_spin
        for label, rs, sector in (
                ("alt conjugate", assemble_rfs(system, top, top, variant="alt"),
                 "conjugate"),
                ("l0=7/2 l0-dot=5/2", assemble_rfs(system, "7/2", "5/2"), "plain")):
            sol = integrate(rs, 0.5, 10.0, unit(rs.block(sector).dim), 200, sector)
            out[f"radial {name} {label}"] = sol.values
    solves = {}
    for name in ("kappa400", "kappa1e300"):
        _, r0, r1, start, rhs = _prepare(assemble_rfs(systems[name], "1/2", "1/2"),
                                         0.5, 60.0, unit(4), "plain")
        solves[name] = solve_ivp(rhs, (r0, r1), start, np.linspace(r0, r1, 10001),
                                 rtol=1e-10, atol=1e-12)
    with np.errstate(invalid="ignore"):
        solves["nan rhs"] = solve_ivp(lambda t, y: np.full_like(y, np.nan), (0.0, 1.0),
                                      np.ones(2), np.linspace(0.0, 1.0, 5))
    for name, result in solves.items():
        out[f"radial solve_ivp {name} t"] = result.t
        out[f"radial solve_ivp {name} y"] = result.y
        out[f"radial solve_ivp {name} status"] = np.array(
            repr((result.nfev, result.success, result.message)))
    return out


def _chain_systems():
    """Dirac (``dirac_system``) and each chain config of
    ``tools/compare_outputs.py`` (``system_from_config``), by name."""
    from compare_outputs import CHAINS, configs
    from helirep.gelfand_yaglom import dirac_system, system_from_config

    cfgs = configs()
    systems = {"dirac": dirac_system()}
    systems.update((f"chain{i}", system_from_config(cfgs[f"chain{i}.json"]))
                   for i in range(len(CHAINS)))
    return systems


def _radial_assembly_values():
    """Both blocks of ``assemble_rfs`` at three weight choices per chain
    and variant, each named ``radial assemble_rfs ...``."""
    from helirep.radial import assemble_rfs

    out = {}
    for name, system in _chain_systems().items():
        top = system.chain.top_spin
        weights = {"top": ((top, top), {}),
                   "top+1 top+2": ((top + 1, top + 2), {}),
                   "top+1 top+1 mdot=top m=-top": ((top + 1, top + 1),
                                                   {"mdot": top, "m": -top})}
        for variant in ("printed", "alt"):
            for label, (pair, projections) in weights.items():
                rs = assemble_rfs(system, *pair, variant=variant, **projections)
                for sector in ("plain", "conjugate"):
                    block = rs.block(sector)
                    key = f"radial assemble_rfs {name} {variant} {label} {sector}"
                    out[f"{key} deriv"] = block.deriv
                    out[f"{key} inv_r"] = block.inv_r
                    out[f"{key} labels"] = np.array(str(block.labels))
    return out


def _generator_values(half):
    """Each generator's matrix and its row and column labels, the six
    matrices of each chain system (as `system_from_config` and
    `dirac_system` build them) with their labels, and its invariance
    report, each named ``generators ...``."""
    from helirep import generators
    from helirep.gelfand_yaglom import chain_generators, verify_invariance
    from helirep.generators import (ab_from_families, basis_change, gn_ops,
                                    helicity_ops, waerden_ops)

    def tower(tl0, p):
        """Gel'fand-Naimark's tower (l0, p) as the irrep
        ((p-1)/2, (p-1)/2 + l0), or as ``GNRepLabel(l0, p)`` on a tree
        that still has that label."""
        if hasattr(generators, "GNRepLabel"):
            return generators.GNRepLabel(half(tl0), p)
        from helirep.core import RepLabel
        return RepLabel(half(p - 1), half(p - 1 + tl0))

    families = {}
    for tl0 in range(MAX_GN_TWICE_L0 + 1):
        for p in range(1, MAX_GN_P + 1):
            gn = gn_ops(tower(tl0, p))
            families[f"gn_ops 2l0={tl0} p={p}"] = gn
            families[f"basis_change 2l0={tl0} p={p}"] = basis_change(gn)
    for tl in range(MAX_GEN_TWICE_L + 1):
        for tld in range(MAX_GEN_TWICE_L + 1):
            ladders = waerden_ops(half(tl), half(tld))
            families[f"waerden_ops 2l={tl} 2ldot={tld}"] = ladders
            families[f"ab_from_families 2l={tl} 2ldot={tld}"] = ab_from_families(ladders)
        families[f"helicity_ops 2l={tl}"] = helicity_ops(half(tl))
    out = {}
    for name, system in _chain_systems().items():
        families[f"chain_generators {name}"] = chain_generators(system.chain)
        families[f"build_system {name}"] = {
            f"lambda{k}{c}": getattr(system, f"lambda{k}{c}")
            for k in "123" for c in ("", "c")}
        out[f"generators verify_invariance {name}"] = np.array(
            repr(verify_invariance(system)))
    for name, ops in families.items():
        for kind, op in ops.items():
            out[f"generators {name} {kind}"] = op.data
            out[f"generators {name} {kind} row_labels"] = np.array(str(op.row_labels))
            out[f"generators {name} {kind} col_labels"] = np.array(str(op.col_labels))
    return out


def _clifford_reports():
    """Each clifford report as a 0-d string array of its ``repr``."""
    from helirep.clifford import (SchurCoverGens, brauer_weyl, odd_direct_sum,
                                  schur_transpositions, transposition_homomorphism_report,
                                  verify_clifford, verify_tn_relations)

    reports = {}
    for n in range(1, 11):
        reports[f"verify_clifford n={n}"] = verify_clifford(brauer_weyl(n))
    for m in range(1, 6):
        reports[f"odd_direct_sum m={m}"] = odd_direct_sum(m)
    for m in range(2, 10):
        gens = schur_transpositions(m)
        reports[f"verify_tn_relations m={m}"] = verify_tn_relations(gens)
        for scale in (1j, 10):
            cover = SchurCoverGens(m, tuple(scale * t for t in gens.t))
            reports[f"verify_tn_relations {scale}*t m={m}"] = verify_tn_relations(cover)
        perturbed = list(gens.t)
        perturbed[1] = perturbed[1] + 0.001 * np.eye(2 ** m)
        reports[f"verify_tn_relations t_2+0.001I m={m}"] = verify_tn_relations(
            SchurCoverGens(m, tuple(perturbed)))
    reports["verify_tn_relations m=10"] = verify_tn_relations(schur_transpositions(10))
    for m in range(2, 7):
        reports[f"transposition_homomorphism_report m={m}"] = (
            transposition_homomorphism_report(m))
    out = {f"clifford {name}": np.array(repr(report)) for name, report in reports.items()}
    for m in range(2, 10):
        for k, t in enumerate(schur_transpositions(m).t, start=1):
            out[f"clifford schur_transpositions m={m} t_{k}"] = np.real(t)
    return out


def _label(twice):
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


# The per-key stacks: the prefix of their names, their keys and the names
# of the labels.
_STACKS = {"key ": (_keys, "(l, m, n)"), "cg ": (_cg_keys, "(l1, l2, l, m1, m2, m)")}


def _stack_of(name):
    """The keys and label names of a per-key stack, or None for a table or
    report."""
    return next((stack for prefix, stack in _STACKS.items()
                 if name.startswith(prefix)), None)


def _differing(name, a, b):
    """Where the saved entry ``name`` differs between the trees: one line
    per differing key of a per-key stack, one for a differing table or
    report."""
    stack = _stack_of(name)
    if stack is None:
        alike = a.shape == b.shape and a.dtype == b.dtype
        if alike and a.tobytes() == b.tobytes():
            return []
        zeros = alike and a.dtype.kind in "fc" and np.array_equal(a, b)
        return [f"{name} (signs of zero only)" if zeros else name]
    if a.shape != b.shape or a.dtype != b.dtype:
        return [f"{name}: shape or dtype"]
    keys, labels = stack[0](), stack[1]
    rows = (a.view(np.uint64) != b.view(np.uint64)).reshape(len(a), -1).any(axis=1)
    return [f"{name.split(' ', 1)[1]} at {labels} = ({', '.join(map(_label, keys[i]))})"
            for i in np.flatnonzero(rows)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--dump"]:  # the subprocess of one tree
        dump(*argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        files = [os.path.join(tmp, f"{side}.npz") for side in ("parent", "change")]
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                   "--dump", src, path])
                 for src, path in zip((args.parent_src, args.change_src), files)]
        if any([proc.wait() for proc in procs]):
            print("a tree failed to evaluate its arrays", file=sys.stderr)
            return 2
        with np.load(files[0]) as parent, np.load(files[1]) as change:
            if sorted(parent.files) != sorted(change.files):
                print("the trees saved different arrays", file=sys.stderr)
                return 2
            total, differ = 0, []
            for name in parent.files:
                stack = _stack_of(name)
                total += 1 if stack is None else len(stack[0]())
                differ += _differing(name, parent[name], change[name])
    for line in differ:
        print(f"DIFFERS   {line}")
    print(f"{total} arrays, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
