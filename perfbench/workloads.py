"""The three workloads: seeded inputs, operations, and their checks.

A workload is a list of operations that makes one round; every run
repeats the same round.  ``build(workload, seed, hr, workdir)`` makes the
inputs and the operations (this is the set-up that ``setup_s`` times);
``prepare`` computes each operation's reference values from ``oracles``
(not timed, not part of set-up).  An operation's ``run`` calls into
helirep through module attributes looked up at call time, so spans
installed later by the tracer see the calls.  Its ``check`` returns None
or a description of what is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import oracles as orc

# Prefix of a check result that names a fault of helirep found and recorded
# (CHANGES.md): the operation counts as failed, and the run stays correct.
KNOWN_FAULT = "known fault: "


class Op:
    __slots__ = ("name", "run", "check", "prepare")

    def __init__(self, name, run, check, prepare=None):
        self.name = name
        self.run = run
        self.check = check
        self.prepare = prepare


class Helirep:
    """The helirep modules, plus the hook the CLI runner reports output to."""

    def __init__(self):
        import helirep
        import helirep.cli
        import helirep.clifford
        import helirep.gelfand_yaglom
        import helirep.halfint
        import helirep.hyperspherical
        import helirep.kernels
        import helirep.su2

        self.package = helirep
        self.cli = helirep.cli
        self.clifford = helirep.clifford
        self.gy = helirep.gelfand_yaglom
        self.hs = helirep.hyperspherical
        self.su2 = helirep.su2
        self.PoleError = helirep.kernels.PoleError
        self.H = helirep.halfint.HalfInt.from_twice
        self.tracer = None

    def run_cli(self, argv):
        """Run ``helirep.cli.main(argv)`` in process; (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.output_bytes"] += len(text)
        return code, text


def build(workload, seed, hr, workdir):
    """The workload's operations for ``seed``; files it needs go to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    return {"points": _points, "tabulate": _tabulate, "algebra": _algebra}[workload](
        rng, hr, workdir)


def prepare(ops):
    """Compute every operation's reference values (outside set-up and timing)."""
    for op in ops:
        if op.prepare is not None:
            op.prepare()


# ---------------------------------------------------------------------------
# Shared checks


def _z_close(got, want, tl, tau, what):
    err = abs(complex(got) - want)
    tol = 1e-10 * float(orc.z_scale(tl, tau))
    if not err <= tol:
        return f"{what}: |{got} - {want}| = {err:.3g} > {tol:.3g}"
    return None


def _table_close(got, want, tl, taus, what):
    got = np.asarray(got)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    err = np.abs(got - want) / (1e-10 * orc.z_scale(tl, taus))
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= 1.0:  # also catches NaN
        return f"{what}: error {worst:.3g} x tolerance"
    return None


def _verify_report(code, text, suite):
    if code != 0:
        return f"verify {suite}: exit {code}"
    report = orc.strict_json(text)
    if report["command"] != "verify" or report["inputs"]["suite"] != suite:
        return f"verify {suite}: wrong report header"
    results = report["results"]
    bad = [row["name"] for row in results["checks"]
           if not (row["ok"] and row["residual"] <= row["tol"])]
    if bad or not results["ok"] or not results["checks"]:
        return f"verify {suite}: failed checks {bad}"
    return None


def _cli_op(hr, name, argv, check, prepare=None):
    return Op(name, lambda: hr.run_cli(argv), lambda out: check(*out), prepare)


def _verify_op(hr, suite):
    return _cli_op(hr, f"verify {suite}", ["verify", suite],
                   lambda code, text: _verify_report(code, text, suite))


class _Twin:
    """Byte-identity check: the repeat of a CLI call must print the same bytes."""

    def __init__(self):
        self.first = None

    def keep(self, check):
        def wrapped(code, text):
            self.first = text
            return check(code, text)
        return wrapped

    def compare(self, code, text):
        if code != 0:
            return f"repeat: exit {code}"
        if text != self.first:
            return "repeat: output differs from the first call"
        return None


# ---------------------------------------------------------------------------
# points: the scalar evaluation path

# Distinct (2l, 2m, 2n) keys per 2l: weighted toward low spin, with a tail
# to l = 20.  The quota is fixed, so every seed does the same amount of
# work per spin; the seed picks the projections and the angles.
POINT_KEYS = {tl: math.ceil(16 / tl) for tl in range(1, 41)}
POINT_ANGLES = 6      # each key is evaluated at this many (theta, tau)
POINT_CLI_EVERY = 5   # every fifth point also goes through `helirep zfun`
CG_KEYS = 150
CG_MAX_TWICE = 8


def _projection(rng, tl):
    return rng.randrange(-tl, tl + 1, 2)


def _points(rng, hr, workdir):
    H = hr.H
    keys = [(tl, _projection(rng, tl), _projection(rng, tl))
            for tl, count in POINT_KEYS.items() for _ in range(count)]
    stream = [(key, rng.uniform(0.0, math.pi), rng.uniform(-2.0, 2.0))
              for key in keys for _ in range(POINT_ANGLES)]
    rng.shuffle(stream)

    ops = []
    first_cli = None
    for index, ((tl, tm, tn), theta, tau) in enumerate(stream):
        ref = {}
        args = (H(tl), H(tm), H(tn), theta, tau)

        def want(ref=ref, tl=tl, tm=tm, tn=tn, theta=theta, tau=tau):
            ref["z"] = orc.z_exact(tl, tm, tn, theta, tau)

        ops.append(Op("z_series", lambda a=args: hr.hs.z_series(*a),
                      lambda got, ref=ref, tl=tl, tau=tau:
                      _z_close(got, ref["z"], tl, tau, "z_series"), want))
        ops.append(Op("z_factorized", lambda a=args: hr.hs.z_factorized(*a),
                      lambda got, ref=ref, tl=tl, tau=tau:
                      _z_close(got, ref["z"], tl, tau, "z_factorized")))
        if index % POINT_CLI_EVERY == 0:
            argv = ["zfun", "--l", orc.half_str(tl), f"--m={orc.half_str(tm)}",
                    f"--n={orc.half_str(tn)}", "--theta", repr(theta),
                    "--tau", repr(tau)]
            check = (lambda code, text, ref=ref, tl=tl, tm=tm, tn=tn, theta=theta, tau=tau:
                     _zfun_point(code, text, ref["z"], tl, tm, tn, theta, tau))
            if first_cli is None:
                first_cli = (argv, _Twin())
                check = first_cli[1].keep(check)
            ops.append(_cli_op(hr, "zfun point", argv, check))

    for _ in range(CG_KEYS):
        ops.extend(_cg_ops(rng, hr))
    ops.extend(_verify_op(hr, suite) for suite in ("addition", "grouplaw", "cg"))
    argv, twin = first_cli
    ops.append(_cli_op(hr, "zfun repeat", argv, twin.compare))
    return ops


def _zfun_point(code, text, want, tl, tm, tn, theta, tau):
    if code != 0:
        return f"zfun: exit {code}"
    report = orc.strict_json(text)
    inputs = report["inputs"]
    if (report["command"] != "zfun"
            or [orc.parse_half(inputs[k]) for k in "lmn"] != [tl, tm, tn]):
        return "zfun: wrong report header"
    rows = report["results"]["rows"]
    if len(rows) != 1 or rows[0]["theta"] != theta or rows[0]["tau"] != tau:
        return "zfun: wrong rows"
    series, factorized = (complex(*rows[0][k]) for k in ("series", "factorized"))
    return (_z_close(series, want, tl, tau, "zfun series")
            or _z_close(factorized, want, tl, tau, "zfun factorized")
            or (None if abs(rows[0]["discrepancy"] - abs(series - factorized)) <= 1e-12
                * float(orc.z_scale(tl, tau)) else "zfun: discrepancy field"))


def _cg_ops(rng, hr):
    H = hr.H
    while True:
        t1, t2 = rng.randint(0, CG_MAX_TWICE), rng.randint(0, CG_MAX_TWICE)
        t = rng.randrange(abs(t1 - t2), t1 + t2 + 1, 2)
        tm1, tm2 = _projection(rng, t1), _projection(rng, t2)
        if abs(tm1 + tm2) <= t:
            break
    key = (t1, t2, t, tm1, tm2, tm1 + tm2)
    args = tuple(H(v) for v in key)
    ref = {}
    factor = orc.cg_hyp_factor(t1, t2, t)

    def want():
        ref["cg"] = orc.cg_reference(*key)

    def hyp():
        try:
            return hr.su2.cg_su2_hyp(*args)
        except hr.PoleError:
            return None   # the documented skip

    def check_hyp(got):
        if got is None:
            return None
        err = abs(got - ref["cg"] * factor)
        return None if err <= 1e-12 * factor else f"cg_su2_hyp{key}: error {err:.3g}"

    def check_cs(got):
        err = abs(got - ref["cg"])
        return None if err <= 1e-12 else f"cg_su2{key}: error {err:.3g}"

    return [Op("cg_su2", lambda: hr.su2.cg_su2(*args), check_cs, want),
            Op("cg_su2_hyp", hyp, check_hyp)]


# ---------------------------------------------------------------------------
# tabulate: the bulk path and its output

SWEEP_SPINS = (3, 10, 20, 40)   # 2l of the `zfun --grid` sweeps
SWEEP_ANGLES = 10_000
TABLE_SPINS = (4, 12, 24, 40)   # 2l of the 2-D z_grid / z_series_grid tables
TABLE_EDGE = 240                # theta and tau points per table
RADIAL_GRID = (0.5, 60.0, 10_000)


def _tabulate(rng, hr, workdir):
    ops = []
    twin = None
    for tl in SWEEP_SPINS:
        tm, tn = _projection(rng, tl), _projection(rng, tl)
        tau = rng.uniform(-2.0, 2.0)
        stop = rng.uniform(2.6, 3.1)
        thetas = np.linspace(0.0, stop, SWEEP_ANGLES)
        ref = {}

        def want(ref=ref, tl=tl, tm=tm, tn=tn, thetas=thetas, tau=tau):
            ref["z"] = orc.z_table(tl, tm, tn, thetas, [tau])[:, 0]

        for fmt in ("json", "csv"):
            argv = ["zfun", "--l", orc.half_str(tl), f"--m={orc.half_str(tm)}",
                    f"--n={orc.half_str(tn)}", "--tau", repr(tau),
                    "--grid", f"0:{stop!r}:{SWEEP_ANGLES}", "--format", fmt]
            check = (lambda code, text, fmt=fmt, ref=ref, tl=tl, thetas=thetas, tau=tau:
                     _sweep_check(code, text, fmt, ref["z"], tl, thetas, tau))
            if tl == 20 and fmt == "csv":
                twin = (argv, _Twin())
                check = twin[1].keep(check)
            ops.append(_cli_op(hr, f"zfun sweep {fmt}", argv, check,
                               want if fmt == "json" else None))

    for tl in TABLE_SPINS:
        tm, tn = _projection(rng, tl), _projection(rng, tl)
        thetas = np.linspace(0.0, rng.uniform(2.6, 3.1), TABLE_EDGE)
        taus = np.linspace(-2.0, 2.0, TABLE_EDGE)
        args = (hr.H(tl), hr.H(tm), hr.H(tn), thetas, taus)
        ref = {}

        def want(ref=ref, tl=tl, tm=tm, tn=tn, thetas=thetas, taus=taus):
            ref["z"] = orc.z_table(tl, tm, tn, thetas, taus)

        ops.append(Op("z_grid", lambda a=args: hr.hs.z_grid(*a),
                      lambda got, ref=ref, tl=tl, taus=taus:
                      _table_close(got, ref["z"], tl, taus[None, :], "z_grid"), want))
        ops.append(Op("z_series_grid", lambda a=args: hr.hs.z_series_grid(*a),
                      lambda got, ref=ref, tl=tl, taus=taus:
                      _table_close(got, ref["z"], tl, taus[None, :], "z_series_grid")))

    start, stop, steps = RADIAL_GRID
    for variant in ("printed", "alt"):
        for sector in ("plain", "conjugate"):
            argv = ["radial", "--chain", "dirac", "--variant", variant,
                    "--sector", sector, "--grid", f"{start}:{stop}:{steps}",
                    "--format", "csv"]
            ref = {}

            def want(ref=ref, variant=variant, sector=sector):
                # The block matrices of the system being integrated.
                rs = hr.package.assemble_rfs(hr.gy.dirac_system(), hr.H(1), hr.H(1),
                                             variant=variant)
                ref["block"] = rs.block(sector)

            ops.append(_cli_op(hr, f"radial {variant} {sector}", argv,
                               (lambda code, text, ref=ref, variant=variant:
                                _radial_check(code, text, ref["block"], variant)), want))
    ops.append(_verify_op(hr, "radial"))
    argv, checker = twin
    ops.append(_cli_op(hr, "zfun sweep repeat", argv, checker.compare))
    return ops


def _sweep_check(code, text, fmt, want, tl, thetas, tau):
    if code != 0:
        return f"zfun --grid: exit {code}"
    if fmt == "json":
        report = orc.strict_json(text)
        rows = report["results"]["rows"]
        got_theta = np.array([row["theta"] for row in rows])
        got_tau = np.array([row["tau"] for row in rows])
        series = np.array([complex(*row["series"]) for row in rows])
        factorized = np.array([complex(*row["factorized"]) for row in rows])
        discrepancy = np.array([row["discrepancy"] for row in rows])
        if report["residuals"]["max_discrepancy"] != max(discrepancy, default=None):
            return "zfun --grid: max_discrepancy is not the largest row discrepancy"
    else:
        lines = list(csv.reader(io.StringIO(text)))
        if lines[0][5:9] != ["series_re", "series_im", "factorized_re", "factorized_im"]:
            return "zfun --grid csv: header"
        cells = np.array([[float(v) for v in line[3:]] for line in lines[1:]])
        got_theta, got_tau = cells[:, 0], cells[:, 1]
        series = cells[:, 2] + 1j * cells[:, 3]
        factorized = cells[:, 4] + 1j * cells[:, 5]
        discrepancy = cells[:, 6]
    if len(got_theta) != len(thetas) or not np.array_equal(got_theta, thetas):
        return f"zfun --grid {fmt}: theta column"
    if not np.all(got_tau == tau):
        return f"zfun --grid {fmt}: tau column"
    if not np.allclose(discrepancy, np.abs(series - factorized), rtol=1e-12, atol=0):
        return f"zfun --grid {fmt}: discrepancy column"
    return (_table_close(series, want, tl, tau, f"zfun --grid {fmt} series")
            or _table_close(factorized, want, tl, tau, f"zfun --grid {fmt} factorized"))


def _radial_check(code, text, block, variant):
    if code != 0:
        return f"radial: exit {code}"
    lines = list(csv.reader(io.StringIO(text)))
    problems = []
    unparsed = 0

    def number(cell):
        nonlocal unparsed
        try:
            return float(cell)
        except ValueError:
            # Read the value anyway so that the checks below still run.
            unparsed += 1
            if cell.startswith("np.float64(") and cell.endswith(")"):
                return float(cell[len("np.float64("):-1])
            return math.nan

    data = np.array([[number(cell) for cell in line] for line in lines[1:]])
    start, stop, steps = RADIAL_GRID
    if data.shape != (steps + 1, 1 + 2 * block.dim):
        return f"radial: table shape {data.shape}"
    grid = data[:, 0]
    values = data[:, 1::2] + 1j * data[:, 2::2]
    if not np.allclose(grid, np.linspace(start, stop, steps + 1), rtol=1e-12, atol=0):
        problems.append("radius column")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite samples")
    else:
        init = np.zeros(block.dim)
        init[0] = 1.0
        if not np.array_equal(values[0], init):
            problems.append("first row is not the default initial vector")
        defect = orc.equation_defect(grid, values, block.deriv, block.inv_r, block.kappa)
        if not defect <= 1e-6 * max(1.0, float(np.max(np.abs(values)))):
            problems.append(f"equation defect {defect:.3g}")
        # Cylinder functions decay like r^(-1/2); the printed reading flips
        # the sign of the 1/r diagonal, which flips the envelope power.
        target = -0.5 if variant == "alt" else 0.5
        exponent = orc.envelope_exponent(grid, values)
        if exponent is None or not abs(exponent - target) <= 0.1:
            problems.append(f"envelope exponent {exponent}, expected {target} +- 0.1")
    if problems:
        return "; ".join(f"radial {variant}: {p}" for p in problems)
    if unparsed:
        # radial's CSV writes numpy scalars through repr(): np.float64(...)
        return (f"{KNOWN_FAULT}radial --format csv: {unparsed} value cells are not "
                f"numbers, e.g. {lines[1][1]!r}")
    return None


# ---------------------------------------------------------------------------
# algebra: exact algebra

CLIFFORD_RANKS = range(1, 11)
ODD_SUMS = range(1, 6)
SCHUR_SIZES = range(2, 9)
HOMOMORPHISM_SIZES = range(2, 5)
# Gel'fand-Yaglom chains as (2 l1, 2 l2) per member: the Dirac pair up to
# (2, 3/2) + (3/2, 2), a three-member chain, and a decomposable pair.
CHAINS = (
    ((1, 0), (0, 1)),
    ((2, 1), (1, 2)),
    ((0, 1), (1, 0), (1, 2)),
    ((3, 2), (2, 3)),
    ((4, 3), (3, 4)),
    ((1, 0), (3, 0)),
)


def _algebra(rng, hr, workdir):
    clifford = hr.clifford
    ops = []
    for n in CLIFFORD_RANKS:
        def run(n=n):
            basis = clifford.brauer_weyl(n)
            return basis, clifford.verify_clifford(basis)
        ops.append(Op("verify_clifford", run, lambda out, n=n: _clifford_check(n, *out)))
    for m in ODD_SUMS:
        ops.append(Op("odd_direct_sum", lambda m=m: clifford.odd_direct_sum(m),
                      lambda out, m=m: _odd_check(m, out)))
    for m in SCHUR_SIZES:
        def run(m=m):
            gens = clifford.schur_transpositions(m)
            return gens, clifford.verify_tn_relations(gens)
        ops.append(Op("schur_transpositions", run, lambda out, m=m: _schur_check(m, *out)))
    for m in HOMOMORPHISM_SIZES:
        ops.append(Op("transposition_homomorphism_report",
                      lambda m=m: clifford.transposition_homomorphism_report(m),
                      lambda out, m=m: _homomorphism_check(m, out)))
    ops.append(_verify_op(hr, "commutators"))

    builds = [_chain_ops(hr, _chain_spec(rng, reps), index, workdir, ops)
              for index, reps in enumerate(CHAINS)]
    # Repeat the gy-build of the largest chain, which must write the same bytes.
    argv, check = builds[CHAINS.index(((4, 3), (3, 4)))]
    ops.append(Op("gy-build repeat", lambda: _gy_build(hr, argv), check.twin_check))
    return ops


def _clifford_check(n, basis, report):
    gens = basis.generators
    dim = 2 ** ((n + 1) // 2)
    if len(gens) != n or any(g.shape != (dim, dim) for g in gens):
        return f"brauer_weyl({n}): wrong generator shapes"
    ident = np.eye(dim)
    for i, a in enumerate(gens):
        for j in range(i, n):
            b = gens[j]
            if not np.array_equal(a @ b + b @ a, 2 * ident if i == j else 0 * ident):
                return f"brauer_weyl({n}): E{i + 1}, E{j + 1} do not anticommute"
    if not (report["ok"] and report["anticommutation_ok"] and report["span_dim"] == 2 ** n):
        return f"verify_clifford({n}): span {report['span_dim']}, expected {2 ** n}"
    return None


def _odd_check(m, report):
    if (report["span_dim"] != 2 ** (2 * m + 1) or not report["span_full"]
            or not report["volume_central"] or report["volume_scalars"] is None
            or report["summand_failures"] != ([], [])
            or not report["projection_homomorphism_residual"] <= 1e-10
            or not report["ok"]):
        return f"odd_direct_sum({m}): {report}"
    return None


def _schur_check(m, gens, report):
    ts = gens.t
    dim = 2 ** m
    ident = np.eye(dim)
    if len(ts) != m or any(t.shape != (dim, dim) for t in ts):
        return f"schur_transpositions({m}): wrong shapes"
    # The double cover of S_{m+1} realized here: t_k^2 = 1, (t_k t_{k+1})^3 = 1,
    # and transpositions two or more apart anticommute.
    worst = max(float(np.max(np.abs(t @ t - ident))) for t in ts)
    for k in range(m - 1):
        braid = np.linalg.matrix_power(ts[k] @ ts[k + 1], 3)
        worst = max(worst, float(np.max(np.abs(braid - ident))))
    for k in range(m):
        for j in range(k + 2, m):
            worst = max(worst, float(np.max(np.abs(ts[k] @ ts[j] + ts[j] @ ts[k]))))
    if not worst <= 1e-12:
        return f"schur_transpositions({m}): relation residual {worst:.3g}"
    expected = (1, 1, -1 if m >= 3 else None)
    got = tuple(None if report[s] is None else report[s] for s in ("s1", "s2", "s3"))
    if got != expected or not report["ok"]:
        return f"verify_tn_relations({m}): signs {got}, expected {expected}"
    return None


def _homomorphism_check(m, report):
    want = orc.reachable_permutations(m, report["max_word_len"])
    if (report["distinct_permutations"] != want or not report["ok"]
            or not report["max_sign_mismatch"] <= 1e-12):
        return f"transposition_homomorphism_report({m}): {report}, expected {want} permutations"
    return None


def _chain_spec(rng, reps):
    keys = orc.admissible_keys(reps)
    undotted = {key: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for key in keys}
    dotted = {key: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for key in keys}
    return {"reps": reps, "undotted": undotted, "dotted": dotted}


def _config(spec):
    def rows(table):
        return [{"from": k + 1, "to": kp + 1, "lp": orc.half_str(tlp),
                 "l": orc.half_str(tl), "re": c.real, "im": c.imag}
                for (kp, k, tlp, tl), c in table.items()]
    return {"reps": [{"l1": orc.half_str(a), "l2": orc.half_str(b)} for a, b in spec["reps"]],
            "coeffs": rows(spec["undotted"]), "dotted": rows(spec["dotted"]),
            "kappa": [1.0, 0.0]}


def _chain_ops(hr, spec, index, workdir, ops):
    """Append the chain's four operations to ``ops``; return its gy-build call."""
    gy, H = hr.gy, hr.H
    reps = spec["reps"]
    chain = gy.RepChain(tuple((H(a), H(b)) for a, b in reps))

    def table(t):
        return {(kp, k, H(tlp), H(tl)): c for (kp, k, tlp, tl), c in t.items()}

    coeffs = gy.CoeffTable(table(spec["undotted"]), table(spec["dotted"]))
    path = os.path.join(workdir, f"chain-{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_config(spec), handle)
    built = {}

    def want():
        ref = {"basis": orc.chain_basis(reps), "js": orc.angular_momentum(reps),
               "l3": orc.assemble_lambda3(reps, spec["undotted"]),
               "l3c": orc.assemble_lambda3(reps, spec["dotted"])}
        built["system"] = gy.build_system(chain, coeffs)
        built["ref"] = ref

    def check_system(system):
        labels = [(c.k, c.l.twice, c.m.twice) for c in system.lambda3.row_labels]
        mats = [getattr(system, f).data for f in ("lambda1", "lambda2", "lambda3",
                                                  "lambda1c", "lambda2c", "lambda3c")]
        return _matrices_check(reps, built["ref"], labels, mats)

    def check_invariance(report):
        scale = max(1.0, float(np.max(np.abs(built["ref"]["l3"]))))
        if report["violations"] or len(report["residuals"]) != 46 \
                or not report["max_residual"] <= 1e-10 * scale:
            return f"verify_invariance {reps}: {report['violations']}"
        return None

    def check_classify(verdicts):
        want_groups = orc.components(reps)
        got = [(tuple(v["members"]), v["verdict"]) for v in verdicts]
        want_v = [(g, "indecomposable" if len(g) > 1 else "decomposable") for g in want_groups]
        return None if got == want_v else f"classify {reps}: {got}, expected {want_v}"

    out_dir = os.path.join(workdir, f"gy-{index}")
    argv = ["gy-build", "--chain", path, "--out", out_dir]
    gy_check = _GyBuildCheck(reps, built)
    ops.extend([
        Op("build_system", lambda: hr.gy.build_system(chain, coeffs), check_system, want),
        Op("verify_invariance", lambda: hr.gy.verify_invariance(built["system"]),
           check_invariance),
        Op("classify", lambda: hr.gy.classify(chain), check_classify),
        Op("gy-build", lambda: _gy_build(hr, argv), gy_check),
    ])
    return argv, gy_check


_FIELDS = ("lambda1", "lambda2", "lambda3", "lambda1c", "lambda2c", "lambda3c")


def _gy_build(hr, argv):
    code, text = hr.run_cli(argv)
    out_dir = argv[argv.index("--out") + 1]
    files = {}
    for field in _FIELDS:
        with open(os.path.join(out_dir, f"{field}.json"), "rb") as handle:
            files[field] = handle.read()
    if hr.tracer is not None:
        hr.tracer.counts["cli.output_bytes"] += sum(len(b) for b in files.values())
    return code, text, files


class _GyBuildCheck:
    """Checks a gy-build call; keeps its bytes for the byte-identical repeat."""

    def __init__(self, reps, built):
        self.reps, self.built = reps, built
        self.first = None

    def __call__(self, out):
        code, text, files = out
        self.first = (text, files)
        if code != 0:
            return f"gy-build {self.reps}: exit {code}"
        report = orc.strict_json(text)
        ref = self.built["ref"]
        if (report["command"] != "gy-build"
                or report["results"]["dim"] != len(ref["basis"])
                or report["results"]["files"] != [f"{f}.json" for f in _FIELDS]):
            return f"gy-build {self.reps}: wrong report"
        mats, labels = [], None
        for field in _FIELDS:
            payload = orc.strict_json(files[field].decode("utf-8"))
            if payload["name"] != field:
                return f"gy-build {self.reps}: {field}.json names {payload['name']}"
            labels = [_chain_label(s) for s in payload["labels"]]
            mats.append(np.array([[complex(*z) for z in row] for row in payload["matrix"]]))
        return _matrices_check(self.reps, ref, labels, mats)

    def twin_check(self, out):
        code, text, files = out
        if code != 0 or (text, files) != self.first:
            return "gy-build repeat: output differs from the first call"
        return None


def _chain_label(text):
    """'[k](l,m)' as printed by ChainIndex -> (k, 2l, 2m)."""
    k, rest = text[1:].split("](")
    l, m = rest[:-1].split(",")
    return int(k), orc.parse_half(l), orc.parse_half(m)


def _matrices_check(reps, ref, labels, mats):
    if labels != ref["basis"]:
        return f"chain {reps}: basis labels differ from the chain basis"
    scale = max(1.0, float(np.max(np.abs(ref["l3"]))))
    l3_err = max(float(np.max(np.abs(mats[2] - ref["l3"]))),
                 float(np.max(np.abs(mats[5] - ref["l3c"]))))
    if not l3_err <= 1e-12 * scale:
        return f"chain {reps}: lambda3 differs from the coefficient table by {l3_err:.3g}"
    worst = max(orc.vector_operator_residual(ref["js"], mats[:3]),
                orc.vector_operator_residual(ref["js"], mats[3:]))
    if not worst <= 1e-10 * scale:
        return f"chain {reps}: vector-operator residual {worst:.3g}"
    return None
