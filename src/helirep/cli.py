"""Batch command-line interface.

Four subcommands: ``zfun`` tabulates the mixed rotation/boost matrix
element along both evaluation routes, ``verify`` runs one named
verification suite, ``gy-build`` assembles a chain system and dumps its
six generator matrices, and ``radial`` integrates a separated radial
system and reports its diagnostics.

Output contract: JSON reports are a single sorted compact object
``{command, inputs, results, residuals, version}``; CSV is a header
plus data rows.  Spin labels parse and print as fraction strings
("3/2"), complex numbers serialize as ``[re, im]`` pairs (paired
``_re``/``_im`` columns in CSV).  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage, parse or input error, or an ``--out`` that cannot be written;
``main`` is the one place that maps an error to exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .gelfand_yaglom import _SECTORS, dirac_system, system_from_config
from .halfint import HalfInt
from .hyperspherical import z_grid, z_series_grid
from .kernels import _int_arg
from .radial import _VARIANTS, assemble_rfs, bessel_probe, integrate, residual
from .suites import CHAIN_SUITES, SUITES, run_suite

TOL_ENV = "HELIREP_TOL"
_MAX_GRID = 10 ** 5  # --grid N; a zfun sweep of 10^5 angles peaks near 110 MiB


def _half(text, what):
    try:
        return HalfInt(text)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse {what}={text!r} as a spin label: {exc}")


def _finite(text, what):
    """A finite float, or a ValueError."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{what}={text!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{what}={text!r} is not a finite number")
    return value


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:N, got {text!r}")
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be START:STOP:N with an integer N, got {text!r}")
    count = _int_arg("grid N", count, 1, _MAX_GRID)
    return _finite(parts[0], "grid START"), _finite(parts[1], "grid STOP"), count


def _parse_init(text):
    try:
        values = [complex(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse --init {text!r}: {exc}")
    return np.asarray(values, dtype=complex)


def _load_system(source):
    if source == "dirac":
        return dirac_system()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read chain file {source!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"chain file {source!r} is not valid JSON: {exc}")
    try:
        return system_from_config(config)
    except ValueError as exc:
        raise ValueError(f"invalid chain config {source!r}: {exc}")


def _pair(z):
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]


def _report(command, inputs, results, residuals):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "residuals": residuals,
        "version": __version__,
    }


def _dumps(payload):
    """Sorted compact JSON; a non-finite number is refused, not printed."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a result is not a finite number (overflow)")


def _csv(header, rows=()):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_zfun(args):
    l = _half(args.l, "--l")
    m = _half(args.m if args.m is not None else args.l, "--m")
    n = _half(args.n if args.n is not None else args.l, "--n")
    theta = _finite(args.theta, "--theta")
    tau = _finite(args.tau, "--tau")
    grid = _parse_grid(args.grid) if args.grid else None
    # An overflowing sweep or table is refused below, so numpy's warnings
    # on the way say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        thetas = np.linspace(*grid) if grid else np.array([theta])
        series = z_series_grid(l, m, n, thetas, [tau])[:, 0]
        factorized = z_grid(l, m, n, thetas, [tau])[:, 0]
    # Python floats, each column converted once; + 0.0 prints a negative
    # zero as 0.0.  The discrepancy is taken on Python complexes: numpy's
    # vectorized complex abs can differ from hypot in the last bit.
    theta_col = thetas.tolist()
    discrepancy = [abs(s - f) for s, f in
                   zip(series.tolist(), factorized.tolist())]
    # A discrepancy is finite only if all four parts it is taken from are.
    if not all(map(math.isfinite, theta_col + discrepancy)):
        raise ValueError("a result is not a finite number (overflow)")
    s_re, s_im, f_re, f_im = (
        (part + 0.0).tolist() for part in
        (series.real, series.imag, factorized.real, factorized.imag)
    )
    # One %-template per row: the constant fields are filled in once and
    # %r prints a float as repr, which is also json's float form.
    if args.format == "csv":
        row = f"{l},{m},{n},%r,{tau!r},%r,%r,%r,%r,%r\n"
        header = ["l", "m", "n", "theta", "tau", "series_re", "series_im",
                  "factorized_re", "factorized_im", "discrepancy"]
        text = _csv(header) + "".join(map(row.__mod__, zip(
            theta_col, s_re, s_im, f_re, f_im, discrepancy)))
    else:
        # The row object's keys in sorted order, as _dumps sorts them.
        row = (f'{{"discrepancy":%r,"factorized":[%r,%r],"l":"{l}",'
               f'"m":"{m}","n":"{n}","series":[%r,%r],"tau":{tau!r},'
               f'"theta":%r}}')
        rows = ",".join(map(row.__mod__, zip(
            discrepancy, f_re, f_im, s_re, s_im, theta_col)))
        text = _dumps(_report(
            "zfun",
            {"l": str(l), "m": str(m), "n": str(n), "theta": theta,
             "tau": tau, "grid": args.grid, "format": args.format},
            {"rows": []},
            {"max_discrepancy": max(discrepancy)},
        )).replace('"rows":[]', f'"rows":[{rows}]', 1)
    _emit(args, text)
    return 0


def cmd_verify(args):
    suite = args.suite or args.suite_flag
    if suite is None:
        raise ValueError(f"verify needs a suite name; choices: {sorted(SUITES)}")
    if args.suite and args.suite_flag and args.suite != args.suite_flag:
        raise ValueError("positional suite and --suite disagree")
    tol = None
    if args.tol is not None:
        tol = _finite(args.tol, "--tol")
    elif TOL_ENV in os.environ:
        tol = _finite(os.environ[TOL_ENV], TOL_ENV)
    system = None
    if suite in CHAIN_SUITES and args.chain:
        system = _load_system(args.chain)
    suite_report = run_suite(suite, tol=tol, system=system)
    checks = suite_report["checks"]
    if args.format == "csv":
        text = _csv(["suite", "check", "residual", "tol", "ok"], [
            [suite, row["name"], repr(row["residual"]), repr(row["tol"]),
             str(row["ok"]).lower()]
            for row in checks
        ])
    else:
        text = _dumps(_report(
            "verify",
            {"suite": suite, "tolerance": suite_report["tolerance"],
             "chain": args.chain, "format": args.format},
            suite_report,
            {row["name"]: row["residual"] for row in checks},
        ))
    _emit(args, text)
    return 0 if suite_report["ok"] else 1


_GENERATOR_FIELDS = (
    "lambda1", "lambda2", "lambda3", "lambda1c", "lambda2c", "lambda3c",
)


def cmd_gy_build(args):
    system = _load_system(args.chain)
    out_dir = args.out or "."
    args.out = None  # the report goes to stdout; --out names the directory
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for field in _GENERATOR_FIELDS:
        mat = getattr(system, field)
        parts = mat.data + 0.0  # each -0.0 part becomes 0.0, as in _pair
        payload = {
            "name": field,
            "labels": [str(label) for label in mat.row_labels],
            "matrix": np.stack((parts.real, parts.imag), -1).tolist(),
        }
        path = os.path.join(out_dir, f"{field}.json")
        text = _dumps(payload)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        written.append(f"{field}.json")
    dim = system.chain.dim
    if args.format == "csv":
        text = _csv(["file", "rows", "cols"],
                    [[name, str(dim), str(dim)] for name in written])
    else:
        text = _dumps(_report(
            "gy-build",
            {"chain": args.chain, "out": out_dir, "format": args.format},
            {"files": written, "dim": dim,
             "spins": [str(l) for rep in system.chain.reps
                       for l in rep.tower_spins()]},
            {},
        ))
    _emit(args, text)
    return 0


def cmd_radial(args):
    system = _load_system(args.chain)
    top = system.chain.top_spin
    l0 = _half(args.l0, "--l0") if args.l0 else top
    l0_dot = _half(args.l0_dot, "--l0-dot") if args.l0_dot else top
    rs = assemble_rfs(system, l0, l0_dot, variant=args.variant)
    if args.init:
        init = _parse_init(args.init)
    else:
        init = np.zeros(rs.block(args.sector).dim, dtype=complex)
        init[0] = 1.0
    start, stop, steps = _parse_grid(args.grid)
    sol = integrate(rs, start, stop, init, steps, sector=args.sector)
    labels = [str(label) for label in sol.labels]
    if args.format == "csv":
        header = ["r"]
        for label in labels:
            header.extend([f"re {label}", f"im {label}"])
        # Columns r, re, im, re, im, ...; + 0.0 prints a negative zero as
        # 0.0, and one %-template prints each row's floats as repr.
        columns = np.empty((1 + 2 * len(labels), len(sol.grid)))
        columns[0] = sol.grid
        columns[1::2] = sol.values.real.T + 0.0
        columns[2::2] = sol.values.imag.T + 0.0
        row = ",".join(["%r"] * len(columns)) + "\n"
        text = _csv(header) + "".join(map(row.__mod__, zip(*columns.tolist())))
    else:
        text = _dumps(_report(
            "radial",
            {"chain": args.chain, "l0": str(l0), "l0_dot": str(l0_dot),
             "variant": args.variant, "sector": args.sector,
             "grid": args.grid, "init": [_pair(z) for z in init],
             "format": args.format},
            {"labels": labels, "steps": steps, "rows": steps + 1,
             "probe": bessel_probe(sol)},
            {"equation_defect": residual(rs, sol)},
        ))
    _emit(args, text)
    return 0


@functools.cache
def _parser():
    """The parser, built once per process.  Parsing leaves no state on the
    tree (each call gets a fresh namespace), and every handler reads its
    defaults and $HELIREP_TOL at call time, so a reused tree prints what a
    fresh one would."""
    parser = argparse.ArgumentParser(
        prog="helirep",
        description="tabulate, verify, and integrate chain representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    zfun = sub.add_parser("zfun", help="tabulate both matrix-element routes")
    zfun.add_argument("--l", required=True, help='spin label, e.g. "3/2"')
    zfun.add_argument("--m", help="row projection (default: l)")
    zfun.add_argument("--n", help="column projection (default: l)")
    zfun.add_argument("--theta", default=0.0)
    zfun.add_argument("--tau", default=0.0)
    zfun.add_argument("--grid", help="theta sweep START:STOP:N")
    zfun.set_defaults(handler=cmd_zfun)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", nargs="?", choices=sorted(SUITES))
    verify.add_argument("--suite", dest="suite_flag", choices=sorted(SUITES))
    verify.add_argument("--tol",
                        help=f"override tolerance (also via ${TOL_ENV})")
    verify.add_argument("--chain",
                        help='chain config file or "dirac" (gy/radial suites)')
    verify.set_defaults(handler=cmd_verify)

    build = sub.add_parser("gy-build",
                           help="assemble a chain system; dump generators")
    build.add_argument("--chain", required=True,
                       help='chain config file or "dirac"')
    build.set_defaults(handler=cmd_gy_build)

    radial = sub.add_parser("radial", help="integrate one radial system")
    radial.add_argument("--chain", required=True,
                        help='chain config file or "dirac"')
    radial.add_argument("--l0", help="ansatz weight (default: top tower spin)")
    radial.add_argument("--l0-dot", dest="l0_dot",
                        help="conjugate ansatz weight (default: top tower spin)")
    radial.add_argument("--variant", choices=_VARIANTS, default="printed")
    radial.add_argument("--sector", choices=_SECTORS, default="plain")
    radial.add_argument("--grid", default="0.5:60:10000",
                        help="radius range START:STOP:STEPS (rows = STEPS+1)")
    radial.add_argument("--init",
                        help='comma-separated complex samples, e.g. "1,0,1j,0"')
    radial.set_defaults(handler=cmd_radial)

    for cmd in (zfun, verify, build, radial):
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", help="write output to this file")
        # Read "--theta -1e-3" as a value: argparse's own matcher takes
        # only plain negative numbers, not "-1e-3" or "-1/2".
        cmd._negative_number_matcher = re.compile(r"-[\d.]")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # The one exit-2 boundary: a ValueError (a usage, parse or input error,
    # from here or the library), a RuntimeError (a stalled solve), an
    # OSError from --out.
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"helirep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
