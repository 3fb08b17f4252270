"""Compare the CLI output of two source trees, call by call.

Usage:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--expect NAME ...]

PARENT_SRC and CHANGE_SRC are directories holding a ``helirep`` package
(a checkout's ``src/``).  A fixed list of CLI calls runs under each tree
in a fresh working directory: all eight ``verify`` suites in JSON and
CSV, ``verify gy`` and ``gy-build`` on seeded random chain configs
(integer-tower chains among them), ``verify radial`` on two Dirac
configs whose solves overflow and on chain4, ``zfun`` points and
sweeps, ``radial`` on Dirac and on chain3 and chain4 (the conjugate
sector with the alt variant, and raised ansatz weights, so the 1/r
assembly is compared beyond Dirac; chain5, whose derivative matrix is
singular, keeps the error path), ``verify gy``, ``gy-build`` and
``radial`` on a Dirac config with a NaN coefficient and on one with a
NaN mass, and four usage errors.  Every call runs twice, once to
stdout and once with ``--out``.  The script compares stdout, the ``--out`` files
(every file ``gy-build`` writes) and the exit code, prints one line per
call, and exits 1 if any call differs, unless the call is named with
``--expect`` (a change made on purpose).  stderr is not compared: it
carries the trees' paths in tracebacks and warnings.

Standard library only; each call is one ``python -m helirep.cli``
subprocess, run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

SUITES = ("commutators", "addition", "grouplaw", "cg", "clifford", "schur",
          "gy", "radial")

DIRAC = {
    "reps": [{"l1": "1/2", "l2": "0"}, {"l1": "0", "l2": "1/2"}],
    "coeffs": [
        {"from": 2, "to": 1, "lp": "1/2", "l": "1/2", "re": 1.0, "im": 0.0},
        {"from": 1, "to": 2, "lp": "1/2", "l": "1/2", "re": -1.0, "im": 0.0},
    ],
}

# Chains as twice-int (l1, l2) pairs; the last two carry integer towers.
CHAINS = (
    ((1, 0), (0, 1)),
    ((1, 0), (2, 1)),
    ((0, 1), (1, 0), (1, 2)),
    ((2, 1), (1, 2)),
    ((3, 2), (2, 1), (1, 0)),
    ((1, 1), (0, 0)),
    ((2, 2), (1, 1), (0, 0)),
)


def _label(twice):
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _towers(l1, l2):
    return range(abs(l1 - l2), l1 + l2 + 1, 2)


def _random_config(reps, rng):
    """Seeded coefficients on every tower pair the chain can carry."""
    rows = []
    for to, (a1, a2) in enumerate(reps):
        for frm, (b1, b2) in enumerate(reps):
            if to != frm and not (abs(a1 - b1) == 1 and abs(a2 - b2) == 1):
                continue
            for lp in _towers(a1, a2):
                for l in _towers(b1, b2):
                    if abs(lp - l) <= 2:
                        rows.append({
                            "from": frm + 1, "to": to + 1, "lp": _label(lp),
                            "l": _label(l), "re": round(rng.uniform(-1, 1), 6),
                            "im": round(rng.uniform(-1, 1), 6),
                        })
    return {"reps": [{"l1": _label(a), "l2": _label(b)} for a, b in reps],
            "coeffs": rows}


def configs():
    """Name -> chain config, written next to each call."""
    rng = random.Random(20261018)
    out = {f"chain{i}.json": _random_config(reps, rng)
           for i, reps in enumerate(CHAINS)}
    out["kappa400.json"] = {**DIRAC, "kappa": [0.0, 400.0]}
    out["kappa1e300.json"] = {**DIRAC, "kappa": [1e300, 1e300]}
    # json.dump spells these NaN, which json.load reads back.
    out["nancoeff.json"] = {**DIRAC, "coeffs": [{**DIRAC["coeffs"][0], "re": float("nan")},
                                                DIRAC["coeffs"][1]]}
    out["nankappa.json"] = {**DIRAC, "kappa": [float("nan"), 0.0]}
    return out


def calls():
    """(name, argv) of every call, in a fixed order."""
    out = []
    for fmt in ("json", "csv"):
        for suite in SUITES:
            out.append((f"verify {suite} {fmt}", ["verify", suite, "--format", fmt]))
        for i in range(len(CHAINS)):
            out.append((f"verify gy chain{i} {fmt}",
                        ["verify", "gy", "--chain", f"chain{i}.json", "--format", fmt]))
        for cfg in ("kappa400", "kappa1e300", "chain4"):
            out.append((f"verify radial {cfg} {fmt}",
                        ["verify", "radial", "--chain", f"{cfg}.json", "--format", fmt]))
        out.append((f"verify gy --tol 1e-30 {fmt}",
                    ["verify", "gy", "--tol", "1e-30", "--format", fmt]))
        out += [
            (f"zfun point {fmt}", ["zfun", "--l", "3/2", "--m", "1/2", "--n=-1/2",
                                   "--theta", "0.7", "--tau", "-0.4", "--format", fmt]),
            (f"zfun l=200 {fmt}", ["zfun", "--l", "200", "--theta", "1", "--tau", "1",
                                   "--format", fmt]),
            (f"zfun -0.0 {fmt}", ["zfun", "--l", "2", "--theta", "-0.0", "--tau", "-0.0",
                                  "--format", fmt]),
            (f"zfun sweep {fmt}", ["zfun", "--l", "40", "--m=1", "--n=-1", "--tau", "0.4",
                                   "--grid", "0:3.14159:200", "--format", fmt]),
            (f"zfun sweep past pi {fmt}", ["zfun", "--l", "7/2", "--m", "3/2", "--tau", "2.5",
                                           "--grid", "-1:7:500", "--format", fmt]),
            (f"zfun sweep overflow {fmt}", ["zfun", "--l", "40", "--tau", "700",
                                             "--grid", "0:3:5", "--format", fmt]),
            (f"radial dirac {fmt}", ["radial", "--chain", "dirac", "--format", fmt]),
            (f"radial alt conjugate {fmt}",
             ["radial", "--chain", "dirac", "--variant", "alt", "--sector", "conjugate",
              "--init", "1,0,1j,0", "--grid", "0.5:20:500", "--format", fmt]),
            (f"radial chain5 {fmt}", ["radial", "--chain", "chain5.json",
                                      "--grid", "0.5:10:200", "--format", fmt]),
            *((f"radial {c} alt conjugate {fmt}",
               ["radial", "--chain", f"{c}.json", "--variant", "alt",
                "--sector", "conjugate", "--grid", "0.5:10:200", "--format", fmt])
              for c in ("chain3", "chain4")),
            (f"radial kappa400 {fmt}", ["radial", "--chain", "kappa400.json",
                                        "--grid", "0.5:60:200", "--format", fmt]),
            (f"gy-build dirac {fmt}", ["gy-build", "--chain", "dirac", "--format", fmt]),
        ]
        for i in (2, 6):
            out.append((f"gy-build chain{i} {fmt}",
                        ["gy-build", "--chain", f"chain{i}.json", "--format", fmt]))
    for c in ("chain3", "chain4"):
        out.append((f"radial {c} l0=7/2 l0-dot=5/2",
                    ["radial", "--chain", f"{c}.json", "--l0", "7/2",
                     "--l0-dot", "5/2", "--grid", "0.5:10:200"]))
    for cfg in ("nancoeff", "nankappa"):
        out += [(f"verify gy {cfg}", ["verify", "gy", "--chain", f"{cfg}.json"]),
                (f"gy-build {cfg}", ["gy-build", "--chain", f"{cfg}.json"]),
                (f"radial {cfg}", ["radial", "--chain", f"{cfg}.json",
                                   "--grid", "0.5:10:200"])]
    out += [
        ("usage: verify without suite", ["verify"]),
        ("usage: zfun bad l", ["zfun", "--l", "1/3"]),
        ("usage: radial short init", ["radial", "--chain", "dirac", "--init", "1,0"]),
        ("usage: radial infinite init", ["radial", "--chain", "dirac",
                                         "--init", "inf,0,0,0"]),
    ]
    return out


def run(src, argv, out_arg=None):
    """Exit code, stdout and the --out files of one call under ``src``."""
    with tempfile.TemporaryDirectory() as cwd:
        for name, cfg in configs().items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as handle:
                json.dump(cfg, handle)
        if out_arg is not None:
            argv = argv + ["--out", out_arg]
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        env.pop("HELIREP_TOL", None)
        proc = subprocess.run([sys.executable, "-m", "helirep.cli", *argv],
                              cwd=cwd, env=env, capture_output=True)
        files = {}
        if out_arg is not None:
            target = os.path.join(cwd, out_arg)
            if os.path.isdir(target):
                for name in sorted(os.listdir(target)):
                    with open(os.path.join(target, name), "rb") as handle:
                        files[name] = handle.read()
            elif os.path.exists(target):
                with open(target, "rb") as handle:
                    files[out_arg] = handle.read()
        return proc.returncode, proc.stdout, files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME",
                        help="a call that may differ on purpose (repeatable)")
    args = parser.parse_args(argv)
    unknown = set(args.expect) - {name for name, _ in calls()}
    if unknown:
        parser.error(f"--expect names no call: {sorted(unknown)}")
    unexpected = 0
    for name, call_argv in calls():
        diffs = []
        for out_arg in (None, "out"):
            a = run(args.parent_src, call_argv, out_arg)
            b = run(args.change_src, call_argv, out_arg)
            how = "run to stdout" if out_arg is None else "run with --out"
            for what, x, y in (("exit code", a[0], b[0]), ("stdout", a[1], b[1]),
                               ("--out files", a[2], b[2])):
                if x != y:
                    diffs.append(f"{what} ({how})")
        if not diffs:
            print(f"same      {name}", flush=True)
        elif name in args.expect:
            print(f"expected  {name}: {', '.join(diffs)}", flush=True)
        else:
            unexpected += 1
            print(f"DIFFERS   {name}: {', '.join(diffs)}", flush=True)
    print(f"{len(calls())} calls, {unexpected} differ unexpectedly")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
