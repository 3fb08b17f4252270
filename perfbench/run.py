"""Benchmark for helirep: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; helirep is imported from its ``src/``.
The run builds the workload's seeded operations, times the set-up in
fresh child processes, computes reference values, runs every operation
once as a warm-up, then repeats whole rounds of the operations for at
least ``--seconds`` seconds (and at least two rounds), checking each
output.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
Details go to ``.perfbench_out/`` in the checkout.
"""

import os
import sys
import time

# One BLAS thread for every run, set before numpy loads: the default of
# two lets odd_direct_sum(5) use twice its wall time in CPU, and makes a
# first LAPACK call stall now and then.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 3  # fresh processes whose set-up time gives setup_s
MIN_ROUNDS = 2

# Host speed.  On a shared host the same round takes anywhere from 1x to
# 2x its time, within seconds and from one minute to the next; CPU time
# moves with wall time, and steal time does not account for it.  While
# the operations of a round run, a timer signal every SAMPLE_S seconds
# runs a fixed batch of interpreter work (the handler runs between
# bytecodes, so also inside a long operation).  The operation time since
# the previous sample is multiplied by CALIBRATION_REF_S over the
# batch's time, which gives seconds on a host where the batch takes
# 4 ms; the batch's own time is left out.  algebra is left unscaled: most
# of its round is one large, memory-bound LAPACK call, which slows far
# less than interpreter work (and defers the signal until it returns),
# so scaling it widened its spread (12 % against 6 % unscaled, 5 seeds).
WORKLOADS = {"points": True, "tabulate": True, "algebra": False}  # scaled or not
CALIBRATION_REF_S = 0.004
SAMPLE_S = 0.1
PROBE_BATCHES = 2  # calibration batches before and after a probe's set-up


def _calibrate():
    """Wall and CPU seconds of a fixed batch of interpreter work."""
    c0, t0 = time.process_time(), time.perf_counter()
    total, table = 0, {}
    for i in range(30_000):
        total += (i * i) % 7
        table[i & 255] = total
    return time.perf_counter() - t0, time.process_time() - c0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_helirep():
    """helirep from this checkout's src/ (or exit 2 without a result), then
    the benchmark's own modules; returns them and the helirep import time."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    try:
        import helirep
    except ImportError as exc:
        print(f"perfbench: cannot import helirep from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(helirep.__file__).startswith(SRC + os.sep):
        print(f"perfbench: helirep came from {helirep.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import workloads
    hr = workloads.Helirep()
    return hr, workloads, time.perf_counter() - t0


def _probe(args):
    """Child process: import and build the inputs, then report the times."""
    batches = [_calibrate()[0] for _ in range(PROBE_BATCHES)]
    hr, workloads, import_s = _import_helirep()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workloads.build(args.workload, args.seed, hr, workdir)
        batches += [_calibrate()[0] for _ in range(PROBE_BATCHES)]
        print(json.dumps({"import_s": import_s, "calibration_s": batches}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_probes(args):
    """Set-up of fresh processes, from start to inputs built, at the
    reference speed (the probe's calibration batches are not counted);
    also their raw times and import times."""
    setup, raw, imports = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        report = json.loads(line)
        batches = report["calibration_s"]
        elapsed = ready - start - sum(batches)
        raw.append(elapsed)
        setup.append(elapsed * CALIBRATION_REF_S / statistics.fmean(batches))
        imports.append(report["import_s"])
    return setup, raw, imports


def _steal_ticks():
    """Host steal time of all CPUs so far, in clock ticks (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _check(op, out):
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output makes the check itself raise
        return f"{op.name}: check raised {exc!r}"


class HostSpeed:
    """Operation time, raw and scaled to the reference host speed by
    calibration batches taken on a timer signal while operations run."""

    def __init__(self):
        self.raw_wall = self.raw_cpu = self.ref_wall = self.ref_cpu = 0.0
        self.samples = []
        self._pending_wall = self._pending_cpu = 0.0  # since the last sample
        self._since = None  # (wall, cpu) clock of the running operation

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # the tail since the last sample

    def begin(self):
        self._since = (time.perf_counter(), time.process_time())

    def end(self):
        self._accrue()
        self._since = None

    def _accrue(self):
        wall, cpu = time.perf_counter(), time.process_time()
        self._pending_wall += wall - self._since[0]
        self._pending_cpu += cpu - self._since[1]

    def _on_timer(self, signum, frame):
        if self._since is not None:
            self._accrue()
        if self._pending_wall:
            self._sample()
        if self._since is not None:
            self._since = (time.perf_counter(), time.process_time())

    def _sample(self):
        wall, cpu = _calibrate()
        self.samples.append(wall)
        self.raw_wall += self._pending_wall
        self.raw_cpu += self._pending_cpu
        self.ref_wall += self._pending_wall * CALIBRATION_REF_S / wall
        self.ref_cpu += self._pending_cpu * CALIBRATION_REF_S / cpu
        self._pending_wall = self._pending_cpu = 0.0


class Rounds:
    """Per-round times of the operations, raw and at the reference speed,
    and the failures."""

    def __init__(self, scaled):
        self.scaled = scaled  # scale to the reference speed
        self.wall = []        # raw seconds per round
        self.cpu = []
        self.wall_ref = []    # seconds per round at the reference speed
        self.cpu_ref = []
        self.calibration = []
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()
        self.failing = []     # indices of the failed operations, per round
        self.op_wall = defaultdict(float)

    def run(self, ops, tracer=None):
        clock, cpu_clock = time.perf_counter, time.process_time
        wall = cpu = 0.0
        failing = []
        if tracer is not None:
            tracer.begin_round()
        with contextlib.ExitStack() as stack:
            speed = stack.enter_context(HostSpeed()) if self.scaled else None
            for index, op in enumerate(ops):
                if speed:
                    speed.begin()
                c0 = cpu_clock()
                t0 = clock()
                try:
                    out, problem = op.run(), None
                except Exception as exc:
                    out, problem = None, f"{op.name}: raised {exc!r}"
                t1 = clock()
                c1 = cpu_clock()
                if speed:
                    speed.end()
                wall += t1 - t0
                cpu += c1 - c0
                self.op_wall[op.name] += t1 - t0
                if tracer is not None:
                    tracer.record_op(op.name, t0, t1)
                if problem is None:
                    problem = _check(op, out)
                if problem is not None:
                    failing.append(index)
                    self.problems[problem] += 1
        if speed:
            # Operation time without the calibration batches run inside it.
            wall, cpu = speed.raw_wall, speed.raw_cpu
            self.calibration.extend(speed.samples)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.wall_ref.append(speed.ref_wall if speed else wall)
        self.cpu_ref.append(speed.ref_cpu if speed else cpu)
        self.attempted += len(ops)
        self.failed += len(failing)
        self.failing.append(failing)

    def repeat(self, ops, seconds, min_rounds, tracer=None):
        start = time.perf_counter()
        while len(self.wall) < min_rounds or time.perf_counter() - start < seconds:
            self.run(ops, tracer)


def _layer_metrics(tracing, tracer, traced, untraced, import_s):
    n = len(traced.wall)
    calls, self_s = tracer.layer_totals()
    metrics = {"setup.import_s": (statistics.median(import_s), "s")}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    for name in tracing.COUNTERS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (tracer.counts[name] / n, unit)
    metrics["radial.solve_s"] = (tracer.probe_total("radial.solve_ivp") / n, "s")
    metrics["clifford.rank_s"] = (
        tracer.probe_total("clifford:numpy.linalg.matrix_rank") / n, "s")
    # Raw seconds, so that self times and remainder add up to the wall time.
    traced_wall = statistics.fmean(traced.wall)
    untraced_wall = statistics.fmean(untraced.wall)
    remainder = (sum(traced.wall) - tracer.top_s) / n
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.remainder_s"] = (remainder, "s")
    closure = sum(self_s.values()) / n + remainder - traced_wall
    return metrics, closure


def main(argv=None):
    args = _parse(argv)
    if args.probe:
        _probe(args)
        return 0
    hr, workloads, own_import_s = _import_helirep()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, hr, workdir)
        setup_s, setup_raw_s, import_s = _setup_probes(args)
        prepare_start = time.perf_counter()
        workloads.prepare(ops)
        prepare_s = time.perf_counter() - prepare_start

        # Traced runs stay unscaled: a span must not hold calibration time.
        scaled = WORKLOADS[args.workload] and not args.trace
        warm = Rounds(scaled)
        warm.run(ops)
        steal0, clock0 = _steal_ticks(), time.perf_counter()
        untraced = Rounds(scaled)
        tracing = tracer = traced = None
        if args.trace:
            import tracer as tracing
            untraced.repeat(ops, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            hr.tracer = tracer
            traced = Rounds(scaled)
            traced.repeat(ops, args.seconds / 2, 1, tracer)
            hr.tracer = None
            tracer.uninstall()
        else:
            untraced.repeat(ops, args.seconds, MIN_ROUNDS)
        steal1, clock1 = _steal_ticks(), time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = sum((r.problems for r in runs), Counter())
    # Correct: every failure is a known fault, and the same operations fail
    # in every round, the warm-up included.
    rounds_failing = [f for r in [warm] + runs for f in r.failing]
    correct = (all(p.startswith(workloads.KNOWN_FAULT) for p in problems)
               and all(f == rounds_failing[0] for f in rounds_failing))

    calibration = [c for r in runs for c in r.calibration]
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "ops_per_round": len(ops), "rounds": [len(r.wall) for r in runs],
        "round_wall_s": [r.wall for r in runs], "round_cpu_s": [r.cpu for r in runs],
        "round_wall_ref_s": [r.wall_ref for r in runs],
        "round_cpu_ref_s": [r.cpu_ref for r in runs],
        "scaled": scaled,
        "calibration_median_s": statistics.median(calibration) if calibration else None,
        "calibration_batches": len(calibration),
        "warmup_wall_s": warm.wall[0], "own_import_s": own_import_s,
        "setup_probe_s": setup_s, "setup_probe_raw_s": setup_raw_s,
        "import_probe_s": import_s, "prepare_s": prepare_s,
        "timed_phase_s": clock1 - clock0,
        "steal_s": None if steal0 is None or steal1 is None else (steal1 - steal0) / 100.0,
        "op_wall_s": dict(untraced.op_wall), "problems": dict(problems),
    }
    if args.trace:
        metrics, closure = _layer_metrics(tracing, tracer, traced, untraced, import_s)
        diagnostics["closure_s"] = closure
        correct = correct and abs(closure) <= 1e-6 * metrics["trace.wall_s"][0]
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "traced_rounds": len(traced.wall)})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.fmean(untraced.wall_ref), "s"),
            "round_median_s": (statistics.median(untraced.wall_ref), "s"),
            "cpu_s": (statistics.fmean(untraced.cpu_ref), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "diagnostics": diagnostics}, handle, indent=1)

    steal = diagnostics["steal_s"]
    print(f"# {args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"rounds {diagnostics['rounds']}, timed phase {clock1 - clock0:.2f} s, "
          f"host steal {'n/a' if steal is None else f'{steal:.2f} s'} "
          f"(nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS})")
    if scaled:
        raw_wall = statistics.fmean(untraced.wall)
        print(f"# raw wall per round {raw_wall:.4f} s; calibration batch "
              f"median {diagnostics['calibration_median_s'] * 1e3:.3f} ms, "
              f"reference {CALIBRATION_REF_S * 1e3:g} ms")
    for problem, count in sorted(problems.items()):
        print(f"# failed x{count}: {problem[:300]}")
    if args.trace:
        print(f"# trace: self times + remainder - traced wall = {closure:.3g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
