"""Closed-loop benchmark of trigconv.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coeff-table --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One client in this process issues the workload's ops (see ``workloads.py``)
one after the other, each through ``trigconv.cli.main`` with its output
captured, or through the public API where no subcommand exists.  The op
list is fixed by the seed; the run repeats it in passes until ``--seconds``
have gone by, and always runs at least two passes so that every CLI
command is repeated and its output bytes can be compared.  Every op's
output meets an accuracy gate against the independent references in
``reference.py``; the gate runs outside the timed region.  The package is
imported from ``src/`` of the checkout, never from an installed copy.

``--trace 0`` prints the end-to-end metrics, with the times of
coeff-table and kernel-path scaled to a reference host speed (see below):

``setup_s``      median over five fresh processes of the time from process
                 start to the first timed op: ``import trigconv``, input
                 generation and one warm-up op
``wall_s``       time to run the whole op list once: the sum over ops of
                 each op's latency
``op_s.p50``     median op latency
``op_s.tail``    the workload's tail percentile of op latency (printed on
                 the ``# tail_percentile`` line): the highest percentile
                 with at least ten op runs beyond it in two passes
``peak_rss_mb``  ``ru_maxrss`` of this process, which runs only this workload
``ok_ratio``     ops that succeeded over ops attempted

Times are scaled to a reference host.  Between ops, about once a second,
and around each set-up process, the run times a fixed calibration round
(``calibrate``) that shares no code with the program.  On the workloads in
``SCALED_WORKLOADS`` every time metric is multiplied by the host's speed,
``CALIBRATION_REF_S`` over the interquartile mean of the rounds timed
alongside it: it is the time the run would have taken on a host where one
round takes ``CALIBRATION_REF_S``.  On a shared 2-vCPU cloud VM the host's
speed swung by up to 1.7x between consecutive 40-second runs, and drifted
that far over twenty minutes, with every pass of a run uniformly fast or
slow, so no statistic inside a run could make unscaled times repeat;
scaling cut the run-to-run spread of ``wall_s``, ``op_s.p50`` and
``op_s.tail`` by half or more on both workloads, and set-up times tracked
the rounds timed next to them just as closely.  A change to the program
cannot change the calibration round.  probe-series streams arrays of up to
80 MB, is bound by memory bandwidth, tracked the round less well than it
drifted, and stays unscaled.  The unscaled times and the host's speed
(``host_speed``, ``setup_host_speed``) are printed on ``#`` lines and kept
in the run record.

An op's latency is the mean of the middle half of its latencies over the
passes (the interquartile mean).  On a shared 2-vCPU cloud VM the CPU
switches between a fast and a slow speed, a third apart, for seconds to
minutes at a time, so one op's latencies over a run fall into two
clusters.  The best of k, or the median when the clusters are about
equally full, flips between a fast and a slow value from run to run; the
interquartile mean moves in proportion to the share of the run spent
slow, and still drops the odd stall.

A failed op run (an exception, a non-zero exit, a missed gate, or CLI
output bytes that differ from the same argv's earlier output) counts in
``failed``, and an op that failed on any pass counts as slower than every
other op in the percentiles.  Failures of a
known defect named by the op (``workloads.KNOWN_DEFECTS``) leave ``correct``
true; any other failure makes it false.

``--trace 1`` alternates untraced passes with passes that have every layer
wrapped (``tracing.py``), and prints the per-layer metrics of one traced
pass: exact counters (which must repeat on
every traced pass, and are compared with the previous traced run of the
same seed) and self times (the median over traced passes), plus
``trace.wall_s`` (``wall_s`` of the traced passes) and
``trace.overhead_s``, traced minus untraced ``wall_s``; none of these
times is scaled.  The spans are written to
``.perfbench/<workload>-seed<seed>-spans.npz``.

Every run writes its metrics, counters, failures and machine facts to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("coeff-table", "kernel-path", "probe-series")
SETUP_SAMPLES = 5
MIN_PASSES = 2
CALIBRATE_EVERY_S = 1.0
# what one calibration round takes on the reference host (see calibrate())
CALIBRATION_REF_S = 0.03
# workloads whose times are scaled to the reference host: they are bound by
# the interpreter, like the calibration round (see the module docstring)
SCALED_WORKLOADS = ("coeff-table", "kernel-path")
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs and run the warm-up op, then exit")
    return parser.parse_args(argv)


def _import_package():
    """Import ``trigconv`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "trigconv" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'trigconv'} not found; run from a trigconv checkout")
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path[:0] = [str(src), str(HERE)]
    import trigconv
    if Path(trigconv.__file__).resolve().parent != (src / "trigconv").resolve():
        sys.exit(f"perfbench: imported trigconv from {trigconv.__file__}, not from {src}")
    return trigconv


# ---------------------------------------------------------------- one op

def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs the op list in passes and judges every outcome."""

    def __init__(self, ops, workloads):
        self.ops = ops
        self.wl = workloads
        self.tracer = None
        self.first_output = {}
        self.verdict = {}
        self.failed_ops = set()
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.unexpected = set()
        self.calibrations = []
        self.calibrated_at = -math.inf

    def execute(self, op):
        """Run one op; returns ``("ok", output)`` or ``("error", message)``."""
        if op.argv is None:
            return "ok", op.call()
        code, out, err = _run_cli(self.wl.cli, op.argv)
        if self.tracer:
            self.tracer.count("cli.bytes_out", len(out.encode()))
            self.tracer.count("cli.exit_nonzero", code != 0)
        if code != 0:
            lines = err.strip().splitlines()
            return "error", lines[-1] if lines else f"exit status {code}"
        return "ok", out

    def judge(self, j, op, kind, payload):
        """``None`` for a good outcome, else ``(kind, message)``."""
        if kind != "ok":
            return kind, payload
        key = payload if isinstance(payload, str) else repr(payload)
        if self.first_output.setdefault(j, key) != key:
            return "nondeterministic", "output differs from the first run of the same op"
        if j not in self.verdict:
            result = json.loads(payload) if isinstance(payload, str) else payload
            try:
                message = op.gate(result)
            except Exception as exc:  # a malformed output fails its op, not the run
                message = f"gate raised {type(exc).__name__}: {exc}"
            self.verdict[j] = None if message is None else ("gate", message)
        return self.verdict[j]

    def one_pass(self):
        """Run every op once, then judge the outputs; returns each op's
        latency.  Judging after the pass keeps the gates' work out of the
        caches the timed ops see."""
        clock = time.perf_counter
        outcomes = []
        for j, op in enumerate(self.ops):
            if self.tracer:
                self.tracer.op = j
            start = clock()
            try:
                kind, payload = self.execute(op)
            except Exception as exc:  # a failing op is counted, the loop goes on
                kind, payload = "error", f"{type(exc).__name__}: {exc}"
            outcomes.append((clock() - start, kind, payload))
            if clock() - self.calibrated_at >= CALIBRATE_EVERY_S:
                self.calibrations.append(calibrate())
                self.calibrated_at = clock()
        for j, (op, (elapsed, kind, payload)) in enumerate(zip(self.ops, outcomes)):
            self.attempted += 1
            failure = self.judge(j, op, kind, payload)
            if failure is None:
                continue
            self.failed_ops.add(j)
            self.failed += 1
            known = bool(op.known) and self.wl.KNOWN_DEFECTS[op.known](*failure)
            if not known:
                self.unexpected.add(j)
            label = f"known defect {op.known}" if known else "UNEXPECTED"
            self.failures.setdefault(j, f"{label}: {op.label}: {failure[0]}: {failure[1]}")
        return [elapsed for elapsed, _, _ in outcomes]


def calibrate():
    """Time one round of fixed work that shares no code with ``trigconv``:
    integer arithmetic in the interpreter, float formatting, dict building
    and a numpy ufunc over a small array.  It touches about 2 MB, so it
    leaves ``peak_rss_mb`` alone."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 50_000)
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    json.dumps([i * 0.5 for i in range(20_000)])
    for _ in range(5):
        {str(i): i for i in range(10_000)}
    for _ in range(20):
        np.sin(x).sum()
    return time.perf_counter() - start


def repeat(step, seconds, min_rounds):
    """Call ``step`` until the next call would end after ``seconds``, but at
    least ``min_rounds`` times; returns the results in order."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step())
        spent = time.perf_counter() - start
        if len(results) >= min_rounds and spent * (len(results) + 1) / len(results) > seconds:
            return results


# ---------------------------------------------------------------- metrics

def percentile(values, p):
    """The ``p``-th percentile, interpolating linearly between the closest
    ranks (so the 50th is the ordinary median)."""
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    fraction = position - low
    if fraction == 0.0:
        return ordered[low]
    return ordered[low] + fraction * (ordered[low + 1] - ordered[low])


def tail_percentile(ops_per_pass):
    """The highest whole percentile with ten ops beyond it in two passes."""
    return math.floor(100.0 * (1.0 - 10.0 / (MIN_PASSES * ops_per_pass)))


def interquartile_mean(values):
    """The mean of the middle half of ``values`` (of all of them when there
    are fewer than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def op_latencies(passes):
    """Each op's interquartile mean latency over the passes."""
    return [interquartile_mean(runs) for runs in zip(*passes)]


def _finite(value, ceiling):
    # a percentile that lands on failed ops is reported as the run's length
    return value if math.isfinite(value) else ceiling


def settle_allocator():
    """Allocate and free one untouched 30 MB block before the timed passes.

    glibc serves a large allocation by ``mmap`` until a block of that size
    has been freed, then raises its mmap threshold to the freed size (up to
    32 MB) and its trim threshold to twice that.  Until then every large
    temporary array page-faults afresh, so without this step the cost of the
    same op list would depend on the order its ops happened to run in; with
    it every run times the steady state a long-lived process reaches.  The
    block is never written, so it adds nothing to ``peak_rss_mb``.
    """
    import numpy as np
    np.empty(30 * 2**20 // 8)


def setup_time(args):
    """Median wall time of fresh processes that only set up this workload,
    and the calibration rounds timed before and after each of them."""
    samples, calibrations = [], [calibrate()]
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"perfbench: setup process failed: {done.stderr.strip()}")
        calibrations.append(calibrate())
    return statistics.median(samples), samples, calibrations


def machine_facts(trigconv):
    import numpy as np
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "trigconv_backend": getattr(trigconv, "BACKEND", "none"),
        "caches": caches,
    }


# ---------------------------------------------------------------- modes

def run_end_to_end(args, runner, ops):
    setup, samples, setup_calibrations = setup_time(args)
    passes = repeat(runner.one_pass, args.seconds, MIN_PASSES)
    p_tail = tail_percentile(len(ops))
    latencies = op_latencies(passes)
    # a failed op misses every latency target
    ranked = [math.inf if j in runner.failed_ops else t for j, t in enumerate(latencies)]
    speed = CALIBRATION_REF_S / interquartile_mean(runner.calibrations)
    setup_speed = CALIBRATION_REF_S / interquartile_mean(setup_calibrations)
    scaled = args.workload in SCALED_WORKLOADS
    raw = {"setup_s": setup, "wall_s": sum(latencies),
           "op_s.p50": _finite(percentile(ranked, 50), args.seconds),
           "op_s.tail": _finite(percentile(ranked, p_tail), args.seconds)}
    metrics = {name: (value * (setup_speed if name == "setup_s" else speed) if scaled
                      else value, "s")
               for name, value in raw.items()}
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    })
    notes = {"tail_percentile": p_tail, "passes": len(passes),
             "host_speed": speed, "setup_host_speed": setup_speed,
             "calibrations_s": runner.calibrations,
             "unscaled_s": raw,
             "pass_walls_s": [sum(p) for p in passes],
             "setup_samples_s": samples, "op_runs": runner.attempted,
             "op_latency_s": {f"{j} {op.label}": t
                              for j, (op, t) in enumerate(zip(ops, latencies))}}
    return metrics, notes, []


def run_traced(args, runner, tracer_cls, layer_metrics):
    tracer = tracer_cls()
    snapshots = []

    def untraced_then_traced():
        untraced = runner.one_pass()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = runner.one_pass()
        finally:
            tracer.remove()
            runner.tracer = None
        snapshots.append(tracer.snapshot())
        return untraced, traced

    untraced, traced = zip(*repeat(untraced_then_traced, args.seconds, MIN_PASSES))
    problems = []
    counts = snapshots[0]["counts"]
    for k, snap in enumerate(snapshots[1:], start=2):
        if snap["counts"] != counts:
            changed = sorted(key for key in set(counts) | set(snap["counts"])
                             if counts.get(key) != snap["counts"].get(key))
            problems.append(f"work counters changed on traced pass {k}: {changed}")
    names = set().union(*(snap["self_s"] for snap in snapshots))
    self_s = {name: statistics.median(snap["self_s"].get(name, 0.0) for snap in snapshots)
              for name in names}
    alloc = statistics.median(snap["alloc_peak"] for snap in snapshots)
    metrics = layer_metrics(self_s, counts, alloc)
    traced_wall = sum(op_latencies(traced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - sum(op_latencies(untraced)), "s")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    notes = {"untraced_pass_walls_s": [sum(p) for p in untraced],
             "traced_pass_walls_s": [sum(p) for p in traced],
             "spans": len(tracer.spans),
             "counters_match_previous_run": _same_as_previous_run(args, counts),
             "counters": counts}
    return metrics, notes, problems


def _same_as_previous_run(args, counts):
    """Whether an earlier traced run of this seed in this checkout counted
    the same work (``None`` when there is none to compare with)."""
    try:
        with open(_record_path(args), encoding="utf-8") as fh:
            return json.load(fh)["notes"]["counters"] == counts
    except (OSError, ValueError, KeyError):
        return None


def _record_path(args):
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"


def run_one(args):
    trigconv = _import_package()
    import workloads as wl
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, warmup = wl.build(args.workload, args.seed, str(workdir))
        runner = Runner(ops, wl)
        runner.execute(warmup)
        if args.setup_only:
            return 0
        facts = machine_facts(trigconv)
        settle_allocator()
        if args.trace:
            from tracing import Tracer, layer_metrics
            metrics, notes, problems = run_traced(args, runner, Tracer, layer_metrics)
        else:
            metrics, notes, problems = run_end_to_end(args, runner, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += [runner.failures[j] for j in sorted(runner.unexpected)]
    correct = not problems
    for key, value in facts.items():
        print(f"# {key}: {value}")
    print(f"# workload: {args.workload}, seed {args.seed}, {len(ops)} ops per pass, "
          f"closed loop with one client")
    for key, value in notes.items():
        if key not in ("counters", "op_latency_s"):
            print(f"# {key}: {value}")
    for j in sorted(runner.failures):
        print(f"# failed op {j}: {runner.failures[j]}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=facts, notes=notes, failures=runner.failures, problems=problems)
    with open(_record_path(args), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} exited with status {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
