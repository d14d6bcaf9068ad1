"""Benchmark for the sparsebump CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One workload runs in this process on
one thread as a closed loop: operation i+1 starts when operation i has
ended.  Each operation is one in-process call of `sparsebump.cli.main`
on inputs generated from --seed, timed around that call, and its
artifacts are checked afterwards.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before
it print the same metrics by name with their units.

--trace 0 reports the end-to-end metrics, with times corrected for the
machine's speed as measured by `speed_probe`.  --trace 1 runs every operation
twice, untraced and then with every public function of the five layers
wrapped in spans, requires both to write byte-identical artifacts, and
reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
REFERENCE_SEED = 0
WARMUP_OP = -1
# tracebacks printed per run; later failures are only counted
MAX_REPORTED_FAILURES = 5
# The shared machine the benchmark was written on changes speed by up to 2x
# within minutes, for every process alike, so the timed metrics are given in
# reference-speed seconds: a measured interval times REFERENCE_PROBE_S over
# the time that speed_probe takes next to it.  The probe runs between
# operations, after every PROBE_EVERY_S of operation time.
REFERENCE_PROBE_S = 1e-3
PROBE_EVERY_S = 0.1


def _import_library(root: str):
    """Import sparsebump from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparsebump", "cli.py")):
        raise SystemExit(f"perfbench: no src/sparsebump/cli.py under {root}; "
                         "run from the root of a sparsebump checkout")
    sys.path.insert(0, src)
    import sparsebump.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def _probe_kernel() -> float:
    # pure-Python float and dict work, like most of the library's time
    table, total = {}, 0.0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0.0) + math.sqrt(i)
        total += table[key]
    return total


def speed_probe() -> float:
    """The machine's current speed: the median of three timings of a fixed
    loop, in seconds (0.6 to 1.0 ms on a 2-vCPU Xeon VM)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _setup_probe(root: str, argv: list[str]) -> int:
    """Child process: time `import sparsebump` plus one warm-up operation,
    with a speed probe on either side."""
    before = speed_probe()
    t0 = time.perf_counter()
    cli = _import_library(root)
    rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"rc": rc, "setup_s": elapsed, "probe_s": (before + speed_probe()) / 2}))
    return 0


def _measure_setup(argv: list[str]) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds) in SETUP_REPEATS fresh interpreters,
    one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", json.dumps(argv)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"warm-up operation exited {result['rc']}:\n{proc.stderr}")
        samples.append((result["setup_s"], result["probe_s"]))
    return samples


def _environment() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Runner:
    """Runs operations of one workload and keeps what the metrics need."""

    def __init__(self, workload, cli, reference):
        self.workload = workload
        self.cli = cli
        self.reference = reference
        self.failures = 0
        self.reported = 0

    def _fail(self, index, message):
        self.failures += 1
        if self.reported < MAX_REPORTED_FAILURES:
            self.reported += 1
            print(f"perfbench: operation {index} failed: {message}", file=sys.stderr)

    def call(self, argv) -> tuple[int | None, float]:
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # an operation that raises is a failed operation
            rc = None
            traceback.print_exc(file=sys.stderr)
        return rc, time.perf_counter() - t0

    def run_op(self, index):
        """One checked operation: [seconds, work units, artifact digest]."""
        argv = self.workload.prepare(index)
        rc, seconds = self.call(argv)
        try:
            units, outputs = self.workload.check(rc)
            if index < len(self.reference):
                self.workload.compare(outputs, self.reference[index])
        except Exception as exc:  # a check that cannot even parse the output fails the op
            self._fail(index, f"{type(exc).__name__}: {exc}")
            return [seconds, 0, None]
        return [seconds, units, self.workload.artifact_digest()]

    def run_for(self, budget_s, tracer=None):
        """Operations 0, 1, ... until budget_s of wall time has passed.
        Each operation gets a fourth field, the mean of the two speed probes
        that bracket it.  With a tracer, each operation runs untraced and
        then again traced, back to back so both see the same machine speed,
        and the traced run must write the same artifact bytes."""
        ops, traced_seconds, probes, since_probe = [], [], [speed_probe()], 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < budget_s:
            index = len(ops)
            ops.append(self.run_op(index) + [len(probes) - 1])
            since_probe += ops[-1][0]
            if since_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since_probe = 0.0
            if tracer is None:
                continue
            argv = self.workload.prepare(index)
            tracer.op_id = index
            tracer.install()
            try:
                rc, seconds = self.call(argv)
            finally:
                tracer.uninstall()
            traced_seconds.append(seconds)
            if rc != 0:
                self._fail(index, f"traced run exited {rc}")
            elif self.workload.artifact_digest() != ops[-1][2]:
                self._fail(index, "traced run wrote different artifacts")
        probes.append(speed_probe())
        for op in ops:
            op[3] = (probes[op[3]] + probes[op[3] + 1]) / 2
        return ops, traced_seconds, time.perf_counter() - start


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def _whole_windows(ops, window):
    """The operations of the whole windows of `window` operations that a
    run completed (all of them if it completed none), so that every run
    is measured on the same input mix whatever its number of operations."""
    return ops[:len(ops) // window * window or len(ops)]


def _to_reference(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s


def _end_to_end(ops, setup_samples) -> dict:
    return {
        "setup_s": (statistics.median([_to_reference(*s) for s in setup_samples]), "s"),
        # total work over total busy time, which averages the machine's
        # speed phases over the whole run
        "throughput_per_s": (sum(op[1] for op in ops) /
                             sum(_to_reference(op[0], op[3]) for op in ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, ops, traced_seconds, warmup_s) -> dict:
    from tracer import LAYER_OF, LAYERS, TRACED
    n = len(ops)
    busy_ns = sum(traced_seconds) * 1e9
    stats = tracer.summary(range(n))
    metrics = {}
    layer_ns = dict.fromkeys(LAYERS, 0.0)
    for qualname in TRACED:
        calls, self_ns = stats[qualname]
        metrics[f"{qualname}.calls"] = (calls / n, "count/op")
        metrics[f"{qualname}.self_pct"] = (100.0 * self_ns / busy_ns, "%")
        layer_ns[LAYER_OF[qualname]] += self_ns
    for layer, total in layer_ns.items():
        metrics[f"{layer}.self_pct"] = (100.0 * total / busy_ns, "%")
    setup_stats = tracer.summary([WARMUP_OP])
    for qualname in ("bumps.ensure_admissible", "bumps.ConjugateTable.__init__"):
        metrics[f"setup.{qualname}.self_pct"] = (
            100.0 * setup_stats[qualname][1] / (warmup_s * 1e9), "%")
    evaluate_calls = stats["search.evaluate"][0]
    useful = sum(op[1] for op in ops) / evaluate_calls if evaluate_calls else 0.0
    metrics["search.useful_eval_ratio"] = (useful, "ratio")
    untraced_busy = sum(op[0] for op in ops)
    metrics["trace.overhead_frac"] = (sum(traced_seconds) / untraced_busy - 1.0, "ratio")
    return metrics


def _print_report(workload, args, env, metrics, ops, failures, notes):
    print(f"# env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"affinity={env['affinity']} blas_threads={env['blas_threads']} cpu=\"{env['cpu']}\"")
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={len(ops)} failed={failures}")
    for line in notes:
        print(f"# {line}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.setup_probe is not None:
        return _setup_probe(root, json.loads(args.setup_probe))

    cli = _import_library(root)
    sys.path.insert(0, HERE)
    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        reference = []
        if args.seed == REFERENCE_SEED:
            with open(os.path.join(HERE, "reference", f"{workload.name}.json")) as fh:
                reference = json.load(fh)["outputs"]
        runner = Runner(workload, cli, reference)
        warmup = workload.warmup_argv()
        notes = []
        if args.trace == 0:
            setup_samples = _measure_setup(warmup)
            rc, _ = runner.call(warmup)
            if rc != 0:
                raise RuntimeError(f"warm-up operation exited {rc}")
            ops, _, wall_s = runner.run_for(args.seconds)
            measured = _whole_windows(ops, workload.mix_window)
            metrics = _end_to_end(measured, setup_samples)
            attempted = len(ops)
            unit = "sweep-CSV evaluations" if workload.name == "search_d8" else "instances"
            seconds = [op[0] for op in measured]
            notes.append("setup_s and throughput_per_s are in reference-speed seconds, "
                         f"in which the speed probe takes {REFERENCE_PROBE_S * 1e3:g} ms; "
                         "the lines below are wall-clock")
            notes.append(f"setup_s: median of {len(setup_samples)} fresh-interpreter set-ups "
                         f"{[round(t, 4) for t, _ in setup_samples]} s, probes "
                         f"{[round(p * 1e3, 3) for _, p in setup_samples]} ms")
            notes.append(f"throughput_per_s: {unit} per busy second, "
                         f"{sum(op[1] for op in measured) / sum(seconds):.6g} wall-clock, over "
                         f"the first {len(measured)} of {len(ops)} operations (whole windows "
                         f"of {workload.mix_window}); median probe "
                         f"{statistics.median(op[3] for op in measured) * 1e3:.4g} ms")
            notes.append(f"wall_s {wall_s:.6g} s (printed only: the timed phase lasts "
                         f"--seconds plus the last operation)")
            notes.append(f"op_p50_s {_percentile(seconds, 50):.6g} s, "
                         f"op_p90_s {_percentile(seconds, 90):.6g} s, op_max_s {max(seconds):.6g} s "
                         f"(printed only, not bounded: see perfbench/README.md)")
        else:
            tracer = Tracer()
            tracer.install()
            tracer.op_id = WARMUP_OP
            rc, warmup_s = runner.call(warmup)
            tracer.uninstall()
            if rc != 0:
                raise RuntimeError(f"warm-up operation exited {rc}")
            ops, traced_seconds, _ = runner.run_for(args.seconds, tracer)
            metrics = _per_layer(tracer, ops, traced_seconds, warmup_s)
            attempted = 2 * len(ops)
            trace_path = os.path.join(outdir, f"trace_{workload.name}.csv")
            tracer.write_csv(trace_path)
            notes.append(f"{len(tracer.name)} spans written to "
                         f"{os.path.relpath(trace_path, root)}")
        failures = runner.failures
        _print_report(workload, args, _environment(), metrics, ops, failures, notes)
        print(f"failed_fraction  {failures / attempted:.6g} ratio")
        print(json.dumps({"correct": failures == 0, "attempted": attempted,
                          "failed": failures,
                          "metrics": {name: {"value": value, "unit": unit}
                                      for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
