"""Benchmark of experiments.run() on one workload, timed end to end or traced per layer.

From the repository root:

    python3 bench/run.py --workload switch_gain --seed 0 --seconds 35 --trace 0

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb) with
no tracing; --trace 1 reports the per-layer metrics of spans.py.  Every run()
result is checked (workloads.check_result).  A report goes to stdout first;
the last line is one JSON object with the keys correct, attempted, failed and
metrics.  README.md next to this file describes the workloads and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
# run_s and setup_s are rescaled to a machine on which calibration_s() takes
# NOMINAL_CALIBRATION_S.  On a shared 2-vCPU VM the speed of interpreter-bound work
# drifted by up to 2x over minutes, which no median within one run removes.
CALIBRATION_LOOPS = 100_000
CALIBRATION_PRODUCTS = 1_000
CALIBRATIONS_PER_OP = 3
NOMINAL_CALIBRATION_S = 0.011
MIN_RUNS = 3  # timed run() calls per --trace 0 run, however long each takes
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run; the count self-check needs two traced runs
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

if not os.path.isfile(os.path.join(SRC, "learning_control", "experiments.py")):
    sys.exit(f"bench: no package source under {SRC}; run from a checkout of the repository")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402

CALIBRATION_MATRIX = np.full((4, 4), 0.1)  # c converges to a fixed point, so no overflow or denormals

from learning_control import experiments  # noqa: E402
from spans import LAYER_UNITS, Tracer, is_count, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_config, check_result, load_references  # noqa: E402


def _os_threads():
    try:
        with open("/proc/self/status") as fh:
            return next((int(ln.split()[1]) for ln in fh if ln.startswith("Threads:")), None)
    except OSError:
        return None


def environment():
    """Machine and library facts recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": _os_threads(),
    }


class Runner:
    """Runs the workload's run() and checks each result; counts operations and failures."""

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.cfg = build_config(name, seed, out_dir)
        self.references = load_references()
        self.attempted = 0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def setup(self):
        """Seconds from spawning a fresh interpreter to a built RunConfig; None if the child failed."""
        code = (
            f"import sys; sys.path[:0] = {[SRC, HERE]!r}; import workloads; "
            f"workloads.build_config({self.name!r}, {self.seed!r}, {self.out_dir!r})"
        )
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.fail(f"set-up exited with {proc.returncode}")
            return None
        return elapsed

    def run(self, tracer=None):
        """Seconds for one run(), and its per-layer metrics when traced; None if it raised."""
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            result = experiments.run(self.cfg)
            elapsed = time.perf_counter() - start
        except Exception:  # reported as a failed operation; the caller stops measuring
            traceback.print_exc()
            self.fail(f"run {self.attempted} raised")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = check_result(self.name, self.seed, result, self.references)
        if problems:
            self.fail(f"run {self.attempted}: {'; '.join(problems)}")
        layers = None if tracer is None else layer_metrics(tracer, result, self.cfg.optimizer)
        if result.out_dir is not None:
            shutil.rmtree(result.out_dir)
        return elapsed, layers


def tail(samples):
    """(percentile, value) of the slowest sample with ten slower ones beyond it; None under 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def calibration_s():
    """Seconds for fixed work like the program's: a pure-Python loop, then a loop of 4x4 numpy products.

    It tells how fast the machine runs interpreter-bound work right now.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(CALIBRATION_LOOPS):
        x += i * 0.5
    c = CALIBRATION_MATRIX
    for _ in range(CALIBRATION_PRODUCTS):
        c = CALIBRATION_MATRIX @ c * 0.5 + CALIBRATION_MATRIX
    return time.perf_counter() - start


def end_to_end(runner, seconds):
    # warm-up: the first spawn fills byte-code and file caches, the first run() pays first-call costs
    if runner.setup() is None or runner.run() is None:
        return None
    samples, setup, calibration = [], [], []
    # timed spawns are spread over the window, so a slow spell of the machine hits few of them
    due = [k * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    start = time.perf_counter()
    while len(samples) < MIN_RUNS or time.perf_counter() - start + statistics.median(samples) <= seconds:
        while len(setup) < SETUP_REPEATS and time.perf_counter() - start >= due[len(setup)]:
            calibration += [calibration_s() for _ in range(CALIBRATIONS_PER_OP)]
            setup.append(runner.setup())
        calibration += [calibration_s() for _ in range(CALIBRATIONS_PER_OP)]
        out = runner.run()
        if out is None:
            break
        samples.append(out[0])
    for _ in range(SETUP_REPEATS - len(setup)):
        calibration += [calibration_s() for _ in range(CALIBRATIONS_PER_OP)]
        setup.append(runner.setup())
    setup = [t for t in setup if t is not None]
    if not samples or not setup:
        return None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = NOMINAL_CALIBRATION_S / statistics.median(calibration)
    wall_run, wall_setup = statistics.median(samples), statistics.median(setup)
    pct = tail(samples)
    tail_note = "no percentile has 10 runs beyond it" if pct is None else f"wall p{pct[0]:.0f} {pct[1]:.4f} s"
    print(f"machine speed {speed:.4f} x nominal, from {len(calibration)} calibration loops")
    print(f"run_s        {wall_run * speed:.4f} s   wall median {wall_run:.4f} s of {len(samples)} runs; {tail_note}")
    print(f"setup_s      {wall_setup * speed:.4f} s   wall median {wall_setup:.4f} s of {len(setup)} fresh interpreters")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    return {"run_s": wall_run * speed, "setup_s": wall_setup * speed, "peak_rss_mb": peak_mb}


def per_layer(runner, seconds):
    if runner.run() is None:  # warm-up
        return None
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while len(traced) < MIN_PAIRS or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        # alternate which side goes first so drift in machine speed cancels
        for use_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
            out = runner.run(Tracer() if use_tracer else None)
            if out is None:
                return None
            if use_tracer:
                traced.append(out[0])
                layers.append(out[1])
            else:
                untraced.append(out[0])
        pair_s = time.perf_counter() - pair_start

    runner.attempted += 1  # the self-check: counts repeat exactly between traced runs
    unstable = [key for key in layers[0] if is_count(key) and len({m[key] for m in layers}) > 1]
    if unstable:
        runner.fail(f"counts differ between traced runs: {', '.join(unstable)}")
    metrics = {
        key: layers[0][key] if is_count(key) else statistics.median(m[key] for m in layers)
        for key in LAYER_UNITS
        if key in layers[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for key, value in metrics.items():
        print(f"{key:38s} {value:.6g} {LAYER_UNITS[key]}")
    print(f"({len(traced)} traced and {len(untraced)} untraced runs)")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    scenario, iters, writes = WORKLOADS[args.workload]
    print(
        f"workload {args.workload}: preset {scenario}, seed {args.seed}, "
        f"optimizer.iters {'as preset' if iters is None else iters}, "
        f"{'writes' if writes else 'no'} output bundle, trace {args.trace}"
    )
    out_dir = tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, out_dir)
        if args.trace:
            metrics, units = per_layer(runner, args.seconds), LAYER_UNITS
        else:
            metrics, units = end_to_end(runner, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("env " + json.dumps(environment()))
    if metrics is None:
        sys.exit("bench: no complete measurement; see the failures above")
    failed = len(runner.failures)
    print(f"checks: {runner.attempted} operations, {failed} failed")
    doc = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(doc))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
