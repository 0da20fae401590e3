"""rtls benchmark: closed-loop `rtls solve` / `rtls certify` ops, one client.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 15 --trace 0

Each op is one in-process call of ``rtls.cli.main`` on a problem file written
during set-up: file read, validation, solve, classify, pair recovery,
serialization and write.  The report each op writes is checked untimed by the
gates in ``gates.py``.  The last line of standard output is one JSON object
with the run's end-to-end metrics (``--trace 0``) or, from a run that
alternates untraced and traced passes, its per-layer metrics (``--trace 1``).
Run from the root of a source checkout: rtls is imported from ``src/``.

Times are scaled to a reference host speed.  On a shared host the CPU speed
seen by one process swings by up to 2x over seconds to minutes, so a fixed
probe (``Probe``) runs right before and right after each timed interval, and
each duration is multiplied by ``REFERENCE_PROBE_S`` over the mean of the two
probe times.  Raw wall times are printed on the ``#`` lines above the result.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; the value is echoed in the log
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import problems  # noqa: E402
from gates import check  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WARMUP_S = 3.0
REFERENCE_PROBE_S = 0.006


class Probe:
    """A fixed slice of interpreter and LAPACK work that tracks host speed."""

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(100, 100))
        self.matrix = m @ m.T

    def __call__(self):
        """Wall time of the probe now, in seconds."""
        start = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i * i
        for _ in range(4):
            np.linalg.eigh(self.matrix)
        return time.perf_counter() - start

    def timed(self, fn, *args, before=None, **kwargs):
        """Run fn; return (result, raw seconds, speed factor, probe time after).

        ``before`` reuses a probe taken just before, such as the one after
        the previous op.
        """
        if before is None:
            before = self()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = self()
        return result, elapsed, 2.0 * REFERENCE_PROBE_S / (before + after), after


def _import_rtls():
    if not (SRC / "rtls" / "cli.py").is_file():
        sys.exit(f"error: no rtls sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rtls.cli  # noqa: F401


def measure_setup(probe):
    """Median time, raw and scaled, of a fresh interpreter importing rtls.cli.

    This process has imported rtls.cli already, so bytecode and file cache
    are warm, as they are for every ``rtls`` invocation but the first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import rtls.cli"]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _, elapsed, speed, _ = probe.timed(subprocess.run, argv, env=env, cwd=ROOT,
                                           check=True)
        raw.append(elapsed)
        scaled.append(elapsed * speed)
    return statistics.median(raw), statistics.median(scaled)


class Loop:
    """Runs ops over the pool; keeps latencies, speed factors, failures, accuracy."""

    def __init__(self, pool, workdir, probe, tracer=None):
        self.pool = pool
        self.out = str(Path(workdir) / "report.json")
        self.probe = probe
        self.tracer = tracer
        self.raw = []
        self.speed = []
        self.failures = []
        self.digits = []
        self.attempted = 0
        self.last_probe = None

    def op(self, inst):
        import rtls.cli

        argv = [inst.command, "--problem", inst.path, "--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)
        self.attempted += 1
        main = rtls.cli.main
        if self.tracer is not None:
            main = functools.partial(self.tracer.call, self.attempted, main)
        try:
            code, elapsed, speed, self.last_probe = self.probe.timed(
                main, argv, before=self.last_probe)
        except Exception as exc:  # an escaped exception is a failed op
            self.failures.append(f"{inst.name}: {type(exc).__name__}: {exc}")
            self.last_probe = None
            return
        if self.tracer is not None:
            self.tracer.speed[self.attempted] = speed
        self.raw.append(elapsed)
        self.speed.append(speed)
        if code == 1 or not os.path.exists(self.out):
            self.failures.append(f"{inst.name}: exit {code}")
            return
        with open(self.out, encoding="utf-8") as fh:
            report = json.load(fh)
        bad, digits = check(inst, code, report)
        self.digits.append(digits)
        if bad:
            self.failures.append(f"{inst.name}: " + "; ".join(bad))

    def one_pass(self, limit_s=math.inf):
        start = time.perf_counter()
        for inst in self.pool:
            self.op(inst)
            if time.perf_counter() - start > limit_s:
                break

    @property
    def latencies(self):
        """Scaled op times in seconds."""
        return [t * s for t, s in zip(self.raw, self.speed)]

    @property
    def ops_per_s(self):
        return len(self.raw) / sum(self.latencies)


def tail(latencies):
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(loop, setup_s):
    lat_ms = [t * 1e3 for t in loop.latencies]
    tail_ms, tail_pct = tail(lat_ms)
    raw_ms = [t * 1e3 for t in loop.raw]
    log(f"latency samples {len(lat_ms)}; tail = p{tail_pct:.1f} "
        f"({min(TAIL_BEYOND, len(lat_ms) - 1)} samples beyond)")
    log(f"raw wall time: {len(raw_ms) / sum(loop.raw):.4g} ops/s, "
        f"p50 {statistics.median(raw_ms):.4g} ms, tail {tail(raw_ms)[0]:.4g} ms; "
        f"median speed factor {statistics.median(loop.speed):.3f}")
    return {
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "ok_ratio": (1.0 - len(loop.failures) / loop.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits_min": (min(loop.digits) if loop.digits else 0.0, "digits"),
    }


def log(msg):
    print(f"# {msg}", flush=True)


def run(workload, seed, seconds, trace):
    probe = Probe()
    setup_raw, setup_s = measure_setup(probe)
    log(f"setup: raw {setup_raw:.4f} s, scaled {setup_s:.4f} s")
    work = ROOT / ".perfbench_work"
    workdir = work / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool = problems.build(workload, seed, workdir)
        log(f"workload {workload}, seed {seed}, {len(pool)} problem files, "
            f"BLAS threads {BLAS_THREADS}")
        Loop(pool, workdir, probe).one_pass(WARMUP_S)  # not counted
        plain = Loop(pool, workdir, probe)
        if not trace:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                plain.one_pass()
            loops, metrics = [plain], end_to_end(plain, setup_s)
        else:
            tracer = Tracer()
            traced = Loop(pool, workdir, probe, tracer)
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                plain.one_pass()
                with tracer:  # wrappers only in place for the traced pass
                    traced.one_pass()
            loops = [plain, traced]
            metrics = layer_metrics(tracer, traced.attempted)
            metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
            metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
            metrics["trace.ops_per_s_ratio"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{workload}-seed{seed}.csv")
            log(f"{len(tracer.spans)} spans written to {out}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()

    failures = [f for loop in loops for f in loop.failures]
    for failure in failures[:20]:
        log(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_rtls()
    sys.exit(main())
