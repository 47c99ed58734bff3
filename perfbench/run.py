"""Benchmark of the bandschur CLI: one workload per run, host-normalised.

    python3 perfbench/run.py --workload recurrence --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  Each command calls bandschur.cli.main(argv) in this process with
stdout and stderr captured, and its output is checked by perfbench's own
checkers.  Between commands a fixed pure-Python reference loop runs;
every command's time is rescaled by how fast that loop ran around it
(see README.md).  The last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Reference loop: one product of two fixed sparse polynomials (dicts of
# exponent tuples, the exact engines' kind of work) and one small argparse
# round trip (object and string work, like the CLI's own parsing).
# Normalised time = raw time * REF_NOMINAL_MS / local reference time, so a
# normalised millisecond is a millisecond on a host where the loop takes
# exactly REF_NOMINAL_MS.
REF_A = {(i % 5, i % 3, i % 7, i % 2): i + 1 for i in range(30)}
REF_B = {(i % 4, i % 6, i % 3, i % 5): i + 1 for i in range(24)}
REF_NOMINAL_MS = 2.0
REF_WINDOW = 3  # reference samples on each side of a command
SETUP_RUNS = 7
# limitset commands scan in the CLI's default thread count, one per core,
# and those threads contend for the GIL.  Host load slows that contention
# more than it slows one thread, so their reference loop runs in as many
# threads at once: it tracks their speed about twice as closely.
REF_THREADS = {"limitset": os.cpu_count() or 1}
TAIL_PERCENTILES = (99, 95, 90, 75)  # the highest with ten commands beyond it is used
# A fresh interpreter times its own import, then runs the reference loop so
# the import is normalised by the speed of the process that did it.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import bandschur.cli\n"
    "bandschur.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from run import reference_loop\n"
    "refs = sorted(reference_loop() for _ in range(9))\n"
    "print(t1 - t0, refs[4])\n"
)


def _reference_work() -> None:
    out: dict = {}
    for ea, ca in REF_A.items():
        for eb, cb in REF_B.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--text", default="")
    parser.parse_args(["b", "--n", "3", "--text", "x"])


def reference_loop(pool: ThreadPoolExecutor | None = None, threads: int = 1) -> float:
    """Seconds for the fixed reference work, with the GC paused.

    With threads > 1, the work runs once in each of that many threads of
    the pool at once, and the time is divided by threads.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        if threads == 1:
            _reference_work()
        else:
            for job in [pool.submit(_reference_work) for _ in range(threads)]:
                job.result()
        return (perf_counter() - t0) / threads
    finally:
        gc.enable()


def local_factor(refs: list[float], i: int) -> float:
    """Normalisation factor for the command between refs[i] and refs[i + 1]."""
    lo = max(0, i + 1 - REF_WINDOW)
    window = refs[lo:i + 1 + REF_WINDOW]
    return REF_NOMINAL_MS / (statistics.median(window) * 1e3)


def environment() -> dict:
    from bandschur import _kernels
    import numpy

    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "kernel_path": "numba" if _kernels.JIT_ENABLED else "pure",
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": int(blas) if blas else _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and normalised seconds for fresh interpreters to import and build the parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    raw, norm = [], []
    here = str(Path(__file__).resolve().parent)
    for run in range(SETUP_RUNS + 1):  # the first run compiles bytecode, so it is dropped
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, here], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if run:
            seconds, ref = map(float, proc.stdout.split())
            raw.append(seconds)
            norm.append(seconds * REF_NOMINAL_MS / (ref * 1e3))
    return raw, norm


def run_command(main, cmd) -> tuple[float, int | None, str, str, str | None]:
    """(seconds, exit code, stdout, stderr, exception text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cmd.argv)
    except Exception as exc:  # a crash is a failed command, not a benchmark error
        crash = f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, code, out.getvalue(), err.getvalue(), crash


def verdict(cmd, code, out, err, crash) -> str | None:
    if crash:
        return crash
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        return cmd.check(out, err)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def _summary(ms: list[float]) -> dict:
    return {"count": len(ms), "min_ms": round(min(ms), 4),
            "p50_ms": round(statistics.median(ms), 4), "max_ms": round(max(ms), 4)}


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int | None:
    """The highest percentile with at least ten of count commands beyond it."""
    return next((q for q in TAIL_PERCENTILES if count * (100 - q) / 100 >= 10), None)


@dataclass
class Run:
    """What one workload run measured, raw and per command."""

    times: list[float] = field(default_factory=list)  # raw seconds per command
    kinds: list[str] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # reference loop, before and after each
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failures outside the known faults
    layer_stats: list[dict] = field(default_factory=list)
    cache: dict = field(default_factory=dict)

    def factors(self) -> list[float]:
        return [local_factor(self.refs, i) for i in range(len(self.times))]


def run_workload(name: str, seed: int, seconds: float, tracer) -> Run:
    """Run the workload's fixed command list once.

    The list holds workloads.round_count(name, seconds) rounds, so every
    run of the same command line runs the same number of commands,
    however fast the program is.
    """
    from bandschur import cli, toeplitz
    import workloads

    rounds = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"),
                                       workloads.round_count(name, seconds))
    threads = REF_THREADS.get(name, 1)
    with ThreadPoolExecutor(threads) as pool:
        reference = functools.partial(reference_loop, pool, threads)
        run = Run(refs=[reference()])
        cache0 = toeplitz.minor_det_symbolic.cache_info()
        for batch in rounds:
            for cmd in batch:
                if tracer:
                    tracer.start_command()
                dt, code, out, err, crash = run_command(cli.main, cmd)
                run.refs.append(reference())
                run.times.append(dt)
                run.kinds.append(cmd.kind)
                if tracer:
                    run.layer_stats.append(dict(tracer.stats, cmd_ms=dt * 1e3,
                                                kernel_busy_ms=tracer.kernel_busy_ms()))
                reason = verdict(cmd, code, out, err, crash)
                if reason:
                    run.failed += 1
                    if not cmd.known_fault:
                        run.problems.append(f"{' '.join(cmd.argv)}: {reason}")
    cache1 = toeplitz.minor_det_symbolic.cache_info()
    run.cache = {
        "minor_det_hits": cache1.hits - cache0.hits,
        "minor_det_misses": cache1.misses - cache0.misses,
        "minor_det_cached": cache1.currsize - cache0.currsize,
    }
    return run


def end_to_end(times, factors, setup_norm) -> dict:
    norm_ms = [t * f * 1e3 for t, f in zip(times, factors)]
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "cmds_per_s": (len(norm_ms) / (sum(norm_ms) / 1e3), "1/s"),
        "cmd_p50_ms": (statistics.median(norm_ms), "ms"),
    }
    q = tail_percentile(len(norm_ms))
    if q:
        metrics["cmd_tail_ms"] = (percentile(norm_ms, q), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(layer_stats, factors, cache) -> dict:
    from layers import PER_LAYER

    n = len(layer_stats)
    totals: dict[str, float] = dict(cache)
    for stats, f in zip(layer_stats, factors):
        stats = dict(stats)
        stats["self_ms"] = stats.get("cmd_ms", 0.0) - stats.get("covered.ms", 0.0)
        for key, value in stats.items():
            scaled = value * f if key.endswith("ms") else value
            totals[key] = totals.get(key, 0.0) + scaled
    metrics = {}
    for metric, unit, source in PER_LAYER:
        if source is None:  # kernels.scan_points_per_s
            busy_s = totals.get("kernel_busy_ms", 0.0) / 1e3
            value = totals.get("kernel_points", 0.0) / busy_s if busy_s else 0.0
        else:
            value = totals.get(source, 0.0) / n
        metrics[metric] = (value, unit)
    return metrics


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import bandschur
    except ImportError as exc:
        print(f"error: cannot import bandschur from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(bandschur.__file__).resolve().parents:
        print(f"error: bandschur came from {bandschur.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    setup_raw, setup_norm = measure_setup()
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_workload(args.workload, args.seed, args.seconds, tracer)
    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    factors = run.factors()
    e2e = end_to_end(run.times, factors, setup_norm)
    raw_ms = [t * 1e3 for t in run.times]
    print("env: " + json.dumps(env))
    print("raw: " + json.dumps({
        "commands": len(run.times),
        "tail_percentile": tail_percentile(len(run.times)),
        "command_seconds": round(sum(run.times), 4),
        "cmd_p50_ms": round(statistics.median(raw_ms), 4),
        "setup_s": [round(v, 4) for v in setup_raw],
        "ref_ms": {"threads": REF_THREADS.get(args.workload, 1),
                   "median": round(statistics.median(run.refs) * 1e3, 4),
                   "min": round(min(run.refs) * 1e3, 4), "max": round(max(run.refs) * 1e3, 4),
                   "samples": len(run.refs)},
        "kinds": {k: _summary([t for t, kk in zip(raw_ms, run.kinds) if kk == k])
                  for k in sorted(set(run.kinds))},
    }))
    if tracer:
        print("trace: " + json.dumps({"cmds_per_s": round(e2e["cmds_per_s"][0], 4)}))
        metrics = per_layer(run.layer_stats, factors, run.cache)
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not run.problems,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
