"""Run one FunTAL benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Workloads: ``build``, ``boundary-run``, ``t-loop``, ``serve-mix`` (see
``perfbench/README.md``); ``all`` runs each in turn in its own process.
``--trace 0`` measures the end-to-end metrics
with instrumentation off.  ``--trace 1`` spends the first half of the
run untraced and the second half traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it stamps the host, the commit, the seed and the op counts.

The program under test is imported from ``src/`` of the checkout this
file lives in; without it the command fails before printing a result.
Every ``FUNTAL_*`` variable is cleared and the artifact store points at a
fresh directory under ``.perfbench_tmp/``, removed on exit, so neither
the developer's shell nor an earlier run can warm or steer the run.
Exit status: 0 when every op's answer matched its reference, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
#: Set-up runs this many times per run; ``setup_s`` reports the median.
SETUP_REPS = 5
#: Host recursion headroom for nested F/T machines, set here rather than
#: relying on the limits raised inside the program under test.
RECURSION_LIMIT = 100_000


WORKLOAD_NAMES = ("build", "boundary-run", "t-loop", "serve-mix")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env(tmp: Path) -> None:
    for name in [n for n in os.environ if n.startswith("FUNTAL_")]:
        del os.environ[name]
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def import_system():
    """Import the program under test from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under test at {src}")
    sys.path.insert(1, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")
    import workloads
    return workloads


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(wl, phase, setup_s: float, failed: int) -> dict:
    lat = phase.latencies()
    n = phase.attempted
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "op/s"),
        "latency_ms_p50": (statistics.median(lat), "ms"),
        "latency_ms_p90": (wl.percentile(lat, 90), "ms"),
        "latency_ms_p99": (wl.percentile(lat, 99), "ms"),
        "fuel_per_op": (phase.fuel / n, "fuel"),
        "ok_ratio": ((n - min(failed, n)) / n, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(wl, workload, seconds: float):
    """Untraced then traced halves; returns both phases and the traced
    half's per-layer metrics."""
    from layers import (
        Layers, TOP_LEVEL, hit_ratio, obs_counters, translation_timed,
    )

    base = workload.measure(seconds / 2)
    layers = Layers()
    fast_before = wl.fast.fast_cache_stats()
    with obs_counters() as counters, translation_timed(layers):
        phase = workload.measure(seconds / 2, layers)
    fast_after = wl.fast.fast_cache_stats()
    n = phase.attempted

    def ms(name):
        return layers.ms.get(name, 0.0) / n

    def counter(*names):
        return sum(counters.get(name, 0) for name in names) / n

    serve = phase.serve
    exec_ms = serve.get("exec_ms") or [0.0]
    overhead_ms = serve.get("overhead_ms") or [0.0]
    mean_ms = phase.mean_latency_ms()
    if serve:
        attributed = (sum(exec_ms) + sum(overhead_ms)) / n
    else:
        attributed = sum(ms(name) for name in TOP_LEVEL)
    metrics = {
        "surface.parse_ms": (ms("surface.parse"), "ms"),
        "ft.typecheck_ms": (ms("ft.typecheck"), "ms"),
        "compile.compile_ms": (ms("compile.compile"), "ms"),
        "compile.blocks": (layers.counts.get("compile.blocks", 0) / n,
                           "count"),
        "compile.validate_ms": (ms("compile.validate"), "ms"),
        "ft.machine.evaluate_ms": (ms("ft.machine.evaluate"), "ms"),
        "ft.boundary.crossings": (counter("ft.boundary.f_to_t",
                                          "ft.boundary.t_to_f"), "count"),
        "ft.boundary.translate_ms": (ms("ft.boundary.translate"), "ms"),
        "f.steps": (counter("f.machine.steps"), "count"),
        "t.steps": (counter("t.machine.steps"), "count"),
        "tal.fast.block_hit_ratio": (hit_ratio(
            fast_before["tal.fast.block"], fast_after["tal.fast.block"]),
            "1"),
        "tal.fast.preinst_hit_ratio": (hit_ratio(
            fast_before["tal.fast.preinst"], fast_after["tal.fast.preinst"]),
            "1"),
        "serve.executor.exec_ms_p50": (statistics.median(exec_ms), "ms"),
        "serve.pool.overhead_ms_p50": (statistics.median(overhead_ms), "ms"),
        "serve.pool.overhead_ms_p99": (wl.percentile(overhead_ms, 99), "ms"),
        "serve.pool.busy_ratio": (serve.get("busy_ratio", 0.0), "1"),
        "serve.cache.hit_ratio": (serve.get("cache_hit_ratio", 0.0), "1"),
        "trace.unattributed_ms": (mean_ms - attributed, "ms"),
        "trace.overhead_ratio": (phase.ops_per_s() / base.ops_per_s(), "1"),
        "inputs.skipped": (workload.skipped, "count"),
    }
    return base, phase, metrics


def run(wl, args, tmp: Path, import_s: float):
    cls = wl.WORKLOADS[args.workload]
    setup_times = []
    workload = None
    for rep in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        os.environ["FUNTAL_STORE"] = str(tmp / f"store-{rep}")
        wl.reset_caches()
        started = time.perf_counter()
        workload = cls()
        workload.setup(random.Random(args.seed))
        warm = workload.warm()
        setup_times.append(time.perf_counter() - started)
    try:
        if args.trace:
            base, phase, metrics = per_layer(wl, workload, args.seconds)
            phases = [warm, base, phase]
        else:
            phase = workload.measure(args.seconds)
            phases = [warm, phase]
    finally:
        workload.close()        # reaps pool workers, so their RSS counts
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    if not args.trace:
        metrics = end_to_end(wl, phase, import_s
                             + statistics.median(setup_times), failed)
    stamp = {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "ops_per_pass": len(workload.ops),
        "inputs_skipped": workload.skipped,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "failures": failures[:5],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return stamp, result


def run_all(args) -> int:
    """Every workload in its own process, one after another.  Each one's
    stamp and result lines are echoed; the last line merges the results,
    metric names prefixed with the workload's."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"perfbench: workload {name} exited {proc.returncode} "
                  "without a result", file=sys.stderr)
            return proc.returncode or 1
        print(lines[-2])
        print(lines[-1])
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        hermetic_env(tmp)
        sys.setrecursionlimit(RECURSION_LIMIT)
        wl = import_system()
        import_s = time.perf_counter() - START
        stamp, result = run(wl, args, tmp, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
