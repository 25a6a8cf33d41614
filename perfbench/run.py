"""handgeo benchmark: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload {enroll,identify,gen,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, whose spans are also written to
``perfbench/.work/traces/``. The exit code is 0 only when every output check
passed. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

from speed import ReferenceKernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Traced operations per traced run: enough for the overhead comparison, and
#: for identify one cycle over the 110 test probes.
TRACED_OPS = {"enroll": 1, "identify": 110, "gen": 2}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads) if threads else nproc,
        "nproc": nproc,
        "cpu": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Set up, then run operations in one closed loop for `seconds`."""
    tracer = None
    if trace:
        from layers import targets
        from tracer import Tracer

        tracer = Tracer(targets())

    kernel = ReferenceKernel()
    kernel.sample(100)
    t0 = time.perf_counter()
    if tracer:
        with tracer.installed(), tracer.span("setup"):
            workload.setup()
    else:
        workload.setup()
    setup_s = time.perf_counter() - t0
    kernel.sample(100)

    plain: list[float] = []  # untraced operation latencies
    traced: list[float] = []
    failures: list[str] = []
    budget = TRACED_OPS[workload.name] if trace else 0
    start = time.perf_counter()
    while True:
        # In a traced run every other operation is traced, up to the budget.
        tracing = len(traced) < budget and len(plain) > len(traced)
        if tracing:
            tracer.op = len(plain) + len(traced)
            with tracer.installed(), tracer.span(f"{workload.name}.op"):
                t = time.perf_counter()
                outcome = workload.op()
                traced.append(time.perf_counter() - t)
        else:
            t = time.perf_counter()
            outcome = workload.op()
            plain.append(time.perf_counter() - t)
        # Machine speed is sampled all along, so slow spells weigh in as
        # they do for the operations (about 3% of a pass, 30% of a probe).
        kernel.sample(max(3, int(30 * (traced + plain)[-1])))
        problems = workload.check(outcome)
        if problems:
            failures.append("; ".join(problems))
            print(f"check failed: {failures[-1]}", file=sys.stderr)
        if time.perf_counter() - start >= seconds and len(traced) >= budget:
            break
    return {
        "setup_s": setup_s,
        "plain": plain,
        "traced": traced,
        "failures": failures,
        "tracer": tracer,
        "kernel": kernel,
    }


def end_to_end(workload, run: dict, scale: float = 1.0) -> dict:
    """The end-to-end metrics, with times multiplied by `scale`."""
    ops = run["plain"]
    return {
        "setup_s": metric(scale * run["setup_s"], "s"),
        "op_p50_ms": metric(scale * 1e3 * statistics.median(ops), "ms"),
        "op_p90_ms": metric(scale * 1e3 * percentile(ops, 90), "ms"),
        "items_per_s": metric(workload.items_per_op * len(ops) / (scale * sum(ops)), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, run: dict) -> dict:
    from layers import layer_metrics

    tracer = run["tracer"]
    out = layer_metrics(tracer)
    probes = run["plain"] if workload.name == "identify" else []
    out["identify_p99_ms"] = metric(1e3 * percentile(probes, 99) if probes else 0.0, "ms")
    overhead = statistics.median(run["traced"]) / statistics.median(run["plain"]) - 1.0
    out["trace.overhead_pct"] = metric(100.0 * overhead, "%")
    return out


def run_one(args) -> int:
    from workloads import WORKLOADS

    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        run = run_workload(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "reference_kernel_ms": 1e3 * run["kernel"].median_s(),
        "wall": end_to_end(workload, run),
    }
    if args.trace:
        metrics = per_layer(workload, run)
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        run["tracer"].write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        scale = run["kernel"].scale() if workload.speed_scaled else 1.0
        metrics = end_to_end(workload, run, scale)
    attempted = len(run["plain"]) + len(run["traced"])
    failed = len(run["failures"])
    print(json.dumps(record))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


#: Summary names of `--workload all`: (name, workload, end-to-end metric, scale, unit).
SUMMARY = [
    ("enroll_s", "enroll", "op_p50_ms", 1e-3, "s"),
    ("identify_per_s", "identify", "items_per_s", 1.0, "1/s"),
    ("identify_p50_ms", "identify", "op_p50_ms", 1.0, "ms"),
    ("identify_p90_ms", "identify", "op_p90_ms", 1.0, "ms"),
    ("gen_images_per_s", "gen", "items_per_s", 1.0, "1/s"),
]


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    results = {}
    for name in ("enroll", "identify", "gen"):
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name} failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        print(lines[-2] if len(lines) > 1 else "")
        results[name] = json.loads(lines[-1])
    metrics = {}
    for name, workload, key, scale, unit in SUMMARY:
        metrics[name] = metric(results[workload]["metrics"][key]["value"] * scale, unit)
    for workload, result in results.items():
        for key in ("setup_s", "peak_rss_mb"):
            metrics[f"{workload}.{key}"] = result["metrics"][key]
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["enroll", "identify", "gen", "all"])
    parser.add_argument("--seed", type=int, required=True, help="corpus seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "handgeo" / "__init__.py").is_file():
        print(f"perfbench: no handgeo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import handgeo

    if Path(handgeo.__file__).resolve().parent != SRC / "handgeo":
        print(f"perfbench: imported handgeo from {handgeo.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
