"""apolarkit benchmark: one workload, one closed-loop caller, checked outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
./src.  Every measurement runs in a fresh interpreter (perfbench/worker.py)
with APOLARKIT_THREADS=1 and PYTHONHASHSEED=0, so inherited settings
cannot change timings and the program's caches start cold.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_s, setup_s
(median over SETUP_SAMPLES interpreter starts) and peak_rss_mb.  A worker
of points-betti, syzygy-qq or ranklocus-fp runs a fixed list of ops, the
same at any speed, and workers are repeated until --seconds are measured.
--trace 1 runs the workload once untraced and once with the layer spans of
perfbench/spans.py, and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170  # the whole invocation must end within 180 s
# a run report must hold this many ops before op_p90_s means anything
P90_MIN_OPS = 100

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
               "trace.ops_per_s_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["APOLARKIT_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def spawn(worker_args, deadline):
    """Run one worker to completion; (monotonic start time, its report)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the time limit")
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _ops_per_s(reports):
    correct = sum(1 for r in reports for op in r["ops"] if not op["errors"])
    return correct / sum(r["phase_s"] for r in reports)


def _commit():
    head = ROOT / ".git"
    if not head.exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _print_failures(report):
    failed = [(i, op["errors"]) for i, op in enumerate(report["ops"])
              if op["errors"]]
    for index, errors in failed[:5]:
        print("op %d failed: %s" % (index, "; ".join(errors)), file=sys.stderr)


def run_untraced(common, seconds, deadline):
    # a worker of a fixed workload runs its whole op list, so workers are
    # repeated until --seconds are measured; powersum-certify needs one
    reports, setups = [], []
    while sum(r["phase_s"] for r in reports) < seconds or not reports:
        start, report = spawn(common, deadline)
        setups.append(report["ready_monotonic"] - start)
        reports.append(report)
        _print_failures(report)
    for _ in range(SETUP_SAMPLES - len(setups)):
        start, report = spawn(common + ["--setup-only"], deadline)
        setups.append(report["ready_monotonic"] - start)
    ops = [op for r in reports for op in r["ops"]]
    op_seconds = sorted(op["seconds"] for op in ops)
    failed = sum(1 for op in ops if op["errors"])
    refused = sum(1 for op in ops if op["refused"])
    metrics = {
        "ops_per_s": _ops_per_s(reports),
        "op_p50_s": statistics.median(op_seconds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) / 1024,
    }
    print("ops: %d attempted in %d worker(s), %d failed, %d refused with "
          "exit 3 (counted as completed when expected)"
          % (len(ops), len(reports), failed, refused))
    print("fail_frac %.4f (%d/%d)" % (failed / len(ops), failed, len(ops)))
    print("op_p50_s sample count %d" % len(op_seconds))
    print("op seconds in run order: %s%s" % (
        " ".join("%.3f" % op["seconds"] for op in ops[:12]),
        " ..." if len(ops) > 12 else ""))
    if len(op_seconds) >= P90_MIN_OPS:
        p90 = statistics.quantiles(op_seconds, n=10)[-1]
        print("op_p90_s %.6f s (n=%d)" % (p90, len(op_seconds)))
    else:
        print("op_p90_s not reported: %d ops < %d"
              % (len(op_seconds), P90_MIN_OPS))
    print("setup_s samples %s" % " ".join("%.4f" % s for s in setups))
    print("numpy %s" % reports[0]["numpy"])
    units = END_TO_END_UNITS
    return len(ops), failed, True, {k: (v, units[k]) for k, v in metrics.items()}


def run_traced(common, args, deadline):
    _, base = spawn(common, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    _, traced = spawn(common + ["--trace", "--spans-out", str(spans_path)],
                      deadline)
    _print_failures(base)
    _print_failures(traced)
    for error in traced["span_errors"][:5]:
        print("span check: %s" % error, file=sys.stderr)
    untraced_rate = _ops_per_s([base])
    traced_rate = _ops_per_s([traced])
    print("spans written to %s" % spans_path.relative_to(ROOT))
    print("tracing overhead: traced ops_per_s is %.4f of untraced "
          "(%d vs %d ops)"
          % (traced_rate / untraced_rate, len(traced["ops"]), len(base["ops"])))
    units = spans.metric_units()
    metrics = {k: (traced["layers"][k], u) for k, u in units.items()}
    extra = {"trace.ops_per_s": traced_rate,
             "trace.untraced_ops_per_s": untraced_rate,
             "trace.ops_per_s_ratio": traced_rate / untraced_rate}
    metrics.update({k: (v, TRACE_UNITS[k]) for k, v in extra.items()})
    attempted = len(base["ops"]) + len(traced["ops"])
    failed = sum(1 for r in (base, traced) for op in r["ops"] if op["errors"])
    return attempted, failed, not traced["span_errors"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "apolarkit" / "__init__.py").is_file():
        print("no apolarkit sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    print("env: nproc=%d python=%s commit=%s workload=%s seed=%d seconds=%g "
          "APOLARKIT_THREADS=1" % (len(os.sched_getaffinity(0)),
                                   platform.python_version(), _commit(),
                                   args.workload, args.seed, args.seconds))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            attempted, failed, sound, metrics = run_traced(common, args, deadline)
        else:
            attempted, failed, sound, metrics = run_untraced(
                common, args.seconds, deadline)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print("%s %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0 and sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
