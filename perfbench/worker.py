"""Workload process: one single-threaded interpreter that imports hjj from
the checkout, loads every generated problem once (set-up), then runs the
workload's operations through ``hjj.cli.main`` back to back and checks each
answer.

    python3 perfbench/worker.py --work DIR --spawned-at T --result FILE
                                [--setup-only] [--seconds S] [--trace 0|1]

Set-up time runs from ``--spawned-at`` (the parent's CLOCK_MONOTONIC
reading just before it started this process) until the last problem is
loaded. Without ``--trace`` the worker repeats rounds (one problem group
each, back to back) while the next round is expected to end within
``--seconds``. With ``--trace 1`` it runs group 0 once untraced and once
traced, so the difference of the two round times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from workloads import check_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_all(work, manifest):
    from hjj.problems import load_problem
    for group in manifest["groups"]:
        for op in group:
            load_problem(os.path.join(work, op["problem"]))


def _read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_round(cli, work, group, label, tracer=None):
    """Run one group's operations back to back; returns (wall, records).
    The wall time sums the CLI calls only, not the checks between them."""
    wall = 0.0
    records = []
    for i, op in enumerate(group):
        out = os.path.join(work, "out", f"{label}_op{i}")
        problem_path = os.path.join(work, op["problem"])
        argv = [op["subcommand"], "--problem", problem_path, "--out", out]
        if tracer is not None:
            tracer.op_id = f"{label}.{i}"
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the loop must go on; the op counts as failed
            code = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        wall += dt
        report = _read_json(os.path.join(out, "report.json"))
        errors, path = check_op(op["subcommand"], code, report,
                                _read_json(problem_path))
        shutil.rmtree(out, ignore_errors=True)
        records.append({"round": label, "subcommand": op["subcommand"],
                        "problem": op["problem"], "seconds": dt,
                        "ok": not errors, "errors": errors, "path": path})
    return wall, records


def _context():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(args.work, "manifest.json")) as f:
        manifest = json.load(f)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hjj import cli
    _load_all(args.work, manifest)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.result, "w") as f:
            json.dump(result, f)
        return 0

    groups = manifest["groups"]
    walls, records = [], []
    if args.trace:
        wall, recs = run_round(cli, args.work, groups[0], "plain")
        walls.append(wall)
        records += recs
        from layertrace import LayerMetrics, Tracer
        tracer = Tracer()
        tracer.install()
        layers = LayerMetrics(tracer)
        traced, recs = run_round(cli, args.work, groups[0], "traced", tracer)
        records += recs
        metrics = layers.metrics()
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - wall, "s")
        metrics["trace.overhead_frac"] = ((traced - wall) / wall, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        metrics["trace.spans_dropped"] = (tracer.dropped_spans, "count")
        result["layer_metrics"] = metrics
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
        with open(os.path.join(args.work, "trace_summary.json"), "w") as f:
            json.dump(tracer.summary(), f, indent=1, sort_keys=True)
    else:
        start = time.perf_counter()
        while True:
            group = groups[len(walls) % len(groups)]
            wall, recs = run_round(cli, args.work, group, f"r{len(walls)}")
            walls.append(wall)
            records += recs
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break

    result.update({
        "round_walls": walls,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "context": _context(),
    })
    if args.trace:
        result["context"]["trace_hook_errors"] = tracer.hook_errors
    with open(args.result, "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
