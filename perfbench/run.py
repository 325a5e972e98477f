"""hjj benchmark: seeded CLI workloads, end-to-end timings and a per-module
trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (hjj is imported from its ``src/``).
The run generates the workload's problem files from the seed under
``.perfbench_work/``, measures set-up three times (two set-up-only
processes plus the workload process itself, each from interpreter start
until hjj is imported and every problem is loaded), then lets one
single-threaded workload process run rounds of CLI operations for about
S seconds and check every answer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones:

* ``wall_s``: median over rounds of the time a round's operations take
  back to back, the answer checks between them left out (time to solutions
  at the CLI default tolerance 1e-8);
* ``setup_s``: median set-up time;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``ok_frac``: operations that passed divided by operations attempted. An
  operation fails on a non-zero exit, ``converged: false`` or a failed
  correctness bound.

With ``--trace 1`` the metrics are the per-layer ones from one traced round
(see ``layertrace.py``), including the tracing overhead measured against an
untraced run of the same round. The line before the result holds the run
context: seed, workload, CPU count and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import NAMES, WHY, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_ONLY_PROCESSES = 2
TIME_LIMIT_S = 170.0  # whole run, set-up included
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def _spawn_worker(work, tag, extra, deadline):
    """Run one worker process to completion and return its result dict."""
    result_path = os.path.join(work, f"{tag}.json")
    log_path = os.path.join(work, f"{tag}.log")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = max(deadline - time.monotonic(), 1.0)
    with open(log_path, "w") as log:
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--work", work, "--result", result_path] + extra
        spawned = time.monotonic()
        proc = subprocess.run(argv + ["--spawned-at", repr(spawned)],
                              cwd=ROOT, env=env, stdout=log,
                              stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}:\n"
                           f"{tail}")
    with open(result_path) as f:
        return json.load(f)


def _measure(args, work, deadline):
    setups = []
    for k in range(SETUP_ONLY_PROCESSES):
        res = _spawn_worker(work, f"setup{k}", ["--setup-only"], deadline)
        setups.append(res["setup_s"])
    res = _spawn_worker(work, "workload",
                        ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])
    ops = res["ops"]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in res["layer_metrics"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["round_walls"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
        }
    context = dict(res["context"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   why=WHY[args.workload], setup_samples_s=setups,
                   round_walls_s=res["round_walls"])
    failures = [op for op in ops if not op["ok"]]
    paths = [(op["subcommand"], op["path"]) for op in ops]
    return context, paths, failures, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics}


def main(argv=None):
    deadline = time.monotonic() + TIME_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hjj", "__init__.py")):
        print("perfbench: no hjj sources under src/ in this checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    groups = generate(args.workload, args.seed, work)
    with open(os.path.join(work, "manifest.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "groups": groups}, f, indent=1)

    try:
        context, paths, failures, result = _measure(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for op in failures:
        print(f"perfbench: FAILED {op['subcommand']} {op['problem']}: "
              f"{'; '.join(op['errors'])}", file=sys.stderr)
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"context": context, "paths": paths, "result": result}, f,
                  indent=1)
    print(json.dumps({"context": context, "paths": paths}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
