"""Check that two checkouts of hjj compute the same numbers.

    python3 tools/same_numbers.py PARENT CHANGE [--seeds 1 2 3]
                                  [--workloads kink_lf ...] [--no-samples]

Runs the same operations in both checkouts, each in one process that
imports that checkout's src/ and calls hjj.cli.main per operation:

  * the sample commands on each checkout's problems/ (see SAMPLES);
  * every operation of the perfbench workloads for the given seeds. Their
    problem files are generated once, by importing perfbench/workloads.py
    of the checkout this script sits in, and both checkouts solve the same
    files.

Then it compares, per operation, the exit codes, the output file names,
report.json with the run-dependent fields removed (every "timings",
"wall_time" and "problem_path" key, and the "seconds" of each verify
check), and every CSV byte for byte. It prints one line per difference, with
the largest absolute difference of each CSV that differs, and exits 1 if
there is any, 0 otherwise. Its summary ends with the largest absolute
difference over all numeric fields: every CSV cell and every report.json
number that is not an integer on both sides (integers are counts, such as
iterations, and show on their own lines). A move at rounding level reads
as one; a CSV whose shape or text cells differ counts as inf.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

SAMPLES = [
    ("solve-junction", "junction_abs12"),
    ("solve-edge", "junction_abs12"),
    ("convergence", "junction_abs12"),
    ("flux-limited", "flux_abs"),
    ("viscous-sweep", "sweep_abs"),
    ("viscous-sweep", "sweep_quad"),
    ("fatten2d", "fatten_max"),
    ("fatten2d", "fatten_dwell"),
    ("verify", None),
]

# run inside each checkout: argv[1] the operations' JSON file, argv[2] the
# output directory; writes exit_codes.json there
_RUNNER = """
import json, os, sys, traceback
from hjj import cli
ops = json.load(open(sys.argv[1]))
codes = {}
for label, argv in ops:
    out = os.path.join(sys.argv[2], label)
    try:
        codes[label] = cli.main(argv + ["--out", out])
    except Exception:
        codes[label] = "raised " + traceback.format_exc(limit=1).strip()
with open(os.path.join(sys.argv[2], "exit_codes.json"), "w") as f:
    json.dump(codes, f, indent=1)
"""

_RUN_FIELDS = ("timings", "wall_time", "problem_path")


def _workload_ops(workloads, seeds, problem_dir):
    """(label, argv) of every perfbench operation of the seeds, with the
    problem files written to problem_dir."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        os.path.join(HERE, os.pardir, "perfbench", "workloads.py"))
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    ops = []
    for name in workloads:
        for seed in seeds:
            sub_dir = os.path.join(problem_dir, f"{name}-seed{seed}")
            os.makedirs(sub_dir)
            for g, group in enumerate(wl.generate(name, seed, sub_dir)):
                for i, op in enumerate(group):
                    path = os.path.join(sub_dir, op["problem"])
                    ops.append((f"{name}-seed{seed}-g{g}-op{i}",
                                [op["subcommand"], "--problem", path]))
    return ops


def _sample_ops(checkout):
    ops = []
    for sub, problem in SAMPLES:
        argv = [sub]
        if problem:
            argv += ["--problem",
                     os.path.join(checkout, "problems", problem + ".json")]
        ops.append((f"sample-{sub}-{problem or 'builtin'}", argv))
    return ops


def _run(checkout, ops, out_dir):
    os.makedirs(out_dir)
    ops_path = os.path.join(out_dir, "ops.json")
    with open(ops_path, "w") as f:
        json.dump(ops, f)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(os.path.join(out_dir, "output.txt"), "w") as log:
        subprocess.run([sys.executable, "-c", _RUNNER, ops_path, out_dir],
                       cwd=checkout, env=env, stdout=log,
                       stderr=subprocess.STDOUT, check=True)
    with open(os.path.join(out_dir, "exit_codes.json")) as f:
        return json.load(f)


def _strip(value, in_checks=False):
    """value without the fields that differ from run to run."""
    if isinstance(value, dict):
        return {k: _strip(v, k == "checks") for k, v in value.items()
                if k not in _RUN_FIELDS and not (in_checks and k == "seconds")}
    if isinstance(value, list):
        return [_strip(v, in_checks) for v in value]
    return value


def _json_diffs(a, b, path="report", worst=None):
    """One line per leaf where the two JSON values differ; worst, a
    one-element list, is raised to the absolute difference of every
    differing pair of numbers that are not both integers."""
    worst = [0.0] if worst is None else worst
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}.{k}: only in "
                           f"{'parent' if k in a else 'change'}")
            else:
                out += _json_diffs(a[k], b[k], f"{path}.{k}", worst)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in _json_diffs(x, y, f"{path}[{i}]", worst)]
    if a == b:
        return []
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(a) and number(b) and not (isinstance(a, int)
                                        and isinstance(b, int)):
        worst[0] = max(worst[0], abs(a - b))
    return [f"{path}: {a!r} != {b!r}"]


def _csv_difference(a, b):
    """The largest absolute difference between the cells of two CSV texts,
    inf where their shapes or text cells differ."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t.decode())))
                      for t in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x != y:
                try:
                    worst = max(worst, abs(float(x) - float(y)))
                except ValueError:
                    return math.inf
    return worst


def _compare(label, code_a, code_b, dir_a, dir_b, worst):
    """The difference lines of one operation; worst, a one-element list,
    is raised to its largest numeric difference."""
    diffs = []
    if code_a != code_b:
        diffs.append(f"exit code {code_a!r} != {code_b!r}")
    files_a = set(os.listdir(dir_a)) if os.path.isdir(dir_a) else set()
    files_b = set(os.listdir(dir_b)) if os.path.isdir(dir_b) else set()
    if files_a != files_b:
        diffs.append(f"files {sorted(files_a ^ files_b)} in one run only")
    for name in sorted(files_a & files_b):
        with open(os.path.join(dir_a, name), "rb") as f:
            a = f.read()
        with open(os.path.join(dir_b, name), "rb") as f:
            b = f.read()
        if name == "report.json":
            diffs += _json_diffs(_strip(json.loads(a)), _strip(json.loads(b)),
                                 worst=worst)
        elif name.endswith(".csv") and a != b:
            d = _csv_difference(a, b)
            worst[0] = max(worst[0], d)
            diffs.append(f"{name} differs, largest difference {d:.3g}")
    return [f"{label}: {d}" for d in diffs]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout to compare against")
    ap.add_argument("change", help="checkout under test")
    ap.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="*",
                    default=["kink_lf", "stiff_sweep", "fatten", "expr_batch"])
    ap.add_argument("--no-samples", action="store_true",
                    help="leave out the sample commands")
    args = ap.parse_args(argv)
    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with tempfile.TemporaryDirectory(prefix="same_numbers_") as work:
        shared = _workload_ops(args.workloads, args.seeds,
                               os.path.join(work, "problems"))
        codes, ops = [], []
        for tag, checkout in zip(("parent", "change"), checkouts):
            mine = shared + ([] if args.no_samples else _sample_ops(checkout))
            ops.append(mine)
            codes.append(_run(checkout, mine, os.path.join(work, tag)))
        lines, worst = [], [0.0]
        for label, _ in ops[1]:
            lines += _compare(label, codes[0].get(label), codes[1].get(label),
                              os.path.join(work, "parent", label),
                              os.path.join(work, "change", label), worst)
    for line in lines:
        print(line)
    print(f"{len(ops[1])} operations compared, {len(lines)} differences, "
          f"largest numeric difference {worst[0]:.3g}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
