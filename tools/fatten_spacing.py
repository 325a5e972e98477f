"""Time the fattening study at several 2-D grid spacings.

    python3 tools/fatten_spacing.py [CHECKOUT] [--problem FILE]
                                    [--eps 0.1 0.05]
                                    [--h2-over-eps 0.125 0.0625]

Imports hjj from CHECKOUT's src/ (default: the checkout this script sits
in) and loads the problem file's Hamiltonians and arms (default:
problems/fatten_dwell.json of that checkout). For each h2/eps it runs
fattening_study once on the eps schedule, with the problem's arm lengths
and 1-D cells as the fatten2d subcommand uses them, and prints one table
row: the study's wall time, the 2-D Newton steps per eps and the trace
errors per eps.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?",
                    default=os.path.join(HERE, os.pardir),
                    help="checkout whose src/ is imported")
    ap.add_argument("--problem", help="problem file with a fatten block "
                    "(default: the checkout's problems/fatten_dwell.json)")
    ap.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.05])
    ap.add_argument("--h2-over-eps", type=float, nargs="+",
                    default=[1 / 8, 1 / 16])
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path.insert(0, os.path.join(checkout, "src"))
    from hjj.fatten2d import fattening_study
    from hjj.problems import load_problem

    pf = load_problem(args.problem or os.path.join(
        checkout, "problems", "fatten_dwell.json"))
    edges = pf.problem.edges
    n_1d = max(e.n_cells for e in edges)
    print(f"eps {'/'.join(f'{e:g}' for e in args.eps)}, n_1d {n_1d}\n")
    print("| h2/eps | time | Newton steps per eps | trace errors |")
    print("|---|---|---|---|")
    for r in args.h2_over_eps:
        t0 = time.perf_counter()
        study = fattening_study(pf.fatten_h2, args.eps, a1=edges[0].length,
                                a2=edges[1].length, h2_over_eps=r,
                                n_1d=n_1d)
        wall = time.perf_counter() - t0
        steps = "/".join(str(rec.iterations) for rec in study.records)
        errs = "/".join(f"{rec.trace_error:.4f}" for rec in study.records)
        print(f"| 1/{1 / r:g} | {wall:.2f} s | {steps} | {errs} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
