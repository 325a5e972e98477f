"""Command-line harness.

    hjj <subcommand> --problem <file> [--out <dir>] [--tol <r>] [--seed <n>]

Subcommands: solve-edge, solve-junction, flux-limited, viscous-sweep,
fatten2d, verify, convergence. Each run writes report.json plus the CSV
series it produced (and a gnuplot script for the main series) into the
output directory. Exit codes: 0 success, 2 solver non-convergence or failed
verification checks, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import edge as ed
from . import fatten2d as ft
from . import junction as jn
from . import reports as rp
from . import verify as vf
from . import viscous as vs
from .junction import FluxLimited
from .problems import ProblemValidationError, load_problem

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_VALIDATION = 3

DEFAULT_TOL = 1e-8

# these run solvers with stopping rules of their own, so a --tol or
# --max-iters given to them would be ignored: it is rejected instead
_OWN_STOPPING_RULE = frozenset({"viscous-sweep", "verify"})

# a Newton breakdown that the sweeps had to finish, a cap, a stall and a
# Lipschitz overrun each make the run fail even when the residual test passed
_FAILURE_FLAGS = frozenset({"newton_fallback", "max_iters", "sweep_stalled",
                            "lipschitz_exceeded"})


def _base_report(args, sub):
    return {
        "schema_version": 1,
        "subcommand": sub,
        "problem_path": os.path.abspath(args.problem) if args.problem else None,
        "seed": args.seed,
        "tolerances": {"tol": args.tol},
        "timings": {},
        "csv_files": [],
        "flags": [],
    }


def _solver_params(args, cls=ed.SolverParams):
    """cls from the options; an unset --max-iters keeps cls's own cap."""
    caps = {} if args.max_iters is None else {"max_iters": args.max_iters}
    return cls(tol=args.tol, **caps)


def _solved(rep):
    return rep.converged and not _FAILURE_FLAGS.intersection(rep.flags)


def _finish(report, out_dir, t0, code):
    # each flag once, in order, however many solves raised it
    report["flags"] = list(dict.fromkeys(report["flags"]))
    report["timings"]["wall_time"] = time.perf_counter() - t0
    rp.write_report_json(os.path.join(out_dir, "report.json"), report)
    return code


def _solve_fields(rep):
    """The report fields every 1-D solve shares."""
    return {"iterations": rep.iterations, "converged": rep.converged,
            "method": rep.method, "flux": rep.flux, "levels": rep.levels}


def _finish_1d(report, out_dir, t0, sol, reps):
    """Write sol's grid.csv and its profile plot script, record the flags of
    the solves reps and finish: exit 0 when every one of them succeeded."""
    csv = os.path.join(out_dir, "grid.csv")
    rp.write_grid_csv(csv, sol)
    report["csv_files"].append(os.path.basename(csv))
    report["k"] = sol.k
    rp.emit_plot_script(report, "profiles", out_dir)
    for rep in reps:
        report["flags"].extend(rep.flags)
    ok = all(_solved(rep) for rep in reps)
    return _finish(report, out_dir, t0, EXIT_OK if ok else EXIT_NOT_CONVERGED)


def cmd_solve_edge(args, pf, out_dir, t0):
    report = _base_report(args, "solve-edge")
    H = pf.problem.hamiltonians[args.edge]
    spec = pf.problem.edges[args.edge]
    if args.dirichlet is not None:
        node_bc = ed.Dirichlet(args.dirichlet)
    else:
        node_bc = ed.StateConstraint()
    g, rep = ed.solve_edge(H, spec, node_bc, _solver_params(args))
    report["solve"] = {
        "edge": args.edge, "node_value": g.node_value, "role": g.role,
        "final_residual": rep.final_residual, **_solve_fields(rep),
        "node_slope": ed.node_slope(g),
    }
    return _finish_1d(report, out_dir, t0,
                      jn.JunctionGridFunction([g], g.node_value), [rep])


def cmd_solve_junction(args, pf, out_dir, t0):
    report = _base_report(args, "solve-junction")
    params = _solver_params(args)
    sol, rep = jn.solve_junction_direct(pf.problem, params)
    solc, repc = jn.solve_junction_constructive(pf.problem, params)
    gap = max(abs(jn.compare_grid_functions(sol, solc)),
              abs(jn.compare_grid_functions(solc, sol)))
    report["direct"] = {
        "node_value": sol.node_value, "final_residual": rep.final_residual,
        **_solve_fields(rep),
    }
    report["constructive"] = {
        "node_value": solc.node_value, **_solve_fields(repc),
    }
    report["cross_solver_gap"] = gap
    report["diagnostics"] = rp.jsonable(jn.node_diagnostics(sol, pf.problem))
    return _finish_1d(report, out_dir, t0, sol, [rep, repc])


def cmd_flux_limited(args, pf, out_dir, t0):
    report = _base_report(args, "flux-limited")
    if not isinstance(pf.problem.junction_condition, FluxLimited):
        raise ProblemValidationError(
            "junction.kind", "flux-limited run needs a flux_limited junction")
    sol, rep = jn.solve_flux_limited(pf.problem, _solver_params(args))
    A = pf.problem.junction_condition.A
    report["solve"] = {
        "A": A, "node_value": sol.node_value,
        "bound_minus_A_ok": bool(sol.node_value <= -A + 2e-2),
        **_solve_fields(rep),
    }
    report["diagnostics"] = rp.jsonable(jn.node_diagnostics(sol, pf.problem))
    return _finish_1d(report, out_dir, t0, sol, [rep])


def cmd_viscous_sweep(args, pf, out_dir, t0):
    report = _base_report(args, "viscous-sweep")
    if pf.viscous_eps is None:
        raise ProblemValidationError(
            "viscous", "viscous-sweep run needs a viscous block")
    sweep = vs.epsilon_sweep(pf.problem, pf.viscous_eps)
    csv = os.path.join(out_dir, "sweep.csv")
    rp.write_sweep_csv(csv, sweep.records)
    report["csv_files"].append(os.path.basename(csv))
    report["sweep"] = rp.jsonable(sweep)
    report["flags"].extend(sweep.flags + sweep.reference_flags)
    rp.emit_plot_script(report, "sweep", out_dir)
    ok = (sweep.failed_epsilon is None and sweep.reference_converged
          and not _FAILURE_FLAGS.intersection(report["flags"]))
    return _finish(report, out_dir, t0, EXIT_OK if ok else EXIT_NOT_CONVERGED)


def cmd_fatten2d(args, pf, out_dir, t0):
    report = _base_report(args, "fatten2d")
    if pf.fatten_h2 is None:
        raise ProblemValidationError(
            "fatten", "fatten2d run needs a fatten block")
    spacing = pf.fatten_h2_spacing
    kw = dict(a1=pf.problem.edges[0].length, a2=pf.problem.edges[1].length,
              n_1d=max(e.n_cells for e in pf.problem.edges),
              params=_solver_params(args, ft.FatSolverParams),
              solver_params=_solver_params(args))
    if isinstance(spacing, tuple):
        kw["h2_over_eps"] = spacing[1]
    else:
        if spacing > min(pf.fatten_eps) / 4.0 + 1e-12:
            raise ProblemValidationError(
                "fatten.h2", "too coarse for the smallest eps (need <= eps/4)")
        kw["h2"] = spacing
    study = ft.fattening_study(pf.fatten_h2, pf.fatten_eps, **kw)
    csv = os.path.join(out_dir, "fatten.csv")
    rp.write_fatten_csv(csv, study.records)
    report["csv_files"].append(os.path.basename(csv))
    report["fatten"] = rp.jsonable(study)
    report["flags"].extend(study.reference_flags)
    for r in study.records:
        report["flags"].extend(r.flags)
    ok = (study.reference_converged
          and all(r.converged for r in study.records)
          and not _FAILURE_FLAGS.intersection(report["flags"]))
    return _finish(report, out_dir, t0, EXIT_OK if ok else EXIT_NOT_CONVERGED)


def cmd_verify(args, pf, out_dir, t0):
    report = _base_report(args, "verify")
    results = vf.run_verification(trials=args.trials, seed=args.seed)
    print(vf.format_results(results))
    report["checks"] = rp.jsonable(results)
    n_fail = sum(not r.passed for r in results)
    report["failures"] = n_fail
    return _finish(report, out_dir, t0,
                   EXIT_OK if n_fail == 0 else EXIT_NOT_CONVERGED)


def cmd_convergence(args, pf, out_dir, t0):
    report = _base_report(args, "convergence")
    H = pf.problem.hamiltonians[0]
    base = pf.problem.edges[0]
    grids = [int(n) for n in args.grids.split(",")]
    if any(n < 8 for n in grids) or any(b <= a for a, b in
                                        zip(grids, grids[1:])):
        raise ProblemValidationError("--grids",
                                     "must be an increasing list of n >= 8")
    c = args.dirichlet if args.dirichlet is not None else 0.0
    # closed form exists for the unshifted kink family |p| - c0 with c < c0
    # and a far end of zero slope or state constraint: the Dirichlet branch
    # is c0 + (c - c0) e^x. b and c0 come from the problem file, at full
    # precision; any other case is compared with a 2n reference solve
    spec = pf.raw["edges"][0]["hamiltonian"]
    c0 = float(spec.get("c", 0.0))
    analytic = spec.get("family") == "abs_shift" \
        and float(spec.get("b", 0.0)) == 0.0 and c < c0 \
        and (base.far_bc == ed.Neumann(0.0)
             or isinstance(base.far_bc, ed.StateConstraint))

    errors = []
    params = _solver_params(args)
    sols, reps = {}, []
    for n in grids + ([2 * grids[-1]] if not analytic else []):
        spec = ed.EdgeSpec(base.length, n, base.far_bc)
        sols[n], rep = ed.solve_edge(H, spec, ed.Dirichlet(c), params)
        reps.append(rep)
        report["flags"].extend(rep.flags)
    if analytic:
        for n in grids:
            spec = ed.EdgeSpec(base.length, n, base.far_bc)
            exact = c0 + (c - c0) * np.exp(spec.grid())
            errors.append(float(np.max(np.abs(sols[n].values - exact))))
    else:
        ref = sols[2 * grids[-1]]
        xr = ed.EdgeSpec(base.length, 2 * grids[-1], base.far_bc).grid()
        for n in grids:
            spec = ed.EdgeSpec(base.length, n, base.far_bc)
            interp = np.interp(spec.grid(), xr, ref.values)
            errors.append(float(np.max(np.abs(sols[n].values - interp))))

    rows = []
    for i, n in enumerate(grids):
        order = None if i == 0 else float(np.log2(errors[i - 1] / errors[i]))
        rows.append({"h": base.length / n, "error": errors[i],
                     "observed_order": order})
    hs = np.array([r["h"] for r in rows])
    es = np.array(errors)
    fitted = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
    csv = os.path.join(out_dir, "convergence.csv")
    rp.write_convergence_csv(csv, rows)
    report["csv_files"].append(os.path.basename(csv))
    report["convergence"] = {"rows": rows, "fitted_order": fitted,
                             "dirichlet_value": c, "analytic": analytic}
    report["fitted_order"] = fitted
    rp.emit_plot_script(report, "convergence", out_dir)
    ok = all(_solved(rep) for rep in reps)
    return _finish(report, out_dir, t0, EXIT_OK if ok else EXIT_NOT_CONVERGED)


_COMMANDS = {
    "solve-edge": (cmd_solve_edge, True),
    "solve-junction": (cmd_solve_junction, True),
    "flux-limited": (cmd_flux_limited, True),
    "viscous-sweep": (cmd_viscous_sweep, True),
    "fatten2d": (cmd_fatten2d, True),
    "verify": (cmd_verify, False),
    "convergence": (cmd_convergence, True),
}


@functools.cache
def build_parser():
    """The hjj argument parser, built once per process: parse_args fills a
    new namespace on every call, so consecutive main calls share nothing."""
    p = argparse.ArgumentParser(
        prog="hjj",
        description="Stationary Hamilton-Jacobi solvers on junction networks")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, needs_problem) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--problem", required=needs_problem,
                        help="problem JSON file")
        sp.add_argument("--out", default="hjj_out", help="output directory")
        sp.add_argument("--tol", type=float, default=None,
                        help=f"solver residual tolerance (default: "
                             f"{DEFAULT_TOL:g})")
        sp.add_argument("--max-iters", type=int, default=None,
                        help="cap on Newton steps (default: 200000 for the "
                             "1-D solvers, 150 for the 2-D tube)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks")
        if name == "solve-edge":
            sp.add_argument("--edge", type=int, default=0)
            sp.add_argument("--dirichlet", type=float, default=None,
                            help="junction-end Dirichlet value "
                                 "(default: state constraint)")
        if name == "convergence":
            sp.add_argument("--grids", default="100,200,400",
                            help="comma-separated cell counts")
            sp.add_argument("--dirichlet", type=float, default=0.0)
        if name == "verify":
            sp.add_argument("--trials", type=int, default=200)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    fn, needs_problem = _COMMANDS[args.subcommand]
    if args.subcommand in _OWN_STOPPING_RULE:
        for option, value in (("--tol", args.tol),
                              ("--max-iters", args.max_iters)):
            if value is not None:
                print(f"validation error: {option}: {args.subcommand} "
                      "uses its own stopping rule", file=sys.stderr)
                return EXIT_VALIDATION
    if args.tol is None:
        args.tol = DEFAULT_TOL
    t0 = time.perf_counter()
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    try:
        pf = load_problem(args.problem) if args.problem else None
    except ProblemValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return fn(args, pf, out_dir, t0)
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except ValueError as e:
        # cross-field constraint violations surfacing from module entry
        # checks (eps ordering, grid-vs-eps resolution, ...)
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
