"""Seeded workload generators and per-operation correctness checks.

Each workload is a list of problem groups. A group is the set of CLI
operations one round of the closed loop runs back to back; the problem
files it needs are generated from the workload name and the seed only, so
the same seed always gives byte-identical files. Parameter ranges are
chosen so that every group stays on the solver path its workload is meant
to exercise (see each ``why``).
"""

from __future__ import annotations

import json
import math
import os
import random

GROUPS = 6  # problem groups generated per run; rounds cycle through them

EXPECTED_VISCOUS_CLASS = "kirchhoff_limit"

WHY = {
    "kink_lf": "abs_shift junctions: the pure O(n^2) Lax-Friedrichs Jacobi "
               "path (20n iterations, 0 sweeps); Newton should move it most, "
               "sweep and fattening work not at all",
    "stiff_sweep": "non-convex double-well junction that switches from Jacobi "
                   "to Godunov sweeps, plus a non-degenerate Kirchhoff "
                   "viscous sweep whose Newton really iterates",
    "fatten": "2-D FatSystem residual and the reduced-Hamiltonian 1-D "
              "reference solve of a max-form fattening study",
    "expr_batch": "x-dependent parsed expressions: the expr evaluator, "
                  "numeric probing and small-n junction solves where fixed "
                  "per-problem cost matters",
}

KINK_N = 200
STIFF_N = 100
VISCOUS_N = 170
FATTEN_N1D = 80
EXPR_N = 64
VISCOUS_EPS = [0.2, 0.1, 0.05, 0.025]
FATTEN_EPS = [0.2, 0.1]
# coarser than the fatten_max sample (0.125), so that a round takes about
# 8 s instead of 12 s and a 26-second run holds three rounds
FATTEN_H2_OVER_EPS = 0.2


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _edge(n, far, ham):
    return {"length": 1.0, "n_cells": n, "far_bc": far, "hamiltonian": ham}


_NEUMANN = {"kind": "neumann", "slope": 0.0}
_DIRICHLET0 = {"kind": "dirichlet", "value": 0.0}
_SC = {"kind": "state_constraint"}


def _problem(edges, junction=None, **extra):
    data = {"schema_version": 1, "K": len(edges), "edges": edges,
            "junction": junction or {"kind": "state_constraint"}}
    data.update(extra)
    return data


def _abs(rng):
    return {"family": "abs_shift", "b": _u(rng, -0.3, 0.3),
            "c": _u(rng, 0.8, 2.4)}


def _kink_group(rng):
    sj = _problem([_edge(KINK_N, _NEUMANN, _abs(rng)) for _ in range(2)])
    fl = _problem([_edge(KINK_N, _NEUMANN, _abs(rng)) for _ in range(2)],
                  {"kind": "flux_limited", "A": _u(rng, -1.6, -0.2)})
    return [("solve-junction", sj), ("flux-limited", fl)]


def _stiff_group(rng):
    # b below about -2.15 with small c delays the switch to sweeps from 4000
    # to 12000 Jacobi iterations; the viscous reference solve leaves pure
    # Jacobi (about 8700 iterations) for b or c more than a few percent away
    # from (1, 1) and (0.5, 1)
    dw = _problem([
        _edge(STIFF_N, _SC, {"family": "double_well",
                             "b": _u(rng, -2.1, -1.85),
                             "c": _u(rng, 0.0, 0.5)}),
        _edge(STIFF_N, _SC, {"family": "abs_shift", "b": 0.0,
                             "c": _u(rng, 0.8, 1.5)}),
    ])
    visc = _problem([
        _edge(VISCOUS_N, _DIRICHLET0, {"family": "quadratic",
                                       "b": _u(rng, 0.98, 1.02),
                                       "c": _u(rng, 0.97, 1.03)}),
        _edge(VISCOUS_N, _DIRICHLET0, {"family": "quadratic",
                                       "b": _u(rng, 0.48, 0.52),
                                       "c": _u(rng, 0.97, 1.03)}),
    ], viscous={"eps_list": VISCOUS_EPS})
    return [("solve-junction", dw), ("viscous-sweep", visc)]


def _fatten_group(rng):
    # unshifted kinks (b = 0) as in the fatten_max sample: with b != 0 the
    # 2-D relaxation needs minutes per study. The 2-D iteration count halves
    # once c2 - c1 exceeds 1, so the gap stays below it.
    c1 = _u(rng, 0.9, 1.3)
    h1 = {"family": "abs_shift", "b": 0.0, "c": c1}
    c2 = round(c1 + _u(rng, 0.3, 0.8), 3)
    h2 = {"family": "abs_shift", "b": 0.0, "c": c2}
    fat = _problem([_edge(FATTEN_N1D, _NEUMANN, h1),
                    _edge(FATTEN_N1D, _NEUMANN, h2)],
                   fatten={"hamiltonian2d": {"max_form": [h1, h2]},
                           "eps_list": FATTEN_EPS,
                           "h2_over_eps": FATTEN_H2_OVER_EPS})
    return [("fatten2d", fat)]


def _expr_group(rng):
    return [_expr_op(rng), _expr_op(rng)]


def _expr_op(rng):
    b = [_u(rng, -0.2, 0.2) for _ in range(3)]
    c = [_u(rng, 1.0, 1.6) for _ in range(3)]
    a = [_u(rng, 0.05, 0.15) for _ in range(3)]
    w = [_u(rng, 1.0, 3.0) for _ in range(3)]
    k = [_u(rng, 0.4, 0.6) for _ in range(2)]
    exprs = [
        f"abs(p - {b[0]}) - {c[0]} + {a[0]}*sin({w[0]}*x)",
        f"max(abs(p - {b[1]}), {k[0]}*(p - {b[1]})^2) - {c[1]} "
        f"+ {a[1]}*cos({w[1]}*x)",
        f"{k[1]}*(p - {b[2]})^2 - {c[2]} + {a[2]}*sin({w[2]}*x)^2",
    ]
    return ("solve-junction",
            _problem([_edge(EXPR_N, _NEUMANN, {"expr": e}) for e in exprs]))


_MAKERS = {
    "kink_lf": _kink_group,
    "stiff_sweep": _stiff_group,
    "fatten": _fatten_group,
    "expr_batch": _expr_group,
}

NAMES = tuple(_MAKERS)


def generate(workload, seed, out_dir):
    """Write the problem files of every group into out_dir and return the
    manifest: a list of groups, each a list of {"subcommand", "problem"}
    with the problem path relative to out_dir."""
    rng = random.Random(f"{workload}/{seed}")
    groups = []
    for g in range(GROUPS):
        ops = []
        for i, (sub, data) in enumerate(_MAKERS[workload](rng)):
            name = f"g{g}_op{i}_{sub}.json"
            with open(os.path.join(out_dir, name), "w") as f:
                json.dump(data, f, indent=2, sort_keys=True)
                f.write("\n")
            ops.append({"subcommand": sub, "problem": name})
        groups.append(ops)
    return groups


# ---------------------------------------------------------------------------
# correctness checks, one per subcommand, reusing the acceptance bounds
# ---------------------------------------------------------------------------

def _finite(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_solve_junction(report, problem):
    d, c = report["direct"], report["constructive"]
    n = min(e["n_cells"] for e in problem["edges"])
    errors = []
    if not (d["converged"] and c["converged"]):
        errors.append("not converged")
    # criterion 2: the constructive node value is the smallest per-edge
    # state-constraint node value
    if not abs(d["node_value"] - c["node_value"]) <= 2e-2:
        errors.append(f"value formula: direct {d['node_value']} vs "
                      f"min per-edge {c['node_value']}")
    # criterion 3
    gap_tol = max(5e-2, 3.0 * math.sqrt(1.0 / n))
    if not report["cross_solver_gap"] <= gap_tol:
        errors.append(f"cross_solver_gap {report['cross_solver_gap']} > "
                      f"{gap_tol}")
    path = {"method": d["method"], "iterations": d["iterations"]}
    return errors, path


def _check_flux_limited(report, problem):
    s = report["solve"]
    A = problem["junction"]["A"]
    errors = []
    if not s["converged"]:
        errors.append("not converged")
    # criterion 8
    if not s["node_value"] <= -A + 2e-2:
        errors.append(f"u(0)={s['node_value']} > -A + 2e-2 with A={A}")
    return errors, {"method": s["method"], "iterations": s["iterations"]}


def _check_viscous_sweep(report, problem):
    s = report["sweep"]
    errors = []
    if s["classification"] != EXPECTED_VISCOUS_CLASS:
        errors.append(f"classification {s['classification']}, expected "
                      f"{EXPECTED_VISCOUS_CLASS}")
    if not all(_finite(r["node_value"]) for r in s["records"]):
        errors.append("non-finite node value")
    newton = [r["newton_iters"] for r in s["records"]]
    return errors, {"newton_iters": newton}


def _check_fatten2d(report, problem):
    recs = report["fatten"]["records"]
    errs = [r["trace_error"] for r in recs]
    errors = []
    if not all(r["converged"] for r in recs):
        errors.append("2-D solve not converged")
    # criterion 9
    if not all(e <= 0.1 for e in errs):
        errors.append(f"trace errors {errs} exceed 0.1")
    if not all(b <= a + 1e-9 for a, b in zip(errs, errs[1:])):
        errors.append(f"trace errors {errs} increase as eps decreases")
    return errors, {"iterations": [r["iterations"] for r in recs]}


CHECKS = {
    "solve-junction": _check_solve_junction,
    "flux-limited": _check_flux_limited,
    "viscous-sweep": _check_viscous_sweep,
    "fatten2d": _check_fatten2d,
}


def check_op(subcommand, exit_code, report, problem):
    """Return (errors, path) for one finished operation. An operation fails
    on a non-zero exit, a missing report, or a failed bound."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if report is None:
        return ["no report.json"], {}
    try:
        return CHECKS[subcommand](report, problem)
    except (KeyError, TypeError) as e:
        return [f"malformed report: {e!r}"], {}
