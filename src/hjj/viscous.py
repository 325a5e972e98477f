"""Second-order Kirchhoff regularization of the junction problem.

For a diffusion strength eps > 0 the system

    -eps u'' + u + H_i(u', x) = 0   on each edge,
    sum_i u_{x_i}(0-) = 0           at the junction,

is discretized with central differences inside the edges and a second-order
one-sided stencil for the junction slope sum (first-order stencils pollute
the O(eps) boundary layer), on the flat state of junction.FlatLayout. The
nonlinear system is solved by junction.newton with every step damped (the
step is halved until max|R| strictly decreases); its arrowhead Jacobian
goes to junction.solve_arrowhead, and its dH/dp entries are the central
differences of edge._value_and_slope (step 1e-7 (1 + |p|), tolerant of
kinked Hamiltonians). A cold start is warm-started by a continuation that
halves eps from CONTINUATION_START down to the target; a stage that fails
is retried once in four geometric steps from the last accepted eps. The
solve returns the shared edge.SolveReport with method "newton", flux
"central", levels (eps, Newton steps) per continuation stage, iterations
counting accepted steps only, and the flag "max_iters" when a stage does
not converge.

The constants below are fixed: no caller tunes them.

    NEWTON_TOL          max|R| at which a Newton stage stops
    MAX_NEWTON          Newton steps per stage
    CONTINUATION_START  first eps of a cold start
    DELTA_SC            how close the extrapolated limit must come to the
                        state-constraint value to select it
    DELTA_KIRCHHOFF     how small the last junction slope sum must be for
                        a Kirchhoff limit

The vanishing-diffusion sweep records junction values and slopes per eps,
extrapolates the limit, and classifies it: either the state-constraint
junction value is recovered, or the limit sits strictly below it with a
vanishing junction slope sum. The state-constraint reference is solved by
junction.solve_junction_direct and its convergence and flags are reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .edge import (
    Dirichlet,
    GridFunction1D,
    SolveReport,
    StateConstraint,
    _value_and_slope,
    node_slope,
)
from .junction import (
    FlatLayout,
    JunctionGridFunction,
    JunctionProblem,
    newton,
    solve_arrowhead,
    solve_junction_direct,
)

SELECTS_STATE_CONSTRAINT = "selects_state_constraint"
KIRCHHOFF_LIMIT = "kirchhoff_limit"
UNDETERMINED = "undetermined"
NO_GUARANTEE = "no_guarantee"

NEWTON_TOL = 1e-10
MAX_NEWTON = 60
CONTINUATION_START = 1.0
DELTA_SC = 5e-2
DELTA_KIRCHHOFF = 5e-2


@dataclass(frozen=True)
class ViscousParams:
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass
class SweepRecord:
    epsilon: float
    node_value: float
    slopes: tuple
    kirchhoff_sum: float
    newton_iters: int


@dataclass
class VanishingViscosityReport:
    records: list
    # None when no stage converged
    extrapolated_node_value: Optional[float]
    classification: str
    predicted_selection: str
    sc_reference: float
    # the state-constraint reference solve; None when none was run
    reference_converged: Optional[bool] = None
    reference_flags: tuple = ()
    # the first eps whose solve failed (None when every stage converged)
    # and that solve's flags
    failed_epsilon: Optional[float] = None
    flags: tuple = ()


# ---------------------------------------------------------------------------
# discrete system
# ---------------------------------------------------------------------------

class _ViscousSystem(FlatLayout):
    """Central-difference rows of every edge (the far-end row first), and
    the junction slope-sum row on the node value."""

    def __init__(self, problem: JunctionProblem):
        for e in problem.edges:
            if isinstance(e.far_bc, StateConstraint):
                raise ValueError(
                    "viscous solver supports dirichlet/neumann far ends only")
        self.problem = problem
        self.lay_out(problem.edges)
        self.x = [e.grid()[1:-1] for e in problem.edges]

    def _blocks(self, z):
        return zip(self.offsets, self.problem.edges, self.problem.hamiltonians,
                   self.x, self.split(z))

    def residual(self, z, eps):
        R = np.empty(self.size)
        kirchhoff = 0.0
        for a, e, H, x, u in self._blocks(z):
            n, h = e.n_cells, e.h
            p = (u[2:] - u[:-2]) / (2.0 * h)
            R[a + 1:a + n] = (
                -eps * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
                + u[1:-1] + np.asarray(H(p, x))
            )
            far = e.far_bc
            if isinstance(far, Dirichlet):
                R[a] = u[0] - far.value
            else:
                R[a] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h) \
                    - far.slope
            kirchhoff += (3.0 * u[n] - 4.0 * u[n - 1] + u[n - 2]) / (2.0 * h)
        R[-1] = kirchhoff
        return R

    def jacobian(self, z, eps):
        """The Jacobian in junction.solve_arrowhead's form, far rows first."""
        blocks, node_row = [], []
        node_diag = 0.0
        for _, e, H, x, u in self._blocks(z):
            n, h = e.n_cells, e.h
            _, dH = _value_and_slope(H, (u[2:] - u[:-2]) / (2.0 * h), x)
            far = (1.0, 0.0, 0.0) if isinstance(e.far_bc, Dirichlet) \
                else (-1.5 / h, 2.0 / h, -0.5 / h)
            sub = np.append(0.0, -eps / h ** 2 - dH / (2.0 * h))
            diag = np.append(far[0], np.full(n - 1, 2.0 * eps / h ** 2 + 1.0))
            sup = np.append(far[1], -eps / h ** 2 + dH / (2.0 * h))
            blocks.append((sub, diag, sup, far[2]))
            node_diag += 1.5 / h
            node_row.append({n - 1: -2.0 / h, n - 2: 0.5 / h})
        return blocks, node_row, node_diag

    def newton(self, z, eps):
        """junction.newton at fixed eps, every step damped; returns (z,
        res, steps, ok)."""
        def point(z, theta, accepted):
            R = self.residual(z, eps)
            return None, R, lambda: solve_arrowhead(self.jacobian(z, eps), -R)

        z, _, steps, res, status = newton(point, z, NEWTON_TOL, MAX_NEWTON)
        return z, res, steps, status == "converged"


def _continuation_schedule(start, target):
    if target >= start:
        return [target]
    seq = [start]
    while seq[-1] / 2.0 > target * (1.0 + 1e-12):
        seq.append(seq[-1] / 2.0)
    seq.append(target)
    return seq


def solve_viscous_kirchhoff(problem: JunctionProblem, params: ViscousParams,
                            init=None):
    """Solve the diffusion-regularized junction system at fixed eps.

    init, per-edge value arrays (each ending with the node value), is the
    start of a single stage at the target eps. Without it the solve starts
    from a constant and halves eps from CONTINUATION_START down to the
    target. A stage that fails after an accepted one is retried in four
    geometric steps from the last accepted eps; a failed retry or a failed
    first stage ends the solve, flagged "max_iters"."""
    t0 = time.perf_counter()
    sys_ = _ViscousSystem(problem)
    if init is not None:
        z = sys_.join(init, float(init[0][-1]))
        schedule = [params.epsilon]
    else:
        flat = float(np.mean([-float(H(0.0, 0.0))
                              for H in problem.hamiltonians]))
        z = np.full(sys_.size, flat)
        for a, e in zip(sys_.offsets, problem.edges):
            if isinstance(e.far_bc, Dirichlet):
                z[a] = e.far_bc.value
        schedule = _continuation_schedule(CONTINUATION_START, params.epsilon)

    # stages still to run, last first; a retry leg is not retried again
    pending = [(eps, True) for eps in reversed(schedule)]
    stages = []
    total = 0
    eps_prev = None
    flags = ()
    while pending:
        eps, may_retry = pending.pop()
        z_new, res, iters, ok = sys_.newton(z.copy(), eps)
        total += iters
        if ok:
            z = z_new
            stages.append((eps, iters))
            eps_prev = eps
        elif not may_retry or eps_prev is None or eps_prev <= eps:
            z, flags = z_new, ("max_iters",)
            break
        else:
            ratio = (eps / eps_prev) ** 0.25
            pending += [(eps, False)] + [(eps_prev * ratio ** k, False)
                                         for k in (3, 2, 1)]
    # the last stage run is the target eps: res is the answer's residual
    return _assemble(sys_, z), SolveReport(
        iterations=total, final_residual=res, converged=not flags,
        wall_time=time.perf_counter() - t0, method="newton", flux="central",
        flags=flags, levels=tuple(stages))


def _assemble(sys_, z):
    grids = [GridFunction1D(u, e, "generic")
             for u, e in zip(sys_.split(z), sys_.problem.edges)]
    return JunctionGridFunction(grids, float(z[-1]))


def viscous_scheme_residual(sol: JunctionGridFunction,
                            problem: JunctionProblem, epsilon):
    """Re-evaluate the discrete second-order system residual of a solution
    (interior rows, far rows, junction slope row) as one max-norm."""
    sys_ = _ViscousSystem(problem)
    z = sys_.join([g.values for g in sol.per_edge], sol.node_value)
    R = sys_.residual(z, epsilon)
    return float(np.max(np.abs(R))), float(abs(R[-1]))


# ---------------------------------------------------------------------------
# sweep, prediction, classification
# ---------------------------------------------------------------------------

def predict_selection(problem: JunctionProblem, tol=1e-9):
    """The vanishing-diffusion limit provably recovers the state-constraint
    solution when the largest minimizers of the edge Hamiltonians sum to a
    nonpositive value."""
    total = 0.0
    for H in problem.hamiltonians:
        if not len(H.minima):
            raise ValueError(f"H({H.source}) has no recorded minima")
        total += max(H.minima)
    return SELECTS_STATE_CONSTRAINT if total <= tol else NO_GUARANTEE


def richardson_extrapolate(records):
    """Limit estimate from the last two records, assuming node_value(eps)
    deviates linearly in eps."""
    if len(records) < 2:
        return records[-1].node_value
    r1, r2 = records[-2], records[-1]
    e1, e2 = r1.epsilon, r2.epsilon
    if e1 == e2:
        return r2.node_value
    slope = (r1.node_value - r2.node_value) / (e1 - e2)
    return r2.node_value - slope * e2


def classify_limit(report: VanishingViscosityReport, sc_value):
    """Dichotomy verdict for a sweep: the limit either matches the
    state-constraint junction value or sits strictly below it with a
    vanishing junction slope sum; anything else is undetermined."""
    if len(report.records) < 3:
        raise ValueError("classification needs at least 3 sweep records")
    extrap = report.extrapolated_node_value
    if abs(extrap - sc_value) <= DELTA_SC:
        return SELECTS_STATE_CONSTRAINT
    if extrap < sc_value - DELTA_SC and \
            abs(report.records[-1].kirchhoff_sum) <= DELTA_KIRCHHOFF:
        return KIRCHHOFF_LIMIT
    return UNDETERMINED


def epsilon_sweep(problem: JunctionProblem, eps_list):
    """Solve the regularized system along a decreasing eps schedule (each
    solve warm-starts the next), extrapolate the junction value, and
    classify the limit against the state-constraint reference, whose
    convergence and flags the report carries. A failed solve ends the
    schedule: the report keeps the records of the converged stages, names
    the failed eps with its flags, and leaves the limit undetermined."""
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 3:
        raise ValueError("eps_list needs at least 3 entries")
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must decrease strictly")
    h_max = max(e.h for e in problem.edges)
    if h_max > eps_arr[-1] / 4.0 + 1e-15:
        raise ValueError(
            f"grid too coarse for smallest epsilon: need h <= {eps_arr[-1] / 4:g}")

    records = []
    init = None
    failed, flags = None, ()
    for eps in eps_arr:
        sol, rep = solve_viscous_kirchhoff(problem, ViscousParams(eps),
                                           init=init)
        if not rep.converged:
            failed, flags = eps, rep.flags
            break
        init = [g.values for g in sol.per_edge]
        slopes = tuple(node_slope(g) for g in sol.per_edge)
        records.append(SweepRecord(
            epsilon=eps, node_value=sol.node_value, slopes=slopes,
            kirchhoff_sum=float(sum(slopes)), newton_iters=rep.iterations))

    sc_prob = JunctionProblem(problem.edges, problem.hamiltonians,
                              StateConstraint())
    sc_sol, sc_rep = solve_junction_direct(sc_prob)
    report = VanishingViscosityReport(
        records=records,
        extrapolated_node_value=(richardson_extrapolate(records)
                                 if records else None),
        classification=UNDETERMINED,
        predicted_selection=predict_selection(problem),
        sc_reference=float(sc_sol.node_value),
        reference_converged=sc_rep.converged,
        reference_flags=sc_rep.flags,
        failed_epsilon=failed,
        flags=flags,
    )
    if failed is None:
        report.classification = classify_limit(report, report.sc_reference)
    return report
