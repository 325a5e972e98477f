"""K-edge junction problems glued at x = 0, the driver that solves every
first-order system of the package, and newton, the package's Newton loop.

The junction system has K edge blocks (edge.EdgeDiscretization) and one
node row. Its junction conditions:

  * state constraint: the node value carries the residual
    R0 = u0 + max_i min over q in [p_in_i, P_i] of H_i(q, 0),
    the binding-test-slope form of the junction supersolution inequality
    (the minimum over independent per-edge test slopes of max_i H_i equals
    the max over i of the per-edge envelope minima);
  * flux-limited with limiter A: the node residual gains the floor A,
    R0 = u0 + max(A, max_i min over q >= p_in_i of H_i(q, 0)), which is the
    monotone discretization of the junction condition
    u + max(A, max_i H_i^-(u_{x_i}, 0)) = 0 built from nonincreasing parts;
  * Dirichlet data g: R0 = u0 + max(-g, max_i min over q >= p_in_i of
    H_i(q, 0)) = max(u0 - g, the state-constraint row), the flux-limited
    row with floor -g. Its answer is g where g is attainable and the
    state-constraint value where g lies above it (the viscosity sense).
    With K = 1 this and the state constraint are the single-edge problems
    of edge.solve_edge.

R0 is nondecreasing in u0 and nonincreasing in each neighbor value, so the
system is monotone. The constructive solver assembles the state-constraint
solution from per-edge solves instead: each edge's own constrained solution
is computed, the node value is the smallest of their node values, and the
remaining edges are re-solved with that value as Dirichlet data.

solve_system picks the flux. When every Hamiltonian is convex, the
Lax-Friedrichs residual with theta held fixed is a maximum of affine maps
whose Jacobians are M-matrix arrowheads (K tridiagonal blocks bordered by
the node row), and semismooth Newton -- Howard's policy iteration --
reaches its fixed point in a few solve_arrowhead calls. A coarse-to-fine
cascade supplies the start, because from a constant the policy switch
moves about two cells per step: its coarsest level has 8-15 cells on the
smallest edge whatever n is, and the levels above it are n/4^k, ...,
n/16, n/4, then n. Each accepted point raises theta wherever the iterate
needs more, by edge.raised_theta (theta <- 1.02 theta_req + 0.01, never
lowered), so every linear system stays an M-matrix, and the report
records it. Each Newton point is evaluated once, by the one callback
JunctionDiscretization.newton hands newton: one slope pass per edge feeds
the theta lookup, the residual rows and the Jacobian, H is called once
per edge as a value-and-slope stack, and an edge whose theta already
reaches its slope table's global bound skips the lookup, which could not
raise it.

A problem with a non-convex Hamiltonian is solved on the sampled-Godunov
scheme (Bardi and Osher's min-max flux) by the same cascade, with the
generalised Jacobian of EdgeDiscretization.rows, again an M-matrix
arrowhead. Howard's argument (Bokanowski, Maroso and Zidani)
covers a maximum of affine maps, not a min-max, so each Newton step is
halved until the residual strictly decreases (a rejected trial costs one
residual, no Jacobian), and Gauss-Seidel sweeps from the constant
super-solution solve the coarsest level and any level on which Newton
breaks down (flagged "newton_fallback"); the cascade goes on
from their answer. A sweep passes forward over every edge, solves the
node row, and passes back over every edge, so the node value travels
outward in the same sweep; the first forward pass starts each row from
its upwind neighbour's slope extrapolation (see _sweeps). A
Lax-Friedrichs breakdown ends the solve unconverged (flagged
"newton_stalled"): no solve changes its scheme. Under either flux the
rows have unit row sums and non-positive off-diagonals, so a state whose
residual is at most tol lies within tol of the scheme's fixed point: the
residual certifies the answer without a second solve to compare
against.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .edge import (
    Dirichlet,
    EdgeDiscretization,
    GridFunction1D,
    SolveReport,
    SolverParams,
    StateConstraint,
    _solve_increasing,
    _value_and_slope,
    node_slope,
    one_sided_quotients,
    raised_theta,
    solve_edge,
)
from .hamiltonians import (
    Hamiltonian,
    ensure_level,
    make_flux_limiter,
    rightward_min_threshold,
)

# Newton levels below the finest only seed the next one
COARSE_TOL = 1e-6
# a residual this many times above its value at the Newton start (or 1) is
# a breakdown
BREAKDOWN_GROWTH = 1e6
# smallest step factor of the Newton line search
MIN_STEP = 1e-3
# Gauss-Seidel sweeps before the sweep driver gives up with "max_iters"
MAX_SWEEPS = 3000
# Newton steps per cascade level, under either flux: a Godunov level that
# reaches it falls back to the sweeps, a Lax-Friedrichs one is left there
MAX_LEVEL_STEPS = 50


@dataclass(frozen=True)
class FluxLimited:
    """Flux-limited junction condition with limiter level A."""

    A: float


@dataclass
class JunctionProblem:
    edges: list
    hamiltonians: list
    junction_condition: object = StateConstraint()

    def __post_init__(self):
        if len(self.edges) != len(self.hamiltonians) or not self.edges:
            raise ValueError("need one Hamiltonian per edge (K >= 1)")
        if not isinstance(self.junction_condition,
                          (StateConstraint, FluxLimited, Dirichlet)):
            raise ValueError(
                f"unsupported junction condition {self.junction_condition!r}")

    @property
    def k(self):
        return len(self.edges)


def make_junction_problem(edges, hamiltonians, condition=StateConstraint()):
    """Assemble a JunctionProblem, re-probing every Hamiltonian at a shared
    coercivity level that dominates the plausible solution values: 2 above
    |H(0, x)| on about 8 grid points per edge, |H| at the minima, the
    Dirichlet data and the limiter A."""
    edges = list(edges)
    hams = list(hamiltonians)
    level = 2.0
    for H, e in zip(hams, edges):
        xs = e.grid()[:: max(1, e.n_cells // 8)]
        level = max(level, 2.0 + float(np.max(np.abs(H(0.0 * xs, xs)))))
        for m in H.minima:
            level = max(level, 2.0 + abs(float(H(m, 0.0))))
        if isinstance(e.far_bc, Dirichlet):
            level = max(level, 2.0 + abs(e.far_bc.value))
    if isinstance(condition, FluxLimited):
        level = max(level, 2.0 + abs(condition.A))
    hams = [ensure_level(H, level) for H in hams]
    return JunctionProblem(edges, hams, condition)


@dataclass
class JunctionGridFunction:
    """Per-edge grid functions sharing one junction value at x = 0."""

    per_edge: list
    node_value: float

    def __post_init__(self):
        for g in self.per_edge:
            if g.values[-1] != self.node_value:
                raise ValueError("edge node samples must equal node_value")

    @property
    def k(self):
        return len(self.per_edge)

    def copy(self):
        return JunctionGridFunction([g.copy() for g in self.per_edge],
                                    self.node_value)


@dataclass
class NodeDiagnostics:
    node_value: float
    slopes: tuple
    sc_residual: float
    flux_residual: Optional[float]
    kirchhoff_sum: float
    p_bar_list: tuple
    p_under_list: tuple


# ---------------------------------------------------------------------------
# coupled discretization
# ---------------------------------------------------------------------------

class FlatLayout:
    """The flat state z of a junction system: edge i's values
    u_{i,0..n_i-1} at z[offsets[i]:offsets[i+1]] and the shared node value
    last."""

    def lay_out(self, edges):
        self.offsets = np.cumsum([0] + [e.n_cells for e in edges])
        self.size = int(self.offsets[-1]) + 1

    def split(self, z):
        """Per-edge value arrays, each ending with the node value."""
        return [np.concatenate((z[a:b], z[-1:]))
                for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def join(self, us, u0):
        return np.concatenate([u[:-1] for u in us] + [[u0]])


class JunctionDiscretization(FlatLayout):
    """K edge blocks and the node row of one junction problem."""

    def __init__(self, problem: JunctionProblem):
        self.discs = [EdgeDiscretization(H, e, "external")
                      for H, e in zip(problem.hamiltonians, problem.edges)]
        cond = problem.junction_condition
        # the node row's floor: A, or -g for Dirichlet data g
        self.floor = cond.A if isinstance(cond, FluxLimited) else \
            -cond.value if isinstance(cond, Dirichlet) else -np.inf
        self.lay_out([d.edge for d in self.discs])

    def coarsened(self, factor):
        """The same junction with every edge's cell count divided by factor."""
        c = copy.copy(self)
        c.discs = [d.on_edge(replace(d.edge, n_cells=d.edge.n_cells // factor))
                   for d in self.discs]
        c.lay_out([d.edge for d in c.discs])
        return c

    # -- flat state -----------------------------------------------------------

    def interpolate(self, coarse, zc):
        """A state of the coarser system carried to this one's grids."""
        us = [np.interp(d.x, dc.x, u) for d, dc, u in
              zip(self.discs, coarse.discs, coarse.split(zc))]
        return self.join(us, zc[-1])

    # -- residuals --------------------------------------------------------------

    def node_envelopes(self, us, u0, clamp=True):
        """env_node_i(p_in_i) of every edge i, the inward slope p_in_i =
        (u0 - u_{i,n-1})/h_i clamped to edge i's slope span unless clamp is
        False; u0 as in node_residual."""
        u0 = np.asarray(u0, dtype=float)
        envs = []
        for d, u in zip(self.discs, us):
            p_in = (u0 - u[-2]) / d.h
            if clamp:
                S = d.theta_tab.span
                p_in = np.minimum(np.maximum(p_in, -S), S)
            envs.append(d.env_node(p_in))
        return envs

    def node_residual(self, us, u0, envs=None):
        """R0 = u0 + max(floor, max_i envelope-min_i(p_in_i)) from the
        clamped values of node_envelopes, or envs where given, with the
        floor A, -g for Dirichlet data g, or -inf. u0 is a scalar (a float
        back) or an array of trial node values, one residual each, as the
        sweeps' nodal solve evaluates them."""
        worst = self.floor
        for e in envs or self.node_envelopes(us, u0):
            worst = np.maximum(worst, e)
        r = np.asarray(u0, dtype=float) + worst
        return r if r.shape else float(r)

    def residuals(self, us, u0, thetas=None, flux="lax_friedrichs"):
        """Per-edge residual vectors and the node residual."""
        thetas = thetas or [None] * len(us)
        Rs = [d.residual(u, theta=th, flux=flux)[0]
              for d, u, th in zip(self.discs, us, thetas)]
        return Rs, self.node_residual(us, u0)

    def max_residual(self, Rs, r0):
        return max(abs(r0), max(float(np.max(np.abs(R))) for R in Rs))

    def clamp_inactive(self, z):
        """Whether every edge slope of z lies strictly inside its edge's
        clamp span, so that the clamped residual equals the unclamped one
        bit for bit."""
        return all(np.max(np.abs(np.diff(u) / d.h)) < d.theta_tab.span
                   for d, u in zip(self.discs, self.split(z)))

    # -- Newton -----------------------------------------------------------------

    def jacobian(self, us, blocks, envs):
        """The Jacobian, for solve_arrowhead, of the flat residual with
        unclamped slopes at the per-edge values us, from the edge blocks
        (sub, diag, sup) of EdgeDiscretization.rows and the node envelope
        values envs of node_envelopes there. The node row differentiates
        the first largest envelope, a unit row where the floor (A, or -g
        for Dirichlet data) binds, ties included; only that envelope's
        slope is evaluated."""
        slope, active = 0.0, None
        best = self.floor
        for i, e in enumerate(envs):
            if e > best:
                best, active = e, i
        node_row = [{} for _ in self.discs]
        if active is not None:
            d, u = self.discs[active], us[active]
            _, de = _value_and_slope(lambda q, x: d.env_node(q),
                                     (u[-1] - u[-2]) / d.h, 0.0)
            slope = float(de) / d.h
            node_row[active] = {d.edge.n_cells - 1: -slope}
        return blocks, node_row, 1.0 + slope

    def newton(self, z, tol, budget, flux):
        """newton() on the flat residual with unclamped slopes under flux:
        Howard's whole step on the Lax-Friedrichs scheme, a damped one on
        the Godunov min-max.

        The point callback evaluates each point once: one slope pass per
        edge feeds the theta lookup, the rows and the Jacobian. On the
        Lax-Friedrichs scheme the rows come with their partials from one
        value-and-slope evaluation of H per edge, and an edge whose theta
        is already at least its table's global_max skips the theta lookup:
        range_max never exceeds that bound, so the theta rule would leave
        theta as it is. A Godunov point computes its residual alone and its
        partials only when its step is built. The node row keeps the
        envelope values of its residual; the Jacobian evaluates the active
        envelope's slope alone."""
        lf = flux == "lax_friedrichs"

        def point(z, thetas, accepted):
            us = self.split(z)
            pairs = [d._slope_pairs(np.diff(u) / d.h)
                     for d, u in zip(self.discs, us)]
            thetas = thetas or [None] * len(us)
            if lf and accepted:
                thetas = [th if th is not None
                          and th.min() >= d.theta_tab.global_max
                          else raised_theta(th, d.required_theta(u, p))
                          for d, u, p, th in zip(self.discs, us, pairs,
                                                 thetas)]
            rows = [d.rows(u, th, flux, clamp=False, partials=lf, pairs=p)
                    for d, u, p, th in zip(self.discs, us, pairs, thetas)]
            envs = self.node_envelopes(us, z[-1], clamp=False)
            R = np.concatenate([r[:-1] for r, _ in rows]
                               + [[self.node_residual(us, z[-1], envs=envs)]])

            def step():
                blocks = [jac if jac is not None else
                          d.rows(u, th, flux, clamp=False, partials=True,
                                 pairs=p)[1]
                          for d, u, p, th, (_, jac) in zip(
                              self.discs, us, pairs, thetas, rows)]
                return solve_arrowhead(self.jacobian(us, blocks, envs), -R)
            return (thetas if lf else None), R, step

        return newton(point, z, tol, budget, damped=not lf)


def solve_arrowhead(jac, rhs):
    """Solve J x = rhs for a junction Jacobian jac = (blocks, node_row,
    node_diag) on the flat layout. Row j of edge i's block (sub, diag, sup)
    holds its entries in the edge's columns j - 1, j and j + 1, column n_i
    being the node; a fourth entry far2 is row 0's entry in column 2 (a
    Neumann stencil). node_row[i] maps edge i's columns to node-row entries.
    Each block is eliminated by the Thomas algorithm for two right-hand
    sides, its part of rhs and its node column, and the node value follows
    from the scalar Schur complement. Without pivoting, rows must be
    diagonally dominant, row 1 also after row 0 is folded into it; a zero
    or non-finite pivot gives NaN, which callers treat as a breakdown."""
    blocks, node_row, s_diag = jac
    rhs = rhs.tolist()
    s_rhs, parts, a = rhs[-1], [], 0
    inf = math.inf
    for (sub, diag, sup, *far2), row in zip(blocks, node_row):
        r = rhs[a:a + len(diag)]
        a += len(diag)
        sub, diag, sup = sub.tolist(), diag.tolist(), sup.tolist()
        # eliminating x_0 = d_0 - c_0 x_1 - e x_2 from row 1 moves e there
        e = far2[0] / diag[0] if far2 and diag[0] else 0.0
        sup[1] -= sub[1] * e
        c, d, cs, ds = 0.0, 0.0, [], []
        for aj, bj, sj, rj in zip(sub, diag, sup, r):
            piv = bj - aj * c
            if not 0.0 < abs(piv) < inf:
                return np.full(len(rhs), np.nan)
            c = sj / piv
            d = (rj - aj * d) / piv
            cs.append(c)
            ds.append(d)
        # x_j = y_j - w_j x_node; column n is the node: y_n = 0, w_n = -1
        y, yj = [0.0], 0.0
        for c, d in zip(reversed(cs), reversed(ds)):
            yj = d - c * yj
            y.append(yj)
        y = np.array(y[::-1])
        w = np.append(-np.cumprod(np.negative(cs[::-1]))[::-1], -1.0)
        y[0], w[0] = y[0] - e * y[2], w[0] - e * w[2]
        s_rhs -= sum(v * y[j] for j, v in row.items())
        s_diag -= sum(v * w[j] for j, v in row.items())
        parts.append((y[:-1], w[:-1]))
    if not 0.0 < abs(s_diag) < inf:
        return np.full(len(rhs), np.nan)
    x0 = s_rhs / s_diag
    return np.concatenate([y - x0 * w for y, w in parts] + [[x0]])


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def newton(point, z, tol, budget, damped=True):
    """The package's one Newton loop, for R(z) = 0; returns (z, theta,
    steps, res, status) with res = max|R| at z and status "converged"
    (res <= tol), "max_iters" (budget steps taken) or "breakdown".

    point(z, theta, accepted) evaluates the system at z given the theta
    held so far (None at the start) and returns (theta, R, step): the
    theta of the point, None for a system without one, the residual R
    there, and step(), which builds the Newton step -J^-1 R at z when it
    is called. newton calls step only at accepted points, so a rejected
    trial costs one residual and no Jacobian. A system with a
    dissipation coefficient raises theta inside point at accepted points
    (edge.raised_theta), and hands a trial's theta back as given. A
    damped step is halved, down to MIN_STEP, until max|R| strictly
    decreases; an undamped one is taken whole. An accepted damped trial
    is evaluated again as an accepted point only when the system carries
    a theta; otherwise its R and step are kept. A non-finite residual,
    one BREAKDOWN_GROWTH times above its start (or 1), and a line search
    that fails at MIN_STEP are breakdowns. A breakdown or the step cap
    returns the accepted point of least res that passed this test, with
    its theta: an undamped step to a non-finite point is undone, and an
    undamped solve that drifts away from its fixed point returns the
    point nearest to it. A converged solve, and a damped one at fixed
    theta, end at that point anyway."""
    theta, R, step = point(z, None, True)
    steps, best = 0, None
    while True:
        res = float(np.max(np.abs(R)))
        if not steps:
            res_start = res
        if not np.isfinite(res) or \
                res > BREAKDOWN_GROWTH * max(res_start, 1.0):
            z, theta, res = best or (z, theta, res)
            return z, theta, steps, res, "breakdown"
        if best is None or res < best[2]:
            best = z, theta, res
        if res <= tol:
            return z, theta, steps, res, "converged"
        if steps >= budget:
            z, theta, res = best
            return z, theta, steps, res, "max_iters"
        dz = step()
        lam = 1.0
        z_new = z + dz
        while damped:
            _, R, step = point(z_new, theta, False)
            if np.max(np.abs(R)) < res:
                break
            lam *= 0.5
            if lam < MIN_STEP:
                z, theta, res = best
                return z, theta, steps, res, "breakdown"
            z_new = z + lam * dz
        z = z_new
        steps += 1
        if not damped or theta is not None:
            theta, R, step = point(z, theta, True)


def _coarse_factors(n):
    """Cell-count divisors of the cascade's coarse levels, coarsest first,
    for a smallest edge of n cells. The coarsest halves the grid until that
    edge has 8-15 cells, so its size does not grow with n; above it come
    the powers of 4 below that divisor, ..., 16, 4. An edge of fewer than
    16 cells gets no coarse level."""
    top = 1
    while n // top >= 16:
        top *= 2
    j = top.bit_length() - 1
    return ([top] if j else []) + [4 ** k for k in range((j - 1) // 2, 0, -1)]


def _cascade(jd, params, flux):
    """Solve jd level by level under flux, each level started from the
    previous one's answer: the levels of _coarse_factors (a coarsest one of
    8-15 cells on the smallest edge, then n/4^k, ..., n/16, n/4 above it)
    and last the finest grid.

    Newton solves each level, at most min(MAX_LEVEL_STEPS, what is left of
    max_iters) steps per level. On the Lax-Friedrichs scheme it starts the
    coarsest level at the constant super-solution; a level that reaches
    the step cap seeds the next one with its best point. On the Godunov
    scheme Newton has no start on the coarsest level, because from a
    constant Newton on the min-max flux does not converge: the sweeps solve
    that level. They also solve any Godunov level where Newton breaks down
    or hits its step cap, and the cascade goes on from their answer,
    flagged "newton_fallback". A Lax-Friedrichs breakdown ends the solve,
    flagged "newton_stalled": its
    best finite iterate is carried to the finest grid, with theta None if
    it stopped on a coarse level. On the finest grid the clamped residual
    under flux must meet tol too, or Newton has broken down there; where
    no slope reaches the clamp span it is Newton's own residual, and is
    not evaluated again.

    Returns (z, thetas, res, levels, flags) with res the clamped residual
    of z and levels (cells of the first edge, Newton steps + sweeps) per
    level solved."""
    systems = [jd.coarsened(f) for f in _coarse_factors(
        min(d.edge.n_cells for d in jd.discs))] + [jd]
    levels, flags = [], []
    z, thetas, steps, status = None, None, 0, None
    for k, s in enumerate(systems):
        tol = params.tol if s is jd else max(params.tol, COARSE_TOL)
        if k:
            z = s.interpolate(systems[k - 1], z)
        elif flux == "lax_friedrichs":
            z = np.full(s.size, max(d.super_level for d in s.discs))
        if status == "breakdown":
            # a stalled Lax-Friedrichs solve only carries its iterate up
            thetas = None
            continue
        n, status = 0, None
        if z is not None:
            budget = min(params.max_iters - steps, MAX_LEVEL_STEPS)
            z, thetas, n, res, status = s.newton(z, tol, budget, flux)
            steps += n
        if s is jd and status in ("converged", "max_iters") \
                and not jd.clamp_inactive(z):
            # Newton's residual leaves the slopes unclamped, which is the
            # clamped residual unless some slope reaches the clamp span
            res = jd.max_residual(*jd.residuals(
                jd.split(z), float(z[-1]), thetas=thetas, flux=flux))
            if status == "converged" and res > tol:
                status = "breakdown"
        if flux == "godunov" and status != "converged":
            if status:
                flags.append("newton_fallback")
            us, u0, sweeps, res, flag = _sweeps(s, tol)
            z, n, status = s.join(us, u0), n + sweeps, None
            flags += [flag] if flag else []
        levels.append((s.discs[0].edge.n_cells, n))
    if status == "breakdown":
        flags.append("newton_stalled")
        res = jd.max_residual(*jd.residuals(
            jd.split(z), float(z[-1]), thetas=thetas, flux=flux))
    elif status == "max_iters":
        flags.append("max_iters")
    return z, thetas, res, tuple(levels), list(dict.fromkeys(flags))


def _sweeps(jd, tol):
    """Godunov Gauss-Seidel sweeps from the constant super-solution, which
    they descend from. A sweep is the forward pass of every edge (far end
    -> node), then the node row's solve, then the backward pass of every
    edge (node -> far end), which carries the new node value outward, so
    information follows the characteristics both ways, as in fast
    sweeping (Zhao, Math. Comp. 2005). In the first forward pass each row
    starts its nodal solve from its upwind neighbour's slope extrapolation
    instead of the super-solution level (see
    EdgeDiscretization.gauss_seidel_sweep). Returns (us, u0, sweeps,
    residual, flag) with flag None, "sweep_stalled" or "max_iters"
    (MAX_SWEEPS reached)."""
    level = max(d.super_level for d in jd.discs)
    us, u0 = jd.split(np.full(jd.size, level)), level
    sweeps = 0
    res = np.inf
    best = np.inf
    stall = 0
    while sweeps < MAX_SWEEPS:
        for d, u in zip(jd.discs, us):
            d.gauss_seidel_sweep(u, tol, forward=True, start=level)
        u0 = _solve_increasing(
            lambda v: jd.node_residual(us, v), u0, 0.1 * tol)
        for u in us:
            u[-1] = u0
        for d, u in zip(jd.discs, us):
            d.gauss_seidel_sweep(u, tol, forward=False, start=level)
        sweeps += 1
        Rs, r0 = jd.residuals(us, u0, flux="godunov")
        res = jd.max_residual(Rs, r0)
        if res <= tol:
            return us, u0, sweeps, res, None
        if res < 0.999 * best:
            best, stall = res, 0
        else:
            stall += 1
            if stall >= 60:
                return us, u0, sweeps, res, "sweep_stalled"
    return us, u0, sweeps, res, "max_iters"


def solve_system(problem, params=None):
    """Solve the junction system of problem -- state-constraint,
    flux-limited or Dirichlet node -- by the cascade (see _cascade) and
    report what was done: method "newton" on the Lax-Friedrichs scheme
    when every Hamiltonian is convex, "godunov_newton" on the Godunov
    scheme otherwise. The scheme never changes during a solve. A Newton
    breakdown is a non-finite residual, one that grows by
    BREAKDOWN_GROWTH, a failed Godunov line search, or an answer whose
    clamped residual under its own flux misses the tolerance; the sweeps
    finish a Godunov level that breaks down or hits its step cap. Every
    solve starts cold, on a coarsest level of 8-15 cells on the smallest
    edge for any n: Newton from the constant super-solution under
    Lax-Friedrichs, the sweeps from it under Godunov. "lipschitz_exceeded"
    is flagged once when any edge's answer overruns its bound 2P."""
    params = params or SolverParams()
    t0 = time.perf_counter()
    jd = JunctionDiscretization(problem)
    convex = all(H.flags.convex for H in problem.hamiltonians)
    flux = "lax_friedrichs" if convex else "godunov"
    z, thetas, res, levels, flags = _cascade(jd, params, flux)
    us, u0 = jd.split(z), float(z[-1])
    grids = [GridFunction1D(u, e, "generic")
             for u, e in zip(us, problem.edges)]
    if any(g.discrete_lipschitz() > 2.0 * H.coercivity_bound + 1e-6
           for g, H in zip(grids, problem.hamiltonians)):
        flags.append("lipschitz_exceeded")
    rep = SolveReport(
        iterations=sum(count for _, count in levels), final_residual=res,
        converged=res <= params.tol and "newton_stalled" not in flags,
        wall_time=time.perf_counter() - t0,
        method="newton" if convex else "godunov_newton", flux=flux,
        flags=tuple(flags), theta=thetas, levels=levels)
    return JunctionGridFunction(grids, u0), rep


def junction_scheme_residuals(sol, problem, report):
    """Re-evaluate the discrete residuals of a junction solution with the
    flux and dissipation coefficients recorded in its report."""
    jd = JunctionDiscretization(problem)
    us = [g.values for g in sol.per_edge]
    return jd.residuals(us, sol.node_value, thetas=report.theta,
                        flux=report.flux)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_junction_direct(problem, params=None):
    """State-constraint junction solution via the coupled monotone node
    scheme."""
    if not isinstance(problem.junction_condition, StateConstraint):
        raise ValueError("solve_junction_direct expects a state-constraint "
                         "junction condition")
    return solve_system(problem, params)


def solve_junction_constructive(problem, params=None):
    """State-constraint junction solution assembled from per-edge solves.

    Each edge's own constrained solution is computed first; the junction
    value is the smallest of their node values; edges whose node value
    exceeds it by more than 2h are re-solved with the junction value as
    Dirichlet data. The re-solves start cold: from the state-constraint
    solution Newton would move the policy switch a cell or two per step.
    The report lists each flag of the edge solves once and the levels of
    every edge solve, in solve order."""
    if not isinstance(problem.junction_condition, StateConstraint):
        raise ValueError("solve_junction_constructive expects a "
                         "state-constraint junction condition")
    t0 = time.perf_counter()
    params = params or SolverParams()

    sc = [solve_edge(H, e, StateConstraint(), params)
          for H, e in zip(problem.hamiltonians, problem.edges)]
    sc_values = [g.node_value for g, _ in sc]
    c_star = min(sc_values)

    grids = []
    reports = [rep for _, rep in sc]
    for (g, rep), H, e, v in zip(sc, problem.hamiltonians, problem.edges,
                                 sc_values):
        if v - c_star <= 2.0 * e.h:
            kept = g.copy()
            kept.values[-1] = c_star
            grids.append(kept)
        else:
            gd, rd = solve_edge(H, e, Dirichlet(c_star), params)
            gd.values[-1] = c_star
            grids.append(gd)
            reports.append(rd)

    sol = JunctionGridFunction(grids, c_star)
    rep = SolveReport(
        iterations=sum(r.iterations for r in reports),
        final_residual=max(r.final_residual for r in reports),
        converged=all(r.converged for r in reports),
        wall_time=time.perf_counter() - t0,
        method="constructive",
        flux="+".join(dict.fromkeys(r.flux for r in reports)),
        flags=tuple(dict.fromkeys(f for r in reports for f in r.flags)),
        levels=tuple(lv for r in reports for lv in r.levels),
    )
    return sol, rep


def solve_flux_limited(problem, params=None):
    """Flux-limited junction solution for quasiconvex Hamiltonians with no
    flat parts; the node residual carries the limiter floor A."""
    if not isinstance(problem.junction_condition, FluxLimited):
        raise ValueError("solve_flux_limited expects a flux-limited "
                         "junction condition")
    for H in problem.hamiltonians:
        if len(H.minima) != 1 or not H.flags.no_flat_parts:
            raise ValueError(
                "flux-limited junction requires quasiconvex Hamiltonians "
                f"with no flat parts, got {H.source}")
    return solve_system(problem, params)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def node_diagnostics(sol: JunctionGridFunction, problem: JunctionProblem):
    """Junction-side diagnostics of a solved (or candidate) grid function.

    The state-constraint residual uses the scheme's own first-order inward
    quotients, so it vanishes (to solver tolerance) on converged direct
    solutions; the reported slopes are the order-2 one-sided values, and
    the one-sided quotients span up to 4 cells."""
    cond = problem.junction_condition
    jd = JunctionDiscretization(problem)
    jd.floor = -np.inf  # the state-constraint row: no flux-limiter floor A
    us = [g.values for g in sol.per_edge]
    sc_res = jd.node_residual(us, sol.node_value)

    slopes = tuple(node_slope(g) for g in sol.per_edge)
    flux_res = None
    if isinstance(cond, FluxLimited):
        lim = make_flux_limiter(problem.hamiltonians, cond.A)
        flux_res = float(sol.node_value + lim(list(slopes)))

    bars, unders = [], []
    for g in sol.per_edge:
        b, un = one_sided_quotients(g, window=4)
        bars.append(b)
        unders.append(un)
    return NodeDiagnostics(
        node_value=sol.node_value,
        slopes=slopes,
        sc_residual=float(sc_res),
        flux_residual=flux_res,
        kirchhoff_sum=float(sum(slopes)),
        p_bar_list=tuple(bars),
        p_under_list=tuple(unders),
    )


def compare_grid_functions(v: JunctionGridFunction, u: JunctionGridFunction):
    """Max over all grid nodes of v - u (positive means v exceeds u)."""
    if v.k != u.k:
        raise ValueError("grid mismatch: different edge counts")
    worst = -np.inf
    for gv, gu in zip(v.per_edge, u.per_edge):
        if gv.values.shape != gu.values.shape or gv.edge.length != gu.edge.length:
            raise ValueError("grid mismatch: incompatible edge grids")
        worst = max(worst, float(np.max(gv.values - gu.values)))
    return worst


@dataclass
class SlopeBoundReport:
    matches_state_constraint: bool
    sc_distance: float
    p_bar: float
    threshold: float
    slope_bound_ok: bool
    interior_max_residual: float

    @property
    def ok(self):
        return self.matches_state_constraint or self.slope_bound_ok


def subsolution_slope_bound_check(u: GridFunction1D, H: Hamiltonian):
    """Check the subsolution dichotomy: either u is (numerically) the
    state-constraint solution of its edge, or its one-sided upper quotient
    at the junction stays below the rightmost global minimizer of H; both
    to within 5e-2, the quotient over up to 4 cells."""
    u_sc, _ = solve_edge(H, u.edge, StateConstraint(), SolverParams())
    dist = float(np.max(np.abs(u.values - u_sc.values)))
    p_bar, _ = one_sided_quotients(u, window=4)
    pbar_thresh = rightward_min_threshold(H)
    disc = EdgeDiscretization(H, u.edge, "external")
    R, _ = disc.residual(u.values)
    interior = float(np.max(R[1:-1]))
    return SlopeBoundReport(
        matches_state_constraint=dist <= 5e-2,
        sc_distance=dist,
        p_bar=p_bar,
        threshold=pbar_thresh,
        slope_bound_ok=p_bar <= pbar_thresh + 5e-2,
        interior_max_residual=interior,
    )
