"""Monotone finite differences for u + H(u_x, x) = 0 on a single edge (-a, 0).

The scheme is Lax-Friedrichs with a per-point dissipation coefficient
theta_j bounding |dH/dp| over the locally encountered slope range:

    R_j = u_j + H((p- + p+)/2, x_j) - (theta_j / 2)(p+ - p-).

Boundary rows replace the flux with the binding-test-slope construction: at
the junction end x = 0 the admissible test slopes are q >= p_in =
(u_n - u_{n-1})/h and the residual uses min over q in [p_in, P] of H(q, 0);
at the far end the mirrored prefix envelope is used. Dirichlet rows pin the
value; a Neumann row supplies a ghost slope. pseudo_time_step, the explicit
relaxation u <- u - dt R with dt_j = CFL * h / (theta_j + h), defines the
scheme's monotonicity.

This module holds the edge block of that system. EdgeDiscretization.rows
is its one row formula: it turns a state into its residual rows under
either flux and, when asked, the tridiagonal Jacobian the Newton driver
needs (each flux's partial derivatives, from the same evaluation of H).
residual reads it, and so does the Newton path, which takes one slope
pass per point for it and required_theta and raises theta by
raised_theta, the package's one theta rule. The module also holds the
nonlinear Gauss-Seidel sweep. The sampled-Godunov flux is a different
monotone scheme with its own fixed point; it agrees with Lax-Friedrichs
to O(h) in the interior but not inside boundary layers, so every report
names the flux that produced its answer. The driver itself lives in
junction.py: an edge solve is a K = 1 junction whose node row is the
state-constraint envelope or a pinned Dirichlet value.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hamiltonians import (
    Hamiltonian,
    SlopeEnvelope,
    SlopeLipschitzTable,
    find_minima,
)

THETA_PAD = 1.0
# Courant number of the pseudo-time step
CFL = 0.9
# interval fractions t of the Godunov flux's midpoint samples lo + t (hi - lo)
GODUNOV_MIDPOINTS = (0.25, 0.5, 0.75)


def raised_theta(theta, req):
    """The theta rule of every Lax-Friedrichs Newton solve: theta (None at
    the start) raised to 1.02 req + 0.01 wherever the required req exceeds
    it, never lowered, so every linear system stays an M-matrix."""
    theta = -np.inf if theta is None else theta
    return np.where(req > theta, 1.02 * req + 0.01, theta)


# ---------------------------------------------------------------------------
# boundary conditions and basic containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dirichlet:
    value: float


@dataclass(frozen=True)
class Neumann:
    slope: float


@dataclass(frozen=True)
class StateConstraint:
    pass


@dataclass(frozen=True)
class EdgeSpec:
    """Geometry of one edge: the interval (-length, 0) with n_cells cells."""

    length: float
    n_cells: int
    far_bc: object = Neumann(0.0)

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("edge length must be positive")
        if self.n_cells < 8:
            raise ValueError("n_cells must be >= 8")
        if not isinstance(self.far_bc, (Dirichlet, Neumann, StateConstraint)):
            raise ValueError(f"unsupported far boundary condition {self.far_bc!r}")

    @property
    def h(self):
        return self.length / self.n_cells

    def grid(self):
        return -self.length + self.h * np.arange(self.n_cells + 1)


@dataclass
class GridFunction1D:
    """Nodal values u_0..u_n on an edge grid; u_n sits at the junction x=0."""

    values: np.ndarray
    edge: EdgeSpec
    role: str = "generic"

    @property
    def node_value(self):
        return float(self.values[-1])

    def discrete_lipschitz(self):
        return float(np.max(np.abs(np.diff(self.values))) / self.edge.h)

    def copy(self):
        return GridFunction1D(self.values.copy(), self.edge, self.role)


@dataclass
class SolveReport:
    """What one solve did.

    method names the driver: "newton" (the Newton cascade on the
    Lax-Friedrichs scheme), "godunov_newton" (the cascade on the Godunov
    scheme, whose sweeps solve the coarsest level, of 8-15 cells on the
    smallest edge, and any level Newton could not), "constructive",
    "newton_2d" for the 2-D tube, and "newton" for the viscous system of
    viscous.solve_viscous_kirchhoff.
    flux names the scheme whose fixed point was sought: "lax_friedrichs",
    "godunov", or "central" for the viscous system; a solve never changes
    it. iterations counts Newton steps and Gauss-Seidel sweeps over every
    cascade level or continuation stage. flags lists every cap, stall and
    rescue: "max_iters", "sweep_stalled", "newton_stalled" (a
    Lax-Friedrichs or 2-D Newton breakdown, which ends the solve),
    "newton_fallback" (the sweeps finished a Godunov level after a Newton
    breakdown or step cap), "lipschitz_exceeded" (once, however many
    edges overrun), "dirichlet_not_attained".
    """

    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    method: str
    flux: str = "lax_friedrichs"
    flags: tuple = ()
    # dissipation coefficients of the Lax-Friedrichs scheme at the answer:
    # one array per edge, or per slope direction for the 2-D tube; None
    # under the Godunov flux and after a 1-D breakdown on a coarse level
    theta: Optional[list] = None
    # (cells of the first edge, Newton steps + sweeps) per coarse-to-fine
    # level; for the viscous system (eps, Newton steps) per continuation
    # stage
    levels: tuple = ()


@dataclass(frozen=True)
class SolverParams:
    """Stopping rule of the 1-D solves: tol bounds max|R| and max_iters
    caps the Newton steps; junction.MAX_SWEEPS caps the sweeps and
    junction.MAX_GODUNOV_STEPS each Godunov level. The flux follows from
    the Hamiltonians (see junction.solve_system)."""

    tol: float = 1e-8
    max_iters: int = 200_000

    def __post_init__(self):
        check_stopping_rule(self)


def check_stopping_rule(params):
    """Reject a tol that is not finite and positive, which no residual
    ever meets, and a negative step cap."""
    if not 0.0 < params.tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {params.tol!r}")
    if params.max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {params.max_iters!r}")


# ---------------------------------------------------------------------------
# discretization context
# ---------------------------------------------------------------------------

def _pinned_rows(edge, node_bc):
    pinned = np.zeros(edge.n_cells + 1, dtype=bool)
    pinned[0] = isinstance(edge.far_bc, Dirichlet)
    pinned[-1] = isinstance(node_bc, Dirichlet) or node_bc == "external"
    return pinned


# the slope tables, envelopes and super-solution level of each
# (Hamiltonian, edge) pair, as {H: {EdgeSpec: tables}}; an entry goes when
# its Hamiltonian is freed, so the tables must hold no reference back to H
_TABLES = weakref.WeakKeyDictionary()


def _edge_tables(H, edge):
    """(theta_tab, crit, super_level, env_node, env_far) of H on the edge,
    built on the first request and shared by every later one."""
    per_edge = _TABLES.setdefault(H, {})
    tables = per_edge.get(edge)
    if tables is not None:
        return tables
    x = edge.grid()
    xs = x[:: max(1, edge.n_cells // 24)]
    P = H.coercivity_bound
    theta_tab = SlopeLipschitzTable(H, xs, span=2.0 * P + 2.0)
    # interior critical slopes of H(., 0): Godunov candidate set
    maxima = find_minima(lambda p, x: -np.asarray(H.fn(p, x)), P,
                         resolution=2048)
    crit = np.unique(np.concatenate(
        [np.asarray(H.minima, dtype=float), maxima]))
    # constant upper barrier: u = super_level is a discrete super-solution
    qs = np.linspace(-P, P, 2049)
    hmin = float(np.min(H(qs[None, :], xs[:, None])))
    # the node envelope is built even for a Dirichlet node: a later
    # discretization of the same pair may own the node row
    env_node = SlopeEnvelope(H, x0=0.0, side="right")
    env_far = None
    if isinstance(edge.far_bc, StateConstraint):
        env_far = SlopeEnvelope(H, x0=float(x[0]), side="left")
    tables = (theta_tab, crit, -hmin + 1.0, env_node, env_far)
    per_edge[edge] = tables
    return tables


class EdgeDiscretization:
    """Precomputed tables and residual evaluation for one edge.

    node_bc may be Dirichlet, StateConstraint, or the string "external"
    (the junction solver owns the node row). The slope tables, envelopes
    and the super-solution level depend only on the Hamiltonian and the
    edge: they are built once per (H, edge) pair, shared by every
    discretization of that pair, and live as long as H does."""

    def __init__(self, H: Hamiltonian, edge: EdgeSpec, node_bc):
        self.H = H
        self.edge = edge
        self.node_bc = node_bc
        self.x = edge.grid()
        self.h = edge.h
        (self.theta_tab, self.crit, self.super_level, self.env_node,
         self.env_far) = _edge_tables(H, edge)
        self.pinned = _pinned_rows(edge, node_bc)

    def on_edge(self, edge):
        """The same Hamiltonian and node condition on the grid of edge,
        sharing this discretization's tables, which are built once per
        Hamiltonian and edge and live as long as the Hamiltonian: the
        coarse levels of the Newton cascade and the fattening study's trace
        checks cost no set-up. The far row keeps this edge's envelope."""
        c = copy.copy(self)
        c.edge = edge
        c.x = edge.grid()
        c.h = edge.h
        c.pinned = _pinned_rows(edge, self.node_bc)
        return c

    # -- vectorized residual ------------------------------------------------

    def _slope_pairs(self, p):
        """(p-, p+) of rows 0..n-1 for the edge slopes p: row j's flux
        reads F(p_{j-1}, p_j), and row 0's p- is the ghost slope of a
        Neumann far end, or p_0 where row 0 is not a flux row."""
        far = self.edge.far_bc
        g = far.slope if isinstance(far, Neumann) else p[0]
        return np.concatenate(([g], p[:-1])), p

    def required_theta(self, u, pairs=None):
        """Smallest admissible dissipation per row: theta_j bounds |dH/dp|
        over [min(p-, p+) - pad, max(p-, p+) + pad] at the state u. pairs,
        the (p-, p+) of _slope_pairs at u, saves the slope pass."""
        pm, pp = pairs or self._slope_pairs(np.diff(u) / self.h)
        lo = np.concatenate((np.minimum(pm, pp), pp[-1:]))
        hi = np.concatenate((np.maximum(pm, pp), pp[-1:]))
        return self.theta_tab.range_max(lo - THETA_PAD, hi + THETA_PAD)

    def godunov_candidates(self, pm, pp):
        """The slopes the Godunov flux compares, stacked along axis 0: the
        two endpoints p- and p+, the critical slopes of H(., 0) clipped to
        [lo, hi] = [min, max](p-, p+), and the midpoint samples
        lo + t (hi - lo) (cover for x-dependent H whose critical slopes
        drift)."""
        lo = np.minimum(pm, pp)
        hi = np.maximum(pm, pp)
        k = len(self.crit) + 2
        cands = np.empty((k + len(GODUNOV_MIDPOINTS),) + np.shape(lo))
        cands[0], cands[1] = pm, pp
        cands[2:k] = np.minimum(np.maximum.outer(self.crit, lo), hi)
        cands[k:] = lo + np.multiply.outer(GODUNOV_MIDPOINTS, hi - lo)
        return cands

    def godunov_flux(self, pm, pp, x):
        """Sampled-Godunov numerical Hamiltonian: min of H over [p-, p+]
        when p- <= p+, max over [p+, p-] otherwise, taken over
        godunov_candidates. A scalar call returns a float."""
        vals = np.asarray(self.H(self.godunov_candidates(pm, pp), x))
        out = np.where(np.asarray(pm) <= np.asarray(pp), vals.min(axis=0),
                       vals.max(axis=0))
        return out if out.shape else float(out)

    def _godunov_slopes(self, pm, pp, x):
        """The Godunov flux G(p-, p+) of godunov_flux, the value of the
        selected candidate, and its generalised derivatives (G_m, G_p) =
        (dG/dp-, dG/dp+), from one evaluation of the candidates. The
        derivatives are taken from the selected candidate:
        H' there, with weight 1 on the endpoint it moves with (an endpoint,
        or a critical slope clipped to lo or hi), 0 for an interior
        critical slope, and (1 - t, t) on (lo, hi) for a midpoint sample.
        Where p- = p+ the derivative goes upwind by the sign of H'. The
        projection G_m >= 0 >= G_p keeps every row an M-matrix row where
        the samples miss a monotone selection. pm and pp are 1-D arrays
        of one length."""
        cands = self.godunov_candidates(pm, pp)
        vals, dH = _value_and_slope(self.H, cands, x)
        lo, hi = np.minimum(pm, pp), np.maximum(pm, pp)
        crit = np.reshape(self.crit, (-1, 1))
        t = np.broadcast_to(np.reshape(GODUNOV_MIDPOINTS, (-1, 1)),
                            (len(GODUNOV_MIDPOINTS), len(pm)))
        # weights on lo and hi, in the row order of godunov_candidates
        up = pm <= pp
        w_lo = np.concatenate([[up, ~up], crit <= lo, 1.0 - t])
        w_hi = np.concatenate([[~up, up], crit >= hi, t])
        k = np.where(up, vals.argmin(axis=0), vals.argmax(axis=0))[None]
        G, d, wl, wh = (np.take_along_axis(a, k, axis=0)[0]
                        for a in (vals, dH, w_lo, w_hi))
        tie = pm == pp
        Gm = d * np.where(tie, 1.0, np.where(up, wl, wh))
        Gp = d * np.where(tie, 1.0, np.where(up, wh, wl))
        return G, np.maximum(Gm, 0.0), np.minimum(Gp, 0.0)

    def rows(self, u, theta, flux, clamp=True, partials=False, pairs=None):
        """The residual of the state u under flux, R (rows 0..n), and with
        partials its tridiagonal Jacobian (sub, diag, sup) of rows 0..n-1,
        else None: the one definition of every edge row, which residual
        and the Newton path of junction.py read.

        Row j < n is u_j + F(p-, p+) with the slopes of _slope_pairs (pairs
        saves that pass), a state-constraint far row u_0 + env_far(p_0), a
        state-constraint node row u_n + env_node(p_{n-1}). Pinned rows
        report zero. theta, one value per row, is the Lax-Friedrichs
        dissipation: F = H((p- + p+)/2) - (theta/2)(p+ - p-). The Godunov
        flux F is that of godunov_flux and uses no theta (pass None).

        Slope arguments of H are clamped to the tabulated span unless clamp
        is False, as on the Newton path: transient slopes beyond it would
        outrun the dissipation bound (the clamp is inactive at the fixed
        point, whose slopes obey the Lipschitz bound). The dissipation reads
        the unclamped slopes.

        The Jacobian rows are sub = -F_m/h, diag = 1 + (F_m - F_p)/h and
        sup = F_p/h, an M-matrix row with unit row sum when F_m >= 0 >=
        F_p, with the partials F_m = dF/dp-, F_p = dF/dp+ taken at the
        slopes the rows read: (dH/dp +- theta)/2 for Lax-Friedrichs, dH/dp
        one central difference at the averaged slope (a subgradient at a
        kink), and the generalised derivatives of _godunov_slopes for
        Godunov. H, or the Godunov candidates, and env_far are then
        evaluated once each, as a value-and-slope stack. Row 0's p- is the
        Neumann ghost slope, so F_m = 0 there; at a state-constraint far
        end F is env_far(p+), and a pinned Dirichlet far row has F_p = 0
        too, an identity row."""
        h = self.h
        n = self.edge.n_cells
        pm, pp = pairs or self._slope_pairs(np.diff(u) / h)
        cm, cp = pm, pp
        if clamp:
            S = self.theta_tab.span
            cm, cp = self._slope_pairs(np.clip(pp, -S, S))
        x = self.x[:-1]
        R = np.zeros(n + 1)
        if flux == "godunov":
            if partials:
                F, Fm, Fp = self._godunov_slopes(cm, cp, x)
            else:
                F = self.godunov_flux(cm, cp, x)
            R[:-1] = u[:-1] + F
        else:
            pbar = 0.5 * (cm + cp)
            if partials:
                Hbar, dH = _value_and_slope(self.H, pbar, x)
                Fm, Fp = 0.5 * (dH + theta[:-1]), 0.5 * (dH - theta[:-1])
            else:
                Hbar = np.asarray(self.H(pbar, x))
            R[:-1] = u[:-1] + Hbar - 0.5 * theta[:-1] * (pp - pm)
        far = self.edge.far_bc
        if isinstance(far, StateConstraint):
            if partials:
                e, Fp[0] = _value_and_slope(lambda q, x: self.env_far(q),
                                            cp[0], 0.0)
            else:
                e = self.env_far(float(cp[0]))
            R[0] = u[0] + e
        if isinstance(self.node_bc, StateConstraint):
            R[n] = u[n] + self.env_node(float(cp[-1]))
        R[self.pinned] = 0.0
        if not partials:
            return R, None
        Fm[0] = 0.0
        if isinstance(far, Dirichlet):
            Fp[0] = 0.0
        return R, (-Fm / h, 1.0 + (Fm - Fp) / h, Fp / h)

    def residual(self, u, theta=None, flux="lax_friedrichs"):
        """The residual vector of rows (rows 0..n), slopes clamped, and the
        per-point theta actually used. theta, when given, must cover
        interior points (used by the monotonicity property tests); otherwise
        Lax-Friedrichs uses required_theta(u). The Godunov flux uses no
        theta, so it returns theta as given, or None."""
        pairs = self._slope_pairs(np.diff(u) / self.h)
        if theta is not None:
            th = np.full(self.edge.n_cells + 1, theta, dtype=float)
        elif flux == "godunov":
            th = None
        else:
            th = self.required_theta(u, pairs)
        return self.rows(u, th, flux, pairs=pairs)[0], th

    def pseudo_time_step(self, u, theta=None):
        """One Jacobi relaxation step; returns (u_new, residual, dt_min)."""
        R, th = self.residual(u, theta=theta)
        dt = CFL * self.h / (th + self.h)
        u_new = u - dt * R
        u_new[self.pinned] = u[self.pinned]
        active = ~self.pinned
        return u_new, R, float(dt[active].min()) if active.any() else 0.0

    # -- scalar nodal equations (Gauss-Seidel driver) -------------------------

    def nodal_residual(self, u, j, v):
        """Godunov residual of row j with the center value replaced by v,
        for a scalar v (a float back) or an array of trial values (one
        residual each, from one flux evaluation).

        Slope arguments of H are clamped to the tabulated span; linear
        penalty terms keep the map strictly increasing in v (slope >= 1)
        and finite for any candidate value."""
        h = self.h
        S = self.theta_tab.span
        v = np.asarray(v, dtype=float)
        clamp = lambda q: np.minimum(np.maximum(q, -S), S)
        excess = lambda q: np.maximum(q - S, 0.0)
        if j == 0:
            far = self.edge.far_bc
            pp = (u[1] - v) / h
            if isinstance(far, Neumann):
                r = v + self.godunov_flux(far.slope, clamp(pp), self.x[0]) \
                    + excess(-pp)
            else:
                r = v + self.env_far(clamp(pp)) + excess(-pp)
        else:
            pm = (v - u[j - 1]) / h
            pp = (u[j + 1] - v) / h
            r = v + self.godunov_flux(clamp(pm), clamp(pp), self.x[j]) \
                + excess(pm) + excess(-pp)
        return r if r.shape else float(r)

    def gauss_seidel_sweep(self, u, tol, forward, start):
        """One Godunov Gauss-Seidel pass over the free rows in place, far
        end -> node when forward, node -> far end otherwise; the junction
        solver owns the node row. Each row's nodal equation is solved to
        0.1 tol by _solve_increasing, which evaluates nodal_residual at a
        value and its two difference neighbours in one call per Newton
        step. In a forward pass a row that still holds the start level
        starts its solve from its upwind neighbour's slope extrapolation,
        min(start, 2 u_{j-1} - u_{j-2}), or u_0 at row 1, instead of from
        start; the row's root is unique, so only the solve's path changes."""
        n = self.edge.n_cells
        for j in range(n) if forward else range(n - 1, -1, -1):
            if self.pinned[j]:
                continue
            v0 = u[j]
            if forward and j and v0 == start:
                v0 = min(start, 2.0 * u[j - 1] - u[j - 2] if j > 1 else u[0])
            u[j] = _solve_increasing(
                lambda w: self.nodal_residual(u, j, w), v0, 0.1 * tol)


def _value_and_slope(f, p, x):
    """f(p, x) and a central difference in p with step 1e-7 (1 + |p|), from
    one vectorized evaluation."""
    p = np.asarray(p, dtype=float)
    d = 1e-7 * (1.0 + np.abs(p))
    v = np.asarray(f(np.array((p, p + d, p - d)), x), dtype=float)
    return v[0], (v[1] - v[2]) / (2.0 * d)


def _solve_increasing(f, v0, tol):
    """Root of a strictly increasing scalar function with slope >= 1, by
    safeguarded Newton after rtsafe (Press et al., Numerical Recipes).

    f maps an array of trial values to their residuals; each step takes
    f and its central difference from one call. The slope bound places
    the root within |f(v0)| of v0, so that bracket needs no evaluation;
    every new value narrows it by its sign. A Newton step that leaves the
    bracket bisects instead, and so does one that shows no progress: its
    size is more than half the step before the last one and |f| has not
    halved since the previous value. The search stops at |f| <= tol or a
    bracket of relative width 1e-14, and after 100 steps returns the
    bracket's midpoint."""
    def value_and_slope(v):
        return _value_and_slope(lambda w, _: f(w), v, None)

    v = v0
    fv, df = value_and_slope(v)
    if abs(fv) <= tol:
        return v0
    width = abs(fv) * (1.0 + 1e-12) + 1e-15
    lo, hi = (v - width, v) if fv > 0 else (v, v + width)
    step = last = width
    f_prev = np.inf
    for _ in range(100):
        progress = abs(fv) <= 0.5 * max(f_prev, abs(last * df))
        if df > 0 and lo < v - fv / df < hi and progress:
            last, step = step, fv / df
            v = v - step
        else:
            last, step = step, 0.5 * (hi - lo)
            v = lo + step
        f_prev = abs(fv)
        fv, df = value_and_slope(v)
        if abs(fv) <= tol or hi - lo <= 1e-14 * (1.0 + abs(v)):
            return float(v)
        if fv > 0:
            hi = v
        else:
            lo = v
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# single-edge solve
# ---------------------------------------------------------------------------

def solve_edge(H, edge, node_bc, params=None, sc_value=None):
    """Solve u + H(u_x, x) = 0 on the edge with the given junction-end
    condition (Dirichlet(c) or StateConstraint()).

    Dirichlet data above the state-constraint value is unattainable by the
    continuous problem; in that case the state-constraint solution is
    returned and the report carries the flag "dirichlet_not_attained".
    Pass sc_value (the state-constraint node value) to skip its recomputation;
    otherwise the report counts that solve's iterations and flags too.
    """
    # the edge is a K = 1 junction system; junction.py imports this module
    from .junction import JunctionProblem, solve_system

    params = params or SolverParams()
    sc = None
    if isinstance(node_bc, Dirichlet):
        if sc_value is None:
            sc = solve_edge(H, edge, StateConstraint(), params)
            sc_value = sc[0].node_value
        if node_bc.value > sc_value:
            g, rep = sc or solve_edge(H, edge, StateConstraint(), params)
            rep.flags = rep.flags + ("dirichlet_not_attained",)
            return g, rep

    sol, rep = solve_system(JunctionProblem([edge], [H], node_bc), params)
    if sc is not None:
        rep.iterations += sc[1].iterations
        rep.flags = tuple(dict.fromkeys(rep.flags + sc[1].flags))
    g = sol.per_edge[0]
    g.role = "state_constraint" if isinstance(node_bc, StateConstraint) \
        else "dirichlet"
    return g, rep


# ---------------------------------------------------------------------------
# node diagnostics on one edge
# ---------------------------------------------------------------------------

def node_slope(u: GridFunction1D):
    """Second-order one-sided slope at the junction end x = 0-."""
    v = u.values
    return float((3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * u.edge.h))


def one_sided_quotients(u: GridFunction1D, window):
    """Extremes of the difference quotients (u_n - u_{n-k})/(k h), k <= window,
    discrete stand-ins for the one-sided limsup/liminf at 0-."""
    if window > u.edge.n_cells // 2:
        raise ValueError("window too large for the grid")
    v = u.values
    h = u.edge.h
    ks = np.arange(1, window + 1)
    quot = (v[-1] - v[-1 - ks]) / (ks * h)
    return float(quot.max()), float(quot.min())


@dataclass
class PropertyReport:
    c_values: np.ndarray
    node_values: np.ndarray
    node_slopes: np.ndarray
    equation_residuals: np.ndarray
    h_forward_diffs: np.ndarray
    values_nondecreasing: bool
    slopes_nondecreasing: bool
    residuals_small: bool
    on_decreasing_part: bool

    @property
    def passed(self):
        return (self.values_nondecreasing and self.slopes_nondecreasing
                and self.residuals_small and self.on_decreasing_part)


def check_dirichlet_structure(H, edge, c_list):
    """Solve the Dirichlet family u(0) = c for increasing c below the
    state-constraint value and verify the expected structure: node values and
    slopes nondecreasing in c (to 1e-3), the equation holding at the node
    (to 5e-2), and the node slope sitting on the decreasing part of H (a
    forward difference of H at most 1e-2)."""
    params = SolverParams()
    c_arr = np.asarray(sorted(c_list), dtype=float)
    u_sc, _ = solve_edge(H, edge, StateConstraint(), params)
    sc0 = u_sc.node_value
    if np.any(c_arr >= sc0 - 2.0 * params.tol):
        raise ValueError(
            f"every c must lie below the state-constraint value {sc0:.6g}")
    slopes, values, residuals, fds = [], [], [], []
    for c in c_arr:
        g, rep = solve_edge(H, edge, Dirichlet(float(c)), params,
                            sc_value=sc0)
        s = node_slope(g)
        slopes.append(s)
        values.append(g.node_value)
        residuals.append(float(c + H(s, 0.0)))
        d = 1e-4
        fds.append(float((H(s + d, 0.0) - H(s, 0.0)) / d))
    slopes = np.asarray(slopes)
    values = np.asarray(values)
    residuals = np.asarray(residuals)
    fds = np.asarray(fds)
    return PropertyReport(
        c_values=c_arr,
        node_values=values,
        node_slopes=slopes,
        equation_residuals=residuals,
        h_forward_diffs=fds,
        values_nondecreasing=bool(np.all(np.diff(values) >= -1e-3)),
        slopes_nondecreasing=bool(np.all(np.diff(slopes) >= -1e-3)),
        residuals_small=bool(np.all(np.abs(residuals) <= 5e-2)),
        on_decreasing_part=bool(np.all(fds <= 1e-2)),
    )
