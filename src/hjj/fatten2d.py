"""Two-dimensional fattening of a 2-edge junction.

The two segments [-a1, 0] x {0} and {0} x [-a2, 0] are replaced by an
L-shaped tube of width eps (axis-aligned rectangles overlapping in a square
at the origin), and the pure state-constraint problem u + H(Du, x) = 0 is
solved on the tube with a monotone scheme: 2-D Lax-Friedrichs inside, and at
boundary cells each slope component whose outward neighbor is missing is
replaced by the binding-test-slope minimization over the inward-admissible
slope interval, exactly as in the 1-D boundary rows. FatSystem.residual is
the scheme's one definition.

solve_fat_state_constraint reaches the scheme's fixed point by damped
semismooth Newton (Howard's algorithm) at fixed theta. The 5-point Jacobian
comes from 5-coloured central differences of the residual, projected onto
M-matrices (positive off-diagonal entries dropped, the diagonal raised to
1 + the sum of the off-diagonal magnitudes), because differences taken
across a kink of H can otherwise leave negative diagonals. Each step
backtracks on max|R|, measured against the largest of the last few
residuals. theta is raised inside the loop whenever the iterate
needs more (theta <- 1.02 theta_req + 0.01, never lowered) and recorded in
the report. A breakdown -- non-finite residual, a line search that cannot
decrease the residual, or NEWTON_STEPS_2D steps -- hands the solve to
Jacobi pseudo-time from the constant start and flags "newton_fallback".

Traces along the two axis gridlines approximate the 1-D junction solution
built from the reduced Hamiltonians H1(p1, x1) = min_p2 H(p1, p2, x1, 0) and
H2(p2, x2) = min_p1 H(p1, p2, 0, x2); the study records trace errors and
reduced-equation residuals per eps. For a max form
max(Ha(p1, x1), Hb(p2, x2)) the reduction is closed,
H1(p1, x1) = max(Ha(p1, x1), min_q Hb(q, 0)), so the reference evaluates no
joint H; other 2-D Hamiltonians are reduced by sampling the transverse slope
(see hamiltonians.reduce_2d).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .edge import (
    CFL,
    EdgeDiscretization,
    EdgeSpec,
    GridFunction1D,
    SolveReport,
    node_slope,
)
from .hamiltonians import Hamiltonian2D, SlopeLipschitzTable, reduce_2d
from .junction import make_junction_problem, solve_junction_direct

N_RANGE_SAMPLES = 33
N_CORNER_SAMPLES = 21
# Newton steps before a 2-D solve counts as broken down
NEWTON_STEPS_2D = 150
# the line search halves the step down to this fraction, then gives up
MIN_DAMPING = 1e-3
# a step is accepted when it takes max|R| below the largest of the last
# LINE_SEARCH_WINDOW residuals: the sampled ranged minima of boundary and
# corner rows are sawtooth functions of the slopes, and requiring a strict
# decrease at every step stalls a few cells short of the fixed point
LINE_SEARCH_WINDOW = 8
# central-difference step of the Jacobian columns
FD_STEP = 1e-5


@dataclass
class FatDomain:
    """Rasterized eps-wide L-shaped tube around the two arms."""

    a1: float
    a2: float
    epsilon: float
    h2: float
    x1: np.ndarray
    x2: np.ndarray
    mask: np.ndarray

    @property
    def shape(self):
        return self.mask.shape

    def boundary_cells(self):
        m = self.mask
        inner = np.zeros_like(m)
        inner[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[2:, 1:-1] & m[:-2, 1:-1]
                             & m[1:-1, 2:] & m[1:-1, :-2])
        return m & ~inner


def _axis_coords(lo, hi, h2):
    i0 = int(np.floor(lo / h2 - 1e-9))
    i1 = int(np.ceil(hi / h2 + 1e-9))
    return h2 * np.arange(i0, i1 + 1)


def _rasterize(x1, x2, rects, h2):
    tol = 1e-9 * h2
    mask = np.zeros((len(x1), len(x2)), dtype=bool)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    for (lo1, hi1, lo2, hi2) in rects:
        mask |= ((X1 >= lo1 - tol) & (X1 <= hi1 + tol)
                 & (X2 >= lo2 - tol) & (X2 <= hi2 + tol))
    return mask


def _check_connected(mask):
    from scipy import ndimage
    if ndimage.label(mask)[1] != 1:
        raise ValueError("tube mask is not connected")


def _validate_domain(dom):
    _check_connected(dom.mask)
    # both segments' gridlines must lie inside the mask
    tol = 1e-9 * dom.h2
    j0 = int(np.argmin(np.abs(dom.x2)))
    on_arm1 = (dom.x1 >= -dom.a1 - tol) & (dom.x1 <= tol)
    if not np.all(dom.mask[on_arm1, j0]):
        raise ValueError("arm-1 gridline escapes the mask")
    i0 = int(np.argmin(np.abs(dom.x1)))
    on_arm2 = (dom.x2 >= -dom.a2 - tol) & (dom.x2 <= tol)
    if not np.all(dom.mask[i0, on_arm2]):
        raise ValueError("arm-2 gridline escapes the mask")


def build_fat_domain(a1, a2, epsilon, h2):
    """Union of (-a1, eps/2) x (-eps/2, eps/2) and
    (-eps/2, eps/2) x (-a2, eps/2), rasterized on a grid aligned with the
    origin. Requires h2 <= eps/4 (at least 4 cells across the tube) and
    eps < min(a1, a2) / 2."""
    if h2 > epsilon / 4.0 + 1e-12:
        raise ValueError("h2 too coarse: need at least 4 cells across (h2 <= eps/4)")
    if epsilon >= min(a1, a2) / 2.0:
        raise ValueError("tube width must satisfy eps < min(a1, a2)/2")
    e = epsilon
    x1 = _axis_coords(-a1 - e, e, h2)
    x2 = _axis_coords(-a2 - e, e, h2)
    rects = [(-a1, e / 2.0, -e / 2.0, e / 2.0),
             (-e / 2.0, e / 2.0, -a2, e / 2.0)]
    dom = FatDomain(a1, a2, e, h2, x1, x2, _rasterize(x1, x2, rects, h2))
    _validate_domain(dom)
    return dom


def build_rectangle_domain(a, epsilon, h2):
    """Single-arm tube (-a, eps/2) x (-eps/2, eps/2): the degenerate check
    geometry for Hamiltonians without transverse dependence."""
    if h2 > epsilon / 4.0 + 1e-12:
        raise ValueError("h2 too coarse: need at least 4 cells across (h2 <= eps/4)")
    e = epsilon
    x1 = _axis_coords(-a - e, e, h2)
    x2 = _axis_coords(-e, e, h2)
    rects = [(-a, e / 2.0, -e / 2.0, e / 2.0)]
    dom = FatDomain(a, a, e, h2, x1, x2, _rasterize(x1, x2, rects, h2))
    _check_connected(dom.mask)
    return dom


@dataclass
class GridFunction2D:
    values: np.ndarray  # full box array, NaN outside the mask
    domain: FatDomain

    def discrete_lipschitz(self):
        m = self.domain.mask
        v = self.values
        best = 0.0
        d1 = np.abs(v[1:, :] - v[:-1, :])[m[1:, :] & m[:-1, :]]
        d2 = np.abs(v[:, 1:] - v[:, :-1])[m[:, 1:] & m[:, :-1]]
        if d1.size:
            best = max(best, float(d1.max()))
        if d2.size:
            best = max(best, float(d2.max()))
        return best / self.domain.h2


# ---------------------------------------------------------------------------
# the monotone scheme on the masked grid
# ---------------------------------------------------------------------------

class FatSystem:
    """Flat-indexed residual evaluation and pseudo-time stepping."""

    def __init__(self, H2: Hamiltonian2D, dom: FatDomain):
        self.H2 = H2
        self.dom = dom
        m = dom.mask
        n1, n2 = m.shape
        ids = -np.ones((n1 + 2, n2 + 2), dtype=int)
        count = int(m.sum())
        ids[1:-1, 1:-1][m] = np.arange(count)
        I, J = np.nonzero(m)
        self.count = count
        self.X1 = dom.x1[I]
        self.X2 = dom.x2[J]
        self.iE = ids[I + 2, J + 1]
        self.iW = ids[I, J + 1]
        self.iN = ids[I + 1, J + 2]
        self.iS = ids[I + 1, J]
        has_e, has_w = self.iE >= 0, self.iW >= 0
        has_n, has_s = self.iN >= 0, self.iS >= 0
        if np.any(~has_e & ~has_w) or np.any(~has_n & ~has_s):
            raise ValueError("tube thinner than one cell somewhere")
        # per-component stencil mode: 0 both neighbors, 1 missing outward
        # (+) neighbor: q in [p-, P], 2 missing inward (-) neighbor:
        # q in [-P, p+]
        self.mode1 = np.where(has_e & has_w, 0, np.where(has_w, 1, 2))
        self.mode2 = np.where(has_n & has_s, 0, np.where(has_s, 1, 2))
        self.I, self.J = I, J

        P = H2.coercivity_bound
        self.P = P
        S = 2.0 * P + 2.0
        combos = []
        qs = np.linspace(-P, P, 9)
        pts = [(dom.x1[0], 0.0), (0.0, dom.x2[0]), (0.0, 0.0),
               (dom.x1[0] / 2, 0.0), (0.0, dom.x2[0] / 2)]
        for q in qs:
            for (xa, xb) in pts:
                combos.append((q, xa, xb))
        fn = H2.fn

        def shim1(s, idx):
            q, xa, xb = combos[int(idx)]
            return fn(s, q, xa, xb)

        def shim2(s, idx):
            q, xa, xb = combos[int(idx)]
            return fn(q, s, xa, xb)

        idxs = np.arange(len(combos), dtype=float)
        self.tab1 = SlopeLipschitzTable(shim1, idxs, span=S, samples=2048)
        self.tab2 = SlopeLipschitzTable(shim2, idxs, span=S, samples=2048)
        self.span = S

        self.groups = {}
        for m1 in (0, 1, 2):
            for m2 in (0, 1, 2):
                sel = np.nonzero((self.mode1 == m1) & (self.mode2 == m2))[0]
                if sel.size:
                    self.groups[(m1, m2)] = sel

    # -- helpers ------------------------------------------------------------

    def _neighbor(self, u, idx):
        return np.where(idx >= 0, u[np.maximum(idx, 0)], np.nan)

    def _ranged_min_1d(self, lo, hi, other, x1, x2, axis):
        """min over q in [lo, hi] of H2 with the other slope fixed."""
        fn = self.H2.fn
        t = np.linspace(0.0, 1.0, N_RANGE_SAMPLES)
        qs = lo[:, None] + t[None, :] * (hi - lo)[:, None]
        if axis == 1:
            vals = fn(qs, other[:, None], x1[:, None], x2[:, None])
        else:
            vals = fn(other[:, None], qs, x1[:, None], x2[:, None])
        best_idx = np.argmin(vals, axis=1)
        rows = np.arange(len(lo))
        best = vals[rows, best_idx]
        q_best = qs[rows, best_idx]
        delta = (hi - lo) / (N_RANGE_SAMPLES - 1)
        for _ in range(2):
            lo_r = np.maximum(q_best - delta, lo)
            hi_r = np.minimum(q_best + delta, hi)
            qr = lo_r[:, None] + np.linspace(0, 1, 9)[None, :] \
                * (hi_r - lo_r)[:, None]
            if axis == 1:
                vr = fn(qr, other[:, None], x1[:, None], x2[:, None])
            else:
                vr = fn(other[:, None], qr, x1[:, None], x2[:, None])
            bi = np.argmin(vr, axis=1)
            cand = vr[rows, bi]
            better = cand < best
            best = np.where(better, cand, best)
            q_best = np.where(better, qr[rows, bi], q_best)
            delta = delta / 4.0
        return best

    def _ranged_min_2d(self, lo1, hi1, lo2, hi2, x1, x2):
        fn = self.H2.fn
        t = np.linspace(0.0, 1.0, N_CORNER_SAMPLES)
        q1 = lo1[:, None, None] + t[None, :, None] * (hi1 - lo1)[:, None, None]
        q2 = lo2[:, None, None] + t[None, None, :] * (hi2 - lo2)[:, None, None]
        vals = fn(q1, q2, x1[:, None, None], x2[:, None, None])
        return vals.reshape(len(lo1), -1).min(axis=1)

    # -- residual -----------------------------------------------------------

    def residual(self, u, theta=None):
        h = self.dom.h2
        S = self.span
        P = self.P
        uE = self._neighbor(u, self.iE)
        uW = self._neighbor(u, self.iW)
        uN = self._neighbor(u, self.iN)
        uS = self._neighbor(u, self.iS)
        p1m = np.clip(np.where(self.iW >= 0, (u - uW) / h, np.nan), -S, S)
        p1p = np.clip(np.where(self.iE >= 0, (uE - u) / h, np.nan), -S, S)
        p2m = np.clip(np.where(self.iS >= 0, (u - uS) / h, np.nan), -S, S)
        p2p = np.clip(np.where(self.iN >= 0, (uN - u) / h, np.nan), -S, S)

        lo1 = np.fmin(p1m, p1p)
        hi1 = np.fmax(p1m, p1p)
        lo2 = np.fmin(p2m, p2p)
        hi2 = np.fmax(p2m, p2p)
        if theta is None:
            th1 = self.tab1.range_max(lo1 - 1.0, hi1 + 1.0)
            th2 = self.tab2.range_max(lo2 - 1.0, hi2 + 1.0)
        else:
            th1, th2 = theta

        R = np.empty(self.count)
        fn = self.H2.fn
        for (m1, m2), sel in self.groups.items():
            x1s, x2s = self.X1[sel], self.X2[sel]
            if m1 == 0 and m2 == 0:
                F = fn(0.5 * (p1m[sel] + p1p[sel]),
                       0.5 * (p2m[sel] + p2p[sel]), x1s, x2s) \
                    - 0.5 * th1[sel] * (p1p[sel] - p1m[sel]) \
                    - 0.5 * th2[sel] * (p2p[sel] - p2m[sel])
            elif m1 != 0 and m2 == 0:
                lo = p1m[sel] if m1 == 1 else np.full(sel.size, -P)
                hi = np.full(sel.size, P) if m1 == 1 else p1p[sel]
                hi = np.maximum(hi, lo)
                F = self._ranged_min_1d(lo, hi, 0.5 * (p2m[sel] + p2p[sel]),
                                        x1s, x2s, axis=1) \
                    - 0.5 * th2[sel] * (p2p[sel] - p2m[sel])
            elif m1 == 0 and m2 != 0:
                lo = p2m[sel] if m2 == 1 else np.full(sel.size, -P)
                hi = np.full(sel.size, P) if m2 == 1 else p2p[sel]
                hi = np.maximum(hi, lo)
                F = self._ranged_min_1d(lo, hi, 0.5 * (p1m[sel] + p1p[sel]),
                                        x1s, x2s, axis=2) \
                    - 0.5 * th1[sel] * (p1p[sel] - p1m[sel])
            else:
                l1 = p1m[sel] if m1 == 1 else np.full(sel.size, -P)
                u1 = np.full(sel.size, P) if m1 == 1 else p1p[sel]
                l2 = p2m[sel] if m2 == 1 else np.full(sel.size, -P)
                u2_ = np.full(sel.size, P) if m2 == 1 else p2p[sel]
                u1 = np.maximum(u1, l1)
                u2_ = np.maximum(u2_, l2)
                F = self._ranged_min_2d(l1, u1, l2, u2_, x1s, x2s)
            R[sel] = u[sel] + F
        return R, (th1, th2)

    def step(self, u, theta=None):
        R, (th1, th2) = self.residual(u, theta=theta)
        th1 = np.where(np.isfinite(th1), th1, 0.0)
        th2 = np.where(np.isfinite(th2), th2, 0.0)
        dt = CFL * self.dom.h2 / (th1 + th2 + self.dom.h2)
        return u - dt * R, R, (th1, th2)

    def default_init(self):
        base = self.H2.fn(np.zeros(self.count), np.zeros(self.count),
                          self.X1, self.X2)
        return np.full(self.count, float(-np.max(np.asarray(base)) - 0.5))

    def to_grid(self, u):
        full = np.full(self.dom.shape, np.nan)
        full[self.dom.mask] = u
        return GridFunction2D(full, self.dom)


@dataclass(frozen=True)
class FatSolverParams:
    """tol bounds max|R|; max_iters caps the Jacobi iterations of a
    fallback."""

    tol: float = 1e-7
    max_iters: int = 100_000


def _jacobian(sys_, u, theta):
    """Sparse 5-point Jacobian of the residual at fixed theta from central
    differences, projected onto M-matrices. Colouring cell (I, J) by
    (I + 2J) mod 5 gives the five cells of every stencil five distinct
    colours, so one perturbation per colour yields every column."""
    import scipy.sparse as sp
    colour = (sys_.I + 2 * sys_.J) % 5
    D = np.empty((5, sys_.count))
    for c in range(5):
        e = np.where(colour == c, FD_STEP, 0.0)
        Rp, _ = sys_.residual(u + e, theta)
        Rm, _ = sys_.residual(u - e, theta)
        D[c] = (Rp - Rm) / (2.0 * FD_STEP)
    k = np.arange(sys_.count)
    rows, cols, vals = [], [], []
    off_sum = np.zeros(sys_.count)
    for nbr, shift in ((sys_.iE, 1), (sys_.iW, -1), (sys_.iN, 2),
                       (sys_.iS, -2)):
        has = nbr >= 0
        v = np.minimum(D[(colour[has] + shift) % 5, k[has]], 0.0)
        off_sum[has] -= v
        rows.append(k[has])
        cols.append(nbr[has])
        vals.append(v)
    rows.append(k)
    cols.append(k)
    vals.append(np.maximum(D[colour, k], 1.0 + off_sum))
    return sp.csc_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(sys_.count, sys_.count))


def _newton_2d(sys_, u, tol):
    """Damped semismooth Newton at fixed theta; returns
    (u, theta, steps, residual, converged) with converged False on a
    breakdown."""
    import scipy.sparse.linalg as spla
    theta = (-np.inf, -np.inf)
    history = []
    while True:
        _, req = sys_.residual(u)
        theta = tuple(np.where(r > t, 1.02 * r + 0.01, t)
                      for t, r in zip(theta, req))
        R, _ = sys_.residual(u, theta)
        res = float(np.max(np.abs(R)))
        steps = len(history)
        history.append(res)
        if not np.isfinite(res):
            return u, theta, steps, res, False
        if res <= tol:
            return u, theta, steps, res, True
        if steps >= NEWTON_STEPS_2D:
            return u, theta, steps, res, False
        d = spla.spsolve(_jacobian(sys_, u, theta), -R)
        ref = max(history[-LINE_SEARCH_WINDOW:])
        lam = 1.0
        while True:
            u_try = u + lam * d
            R_try, _ = sys_.residual(u_try, theta)
            if float(np.max(np.abs(R_try))) < ref:
                break
            lam *= 0.5
            if lam < MIN_DAMPING:
                return u, theta, steps, res, False
        u = u_try


def _jacobi_2d(sys_, u, params):
    """Jacobi pseudo-time on FatSystem.step, the reference driver and the
    Newton fallback. Once the residual is small theta is frozen, so the
    update becomes a fixed map; it thaws if the residual grows again.
    Returns (u, theta, iterations, residual)."""
    frozen = None
    it = 0
    while True:
        u_new, R, ths = sys_.step(u, theta=frozen)
        res = float(np.max(np.abs(R)))
        if res <= params.tol or it >= params.max_iters:
            return u, ths, it, res
        u = u_new
        it += 1
        if frozen is None and res < 1e-3:
            frozen = (ths[0] * 1.02 + 0.01, ths[1] * 1.02 + 0.01)
        elif frozen is not None and res > 1e-2:
            frozen = None


def solve_fat_state_constraint(H2, dom, params=None):
    """Solve the 2-D state-constraint problem on the tube (every boundary
    cell uses the inward-admissible slope minimization) by damped
    semismooth Newton, falling back to Jacobi pseudo-time from the constant
    start on a breakdown. The report's method is "newton_2d" or
    "newton_2d+jacobi_2d", its theta the per-cell (theta1, theta2) of the
    converged scheme, and its flags name the fallback ("newton_fallback")
    and a capped Jacobi run ("max_iters")."""
    params = params or FatSolverParams()
    t0 = time.perf_counter()
    sys_ = FatSystem(H2, dom)
    u, theta, it, res, ok = _newton_2d(sys_, sys_.default_init(), params.tol)
    method = "newton_2d"
    flags = []
    if not ok:
        flags.append("newton_fallback")
        method = "newton_2d+jacobi_2d"
        u, theta, jac_it, res = _jacobi_2d(sys_, sys_.default_init(), params)
        it += jac_it
        if res > params.tol:
            flags.append("max_iters")
    rep = SolveReport(it, res, res <= params.tol, time.perf_counter() - t0,
                      method, flags=tuple(flags), theta=list(theta))
    return sys_.to_grid(u), rep


# ---------------------------------------------------------------------------
# traces and the fattening study
# ---------------------------------------------------------------------------

def extract_axis_trace(u2: GridFunction2D, dom: FatDomain, axis):
    """Values along the gridline nearest the chosen axis, restricted to the
    arm [-a, 0]; the node sample sits at the gridpoint nearest the origin."""
    tol = 1e-9 * dom.h2
    if axis == 1:
        j0 = int(np.argmin(np.abs(dom.x2)))
        sel = (dom.x1 >= -dom.a1 - tol) & (dom.x1 <= tol)
        vals = u2.values[sel, j0]
        coords = dom.x1[sel]
    elif axis == 2:
        i0 = int(np.argmin(np.abs(dom.x1)))
        sel = (dom.x2 >= -dom.a2 - tol) & (dom.x2 <= tol)
        vals = u2.values[i0, sel]
        coords = dom.x2[sel]
    else:
        raise ValueError("axis must be 1 or 2")
    if np.any(np.isnan(vals)):
        raise ValueError("trace leaves the solved mask")
    n = len(coords) - 1
    spec = EdgeSpec(length=float(coords[-1] - coords[0]), n_cells=n)
    return GridFunction1D(np.asarray(vals, dtype=float), spec, "generic")


@dataclass
class FatteningRecord:
    epsilon: float
    h2: float
    node_value: float
    trace_error: float
    reduced_residuals: tuple
    node_super_residual: float
    converged: bool
    iterations: int
    method: str
    flags: tuple


@dataclass
class FatteningReport:
    records: list
    reference_node_value: float
    reduced_sources: tuple
    # the 1-D reference solve of the reduced Hamiltonians
    reference_converged: bool
    reference_flags: tuple


def fattening_study(H2, eps_list, a1=1.0, a2=1.0, h2_over_eps=0.125,
                    n_1d=400, params=None, solver_params=None, h2=None):
    """Solve the fattened problem along a decreasing eps schedule and compare
    axis traces against the 1-D junction solution of the reduced
    Hamiltonians; records trace errors, reduced-equation residuals on the
    traces, and the junction supersolution residual of the trace values.
    The 2-D grid spacing is eps * h2_over_eps, or h2 for every eps when
    given. params configures the 2-D solves, solver_params the 1-D
    reference."""
    eps_arr = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must decrease strictly")

    H1r = reduce_2d(H2, 1)
    H2r = reduce_2d(H2, 2)
    prob = make_junction_problem(
        [EdgeSpec(a1, n_1d), EdgeSpec(a2, n_1d)], [H1r, H2r])
    u_hat, rep_hat = solve_junction_direct(prob, solver_params)

    records = []
    for eps in eps_arr:
        dom = build_fat_domain(a1, a2, eps,
                               eps * h2_over_eps if h2 is None else h2)
        u2, rep2 = solve_fat_state_constraint(H2, dom, params)
        traces = [extract_axis_trace(u2, dom, 1), extract_axis_trace(u2, dom, 2)]

        err = 0.0
        red_res = []
        for tr, Hr, g_ref, e_ref in zip(
                traces, (H1r, H2r), u_hat.per_edge, prob.edges):
            x_ref = e_ref.grid()
            x_tr = tr.edge.grid() + 0.0  # both end at 0 by construction
            interp = np.interp(x_tr, x_ref, g_ref.values)
            err = max(err, float(np.max(np.abs(tr.values - interp))))
            disc = EdgeDiscretization(Hr, tr.edge, "external")
            R, _ = disc.residual(tr.values)
            red_res.append(float(np.max(np.abs(R[1:-1]))))

        node_val = traces[0].values[-1]
        s1, s2 = node_slope(traces[0]), node_slope(traces[1])
        node_super = float(node_val + H2(s1, s2, 0.0, 0.0))
        records.append(FatteningRecord(
            epsilon=eps, h2=dom.h2, node_value=float(node_val),
            trace_error=err, reduced_residuals=tuple(red_res),
            node_super_residual=node_super, converged=rep2.converged,
            iterations=rep2.iterations, method=rep2.method,
            flags=rep2.flags))
    return FatteningReport(records, float(u_hat.node_value),
                           (H1r.source, H2r.source), rep_hat.converged,
                           rep_hat.flags)
