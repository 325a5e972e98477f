"""Two-dimensional fattening of a 2-edge junction.

The two segments [-a1, 0] x {0} and {0} x [-a2, 0] are replaced by an
L-shaped tube of width eps (axis-aligned rectangles overlapping in a square
at the origin), and the pure state-constraint problem u + H(Du, x) = 0 is
solved on the tube with a monotone scheme: 2-D Lax-Friedrichs inside, and at
boundary cells each slope component whose outward neighbor is missing is
replaced by the binding-test-slope minimization over the inward-admissible
slope interval, exactly as in the 1-D boundary rows. FatSystem.residual is
the scheme's one definition.

The boundary and corner rows are exact interval minima of H (see
hamiltonians.interval_min), so each row is monotone and the fixed point is
unique (Crandall & Lions, Math. Comp. 1984; Oberman, SIAM J. Numer. Anal.
2006). A corner row is the least over the four edges of its slope box and
the local minima of H inside it. Every row of a residual is one batch. A
max form's local minimizers are its parts', found per cell when FatSystem
is built; other 2-D H are searched on a fixed slope grid in each batch.

solve_fat_state_constraint reaches the fixed point by junction.newton,
damped semismooth Newton (Howard's algorithm) at fixed theta, on a Jacobian
projected onto M-matrices (see _jacobian). Each Newton system is one block
tridiagonal chain over the breadth-first level sets of the tube's cells,
eliminated by block Thomas in numpy (see LevelChain); the same search
rejects a mask that is not connected. Each step is halved until max|R|
strictly decreases. Each accepted point raises theta by the 1-D rule,
edge.raised_theta, from the slope ranges padded by edge.THETA_PAD, and
the report records it; a residual of at most tol there certifies the
answer. A solve that stops short is not converged and is flagged
"max_iters", or "newton_stalled" after a breakdown; there is no second
driver.

Traces along the two axis gridlines approximate the 1-D junction solution
built from the reduced Hamiltonians H1(p1, x1) = min_p2 H(p1, p2, x1, 0) and
H2(p2, x2) = min_p1 H(p1, p2, 0, x2); the study records trace errors and
reduced-equation residuals per eps. For a max form
max(Ha(p1, x1), Hb(p2, x2)) the reduction is closed,
H1(p1, x1) = max(Ha(p1, x1), min_q Hb(q, 0)), so the reference evaluates no
joint H; other 2-D Hamiltonians are reduced by an interval minimum over the
transverse slope (see hamiltonians.reduce_2d).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .edge import (
    CFL,
    THETA_PAD,
    EdgeDiscretization,
    EdgeSpec,
    GridFunction1D,
    SolveReport,
    StateConstraint,
    check_stopping_rule,
    node_slope,
    raised_theta,
)
from .hamiltonians import (
    Hamiltonian2D,
    SlopeLipschitzTable,
    _pad_rows,
    golden_section_min,
    grid_minimizers,
    interval_min,
    reduce_2d,
)
from .junction import make_junction_problem, newton, solve_junction_direct

# points of the fixed slope grid on [-span, span] on which the boundary and
# corner rows locate the local minimizers they minimize over
N_SLOPE_GRID = 129
# central-difference step of the Jacobian columns
FD_STEP = 1e-5


class LevelChain:
    """The mask's cells grouped into breadth-first level sets.

    Level k holds the cells k stencil steps from cell 0, so a 5-point
    stencil couples level k only to levels k - 1 and k + 1 (the grid graph
    is bipartite). A matrix with that stencil is block tridiagonal in level
    order, whatever the mask's shape, and solve() eliminates it by block
    Thomas (block LU without pivoting between blocks, stable on block
    diagonally dominant matrices; Golub & Van Loan, Matrix Computations,
    block tridiagonal LU). A cell the search never reaches raises
    ValueError: the mask is not connected."""

    def __init__(self, mask):
        # cells in row-major order; nbrs[d] numbers each cell's E/W/N/S
        # neighbour, -1 where it is missing
        n1, n2 = mask.shape
        count = int(mask.sum())
        ids = -np.ones((n1 + 2, n2 + 2), dtype=int)
        ids[1:-1, 1:-1][mask] = np.arange(count)
        I, J = self.I, self.J = np.nonzero(mask)
        self.nbrs = np.stack([ids[I + 2, J + 1], ids[I, J + 1],
                              ids[I + 1, J + 2], ids[I + 1, J]])
        # pos: a cell's place in its level
        level, pos = np.full(count, -1), np.empty(count, dtype=int)
        level[0], k, front = 0, 0, np.zeros(1, dtype=int)
        while front.size:
            pos[front] = np.arange(front.size)
            nxt = self.nbrs[:, front]
            nxt = nxt[nxt >= 0]
            k += 1
            level[nxt[level[nxt] < 0]] = k
            front = np.flatnonzero(level == k)
        if np.any(level < 0):
            raise ValueError("tube mask is not connected")
        self.level, self.pos = level, pos
        self.shape = (k, int(pos.max()) + 1)
        # solve() writes the diagonal, the off-diagonal entries and the
        # right-hand side into one padded array: block row k is
        # [L_k | B_k | U_k | r_k], columns of levels k - 1, k, k + 1
        w = self.shape[1]
        self._has = self.nbrs >= 0
        d, c = np.nonzero(self._has)
        n = self.nbrs[d, c]
        self._at = (np.concatenate([level, level[c], level]),
                    np.concatenate([pos, pos[c], pos]),
                    np.concatenate([w + pos,
                                    (level[n] - level[c] + 1) * w + pos[n],
                                    np.full(count, 3 * w)]))

    def solve(self, diag, off, rhs):
        """x with diag[i] x[i] + sum_d off[d, i] x[nbrs[d, i]] = rhs[i];
        off[d, i] is ignored where nbrs[d, i] < 0. A non-finite entry or a
        singular pivot block gives NaN, which callers treat as a
        breakdown."""
        nl, w = self.shape
        M = np.zeros((nl, w, 3 * w + 1))
        # padding cells solve x = 0
        M[:, np.arange(w), w + np.arange(w)] = 1.0
        M[self._at] = np.concatenate([diag, off[self._has], rhs])
        # forward: [U_k | r_k] <- S_k^-1 [U_k | r_k - L_k y_(k-1)] with
        # S_k = B_k - L_k S_(k-1)^-1 U_(k-1), the block row's Schur complement
        G = M[:, :, 2 * w:]
        try:
            for k in range(nl):
                if k:
                    Z = M[k, :, :w] @ G[k - 1]
                    M[k, :, w:2 * w] -= Z[:, :w]
                    G[k, :, w] -= Z[:, w]
                G[k] = np.linalg.solve(M[k, :, w:2 * w], G[k])
            ok = np.all(np.isfinite(M))
        except np.linalg.LinAlgError:
            ok = False
        if not ok:
            return np.full(rhs.size, np.nan)
        x = G[:, :, w].copy()
        for k in range(nl - 2, -1, -1):
            x[k] -= G[k, :, :w] @ x[k + 1]
        return x[self.level, self.pos]


@dataclass
class FatDomain:
    """Rasterized eps-wide L-shaped tube around the two arms; chain, the
    mask's level sets, is built with it and rejects a mask that is not
    connected."""

    a1: float
    a2: float
    epsilon: float
    h2: float
    x1: np.ndarray
    x2: np.ndarray
    mask: np.ndarray
    chain: LevelChain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.chain = LevelChain(self.mask)

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


def _validate_domain(dom):
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
    return FatDomain(a, a, e, h2, x1, x2, _rasterize(x1, x2, rects, h2))


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
        I, J = dom.chain.I, dom.chain.J
        self.count = I.size
        self.X1 = dom.x1[I]
        self.X2 = dom.x2[J]
        self.iE, self.iW, self.iN, self.iS = dom.chain.nbrs
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
        # the tables pass the combo numbers as positions, one per row
        Q, XA, XB = np.asarray(combos).T

        def shim1(s, idx):
            i = idx.astype(int)
            return fn(s, Q[i], XA[i], XB[i])

        def shim2(s, idx):
            i = idx.astype(int)
            return fn(Q[i], s, XA[i], XB[i])

        idxs = np.arange(len(combos), dtype=float)
        self.tab1 = SlopeLipschitzTable(shim1, idxs, span=S, samples=2048)
        self.tab2 = SlopeLipschitzTable(shim2, idxs, span=S, samples=2048)
        self.span = S
        self.qs = np.linspace(-S, S, N_SLOPE_GRID)
        on1, on2 = self.mode1 != 0, self.mode2 != 0
        self.inner, self.side1, self.side2, self.corner = (
            np.nonzero(sel)[0]
            for sel in (~on1 & ~on2, on1 & ~on2, ~on1 & on2, on1 & on2))
        if H2.parts:
            # along each slope a max form's local minimizers are its part's,
            # found at every cell's position; in a corner's box, pairs of both
            self.part_minima = mins = []
            for part, X in zip(H2.parts, (self.X1, self.X2)):
                xs, inv = np.unique(X, return_inverse=True)
                mins.append(grid_minimizers(lambda q: part.fn(q, xs[:, None]),
                                            self.qs, xs.size)[inv])
            c = self.corner
            q1 = np.repeat(mins[0][c], mins[1].shape[1], axis=1)
            q2 = np.tile(mins[1][c], mins[0].shape[1])
            self.corner_minima = (q1, q2, H2.fn(q1, q2, self.X1[c][:, None],
                                                self.X2[c][:, None]))
        else:
            self.corner_minima = self._corner_minima()

    # -- helpers ------------------------------------------------------------

    def _neighbor(self, u, idx):
        return np.where(idx >= 0, u[np.maximum(idx, 0)], np.nan)

    def _joint_min(self, cells, along1, lo, hi, other):
        """min over q in [lo, hi] of H at the cells, q standing for p1 where
        along1 holds and for p2 elsewhere, the other slope fixed at other;
        without parts one grid search serves every entry."""
        fn = self.H2.fn
        x1, x2 = self.X1[cells][:, None], self.X2[cells][:, None]
        a1, o = along1[:, None], other[:, None]
        f = lambda q: fn(np.where(a1, q, o), np.where(a1, o, q), x1, x2)
        if self.H2.parts:
            m1, m2 = (pm[cells] for pm in self.part_minima)
            m = np.hstack([np.where(a1, m1, np.nan), np.where(a1, np.nan, m2)])
        else:
            m = grid_minimizers(f, self.qs, cells.size)
        return interval_min(f, lo, hi, m)

    def _corner_minima(self):
        """(q1, q2, value) of H's local minimizers at each corner cell, rows
        padded with NaN: grid points no higher than their eight neighbours
        and below their two lower ones, refined along each slope in turn."""
        fn, qs, c = self.H2.fn, self.qs, self.corner
        v = np.broadcast_to(fn(qs[:, None], qs, self.X1[c][:, None, None],
                               self.X2[c][:, None, None]),
                            (c.size, qs.size, qs.size))
        win = sliding_window_view(
            np.pad(v, ((0, 0), (1, 1), (1, 1)), constant_values=np.inf),
            (3, 3), axis=(1, 2))
        r, i, j = np.nonzero((v <= win.min(axis=(-2, -1)))
                             & (v < win[..., 0, 1]) & (v < win[..., 1, 0]))
        m, best = [qs[i], qs[j]], v[r, i, j]
        x1, x2 = self.X1[c][r], self.X2[c][r]
        dq = qs[1] - qs[0]
        for _ in range(6):
            for k in (0, 1):
                along = lambda q: fn(*m[:k], q, *m[k + 1:], x1, x2)
                t, ft = golden_section_min(along, m[k] - dq, m[k] + dq)
                m[k], best = np.where(ft < best, t, m[k]), np.minimum(ft, best)
        return [_pad_rows(r, w, c.size) for w in (*m, best)]

    # -- residual -----------------------------------------------------------

    def _slopes(self, u):
        """One-sided slopes (p1-, p1+, p2-, p2+) clipped to the span, NaN
        where the neighbour is missing."""
        h, S = self.dom.h2, self.span
        uE, uW, uN, uS = (self._neighbor(u, i)
                          for i in (self.iE, self.iW, self.iN, self.iS))
        return (np.clip(np.where(self.iW >= 0, (u - uW) / h, np.nan), -S, S),
                np.clip(np.where(self.iE >= 0, (uE - u) / h, np.nan), -S, S),
                np.clip(np.where(self.iS >= 0, (u - uS) / h, np.nan), -S, S),
                np.clip(np.where(self.iN >= 0, (uN - u) / h, np.nan), -S, S))

    def required_theta(self, u):
        """[theta1, theta2] per cell: bounds of |dH/dp_k| over the cell's
        slope range in direction k, padded by edge.THETA_PAD."""
        p1m, p1p, p2m, p2p = self._slopes(u)
        return [tab.range_max(np.fmin(a, b) - THETA_PAD,
                              np.fmax(a, b) + THETA_PAD)
                for tab, a, b in ((self.tab1, p1m, p1p),
                                  (self.tab2, p2m, p2p))]

    def residual(self, u, theta=None):
        P = self.P
        p1m, p1p, p2m, p2p = self._slopes(u)
        th1, th2 = self.required_theta(u) if theta is None else theta
        # inward-admissible slope intervals: [p-, P] without the outward
        # neighbour, [-P, p+] without the inward one
        lo1 = np.where(self.mode1 == 1, p1m, -P)
        hi1 = np.maximum(np.where(self.mode1 == 1, P, p1p), lo1)
        lo2 = np.where(self.mode2 == 1, p2m, -P)
        hi2 = np.maximum(np.where(self.mode2 == 1, P, p2p), lo2)
        a1, a2 = 0.5 * (p1m + p1p), 0.5 * (p2m + p2p)
        lf1, lf2 = 0.5 * th1 * (p1p - p1m), 0.5 * th2 * (p2p - p2m)

        fn, X1, X2 = self.H2.fn, self.X1, self.X2
        s0, s1, s2, c = self.inner, self.side1, self.side2, self.corner
        F = np.empty(self.count)
        F[s0] = fn(a1[s0], a2[s0], X1[s0], X2[s0]) - lf1[s0] - lf2[s0]
        # one batch: the side rows, then the four edges of every
        # corner's slope box
        n1, n2 = s1.size, s1.size + s2.size
        cells = np.concatenate([s1, s2, c, c, c, c])
        along1 = np.repeat([True, False, True, False],
                           [s1.size, s2.size, 2 * c.size, 2 * c.size])
        m = self._joint_min(
            cells, along1, np.where(along1, lo1[cells], lo2[cells]),
            np.where(along1, hi1[cells], hi2[cells]),
            np.concatenate([a2[s1], a1[s2], lo2[c], hi2[c], lo1[c], hi1[c]]))
        F[s1] = m[:n1] - lf2[s1]
        F[s2] = m[n1:n2] - lf1[s2]
        q1, q2, val = self.corner_minima
        inside = ((q1 > lo1[c, None]) & (q1 < hi1[c, None])
                  & (q2 > lo2[c, None]) & (q2 < hi2[c, None]))
        F[c] = np.minimum(m[n2:].reshape(4, -1).min(axis=0, initial=np.inf),
                          np.where(inside, val, np.inf).min(
                              axis=1, initial=np.inf))
        return u + F, (th1, th2)

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
    """tol bounds max|R|; max_iters caps the Newton steps."""

    tol: float = 1e-7
    max_iters: int = 150

    def __post_init__(self):
        check_stopping_rule(self)


def _jacobian(sys_, u, theta):
    """(diag, off) of the 5-point Jacobian of the residual at fixed theta,
    off[d] the entries in the columns of the E/W/N/S neighbours (0 where
    one is missing), in the form LevelChain.solve takes. Central
    differences, projected onto M-matrices (positive off-diagonal entries
    dropped, the diagonal raised to 1 + the sum of the off-diagonal
    magnitudes), because differences across a kink of H can otherwise leave
    negative diagonals. Colouring cell (I, J) by (I + 2J) mod 5 gives the
    five cells of every stencil five distinct colours, so one perturbation
    per colour yields every column."""
    colour = (sys_.I + 2 * sys_.J) % 5
    D = np.empty((5, sys_.count))
    for c in range(5):
        e = np.where(colour == c, FD_STEP, 0.0)
        Rp, _ = sys_.residual(u + e, theta)
        Rm, _ = sys_.residual(u - e, theta)
        D[c] = (Rp - Rm) / (2.0 * FD_STEP)
    k = np.arange(sys_.count)
    shift = np.array([[1], [-1], [2], [-2]])
    off = np.where(sys_.dom.chain.nbrs >= 0,
                   np.minimum(D[(colour + shift) % 5, k], 0.0), 0.0)
    return np.maximum(D[colour, k], 1.0 - off.sum(axis=0)), off


def solve_fat_state_constraint(H2, dom, params=None):
    """Solve the 2-D state-constraint problem on the tube (every boundary
    cell uses the inward-admissible slope minimization) by damped
    semismooth Newton, junction.newton. The report's method is "newton_2d"
    and its theta the per-cell [theta1, theta2] of the scheme at the
    answer."""
    params = params or FatSolverParams()
    t0 = time.perf_counter()
    sys_ = FatSystem(H2, dom)

    def point(u, theta, accepted):
        if accepted:
            theta = [raised_theta(t, r) for t, r in
                     zip(theta or (None, None), sys_.required_theta(u))]
        R = sys_.residual(u, theta)[0]
        return theta, R, lambda: dom.chain.solve(*_jacobian(sys_, u, theta),
                                                 -R)

    u, theta, steps, res, status = newton(
        point, sys_.default_init(), params.tol, params.max_iters)
    ok = status == "converged"
    flag = "newton_stalled" if status == "breakdown" else status
    rep = SolveReport(steps, res, ok, time.perf_counter() - t0, "newton_2d",
                      flags=() if ok else (flag,), theta=theta)
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
    given. The reference has state-constraint far ends, the tube's own
    condition on its whole boundary. params configures the 2-D solves,
    solver_params the 1-D reference."""
    eps_arr = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps_list must decrease strictly")

    H1r = reduce_2d(H2, 1)
    H2r = reduce_2d(H2, 2)
    sc = StateConstraint()
    prob = make_junction_problem(
        [EdgeSpec(a1, n_1d, sc), EdgeSpec(a2, n_1d, sc)], [H1r, H2r])
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
