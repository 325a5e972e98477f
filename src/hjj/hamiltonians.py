"""Hamiltonians H(p, x): builtin families, parsed expressions, probing and envelopes.

A Hamiltonian is an evaluable slope-position map together with probed
metadata: a coercivity bound P (H(+-q, x) >= level for all probed |q| >= P),
the local minimizers of p -> H(p, 0), and sampled shape flags. Evaluation
broadcasts over numpy arrays, so every probe of H over slopes and positions
is one call: slopes along the rows, positions along the columns. A
Hamiltonian keeps no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import expr

COERCIVITY_CAP = 1.0e4
DEFAULT_X_SAMPLES = (0.0, -0.25, -0.5, -0.75, -1.0)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class NotCoerciveError(ValueError):
    pass


@dataclass(frozen=True)
class ShapeFlags:
    quasiconvex: bool
    convex: bool
    no_flat_parts: bool


@dataclass(frozen=True)
class Hamiltonian:
    """Slope-position energy map with probed coercivity data.

    fn(p, x) must accept floats or numpy arrays (broadcasting) and return
    finite values on [-P, P] x [x range of interest].
    """

    fn: Callable
    coercivity_bound: float
    coercivity_level: float
    minima: tuple
    flags: ShapeFlags
    source: str

    def __call__(self, p, x=0.0):
        return self.fn(p, x)

    def __repr__(self):
        return f"Hamiltonian({self.source}, P={self.coercivity_bound:.4g})"


@dataclass(frozen=True)
class Hamiltonian2D:
    """Joint two-slope Hamiltonian H(p1, p2, x1, x2), coercive in (p1, p2).

    parts is (H1, H2) for a max form max(H1(p1, x1), H2(p2, x2)), which
    reduce_2d then reduces in closed form; it is empty otherwise.
    """

    fn: Callable
    coercivity_bound: float
    coercivity_level: float
    source: str
    parts: tuple = ()

    def __call__(self, p1, p2, x1=0.0, x2=0.0):
        return self.fn(p1, p2, x1, x2)

    def __repr__(self):
        return f"Hamiltonian2D({self.source}, P={self.coercivity_bound:.4g})"


@dataclass(frozen=True)
class FluxLimiter:
    """Junction Hamiltonian max(A, max_i Hi-(p_i, 0)) built from the
    nonincreasing parts Hi- of quasiconvex edge Hamiltonians."""

    limiter_value: float
    parts: tuple

    @property
    def k(self):
        return len(self.parts)

    def __call__(self, slopes):
        if len(slopes) != len(self.parts):
            raise ValueError(f"expected {len(self.parts)} slopes, got {len(slopes)}")
        out = np.asarray(self.limiter_value, dtype=float)
        for part, p in zip(self.parts, slopes):
            out = np.maximum(out, part(p, 0.0))
        return out


# ---------------------------------------------------------------------------
# scalar / vectorized bracketed minimization
# ---------------------------------------------------------------------------

def golden_section_min(f, a, b, xtol=1e-9):
    """Golden-section search for a minimum of f on [a, b], elementwise over
    arrays of brackets (f maps slopes to values of the same shape). Each
    bracket stops once no wider than xtol or after 200 steps, with the
    float operations of a search on it alone. Returns (x, f(x)), floats for
    scalar brackets, never above the best evaluated point, the bracket
    endpoints included."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    lo, hi = a.copy(), b.copy()
    width = hi - lo
    c, d = hi - _INVPHI * width, lo + _INVPHI * width
    fc, fd = np.array(f(c), dtype=float), np.array(f(d), dtype=float)
    best_x, best_f = np.where(fc <= fd, c, d), np.where(fc <= fd, fc, fd)
    active = width > xtol
    it = 0
    while it < 200 and active.any():
        # an active bracket drops the side beyond its worse interior point;
        # the better one stays as an interior point of the new bracket
        left = (fc <= fd) & active
        right = active ^ left
        for dst, src, where in ((hi, d, left), (lo, c, right), (d, c, left),
                                (fd, fc, left), (c, d, right),
                                (fc, fd, right)):
            np.copyto(dst, src, where=where)
        width = hi - lo
        step = _INVPHI * width
        x = lo + step
        np.copyto(x, hi - step, where=left)
        fx = np.asarray(f(x), dtype=float)
        better = (fx < best_f) & active
        for dst, src, where in ((c, x, left), (fc, fx, left), (d, x, right),
                                (fd, fx, right), (best_x, x, better),
                                (best_f, fx, better)):
            np.copyto(dst, src, where=where)
        active = width > xtol
        it += 1
    for xe in (a, b):
        fe = np.asarray(f(xe), dtype=float)
        np.copyto(best_x, xe, where=fe < best_f)
        np.copyto(best_f, fe, where=fe < best_f)
    if scalar:
        return float(best_x[0]), float(best_f[0])
    return best_x, best_f


def _pad_rows(r, values, rows):
    """values grouped by their nondecreasing rows r, padded with NaN."""
    counts = np.bincount(r, minlength=rows)
    out = np.full((rows, int(counts.max(initial=0))), np.nan)
    out[r, np.arange(r.size) - np.repeat(np.cumsum(counts) - counts,
                                         counts)] = values
    return out


def grid_minimizers(f, qs, rows):
    """Local minimizers of `rows` functions, located on the fixed slope
    grid qs; f maps slopes of shape (rows, m) to values, row r being the
    r-th function. A grid point below its left neighbour and not above its
    right one brackets a minimizer (a flat bottom gives its left end);
    golden-section search refines all brackets at once to 1e-9, and the
    grid point is kept where it is lower. Returns (rows, k), padded with
    NaN."""
    grid = np.broadcast_to(qs, (rows, len(qs)))
    v = np.broadcast_to(f(grid), grid.shape)
    r, i = np.nonzero((v[:, 1:-1] < v[:, :-2]) & (v[:, 1:-1] <= v[:, 2:]))
    a, b, at, v_at = (_pad_rows(r, w, rows)
                      for w in (qs[i], qs[i + 2], qs[i + 1], v[r, i + 1]))
    # padded lanes hold NaN brackets, which the search leaves at once
    x, fx = golden_section_min(lambda q: np.broadcast_to(f(q), q.shape),
                               a, b)
    return np.where(v_at < fx, at, x)


def interval_min(f, lo, hi, minimizers):
    """Minimum of q -> f(q) over [lo, hi], one interval per row: the least
    of f(lo), f(hi) and f at the row's minimizers strictly inside. With the
    minimizers of grid_minimizers, which do not depend on the interval,
    this is the exact minimum of a fixed function, so it never rises as the
    interval widens. f is as in grid_minimizers."""
    m, lo, hi = minimizers, lo[:, None], hi[:, None]
    q = np.concatenate([lo, hi, np.where((m > lo) & (m < hi), m, lo)], axis=1)
    return np.min(np.broadcast_to(f(q), q.shape), axis=1)


# ---------------------------------------------------------------------------
# coercivity probing
# ---------------------------------------------------------------------------

def _min_over_ring_1d(fn, q, x_samples):
    """min over x in x_samples of min(fn(q, x), fn(-q, x)), elementwise in q,
    from one call of fn on the slopes (q, -q) against the positions."""
    q = np.asarray(q, dtype=float)
    xs = np.asarray(x_samples, dtype=float)
    v = np.broadcast_to(fn(np.concatenate([q, -q])[:, None], xs[None, :]),
                        (2 * q.size, xs.size)).min(axis=1, initial=np.inf)
    return np.minimum(v[:q.size], v[q.size:])


def _probe_callable(ring_min, level):
    """Doubling search then bisection to 1e-3 for the smallest magnitude P
    with ring_min(q) >= level for all probed q >= P; NotCoerciveError when
    no P is found below COERCIVITY_CAP."""
    q = 1.0
    lo = 0.0
    while True:
        while ring_min(np.asarray([q]))[0] < level:
            lo = q
            q *= 2.0
            if q > COERCIVITY_CAP:
                raise NotCoerciveError(
                    "not coercive at this level "
                    f"(no bound below {COERCIVITY_CAP:g})")
        tail = np.geomspace(q, COERCIVITY_CAP, 64)
        tv = ring_min(tail)
        bad = np.nonzero(tv < level)[0]
        if bad.size == 0:
            break
        lo = float(tail[bad[-1]])
        q = lo * 2.0
        if q > COERCIVITY_CAP:
            raise NotCoerciveError(
                "not coercive at this level "
                f"(no bound below {COERCIVITY_CAP:g})")
    hi = q
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        seg = np.linspace(mid, hi, 17)
        if np.all(ring_min(seg) >= level):
            hi = mid
        else:
            lo = mid
    return hi


def probe_coercivity(H, level):
    """Smallest probed slope magnitude P with H(+-q, x) >= level for all
    probed q >= P and x in DEFAULT_X_SAMPLES. Raises NotCoerciveError if no
    such bound exists below the hard cap."""
    fn = H.fn if isinstance(H, Hamiltonian) else H
    return _probe_callable(
        lambda q: _min_over_ring_1d(fn, q, DEFAULT_X_SAMPLES), level)


def probe_coercivity_2d(fn, level):
    """Joint coercivity bound: H >= level whenever max(|p1|, |p2|) >= P,
    probed at x1 = x2 = 0 on 17 points of each side of the square ring."""

    def ring_min(qs):
        qs = np.asarray(qs, dtype=float)
        t = np.linspace(-1.0, 1.0, 17)
        out = np.inf * np.ones_like(qs)
        for sign in (1.0, -1.0):
            e1 = fn(sign * qs[:, None], qs[:, None] * t[None, :], 0.0, 0.0)
            e2 = fn(qs[:, None] * t[None, :], sign * qs[:, None], 0.0, 0.0)
            out = np.minimum(out, np.minimum(e1.min(axis=1), e2.min(axis=1)))
        return out

    return _probe_callable(ring_min, level)


# ---------------------------------------------------------------------------
# minima detection
# ---------------------------------------------------------------------------

def find_minima(H, P, resolution=4096):
    """All local minimizers of p -> H(p, 0) on [-P, P].

    Grid scan at `resolution` samples, golden-section refinement to 1e-9
    (all brackets in one call), duplicates within 1e-6 merged. A
    sampled flat bottom (a plateau of equal values) contributes one
    representative at its midpoint. The scan visits only the grid points
    that are no higher than both neighbours, found in one comparison.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    fn = H.fn if isinstance(H, Hamiltonian) else H
    qs = np.linspace(-P, P, resolution + 1)
    v = np.asarray(fn(qs, 0.0), dtype=float)
    scale = 1.0 + float(np.max(np.abs(v)))
    flat_tol = 1e-11 * scale

    found = []
    brackets = []
    n = len(qs)
    low = np.nonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:]))[0] + 1
    resume = 1
    for i in low.tolist():
        # a scan from the left resumes past each visited point's plateau
        if i < resume:
            continue
        j = i
        while j + 1 < n - 1 and abs(v[j + 1] - v[i]) <= flat_tol:
            j += 1
        left_up = v[i - 1] > v[i] + flat_tol
        right_up = v[min(j + 1, n - 1)] > v[j] + flat_tol
        if left_up and right_up:
            if j - i <= 1:
                brackets.append((qs[i - 1], qs[j + 1]))
            else:
                found.append(0.5 * (qs[i] + qs[j]))
        resume = j + 1
    if brackets:
        a, b = np.asarray(brackets).T
        x, _ = golden_section_min(lambda p: fn(p, 0.0), a, b, xtol=1e-9)
        found.extend(x.tolist())

    found.sort()
    merged = []
    for x in found:
        if merged and abs(x - merged[-1]) <= 1e-6:
            if float(fn(x, 0.0)) < float(fn(merged[-1], 0.0)):
                merged[-1] = x
        else:
            merged.append(x)
    return np.asarray(merged)


def rightward_min_threshold(H):
    """Rightmost global minimizer of p -> H(p, 0) on [-P, P].

    Computed by a suffix-minimum scan over a slope grid (the largest grid
    slope attaining the global minimum within 1e-12), then refined by a
    bracketed search to 1e-6. Under exact ties between separated wells the
    rightmost attaining slope is returned.
    """
    P = H.coercivity_bound
    qs = np.linspace(-P, P, 4097)
    if len(H.minima):
        qs = np.union1d(qs, np.asarray(H.minima, dtype=float))
    v = np.asarray(H(qs, 0.0), dtype=float)
    gmin = v.min()
    k = int(np.nonzero(v <= gmin + 1e-12)[0][-1])
    lo = qs[max(k - 1, 0)]
    hi = qs[min(k + 1, len(qs) - 1)]
    x, _ = golden_section_min(lambda p: H(p, 0.0), lo, hi, xtol=1e-7)
    return x


# ---------------------------------------------------------------------------
# shape flags by sampling
# ---------------------------------------------------------------------------

def _sample_shape_flags(fn, P, minima):
    qs = np.linspace(-P, P, 2049)
    v = np.asarray(fn(qs, 0.0), dtype=float)
    scale = 1.0 + float(np.max(np.abs(v)))
    d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
    convex = bool(np.all(d2 >= -1e-9 * scale))
    # a flat part is two consecutive flat steps
    flat = np.abs(np.diff(v)) <= 1e-11 * scale
    no_flat = not np.any(flat[1:] & flat[:-1])
    quasiconvex = len(minima) == 1 and no_flat
    return ShapeFlags(quasiconvex=quasiconvex or convex and no_flat,
                      convex=convex, no_flat_parts=no_flat)


def validate_hamiltonian(H):
    """Sampled invariant check: finite values on 512 slopes of [-P, P] x
    DEFAULT_X_SAMPLES, minima sorted inside (-P, P), coercivity holds at
    +-P."""
    P = H.coercivity_bound
    qs = np.linspace(-P, P, 512)
    xs = np.asarray(DEFAULT_X_SAMPLES, dtype=float)
    finite = np.isfinite(np.broadcast_to(H(qs[None, :], xs[:, None]),
                                         (xs.size, 512))).all(axis=1)
    if not finite.all():
        x = DEFAULT_X_SAMPLES[int(np.argmin(finite))]
        raise ValueError(f"H({H.source}) not finite on [-P, P] at x={x}")
    m = np.asarray(H.minima, dtype=float)
    if m.size:
        if np.any(np.diff(m) < 0):
            raise ValueError("minima not sorted")
        if np.any(np.abs(m) >= P):
            raise ValueError("minimum outside (-P, P)")
    edge = _min_over_ring_1d(H.fn, np.asarray([P]), DEFAULT_X_SAMPLES)[0]
    if edge < H.coercivity_level - 1e-9:
        raise ValueError(
            f"coercivity violated at P={P:g}: H={edge:g} < level={H.coercivity_level:g}"
        )
    return True


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _broadcasted(raw):
    """raw, called with float arrays, returning a value of its arguments'
    broadcast shape (a float for scalar arguments). The value is broadcast
    and copied only when raw's has another shape, as for an expression
    that omits a variable."""
    def fn(*args):
        arrs = [np.asarray(a, dtype=float) for a in args]
        shape = np.broadcast_shapes(*[a.shape for a in arrs])
        out = np.asarray(raw(*arrs), dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out if shape else float(out)
    return fn


def _finalize(fn, minima, flags, source):
    level = 2.0 + max(abs(float(fn(p, 0.0)))
                      for p in [0.0] + [float(m) for m in minima])
    P = _probe_callable(
        lambda q: _min_over_ring_1d(fn, q, DEFAULT_X_SAMPLES), level)
    H = Hamiltonian(
        fn=fn,
        coercivity_bound=P,
        coercivity_level=level,
        minima=tuple(float(m) for m in minima),
        flags=flags,
        source=source,
    )
    validate_hamiltonian(H)
    return H


def make_builtin(family, b=0.0, c=0.0, src=None):
    """Construct a builtin Hamiltonian family with analytic minima, probed
    at the level 2 above the largest |H(p, 0)| at p = 0 and the minima.

    Families: abs_shift |p-b|-c, quadratic (p-b)^2-c,
    double_well ((p-b)^2-1)^2-c, expression (delegates to parse_expression).
    """
    for name, val in (("b", b), ("c", c)):
        if isinstance(val, bool) or not isinstance(val, (int, float)) \
                or not math.isfinite(float(val)):
            raise ValueError(f"malformed parameter {name}={val!r}")
    b, c = float(b), float(c)
    if family == "abs_shift":
        fn = lambda p, x: np.abs(p - b) - c
        return _finalize(fn, (b,), ShapeFlags(True, True, True),
                         f"abs_shift(b={b:g},c={c:g})")
    if family == "quadratic":
        fn = lambda p, x: (p - b) ** 2 - c
        return _finalize(fn, (b,), ShapeFlags(True, True, True),
                         f"quadratic(b={b:g},c={c:g})")
    if family == "double_well":
        fn = lambda p, x: ((p - b) ** 2 - 1.0) ** 2 - c
        return _finalize(fn, (b - 1.0, b + 1.0), ShapeFlags(False, False, True),
                         f"double_well(b={b:g},c={c:g})")
    if family == "expression":
        if src is None:
            raise ValueError("expression family requires src")
        return parse_expression(src)
    raise ValueError(f"unknown family '{family}'")


def parse_expression(src):
    """Parse an expression in variables p, x into a probed Hamiltonian.

    The coercivity level is 2 above |H(0, 0)|. The coercivity bound and
    minima are found numerically; shape flags are determined by sampling
    p -> H(p, 0).
    """
    e = expr.parse(src, variables=("p", "x"))
    fn = _broadcasted(lambda p, x: e(p=p, x=x))
    level = 2.0 + abs(float(fn(0.0, 0.0)))
    P = _probe_callable(
        lambda q: _min_over_ring_1d(fn, q, DEFAULT_X_SAMPLES), level)
    minima = find_minima(fn, P)
    flags = _sample_shape_flags(fn, P, minima)
    H = Hamiltonian(fn=fn, coercivity_bound=P, coercivity_level=level,
                    minima=tuple(minima), flags=flags, source=f"expr({src})")
    validate_hamiltonian(H)
    return H


def ensure_level(H, level):
    """Return H re-probed so its coercivity level is at least `level`."""
    if H.coercivity_level >= level:
        return H
    P = probe_coercivity(H, level)
    return replace(H, coercivity_bound=max(P, H.coercivity_bound),
                   coercivity_level=level)


# ---------------------------------------------------------------------------
# envelopes, flux limiters, 2-D reduction
# ---------------------------------------------------------------------------

def nonincreasing_part(H):
    """The nonincreasing part H-(p) = H(min(p, p0), 0) of a single-minimum
    Hamiltonian: equals H left of the minimizer, frozen at min H beyond it."""
    if len(H.minima) != 1:
        raise ValueError("flux limiter requires quasiconvex H (single minimum)")
    p0 = float(H.minima[0])
    base = H.fn
    fn = lambda p, x: base(np.minimum(p, p0), 0.0)
    return Hamiltonian(
        fn=fn,
        coercivity_bound=H.coercivity_bound,
        coercivity_level=H.coercivity_level,
        minima=(p0,),
        flags=ShapeFlags(quasiconvex=True, convex=H.flags.convex,
                         no_flat_parts=False),
        source=f"noninc({H.source})",
    )


def make_flux_limiter(H_list, A):
    """Flux limiter H_A(p1..pK) = max(A, max_i Hi-(p_i, 0))."""
    parts = tuple(nonincreasing_part(H) for H in H_list)
    return FluxLimiter(limiter_value=float(A), parts=parts)


def make_hamiltonian2d(fn, level=None, coercivity_bound=None, source="custom"):
    """Wrap a callable (p1, p2, x1, x2) -> value as a probed Hamiltonian2D.

    Evaluation is broadcast-enforced, so callables ignoring some arguments
    still return full arrays. The level defaults to 2 above |H(0, 0, 0, 0)|
    and the bound is probed by probe_coercivity_2d. Pass coercivity_bound
    explicitly to bypass probing (degenerate test Hamiltonians that are not
    jointly coercive)."""
    fn = _broadcasted(fn)
    if level is None:
        level = 2.0 + abs(float(fn(0.0, 0.0, 0.0, 0.0)))
    if coercivity_bound is None:
        coercivity_bound = probe_coercivity_2d(fn, level)
    return Hamiltonian2D(fn=fn, coercivity_bound=float(coercivity_bound),
                         coercivity_level=float(level), source=source)


def max_form_2d(H1, H2):
    """H(p1, p2, x1, x2) = max(H1(p1, x1), H2(p2, x2)), probed at the larger
    of the parts' coercivity levels."""
    fn = lambda p1, p2, x1, x2: np.maximum(H1.fn(p1, x1), H2.fn(p2, x2))
    level = max(H1.coercivity_level, H2.coercivity_level)
    H = make_hamiltonian2d(fn, level=level,
                           source=f"max({H1.source},{H2.source})")
    return replace(H, parts=(H1, H2))


def parse_expression_2d(src, coercivity_bound=None):
    """Parse an expression in p1, p2, x1, x2 into a Hamiltonian2D at the
    level 2 above |H(0, 0, 0, 0)|, probed unless coercivity_bound is given."""
    e = expr.parse(src, variables=("p1", "p2", "x1", "x2"))
    # make_hamiltonian2d converts and broadcasts the arguments and the value
    fn = lambda p1, p2, x1, x2: e(p1=p1, p2=p2, x1=x1, x2=x2)
    return make_hamiltonian2d(fn, coercivity_bound=coercivity_bound,
                              source=f"expr2d({src})")


def reduce_2d(H2, axis):
    """Reduce a 2-D Hamiltonian to one axis by minimizing over the transverse
    slope: axis=1 gives H1(p1, x1) = min_p2 H2(p1, p2, x1, 0), axis=2 gives
    H2r(p2, x2) = min_p1 H2(p1, p2, 0, x2).

    For a max form (H2.parts set) the minimum is closed:
    min_q max(H_own(p, x), H_other(q, 0)) = max(H_own(p, x), floor), with
    floor the least value of H_other over the transverse grid (129 points
    of [-P, P], and 0) and its minima in [-P, P]; no joint value is
    evaluated. Otherwise the transverse minimum is interval_min over
    [-P, P], its minimizers located on that grid. Either way the reduced
    map is then probed and analyzed like any other Hamiltonian.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    P = H2.coercivity_bound
    qs = np.union1d(np.linspace(-P, P, 129), [0.0])

    if H2.parts:
        own, other = H2.parts if axis == 1 else H2.parts[::-1]
        m = np.asarray(other.minima, dtype=float)
        cands = np.union1d(qs, m[np.abs(m) <= P])
        floor = float(np.min(other.fn(cands, 0.0)))
        fn = _broadcasted(lambda p, x: np.maximum(own.fn(p, x), floor))
    else:
        base = H2.fn

        def fn(p, x):
            p, x = np.broadcast_arrays(np.asarray(p, dtype=float),
                                       np.asarray(x, dtype=float))
            pf, xf = p.reshape(-1, 1), x.reshape(-1, 1)
            f = ((lambda q: base(pf, q, xf, 0.0)) if axis == 1
                 else (lambda q: base(q, pf, 0.0, xf)))
            best = interval_min(f, np.full(pf.size, -P), np.full(pf.size, P),
                                grid_minimizers(f, qs, pf.size))
            return best.reshape(p.shape) if p.shape else float(best[0])

    level = H2.coercivity_level
    Pr = _probe_callable(
        lambda q: _min_over_ring_1d(fn, q, [0.0]), level)
    minima = find_minima(fn, Pr)
    flags = _sample_shape_flags(fn, Pr, minima)
    return Hamiltonian(fn=fn, coercivity_bound=Pr, coercivity_level=level,
                       minima=tuple(minima), flags=flags,
                       source=f"reduce{axis}({H2.source})")


# ---------------------------------------------------------------------------
# slope envelopes and Lipschitz tables used by the finite-difference schemes
# ---------------------------------------------------------------------------

class SlopeEnvelope:
    """Running minimum of q -> H(q, x0) over [p, P] (side='right') or
    [-P, p] (side='left'), tabulated once on 4097 slopes of [-P, P] (and
    the minima) and queried in O(log n).

    Exact H(p, x0) at the query point and the analytic minima are always
    included among the candidates, so for single-minimum Hamiltonians the
    envelope is exact. It keeps H.fn rather than H, so that a table cached
    under H does not keep its own key alive.
    """

    def __init__(self, H, x0=0.0, side="right"):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        P = H.coercivity_bound
        qs = np.linspace(-P, P, 4097)
        if len(H.minima):
            qs = np.union1d(qs, np.asarray(H.minima, dtype=float))
        vals = np.asarray(H(qs, x0), dtype=float)
        self.fn = H.fn
        self.x0 = x0
        self.side = side
        self.qs = qs
        if side == "right":
            self.table = np.minimum.accumulate(vals[::-1])[::-1]
        else:
            self.table = np.minimum.accumulate(vals)

    def __call__(self, p):
        p_arr = np.asarray(p, dtype=float)
        direct = np.asarray(self.fn(p_arr, self.x0), dtype=float)
        if self.side == "right":
            idx = np.searchsorted(self.qs, p_arr, side="left")
            env = np.where(idx < len(self.qs),
                           self.table[np.minimum(idx, len(self.qs) - 1)], np.inf)
        else:
            idx = np.searchsorted(self.qs, p_arr, side="right") - 1
            env = np.where(idx >= 0, self.table[np.maximum(idx, 0)], np.inf)
        out = np.minimum(direct, env)
        return out if out.shape else float(out)


class SlopeLipschitzTable:
    """Sampled bound on |dH/dp| with fast range-max queries.

    Secant slopes of H(., x) are tabulated over [-span, span] (maxed over the
    x samples); range_max(a, b) returns the bound over the slope interval
    [a, b] via a sparse max table. Slopes outside the span clip to it.
    """

    def __init__(self, H, x_samples, span, samples=4096):
        s = np.linspace(-span, span, samples + 1)
        ds = s[1] - s[0]
        xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
        v = np.asarray(H(s[None, :], xs[:, None]), dtype=float)
        v = np.broadcast_to(v, np.broadcast_shapes(v.shape, (1, s.size)))
        d = np.zeros(samples)
        # one row's differences at a time keep the temporaries small;
        # division by ds > 0 is monotone, so it commutes with the max
        for row in v:
            np.maximum(d, np.abs(np.diff(row)), out=d)
        d /= ds
        self.s = s
        self.span = span
        self.n = samples
        n_levels = max(1, samples.bit_length())
        L = np.zeros((n_levels, samples))
        L[0] = d
        size = 1
        for k in range(1, n_levels):
            valid = samples - 2 * size + 1
            L[k, :valid] = np.maximum(L[k - 1, :valid], L[k - 1, size:size + valid])
            if valid < samples:
                L[k, valid:] = L[k - 1, valid:]
            size *= 2
        self.L = L
        self.global_max = float(d.max())

    def range_max(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        scalar = a.ndim == 0 and b.ndim == 0
        lo = np.clip(np.minimum(a, b), -self.span, self.span)
        hi = np.clip(np.maximum(a, b), -self.span, self.span)
        i = np.clip(np.searchsorted(self.s, lo, side="right") - 1, 0, self.n - 1)
        j = np.clip(np.searchsorted(self.s, hi, side="left") - 1, 0, self.n - 1)
        j = np.maximum(i, j)
        length = j - i + 1
        k = np.frexp(length)[1] - 1
        j2 = np.maximum(j - (1 << k) + 1, 0)
        out = np.maximum(self.L[k, i], self.L[k, j2])
        return float(out) if scalar else out

