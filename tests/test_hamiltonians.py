from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjj import expr
from hjj import hamiltonians as hm


@pytest.fixture(scope="module")
def h_abs():
    return hm.make_builtin("abs_shift", b=0.0, c=1.0)


@pytest.fixture(scope="module")
def h_quad():
    return hm.make_builtin("quadratic", b=1.0, c=1.0)


@pytest.fixture(scope="module")
def h_dw():
    return hm.make_builtin("double_well", b=-2.0, c=0.0)


class TestBuiltins:
    def test_abs_shift(self, h_abs):
        assert h_abs(2.0) == 1.0
        assert h_abs.minima == (0.0,)
        assert h_abs.flags.convex and h_abs.flags.quasiconvex

    def test_double_well(self, h_dw):
        assert h_dw(-2.0) == 1.0
        assert h_dw.minima == (-3.0, -1.0)
        assert not h_dw.flags.convex

    def test_quadratic(self, h_quad):
        assert h_quad(1.0) == -1.0
        assert h_quad.minima == (1.0,)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            hm.make_builtin("cubic", b=0, c=0)

    def test_malformed_params(self):
        with pytest.raises(ValueError, match="malformed"):
            hm.make_builtin("abs_shift", b=float("nan"), c=1.0)

    def test_validated(self, h_abs, h_quad, h_dw):
        for H in (h_abs, h_quad, h_dw):
            assert hm.validate_hamiltonian(H)


class TestParseExpression:
    def test_abs(self):
        H = hm.parse_expression("abs(p) - 1")
        assert H(1.0) == 0.0
        assert len(H.minima) == 1 and abs(H.minima[0]) < 1e-6
        assert H.flags.quasiconvex

    def test_shifted_quadratic(self):
        H = hm.parse_expression("(p-1)^2 - 1")
        assert H(1.0) == -1.0
        assert abs(H.minima[0] - 1.0) < 1e-6
        assert H.flags.convex

    def test_max_and_x(self):
        H = hm.parse_expression("max(abs(p)-1, 0) + x")
        assert H(2.0, 0.5) == 1.5

    def test_syntax_error_propagates(self):
        with pytest.raises(hm.expr.ExprError):
            hm.parse_expression("abs(p")


class TestProbeCoercivity:
    def test_abs_level_one(self, h_abs):
        assert hm.probe_coercivity(h_abs, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_quadratic_level_three(self, h_quad):
        # (p-1)^2 - 1 = 3 at p = 3 and p = -1; the binding side is p = -3
        # versus +3: H(-3) = 15 >= 3, H(3) = 3, so P = 3.
        assert hm.probe_coercivity(h_quad, 3.0) == pytest.approx(3.0, abs=1e-3)

    def test_bounded_function_fails(self):
        with pytest.raises(hm.NotCoerciveError, match="not coercive"):
            hm._probe_callable(
                lambda q: np.sin(np.asarray(q, dtype=float)), level=1.5)


class TestFindMinima:
    def test_abs(self, h_abs):
        m = hm.find_minima(h_abs, h_abs.coercivity_bound)
        np.testing.assert_allclose(m, [0.0], atol=1e-6)

    def test_double_well(self, h_dw):
        m = hm.find_minima(h_dw, h_dw.coercivity_bound)
        np.testing.assert_allclose(m, [-3.0, -1.0], atol=1e-6)

    def test_quadratic(self, h_quad):
        m = hm.find_minima(h_quad, h_quad.coercivity_bound)
        np.testing.assert_allclose(m, [1.0], atol=1e-6)

    def test_resolution_floor(self, h_abs):
        with pytest.raises(ValueError, match="resolution"):
            hm.find_minima(h_abs, 2.0, resolution=32)

    def test_plateau_yields_single_representative(self):
        H = hm.parse_expression("max(abs(p)-2, -1)")
        m = hm.find_minima(H, H.coercivity_bound)
        assert len(m) == 1
        assert abs(m[0]) < 0.1
        assert not H.flags.no_flat_parts


class TestNonincreasingPart:
    def test_abs_values(self, h_abs):
        Hm = hm.nonincreasing_part(h_abs)
        assert Hm(-2.0) == 1.0
        assert Hm(0.0) == -1.0
        assert Hm(5.0) == -1.0

    def test_quadratic_constant_past_minimum(self, h_quad):
        assert hm.nonincreasing_part(h_quad)(3.0) == -1.0

    def test_double_well_rejected(self, h_dw):
        with pytest.raises(ValueError, match="quasiconvex"):
            hm.nonincreasing_part(h_dw)

    def test_envelope_identity_and_monotone(self, h_abs, h_quad):
        for H in (h_abs, h_quad):
            Hm = hm.nonincreasing_part(H)
            p0 = H.minima[0]
            ps = np.linspace(-H.coercivity_bound, H.coercivity_bound, 513)
            np.testing.assert_allclose(Hm(ps), H(np.minimum(ps, p0), 0.0),
                                       rtol=0, atol=0)
            v = Hm(ps)
            assert np.all(v[:-1] >= v[1:] - 1e-12)


class TestFluxLimiter:
    def test_evaluate_cases(self, h_abs):
        fl = hm.make_flux_limiter([h_abs, h_abs], -0.5)
        assert fl([0.0, 0.0]) == -0.5
        fl2 = hm.make_flux_limiter([h_abs, h_abs], -2.0)
        assert fl2([-3.0, 0.0]) == 2.0

    def test_single_edge_reduces_to_envelope(self, h_abs):
        fl = hm.make_flux_limiter([h_abs], -1.0)
        Hm = hm.nonincreasing_part(h_abs)
        for p in (-2.0, -0.5, 0.0):
            assert fl([p]) == Hm(p)

    def test_monotone_in_each_coordinate(self, h_abs, h_quad):
        fl = hm.make_flux_limiter([h_abs, h_quad], -0.3)
        ps = np.linspace(-4.0, 4.0, 101)
        for k, other in ((0, 1.0), (1, -2.0)):
            slopes = [ps, np.full_like(ps, other)]
            if k == 1:
                slopes.reverse()
            v = fl(slopes)
            assert np.all(v[:-1] >= v[1:] - 1e-12)

    def test_wrong_arity(self, h_abs):
        fl = hm.make_flux_limiter([h_abs], 0.0)
        with pytest.raises(ValueError, match="expected 1 slopes"):
            fl([0.0, 1.0])


class TestReduce2D:
    def test_anisotropic_quadratic(self):
        H2 = hm.parse_expression_2d("p1^2 + 10*p2^2")
        H1 = hm.reduce_2d(H2, 1)
        Hr = hm.reduce_2d(H2, 2)
        for p in (0.0, 0.5, 1.0):
            assert H1(p) == pytest.approx(p * p, abs=1e-12)
            assert Hr(p) == pytest.approx(10 * p * p, abs=1e-12)

    def test_max_form(self):
        h1 = hm.make_builtin("abs_shift", c=1.0)
        h2 = hm.make_builtin("abs_shift", c=2.0)
        H2 = hm.max_form_2d(h1, h2)
        H1 = hm.reduce_2d(H2, 1)
        for p in (-1.5, 0.0, 0.7):
            assert H1(p) == pytest.approx(max(abs(p) - 1.0, -2.0), abs=1e-9)

    def test_isotropic_at_zero(self):
        H2 = hm.parse_expression_2d("p1^2 + p2^2")
        assert hm.reduce_2d(H2, 1)(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_lower_bound_invariant(self):
        H2 = hm.parse_expression_2d("p1^2 + 10*p2^2")
        H1 = hm.reduce_2d(H2, 1)
        p1 = np.linspace(-1.0, 1.0, 21)
        for p2 in np.linspace(-1.2, 1.2, 13):
            assert np.all(H1(p1) <= H2(p1, p2) + 1e-9)

    def test_counterexample_witness(self):
        # max-of-reductions does not reconstruct the joint Hamiltonian
        H2 = hm.parse_expression_2d("p1^2 + 10*p2^2")
        H1 = hm.reduce_2d(H2, 1)
        Hr = hm.reduce_2d(H2, 2)
        assert H2(1.0, 1.0) == 11.0
        assert max(H1(1.0), Hr(1.0)) == 10.0

    def test_max_form_evaluates_no_joint_value(self):
        def joint(*args):
            raise AssertionError("joint H evaluated")

        H2 = hm.max_form_2d(hm.make_builtin("abs_shift", b=0.3, c=1.0),
                            hm.make_builtin("double_well", b=-0.2, c=1.5))
        H2 = replace(H2, fn=joint)
        for axis in (1, 2):
            Hr = hm.reduce_2d(H2, axis)
            v = Hr(np.linspace(-2.0, 2.0, 9), 0.0)
            assert v.shape == (9,) and np.all(np.isfinite(v))
            assert isinstance(Hr(0.5), float)


_MAX_FORM_PART = st.tuples(
    st.sampled_from(["abs_shift", "quadratic", "double_well"]),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    st.floats(0.5, 2.0))


@settings(max_examples=100)
@given(_MAX_FORM_PART, _MAX_FORM_PART, st.sampled_from([1, 2]))
def test_max_form_reduction_matches_sampled_minimum(own, other, axis):
    # the closed form of a max form against the transverse search of the
    # same joint function: never above it, and below it by at most the
    # other part's slope bound times dq/16 (the bound of the two zoom rounds
    # the search once made). Where the other part's minimizer lies on the
    # transverse grid (abs_shift and quadratic with b = 0) the two agree
    # bit for bit, minima and flags included
    specs = (own, other) if axis == 1 else (other, own)
    parts = [hm.make_builtin(f, b=b, c=c) for f, b, c in specs]
    H2 = hm.max_form_2d(*parts)
    joint = hm.make_hamiltonian2d(H2.fn, level=H2.coercivity_level,
                                  coercivity_bound=H2.coercivity_bound)
    closed, sampled = hm.reduce_2d(H2, axis), hm.reduce_2d(joint, axis)
    assert closed.coercivity_bound == sampled.coercivity_bound

    P = H2.coercivity_bound
    dq = 2.0 * P / (129 - 1)
    qs = np.union1d(np.linspace(-P, P, 129), [0.0])
    H_other = parts[2 - axis]
    L_other = hm.SlopeLipschitzTable(H_other, [0.0], P).global_max
    ps = np.linspace(-P, P, 513)
    gap = sampled(ps, 0.0) - closed(ps, 0.0)
    assert np.all(gap >= 0.0)
    assert np.all(gap <= L_other * dq / 16.0)
    if np.isin(H_other.minima, qs).any():
        assert np.array_equal(gap, np.zeros_like(gap))
        assert closed.minima == sampled.minima
        assert closed.flags == sampled.flags


def test_sampled_reduction_of_max_expression_matches_max_form():
    # a parsed max expression has no parts, so its transverse minimum is
    # searched; the minimizer 0.3 of abs(p2 - 0.3) lies off the grid, and
    # the search must still reach the exact floor -1 without a flat bottom
    parsed = hm.parse_expression_2d("max(p1^2 - 1, abs(p2 - 0.3) - 1)")
    closed = hm.max_form_2d(hm.make_builtin("quadratic", c=1.0),
                            hm.make_builtin("abs_shift", b=0.3, c=1.0))
    a, b = hm.reduce_2d(parsed, 1), hm.reduce_2d(closed, 1)
    P = min(a.coercivity_bound, b.coercivity_bound)
    ps = np.linspace(-P, P, 513)
    assert np.max(np.abs(a(ps, 0.0) - b(ps, 0.0))) <= 1e-8
    assert a.flags == b.flags


class TestIntervalMin:
    def test_exact_minimum_of_fixed_function(self):
        # three wells of a fixed function; every interval's minimum is the
        # least of its endpoints and the wells inside it
        f = lambda q: np.cos(3.0 * q) + 0.1 * q
        qs = np.linspace(-3.0, 3.0, 129)
        rng = np.random.default_rng(3)
        lo = rng.uniform(-3.0, 3.0, 200)
        hi = np.maximum(lo, rng.uniform(-3.0, 3.0, 200))
        m = hm.grid_minimizers(lambda q: f(q), qs, 200)
        got = hm.interval_min(lambda q: f(q), lo, hi, m)
        fine = np.linspace(0.0, 1.0, 200001)
        for l, h, g in zip(lo, hi, got):
            brute = f(l + fine * (h - l)).min()
            assert brute - 1e-9 <= g <= brute + 1e-9

    def test_golden_section_lanes_match_scalar_searches(self):
        f = lambda p: np.abs(p - 0.3) + 0.2 * np.sin(5.0 * p)
        a = np.array([-1.0, 0.0, 0.25, 1.0])
        b = np.array([0.5, 0.7, 0.3, 1.0])
        x, fx = hm.golden_section_min(f, a, b)
        for k in range(len(a)):
            assert (x[k], fx[k]) == hm.golden_section_min(f, a[k], b[k])


class TestRightwardMinThreshold:
    def test_abs(self, h_abs):
        assert hm.rightward_min_threshold(h_abs) == pytest.approx(0.0, abs=1e-6)

    def test_quadratic(self, h_quad):
        assert hm.rightward_min_threshold(h_quad) == pytest.approx(1.0, abs=1e-6)

    def test_double_well_rightmost(self, h_dw):
        assert hm.rightward_min_threshold(h_dw) == pytest.approx(-1.0, abs=1e-6)


class TestSlopeEnvelope:
    def test_right_envelope_matches_bruteforce(self, h_quad):
        env = hm.SlopeEnvelope(h_quad, side="right")
        P = h_quad.coercivity_bound
        for p in np.linspace(-P, P, 41):
            qs = np.linspace(p, P, 20001)
            brute = float(np.min(h_quad(qs, 0.0)))
            assert env(p) == pytest.approx(brute, abs=1e-6)

    def test_left_envelope_matches_bruteforce(self, h_dw):
        env = hm.SlopeEnvelope(h_dw, side="left")
        P = h_dw.coercivity_bound
        for p in np.linspace(-P, P, 41):
            qs = np.linspace(-P, p, 20001)
            brute = float(np.min(h_dw(qs, 0.0)))
            assert env(p) == pytest.approx(brute, abs=1e-5)

    def test_exact_for_single_minimum(self, h_abs):
        env = hm.SlopeEnvelope(h_abs, side="right")
        assert env(0.0) == -1.0
        assert env(-1.0) == -1.0
        assert env(2.0) == 1.0

    def test_monotone(self, h_abs):
        env = hm.SlopeEnvelope(h_abs, side="right")
        ps = np.linspace(-5, 5, 201)
        v = env(ps)
        assert np.all(np.diff(v) >= -1e-12)


class TestLipschitzTable:
    def test_range_max_abs(self, h_abs):
        tab = hm.SlopeLipschitzTable(h_abs, [0.0], span=4.0)
        assert tab.range_max(-1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert tab.global_max == pytest.approx(1.0, abs=1e-9)

    def test_range_max_quadratic(self, h_quad):
        tab = hm.SlopeLipschitzTable(h_quad, [0.0], span=6.0)
        # |H'| = |2(p-1)|; on [-2, 0.5] the max is at p = -2: 6
        got = tab.range_max(np.array([-2.0]), np.array([0.5]))[0]
        assert got == pytest.approx(6.0, rel=1e-2)

    def test_clips_outside_span(self, h_quad):
        tab = hm.SlopeLipschitzTable(h_quad, [0.0], span=3.0)
        wide = tab.range_max(np.array([-50.0]), np.array([50.0]))[0]
        assert wide == pytest.approx(tab.global_max)


def test_golden_section_kink():
    x, fx = hm.golden_section_min(lambda p: abs(p - 0.3) - 1.0, -1.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(-1.0, abs=1e-8)


def test_ensure_level_raises_bound(h_abs):
    H2 = hm.ensure_level(h_abs, 9.0)
    assert H2.coercivity_bound >= 10.0 - 1e-3
    assert hm.ensure_level(H2, 1.0) is H2


# ---------------------------------------------------------------------------
# batched probing against the per-sample loops it replaced (oracles)
# ---------------------------------------------------------------------------

def _ring_min_loop(fn, q, x_samples):
    q = np.asarray(q, dtype=float)
    vals = np.inf * np.ones_like(q)
    for x in x_samples:
        vals = np.minimum(vals, np.minimum(fn(q, x), fn(-q, x)))
    return vals


def _find_minima_scan(fn, P, resolution=4096, merge_tol=1e-6):
    qs = np.linspace(-P, P, resolution + 1)
    v = np.asarray(fn(qs, 0.0), dtype=float)
    flat_tol = 1e-11 * (1.0 + float(np.max(np.abs(v))))
    found, brackets = [], []
    i, n = 1, len(qs)
    while i < n - 1:
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
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
            i = j + 1
        else:
            i += 1
    if brackets:
        a, b = np.asarray(brackets).T
        x, _ = hm.golden_section_min(lambda p: fn(p, 0.0), a, b, xtol=1e-9)
        found.extend(x.tolist())
    found.sort()
    merged = []
    for x in found:
        if merged and abs(x - merged[-1]) <= merge_tol:
            if float(fn(x, 0.0)) < float(fn(merged[-1], 0.0)):
                merged[-1] = x
        else:
            merged.append(x)
    return np.asarray(merged)


def _no_flat_loop(fn, P, resolution=2048):
    v = np.asarray(fn(np.linspace(-P, P, resolution + 1), 0.0), dtype=float)
    scale = 1.0 + float(np.max(np.abs(v)))
    flat_run = max_run = 0
    for step in np.diff(v):
        if abs(step) <= 1e-11 * scale:
            flat_run += 1
            max_run = max(max_run, flat_run)
        else:
            flat_run = 0
    return max_run < 2


def _lipschitz_loop(H, x_samples, span, samples=4096):
    s = np.linspace(-span, span, samples + 1)
    d = np.zeros(samples)
    for x in x_samples:
        v = np.broadcast_to(np.asarray(H(s, x), dtype=float), s.shape)
        d = np.maximum(d, np.abs(np.diff(v)) / (s[1] - s[0]))
    return d


def _parsed_fn(src):
    e = expr.parse(src, variables=("p", "x"))
    return hm._broadcasted(lambda p, x: e(p=p, x=x))


def _batch_hamiltonian(form, b, c, a, w, k):
    # the builtins and the x-dependent parsed forms of the expr_batch kind
    if form in ("abs_shift", "quadratic", "double_well"):
        return hm.make_builtin(form, b=b, c=c)
    return hm.parse_expression({
        "abs": f"abs(p - ({b!r})) - {c!r} + {a!r}*sin({w!r}*x)",
        "max": f"max(abs(p - ({b!r})), {k!r}*(p - ({b!r}))^2) - {c!r} "
               f"+ {a!r}*cos({w!r}*x)",
        "quad_sin": f"{k!r}*(p - ({b!r}))^2 - {c!r} + {a!r}*sin({w!r}*x)^2",
    }[form])


@settings(max_examples=60)
@given(st.sampled_from(["abs_shift", "quadratic", "double_well", "abs",
                        "max", "quad_sin"]),
       st.floats(-0.5, 0.5), st.floats(0.5, 2.0), st.floats(0.0, 0.3),
       st.floats(0.5, 5.0), st.floats(0.3, 1.0))
def test_batched_probe_matches_per_sample_loop(form, b, c, a, w, k):
    # min and max are exact and each element is the same numpy value, so
    # the one-call probes reproduce the per-sample loops bit for bit
    H = _batch_hamiltonian(form, b, c, a, w, k)
    xs = hm.DEFAULT_X_SAMPLES
    P = H.coercivity_bound
    assert hm._probe_callable(lambda q: _ring_min_loop(H.fn, q, xs),
                              H.coercivity_level) == P
    q = np.linspace(0.0, 2.0 * P, 257)
    assert np.array_equal(hm._min_over_ring_1d(H.fn, q, xs),
                          _ring_min_loop(H.fn, q, xs))
    minima = hm.find_minima(H, P)
    assert np.array_equal(minima, _find_minima_scan(H.fn, P))
    flags = hm._sample_shape_flags(H.fn, P, minima)
    assert flags.no_flat_parts == _no_flat_loop(H.fn, P)
    if form in ("abs", "max", "quad_sin"):
        assert H.minima == tuple(minima) and H.flags == flags
    tab = hm.SlopeLipschitzTable(H, [0.0, -0.3, -0.7], span=2.0 * P + 2.0)
    assert np.array_equal(tab.L[0], _lipschitz_loop(H, [0.0, -0.3, -0.7],
                                                    2.0 * P + 2.0))


@pytest.mark.parametrize("src, P, resolution, expected", [
    # one flat bottom on [-1, 1]: its midpoint
    ("max(abs(p) - 2, -1)", 4.0, 4096, [0.0]),
    # two flat bottoms at different levels
    ("min(max(abs(p - 2), 0.5), max(abs(p + 2), 1))", 5.0, 4096,
     [-2.0, 2.0]),
    # flat shoulders on 1.5 <= |p| <= 3, steps down to a flat bottom
    ("max(min(abs(p) - 1, 0.5), -0.5) + max(abs(p) - 3, 0)", 4.0, 4096,
     [0.0]),
    # a kink at the grid's second point, -1 + 2/64
    ("abs(p + 0.96875)", 1.0, 64, [-0.96875]),
    # a flat part that starts at the grid's first point is no minimum
    ("max(abs(p + 1) - 0.1, 0)", 1.0, 64, []),
    # a kink midway between two points of the flag grid: one flat step,
    # which is no flat part
    ("abs(p - 0.00048828125)", 1.0, 64, [0.00048828125]),
])
def test_find_minima_prescan_matches_sequential_scan(src, P, resolution,
                                                     expected):
    fn = _parsed_fn(src)
    got = hm.find_minima(fn, P, resolution=resolution)
    assert np.array_equal(got, _find_minima_scan(fn, P, resolution))
    no_flat = hm._sample_shape_flags(fn, P, got).no_flat_parts
    assert no_flat == _no_flat_loop(fn, P)
    assert no_flat == src.startswith("abs")
    # a sampled plateau's midpoint is off by at most one grid step
    np.testing.assert_allclose(got, expected, atol=2.0 * P / resolution)


def test_find_minima_skips_the_visited_plateau():
    # a flat bottom whose values drift within the flat tolerance: from its
    # third point the left neighbour is higher by more than the tolerance,
    # but the scan has passed that point with the plateau, as before
    P, res = 1.0, 64
    qs = np.linspace(-P, P, res + 1)
    v = 4.0 * np.abs(qs) + 1.0
    t = 1e-11 * (1.0 + v.max())
    v[30:36] = 1.0 + 0.6 * t * np.array([0.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    fn = lambda p, x: np.interp(p, qs, v)
    got = hm.find_minima(fn, P, resolution=res)
    assert np.array_equal(got, _find_minima_scan(fn, P, res))
    assert np.array_equal(got, [0.5 * (qs[30] + qs[35])])


class TestParsedBroadcast:
    SRC = "abs(p - 0.1) - 1 + 0.1*sin(2*x)"

    @staticmethod
    def formula(p, x):
        return np.abs(p - 0.1) - 1 + 0.1 * np.sin(2 * x)

    def test_scalar_gives_float(self):
        H = hm.parse_expression(self.SRC)
        v = H.fn(0.3, -0.2)
        assert type(v) is float
        assert v == self.formula(0.3, -0.2)

    def test_outer_shape_matches_formula(self):
        H = hm.parse_expression(self.SRC)
        p = np.linspace(-2.0, 2.0, 7)[:, None]
        x = np.linspace(-1.0, 0.0, 5)[None, :]
        v = H.fn(p, x)
        assert v.shape == (7, 5)
        assert np.array_equal(v, self.formula(p, x))
        assert np.array_equal(H.fn(p[:, 0], -0.5), self.formula(p[:, 0], -0.5))

    @pytest.mark.parametrize("src, formula", [
        ("(p - 0.2)^2 - 1", lambda p, x: (p - 0.2) ** 2 - 1),
        ("0.5*x", lambda p, x: 0.5 * x),
        ("3", lambda p, x: 3.0)], ids=["no_x", "no_p", "constant"])
    def test_omitted_variables_still_broadcast(self, src, formula):
        fn = _parsed_fn(src)
        p = np.linspace(-2.0, 2.0, 7)[:, None]
        x = np.linspace(-1.0, 0.0, 5)[None, :]
        v = fn(p, x)
        assert v.shape == (7, 5) and v.flags.writeable
        assert np.array_equal(v, np.broadcast_to(formula(p, x), (7, 5)))
        assert fn(p[:, 0], 0.0).shape == (7,)
        assert fn(0.0, x[0]).shape == (5,)
        assert type(fn(0.5, -0.5)) is float
