from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_too_coarse(self):
        H2 = hm.parse_expression_2d("p1^2 + p2^2")
        with pytest.raises(ValueError, match="too coarse"):
            hm.reduce_2d(H2, 1, resolution=8)

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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
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
