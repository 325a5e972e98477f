import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hjj import edge as ed
from hjj import hamiltonians as hm
from hjj import junction as jn


@pytest.fixture(scope="module")
def h_abs1():
    return hm.make_builtin("abs_shift", c=1.0)


@pytest.fixture(scope="module")
def h_abs2():
    return hm.make_builtin("abs_shift", c=2.0)


@pytest.fixture(scope="module")
def e400():
    return ed.EdgeSpec(1.0, 400)


@pytest.fixture(scope="module")
def prob12(h_abs1, h_abs2, e400):
    return jn.make_junction_problem([e400, e400], [h_abs1, h_abs2])


@pytest.fixture(scope="module")
def sol12(prob12):
    return jn.solve_junction_direct(prob12)


class TestAssembly:
    def test_shared_level(self, prob12):
        levels = {H.coercivity_level for H in prob12.hamiltonians}
        assert len(levels) == 1

    def test_k_and_validation(self, h_abs1, e400):
        with pytest.raises(ValueError):
            jn.JunctionProblem([e400], [h_abs1, h_abs1])
        with pytest.raises(ValueError):
            jn.JunctionProblem([e400], [h_abs1], junction_condition="open")

    def test_node_continuity_enforced(self, e400):
        g1 = ed.GridFunction1D(np.zeros(401), e400)
        with pytest.raises(ValueError, match="node_value"):
            jn.JunctionGridFunction([g1], 1.0)


class TestDirectSolver:
    def test_two_edge_mixture(self, sol12, e400):
        # per-edge constrained values are 1 and 2; the junction takes the
        # smaller one and the other edge becomes the Dirichlet branch
        # 2 + (1 - 2) e^x
        sol, rep = sol12
        assert rep.converged
        assert sol.node_value == pytest.approx(1.0, abs=2e-2)
        x = e400.grid()
        assert np.max(np.abs(sol.per_edge[0].values - 1.0)) <= 2e-2
        assert np.max(np.abs(sol.per_edge[1].values - (2.0 - np.exp(x)))) <= 2e-2

    def test_single_edge_matches_edge_solver(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400], [h_abs1])
        sol, rep = jn.solve_junction_direct(prob)
        u, _ = ed.solve_edge(h_abs1, e400, ed.StateConstraint())
        assert np.max(np.abs(sol.per_edge[0].values - u.values)) <= 1e-6

    def test_three_edges(self, e400):
        hams = [hm.make_builtin("abs_shift", c=float(c)) for c in (1, 2, 3)]
        prob = jn.make_junction_problem([e400] * 3, hams)
        sol, rep = jn.solve_junction_direct(prob)
        assert sol.node_value == pytest.approx(1.0, abs=2e-2)

    def test_rejects_flux_condition(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400], [h_abs1], jn.FluxLimited(0.0))
        with pytest.raises(ValueError, match="state-constraint"):
            jn.solve_junction_direct(prob)

    def test_scheme_residuals_small(self, sol12, prob12):
        sol, rep = sol12
        Rs, r0 = jn.junction_scheme_residuals(sol, prob12, rep)
        assert abs(r0) <= 1e-8
        for R in Rs:
            assert np.max(np.abs(R)) <= 1e-8


class TestConstructiveSolver:
    def test_mixture(self, prob12, sol12, e400):
        sol, rep = jn.solve_junction_constructive(prob12)
        assert rep.converged
        assert sol.node_value == pytest.approx(1.0, abs=2e-2)
        x = e400.grid()
        assert np.max(np.abs(sol.per_edge[1].values - (2.0 - np.exp(x)))) <= 2e-2
        direct, _ = sol12
        assert abs(jn.compare_grid_functions(sol, direct)) <= 5e-2

    def test_symmetric_tie(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1])
        sol, rep = jn.solve_junction_constructive(prob)
        assert sol.node_value == pytest.approx(1.0, abs=2e-2)
        for g in sol.per_edge:
            assert g.role == "state_constraint"
            assert np.max(np.abs(g.values - 1.0)) <= 2e-2

    def test_quadratic_against_fine_grid_oracle(self, e400):
        hq = hm.make_builtin("quadratic", b=1.0, c=1.0)
        h5 = hm.make_builtin("abs_shift", c=5.0)
        prob = jn.make_junction_problem([e400, e400], [hq, h5])
        sol, rep = jn.solve_junction_constructive(prob)
        fine = ed.EdgeSpec(1.0, 1600)
        u_fine, _ = ed.solve_edge(prob.hamiltonians[0], fine,
                                  ed.StateConstraint())
        assert u_fine.node_value < 5.0
        assert sol.node_value == pytest.approx(u_fine.node_value, abs=2e-2)


class TestValueFormula:
    def test_min_of_edge_values(self, prob12, sol12):
        sol, _ = sol12
        vals = []
        for H, e in zip(prob12.hamiltonians, prob12.edges):
            u, _ = ed.solve_edge(H, e, ed.StateConstraint())
            vals.append(u.node_value)
        assert abs(sol.node_value - min(vals)) <= 2e-2

    def test_subsolution_domination(self, prob12, sol12):
        sol, _ = sol12
        for H, e, g in zip(prob12.hamiltonians, prob12.edges, sol.per_edge):
            u_sc, _ = ed.solve_edge(H, e, ed.StateConstraint())
            assert np.max(g.values - u_sc.values) <= 2e-2


class TestFluxLimited:
    def test_limiter_binds(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1],
                                        jn.FluxLimited(-0.5))
        sol, rep = jn.solve_flux_limited(prob)
        assert rep.converged
        assert sol.node_value == pytest.approx(0.5, abs=2e-2)
        assert sol.node_value <= 0.5 + 2e-2
        d = jn.node_diagnostics(sol, prob)
        assert abs(d.flux_residual) <= 5e-2

    def test_limiter_inactive_gives_state_constraint(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1],
                                        jn.FluxLimited(-2.0))
        sol, _ = jn.solve_flux_limited(prob)
        assert sol.node_value == pytest.approx(1.0, abs=2e-2)
        assert sol.node_value <= 2.0 + 2e-2

    def test_single_edge_at_sc_level(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400], [h_abs1], jn.FluxLimited(-1.0))
        sol, _ = jn.solve_flux_limited(prob)
        u_sc, _ = ed.solve_edge(h_abs1, e400, ed.StateConstraint())
        assert np.max(np.abs(sol.per_edge[0].values - u_sc.values)) <= 2e-2

    def test_rejects_double_well(self, e400):
        hd = hm.make_builtin("double_well", b=-2.0, c=0.0)
        prob = jn.make_junction_problem([e400], [hd], jn.FluxLimited(0.0))
        with pytest.raises(ValueError, match="quasiconvex"):
            jn.solve_flux_limited(prob)

    def test_comparison_with_constant_shifts(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1],
                                        jn.FluxLimited(-0.5))
        sol, rep = jn.solve_flux_limited(prob)
        lam = 0.1
        down = sol.copy()
        for g in down.per_edge:
            g.values -= lam
        down.node_value -= lam
        # downward shift is a strict discrete sub-solution dominated by sol
        Rs, r0 = jn.junction_scheme_residuals(down, prob, rep)
        assert r0 <= 1e-6
        for R in Rs:
            assert np.max(R) <= 1e-6
        assert jn.compare_grid_functions(down, sol) == pytest.approx(-lam)
        up = sol.copy()
        for g in up.per_edge:
            g.values += lam
        up.node_value += lam
        assert jn.compare_grid_functions(sol, up) == pytest.approx(-lam)

    def test_randomized_supersolutions_dominate(self, h_abs1, e400):
        rng = np.random.default_rng(13)
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1],
                                        jn.FluxLimited(-0.5))
        sol, rep = jn.solve_flux_limited(prob)
        for _ in range(20):
            lam = float(rng.uniform(0.01, 0.5))
            up = sol.copy()
            for g in up.per_edge:
                g.values += lam
            up.node_value += lam
            Rs, r0 = jn.junction_scheme_residuals(up, prob, rep)
            assert r0 >= -1e-6 and all(np.min(R) >= -1e-6 for R in Rs)
            assert jn.compare_grid_functions(sol, up) <= 0.0


class TestNodeDiagnostics:
    def test_mixture_slopes(self, sol12, prob12):
        sol, _ = sol12
        d = jn.node_diagnostics(sol, prob12)
        assert d.slopes[0] == pytest.approx(0.0, abs=5e-2)
        assert d.slopes[1] == pytest.approx(-1.0, abs=5e-2)
        assert abs(d.sc_residual) <= 1e-6
        assert d.kirchhoff_sum == pytest.approx(-1.0, abs=5e-2)

    def test_symmetric(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1])
        sol, _ = jn.solve_junction_direct(prob)
        d = jn.node_diagnostics(sol, prob)
        assert d.slopes[0] == pytest.approx(0.0, abs=5e-2)
        assert d.kirchhoff_sum == pytest.approx(0.0, abs=1e-1)

    def test_constant_grid_function(self, h_abs1, e400):
        prob = jn.make_junction_problem([e400, e400], [h_abs1, h_abs1])
        c = 0.3
        grids = [ed.GridFunction1D(np.full(401, c), e400) for _ in range(2)]
        g = jn.JunctionGridFunction(grids, c)
        d = jn.node_diagnostics(g, prob)
        assert d.sc_residual == pytest.approx(c - 1.0, abs=1e-12)
        assert d.p_bar_list == (0.0, 0.0)


class TestCompare:
    def test_shift(self, sol12):
        sol, _ = sol12
        v = sol.copy()
        for g in v.per_edge:
            g.values -= 0.3
        v.node_value -= 0.3
        assert jn.compare_grid_functions(v, sol) == pytest.approx(-0.3)

    def test_identity(self, sol12):
        sol, _ = sol12
        assert jn.compare_grid_functions(sol, sol) == 0.0

    def test_grid_mismatch(self, sol12, h_abs1):
        sol, _ = sol12
        other_spec = ed.EdgeSpec(1.0, 200)
        grids = [ed.GridFunction1D(np.zeros(201), other_spec) for _ in range(2)]
        other = jn.JunctionGridFunction(grids, 0.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            jn.compare_grid_functions(sol, other)


class TestSlopeBoundCheck:
    def test_state_constraint_branch(self, sol12, prob12):
        sol, _ = sol12
        rep = jn.subsolution_slope_bound_check(sol.per_edge[0],
                                               prob12.hamiltonians[0])
        assert rep.matches_state_constraint and rep.ok

    def test_dirichlet_branch(self, h_abs1, e400):
        u, _ = ed.solve_edge(h_abs1, e400, ed.Dirichlet(0.0), sc_value=1.0)
        rep = jn.subsolution_slope_bound_check(u, h_abs1)
        assert not rep.matches_state_constraint
        assert rep.slope_bound_ok  # p_bar ~ -1 <= 0 = threshold
        assert rep.p_bar == pytest.approx(-1.0, abs=5e-2)

    def test_constant_shift(self, h_abs1, e400):
        u_sc, _ = ed.solve_edge(h_abs1, e400, ed.StateConstraint())
        shifted = ed.GridFunction1D(u_sc.values - 0.5, e400)
        rep = jn.subsolution_slope_bound_check(shifted, h_abs1)
        assert rep.slope_bound_ok and rep.ok
        assert rep.interior_max_residual <= 1e-6


class TestNodeSchemeMonotonicity:
    def test_randomized(self, prob12):
        rng = np.random.default_rng(3)
        jd = jn.JunctionDiscretization(prob12)
        for _ in range(200):
            us = [np.cumsum(rng.uniform(-2, 2, 401) * e.h)
                  for e in prob12.edges]
            u0 = float(us[0][-1])
            for u in us:
                u[-1] = u0
            r_base = jd.node_residual(us, u0)
            delta = rng.uniform(0.0, 0.05)
            r_up = jd.node_residual(us, u0 + delta)
            assert r_up >= r_base - 1e-12
            k = int(rng.integers(0, 2))
            us[k][-2] += delta
            r_nbr = jd.node_residual(us, u0)
            assert r_nbr <= r_base + 1e-12


class TestStiffJunction:
    def test_double_well_mixture(self):
        e = ed.EdgeSpec(1.0, 200, far_bc=ed.StateConstraint())
        hd = hm.make_builtin("double_well", b=-2.0, c=0.0)
        h1 = hm.make_builtin("abs_shift", c=1.0)
        prob = jn.make_junction_problem([e, e], [hd, h1])
        sol, rep = jn.solve_junction_direct(prob)
        assert rep.converged
        vals = []
        for H, spec in zip(prob.hamiltonians, prob.edges):
            u, _ = ed.solve_edge(H, spec, ed.StateConstraint())
            vals.append(u.node_value)
        assert abs(sol.node_value - min(vals)) <= 2e-2
        solc, repc = jn.solve_junction_constructive(prob)
        assert repc.converged
        assert abs(jn.compare_grid_functions(sol, solc)) <= 5e-2


class TestNewtonDriver:
    """Newton on the Lax-Friedrichs scheme, certified by its own residual:
    at the recorded theta the rows have unit row sums and non-positive
    off-diagonals, so a residual at most tol puts the answer within tol of
    the scheme's fixed point."""

    @pytest.mark.parametrize("cs, far, cond", [
        ((1.0,), ed.Neumann(0.0), ed.StateConstraint()),
        ((1.0,), ed.Neumann(0.0), ed.Dirichlet(0.0)),
        ((1.0,), ed.Dirichlet(0.5), ed.StateConstraint()),
        ((1.0, 1.0), ed.StateConstraint(), ed.StateConstraint()),
        ((1.0, 1.5), ed.Neumann(0.0), jn.FluxLimited(-0.5)),
        ((1.0, 2.0, 3.0), ed.Neumann(0.0), ed.StateConstraint()),
    ], ids=["k1-state-constraint", "k1-dirichlet-node", "k1-dirichlet-far",
            "k2-state-constraint-far", "k2-flux-limited", "k3"])
    def test_residual_certifies_fixed_point(self, cs, far, cond):
        e = ed.EdgeSpec(1.0, 100, far_bc=far)
        hams = [hm.make_builtin("abs_shift", b=0.1 * i, c=c)
                for i, c in enumerate(cs)]
        prob = jn.JunctionProblem([e] * len(cs), hams, cond)
        sol, rep = jn.solve_system(prob)
        assert rep.method == "newton" and rep.flux == "lax_friedrichs"
        assert rep.converged
        tol = ed.SolverParams().tol
        Rs, r0 = jn.junction_scheme_residuals(sol, prob, rep)
        assert abs(r0) <= tol
        for R in Rs:
            assert np.max(np.abs(R)) <= tol
        # the recorded theta is admissible, so the rows are M-matrix rows
        jd = jn.JunctionDiscretization(prob)
        for d, g, th in zip(jd.discs, sol.per_edge, rep.theta):
            assert np.all(th >= d.required_theta(g.values))

    def test_cascade_leaves_little_to_the_finest_level(self, h_abs2, e400):
        prob = jn.make_junction_problem(
            [e400, e400], [hm.make_builtin("abs_shift", b=0.2, c=1.0),
                           h_abs2], jn.FluxLimited(-0.7))
        sol, rep = jn.solve_flux_limited(prob)
        assert rep.converged
        # a coarsest level of 12 cells, then n/16 and n/4
        assert [n for n, _ in rep.levels] == [12, 25, 100, 400]
        assert rep.levels[-1][1] <= 3
        assert rep.iterations == sum(s for _, s in rep.levels)

    @settings(max_examples=300)
    @given(cells=st.lists(st.integers(8, 5000), min_size=1, max_size=2))
    @example(cells=[15, 16])
    @example(cells=[5000, 17])
    def test_cascade_levels(self, cells):
        # the levels of each edge, n // f per divisor f and n last, as
        # JunctionDiscretization.coarsened makes them
        divisors = jn._coarse_factors(min(cells)) + [1]
        for n in cells:
            levels = [n // f for f in divisors]
            assert all(a < b for a, b in zip(levels, levels[1:]))
            assert levels[-1] == n
        assert all(f % g == 0 and f // g <= 4
                   for f, g in zip(divisors, divisors[1:]))
        if min(cells) >= 16:
            assert 8 <= min(cells) // divisors[0] <= 15

    def test_levels_follow_the_smallest_edge(self, h_abs1, h_abs2):
        edges = [ed.EdgeSpec(1.0, 200), ed.EdgeSpec(1.0, 64)]
        prob = jn.make_junction_problem(edges, [h_abs1, h_abs2])
        sol, rep = jn.solve_system(prob)
        assert rep.converged
        # cells of the first edge: 200 // 8, 200 // 4 and 200, as the
        # 64-cell edge gets 8, 16 and 64
        assert [n for n, _ in rep.levels] == [25, 50, 200]

    @pytest.mark.parametrize("hams, cond, n", [
        ("quad", jn.FluxLimited(-0.5), 400),
        ("quad", jn.FluxLimited(-0.5), 800),
        ("quad", jn.FluxLimited(-0.5), 1600),
        ("quad", ed.StateConstraint(), 800),
        ("quad", ed.StateConstraint(), 1600),
        ("dwell", ed.StateConstraint(), 800),
    ])
    def test_dirichlet_far_ends_converge_at_any_n(self, hams, cond, n):
        # a coarsest level of n/8 cells made the Lax-Friedrichs solves of
        # the quadratic pair stall from n = 400 on, and the Godunov sweeps
        # of the double well cost O(n^2) on it
        quad = hm.make_builtin("quadratic", b=0.5, c=1.0)
        first = {"quad": hm.make_builtin("quadratic", b=1.0, c=1.0),
                 "dwell": _dwell(0.5, 0.3)}[hams]
        e = ed.EdgeSpec(1.0, n, far_bc=ed.Dirichlet(0.0))
        prob = jn.make_junction_problem([e, e], [first, quad], cond)
        sol, rep = jn.solve_system(prob)
        assert rep.converged and rep.flags == ()
        assert 8 <= rep.levels[0][0] <= 15

    def test_nonconvex_runs_no_lax_friedrichs_work(self, monkeypatch):
        def godunov_only(method):
            def checked(self, u, theta=None, flux="lax_friedrichs",
                        **kwargs):
                if flux != "godunov":
                    raise AssertionError("a Lax-Friedrichs iteration ran")
                return method(self, u, theta, flux, **kwargs)
            return checked

        for name in ("residual", "rows"):
            monkeypatch.setattr(
                ed.EdgeDiscretization, name,
                godunov_only(getattr(ed.EdgeDiscretization, name)))
        monkeypatch.setattr(ed.EdgeDiscretization, "required_theta",
                            lambda *args, **kwargs: pytest.fail(
                                "a Lax-Friedrichs theta lookup ran"))
        e = ed.EdgeSpec(1.0, 48, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem(
            [e, e], [hm.make_builtin("double_well", b=-2.0, c=0.0),
                     hm.make_builtin("abs_shift", c=1.0)])
        sol, rep = jn.solve_junction_direct(prob)
        assert rep.converged
        assert rep.flux == "godunov" and rep.method == "godunov_newton"
        assert rep.theta is None
        assert [n for n, _ in rep.levels] == [12, 48]

    def test_one_evaluation_per_newton_point(self, monkeypatch):
        # per edge, a Newton point takes one row assembly and one call of
        # H, and a theta lookup only at each level's first point: after it,
        # theta exceeds the table's global bound on every row. The finest
        # level's clamped certification reuses Newton's residual
        e = ed.EdgeSpec(1.0, 200, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem(
            [e, e], [hm.make_builtin("abs_shift", b=0.1, c=1.3),
                     hm.make_builtin("abs_shift", b=-0.2, c=2.0)])
        jn.solve_system(prob)  # builds the tables
        tables = [ed._edge_tables(H, e)[0] for H in prob.hamiltonians]
        calls = collections.Counter()

        def count(cls, name, key):
            method = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name, key(self)] += 1
                return method(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)

        def index(objs):
            return lambda obj: next(i for i, o in enumerate(objs) if o is obj)

        count(hm.SlopeLipschitzTable, "range_max", index(tables))
        count(hm.Hamiltonian, "__call__", index(prob.hamiltonians))
        for name in ("rows", "residual"):
            count(ed.EdgeDiscretization, name,
                  lambda d: index(prob.hamiltonians)(d.H))
        sol, rep = jn.solve_system(prob)
        assert rep.converged and rep.method == "newton"
        points = sum(steps + 1 for _, steps in rep.levels)
        assert calls == {(name, i): n for i in range(2) for name, n in (
            ("range_max", len(rep.levels)), ("__call__", points),
            ("rows", points))}

    def test_step_cap_returns_best_point(self):
        # the state-constraint reference of fatten_max's max form: at
        # tol=1e-300 the finest level comes within 1.4e-14 of its fixed
        # point, and further Howard steps drift back up, to 5e-8 at step 50
        H2 = hm.max_form_2d(hm.make_builtin("abs_shift", c=1.0),
                            hm.make_builtin("abs_shift", c=2.0))
        e = ed.EdgeSpec(1.0, 64, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem(
            [e, e], [hm.reduce_2d(H2, 1), hm.reduce_2d(H2, 2)])
        sol, rep = jn.solve_junction_direct(
            prob, ed.SolverParams(tol=1e-300, max_iters=50))
        assert rep.flags == ("max_iters",) and rep.iterations == 50
        assert rep.final_residual <= 1e-13
        assert sol.node_value == pytest.approx(1.0, abs=1e-13)

    def test_breakdown_falls_back_to_sweeps(self, h_abs1, h_abs2,
                                            monkeypatch):
        # no fallback on the Lax-Friedrichs scheme: a breakdown on the
        # coarsest level ends the solve, unconverged and on its own flux,
        # with the last finite iterate carried to the finest grid
        monkeypatch.setattr(jn, "solve_arrowhead",
                            lambda J, b: np.full(len(b), np.nan))
        e = ed.EdgeSpec(1.0, 32)
        prob = jn.make_junction_problem([e, e], [h_abs1, h_abs2])
        sol, rep = jn.solve_junction_direct(prob)
        assert rep.flags == ("newton_stalled",)
        assert rep.method == "newton" and not rep.converged
        assert rep.flux == "lax_friedrichs" and rep.theta is None
        assert rep.levels == ((8, 1),)
        assert np.isfinite(rep.final_residual)
        for g in sol.per_edge:
            assert len(g.values) == 33 and np.all(np.isfinite(g.values))


def _dwell(b, c):
    return hm.make_builtin("double_well", b=b, c=c)


def _godunov_cases():
    """Non-convex systems for Newton on the Godunov scheme, as (edges,
    Hamiltonians, junction condition). The direct problem of
    TestStiffJunction is the acceptance fixture "dwell + abs1"; its
    constructive solver first solves the double-well edge alone
    ("dwell-edge"). "dirichlet-node" pins the node of that edge below its
    state-constraint value."""
    sc, neu = ed.StateConstraint(), ed.Neumann(0.0)
    edge = lambda n, far=sc: ed.EdgeSpec(1.0, n, far_bc=far)
    abs1 = hm.make_builtin("abs_shift", c=1.0)
    quad = hm.make_builtin("quadratic", b=0.0, c=2.0)
    return {
        "dwell+abs1": ([edge(200)] * 2, [_dwell(-2.0, 0.0), abs1], sc),
        "dwell+quad": ([edge(200)] * 2, [_dwell(-2.0, 0.5), quad], sc),
        "dwell-edge": ([edge(200)], [_dwell(-2.0, 0.0)], sc),
        "dwell-neumann": ([edge(200, neu)] * 2,
                          [_dwell(-2.0, 0.0), _dwell(1.0, 0.3)], sc),
        "dirichlet-node": ([edge(200)], [_dwell(-2.0, 0.0)],
                           ed.Dirichlet(-1.0)),
        # the sweeps need O(n) sweeps here, about 5 s at n = 100
        "dirichlet-far": ([edge(100, ed.Dirichlet(0.0)), edge(100)],
                          [_dwell(0.0, 0.5), _dwell(1.0, 0.2)], sc),
    }


class TestGodunovNewton:
    @pytest.mark.parametrize("case", list(_godunov_cases()))
    def test_matches_sweeps(self, case, monkeypatch, sweep_solve):
        calls = []

        def counted(f, v0, tol, solve=ed._solve_increasing):
            n = len(calls)
            calls.append(0)

            def g(w):
                calls[n] += 1
                return f(w)
            return solve(g, v0, tol)

        for module in (ed, jn):
            monkeypatch.setattr(module, "_solve_increasing", counted)
        prob = jn.make_junction_problem(*_godunov_cases()[case])
        sol, rep = jn.solve_system(prob)
        ref, rep_ref = sweep_solve(prob)
        # every nodal solve of the sweeps ends well inside its 100-step cap
        assert max(calls) < 50
        for r in (rep, rep_ref):
            assert type(r.converged) is bool
            assert type(r.final_residual) is float
        assert rep.converged and rep_ref.converged
        assert rep.method == "godunov_newton" and rep.flux == "godunov"
        assert rep.flags == ()
        assert rep.iterations == sum(s for _, s in rep.levels)
        for a, b in zip(sol.per_edge, ref.per_edge):
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_rejected_trials_build_no_jacobian(self, monkeypatch,
                                               step_factors):
        # pinned well below its state-constraint value, the double well
        # makes the line search reject many trial steps; each costs one
        # residual, and a Jacobian is built only at the accepted points,
        # one per Newton step of every level above the sweeps' coarsest
        builds = []
        rows = ed.EdgeDiscretization.rows

        def counted(self, u, theta, flux, *args, **kwargs):
            out = rows(self, u, theta, flux, *args, **kwargs)
            if out[1] is not None:
                builds.append(flux)
            return out

        monkeypatch.setattr(ed.EdgeDiscretization, "rows", counted)
        trials = step_factors(jn)
        e = ed.EdgeSpec(1.0, 200, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem([e], [_dwell(-2.0, 0.0)],
                                        ed.Dirichlet(-1.5))
        sol, rep = jn.solve_system(prob)
        assert rep.converged and rep.flags == ()
        assert rep.method == "godunov_newton"
        steps = sum(n for _, n in rep.levels[1:])
        assert steps > 0 and builds == ["godunov"] * steps
        assert len(trials) > steps and min(trials) < 0.75

    def test_line_search_halves_a_tripled_step(self, step_factors):
        # a step three times the Newton direction overshoots; halving it
        # until max|R| decreases still reaches the unpatched answer
        prob = jn.make_junction_problem(*_godunov_cases()["dwell+abs1"])
        params = ed.SolverParams(tol=1e-10)
        ref, _ = jn.solve_system(prob, params)
        factors = step_factors(jn, scale=3.0)
        sol, rep = jn.solve_system(prob, params)
        assert rep.converged and rep.flags == ()
        assert rep.method == "godunov_newton"
        assert min(factors) < 0.75
        for a, b in zip(sol.per_edge, ref.per_edge):
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_breakdown_falls_back_to_sweeps(self, monkeypatch, sweep_solve):
        # Newton breaks down on every level it runs, so the sweeps solve
        # each level where it ran, the finest one last, from the constant
        monkeypatch.setattr(jn, "solve_arrowhead",
                            lambda J, b: np.full(len(b), np.nan))
        e = ed.EdgeSpec(1.0, 64, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem(
            [e, e], [_dwell(-2.0, 0.0), hm.make_builtin("abs_shift", c=1.0)])
        sol, rep = jn.solve_junction_direct(prob)
        assert rep.method == "godunov_newton"
        assert rep.flags == ("newton_fallback",)
        assert rep.flux == "godunov" and rep.converged
        assert [n for n, _ in rep.levels] == [8, 16, 64]
        ref, rep_ref = sweep_solve(prob)
        assert rep.levels[-1][1] == rep_ref.iterations
        assert sol.node_value == ref.node_value
        for a, b in zip(sol.per_edge, ref.per_edge):
            assert np.array_equal(a.values, b.values)


_X_DEPENDENT = ("abs(p-0.3)-1+0.5*sin(3*x)", "(p-1)^2-1+0.3*cos(2*x)",
                "max(abs(p-0.5),1.5*(p-0.5)^2)-1+0.8*sin(2*x)^2")


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("far, hams, cond", [
    (ed.Neumann(0.0), [("abs_shift", 0.0, 1.0), ("quadratic", 1.0, 1.0)],
     ed.StateConstraint()),
    (ed.Neumann(0.0), [("abs_shift", 0.0, 1.0)] * 2, jn.FluxLimited(-0.5)),
    (ed.Dirichlet(0.0), [("quadratic", 1.0, 1.0)] * 2, ed.StateConstraint()),
    (ed.Neumann(0.0), _X_DEPENDENT, ed.StateConstraint()),
    pytest.param(
        ed.Neumann(0.0), ["0.7*(p+0.2)^2-1+0.4*cos(5*x)"],
        ed.StateConstraint(), marks=pytest.mark.xfail(strict=True, reason=(
            "THETA_PAD = 1 keeps theta O(1) where dH/dp is near 0: the LF "
            "gap is 3.3h and 3.7h at n = 100 and 200"))),
], ids=["abs1+quad", "flux-limited-abs", "quad-dirichlet-far", "x-dependent",
        "degenerate-quad"])
def test_lax_friedrichs_and_godunov_agree_to_order_h(n, far, hams, cond,
                                                     sweep_solve):
    # two monotone schemes for one convex problem: their answers differ by
    # O(h) away from the far-end and node boundary layers
    hams = [hm.make_builtin("expression", src=H) if isinstance(H, str)
            else hm.make_builtin(H[0], b=H[1], c=H[2]) for H in hams]
    prob = jn.make_junction_problem([ed.EdgeSpec(1.0, n, far_bc=far)]
                                    * len(hams), hams, cond)
    lf, rep_lf = jn.solve_system(prob)
    god, rep_god = sweep_solve(prob)
    assert (rep_lf.flux, rep_god.flux) == ("lax_friedrichs", "godunov")
    assert rep_lf.converged and rep_god.converged
    for a, b in zip(lf.per_edge, god.per_edge):
        x = a.edge.grid()
        inner = (x >= -0.9) & (x <= -0.1)
        assert np.max(np.abs(a.values - b.values)[inner]) <= 2.0 * a.edge.h


_JUNCTION_FAMILIES = (
    "{a}*(p-{b})^2*(p+{c})^2-1+{s}*sin({w}*x)",
    "{a}*min(abs(p-{b}),abs(p+{c}))-0.8+{s}*cos({w}*x)",
    "{a}*(p-{b})^2-{c}+{s}*sin({w}*x)",
)


@st.composite
def _parsed_hamiltonians(draw, forms=_JUNCTION_FAMILIES):
    """An x-dependent parsed Hamiltonian of forms: by default a double
    well, a min of two kinks (both non-convex) or a shifted quadratic."""
    coef = lambda lo, hi: f"{draw(st.floats(lo, hi)):.3f}"
    form = draw(st.sampled_from(forms))
    return form.format(a=coef(0.5, 1.5), b=coef(-0.2, 1.2),
                       c=coef(0.3, 1.2), s=coef(0.0, 0.4), w=coef(1.0, 4.0))


@settings(max_examples=25)
@given(srcs=st.lists(_parsed_hamiltonians(), min_size=2, max_size=3),
       n=st.sampled_from([32, 48, 64]),
       far=st.sampled_from([ed.StateConstraint(), ed.Neumann(0.0)]))
# its constructive solve breaks down on a Godunov level, which the sweeps
# finish
@example(srcs=["min(abs(p-0.726),abs(p+1.065))*0.933-0.8+0.338*cos(2.454*x)",
               "0.765*(p-1.049)^2*(p+1.01)^2-1+0.170*sin(1.561*x)",
               "min(abs(p-1.033),abs(p+0.759))*1.035-0.8+0.283*cos(3.950*x)"],
         n=48, far=ed.StateConstraint())
def test_direct_and_constructive_agree_on_parsed_junctions(srcs, n, far):
    # criterion 3's bound on random parsed junctions, non-convex ones
    # included
    prob = jn.make_junction_problem(
        [ed.EdgeSpec(1.0, n, far_bc=far)] * len(srcs),
        [hm.make_builtin("expression", src=src) for src in srcs])
    direct, rep_d = jn.solve_junction_direct(prob)
    constructive, rep_c = jn.solve_junction_constructive(prob)
    assert rep_d.converged and rep_c.converged
    gap = max(abs(jn.compare_grid_functions(direct, constructive)),
              abs(jn.compare_grid_functions(constructive, direct)))
    assert gap <= max(5e-2, 3.0 / np.sqrt(n))


def _counted_nodal_solves(monkeypatch):
    """Count the nodal_residual calls of every nodal solve of the sweeps:
    returns the list that gets one count per _solve_increasing call of an
    edge row."""
    calls = []
    nodal = ed.EdgeDiscretization.nodal_residual

    def counted(self, u, j, v):
        calls[-1] += 1
        return nodal(self, u, j, v)

    def solve(f, v0, tol, solve=ed._solve_increasing):
        calls.append(0)
        return solve(f, v0, tol)

    monkeypatch.setattr(ed.EdgeDiscretization, "nodal_residual", counted)
    monkeypatch.setattr(ed, "_solve_increasing", solve)
    return calls


class TestSweeps:
    @pytest.mark.parametrize("hams, budget", [
        ((("double_well", -2.0, 0.3), ("abs_shift", 0.0, 1.2)), 130),
        ((("double_well", -2.0, 0.3),), 80),
    ], ids=["dwell+abs", "dwell-edge"])
    def test_one_sweep_from_the_upwind_start(self, monkeypatch, hams,
                                             budget):
        # the forward passes, the node solve and the backward passes solve
        # a K = 2 level in one sweep, and the first forward pass starts
        # each row next to its root rather than 1e4 above it
        e = ed.EdgeSpec(1.0, 12, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem(
            [e] * len(hams),
            [hm.make_builtin(f, b=b, c=c) for f, b, c in hams])
        jd = jn.JunctionDiscretization(prob)
        calls = _counted_nodal_solves(monkeypatch)
        us, u0, sweeps, res, flag = jn._sweeps(jd, 1e-6)
        assert (sweeps, flag) == (1, None) and res <= 1e-6
        assert sum(calls) <= budget


_NONCONVEX_FAMILIES = _JUNCTION_FAMILIES[:2]


@settings(max_examples=40)
@given(edges=st.lists(st.tuples(_parsed_hamiltonians(_NONCONVEX_FAMILIES),
                                st.integers(8, 15),
                                st.sampled_from([ed.StateConstraint(),
                                                 ed.Neumann(0.0)])),
                      min_size=1, max_size=3))
def test_sweeps_solve_parsed_nonconvex_levels(edges):
    # the sweeps alone solve a coarsest-size non-convex level: no flag, a
    # Godunov residual within tol, and every nodal solve well inside its
    # 100-step cap
    tol = 1e-8
    prob = jn.make_junction_problem(
        [ed.EdgeSpec(1.0, n, far_bc=far) for _, n, far in edges],
        [hm.make_builtin("expression", src=src) for src, _, _ in edges])
    jd = jn.JunctionDiscretization(prob)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_nodal_solves(mp)
        us, u0, sweeps, res, flag = jn._sweeps(jd, tol)
    assert flag is None
    assert jd.max_residual(*jd.residuals(us, u0, flux="godunov")) <= tol
    assert max(calls) < 50


_CONVEX_FORMS = (
    ("abs_shift", (-0.3, 0.3)),
    ("quadratic", (-0.3, 0.3)),
    ("{a}*abs(p-{b})-1+{s}*sin({w}*x)", (-0.3, 0.3)),
    # slopes -a and 1: where the slopes stay left of b - 1, theta sits
    # just below the table's global bound 1
    ("max({a}*({b}-p),p-{b})-1+{s}*cos({w}*x)", (1.2, 2.5)),
    ("{a}*(p-{b})^2-1+{s}*sin({w}*x)", (-0.3, 0.3)),
)


@st.composite
def _convex_hamiltonians(draw):
    """abs_shift, quadratic, or an x-dependent parsed kink, asymmetric
    kink or quadratic."""
    coef = lambda lo, hi: round(draw(st.floats(lo, hi)), 3)
    form, b_range = draw(st.sampled_from(_CONVEX_FORMS))
    if "{" not in form:
        return hm.make_builtin(form, b=coef(*b_range), c=coef(0.5, 1.5))
    return hm.make_builtin("expression", src=form.format(
        a=coef(0.9, 1.0 if "max" in form else 1.2), b=coef(*b_range),
        s=coef(0.0, 0.3), w=coef(1.0, 4.0)))


def _solve_without_shortcuts(prob):
    """solve_system with every theta lookup run and the finest level's
    clamped residual recomputed."""
    with pytest.MonkeyPatch.context() as mp:
        for H, e in zip(prob.hamiltonians, prob.edges):
            mp.setattr(ed._edge_tables(H, e)[0], "global_max", np.inf)
        mp.setattr(jn.JunctionDiscretization, "clamp_inactive",
                   lambda self, z: False)
        return jn.solve_system(prob)


_FAR_ENDS = (ed.Neumann(0.0), ed.StateConstraint(), ed.Dirichlet(-0.2))


@settings(max_examples=30)
@given(edges=st.lists(st.tuples(_convex_hamiltonians(),
                                st.sampled_from(_FAR_ENDS)),
                      min_size=1, max_size=3),
       n=st.sampled_from([16, 32, 48]),
       node=st.sampled_from([ed.StateConstraint(), jn.FluxLimited(-0.5),
                             ed.Dirichlet(0.3)]))
@example(edges=[(hm.make_builtin("abs_shift", b=0.1, c=1.3), _FAR_ENDS[0]),
                (hm.make_builtin("expression",
                                 src="max(0.95*(2.2-p),p-2.2)-1"),
                 _FAR_ENDS[1])],
         n=32, node=ed.StateConstraint())
def test_newton_shortcuts_match_their_disabled_form(edges, n, node):
    # the theta skip and the reuse of Newton's residual as the clamped
    # certification are exact: the solve is bit for bit the one that
    # looks theta up and recomputes the clamped residual
    prob = jn.make_junction_problem(
        [ed.EdgeSpec(1.0, n, far_bc=far) for _, far in edges],
        [H for H, _ in edges], node)
    sol, rep = jn.solve_system(prob)
    ref, rep_ref = _solve_without_shortcuts(prob)
    assert sol.node_value == ref.node_value
    for a, b in zip(sol.per_edge, ref.per_edge):
        assert a.values.tobytes() == b.values.tobytes()
    assert (rep.theta is None) == (rep_ref.theta is None)
    for a, b in zip(rep.theta or [], rep_ref.theta or []):
        assert a.tobytes() == b.tobytes()
    assert (rep.method, rep.levels, rep.flags, rep.iterations,
            rep.converged) == (rep_ref.method, rep_ref.levels,
                               rep_ref.flags, rep_ref.iterations,
                               rep_ref.converged)
    assert repr(rep.final_residual) == repr(rep_ref.final_residual)


@st.composite
def _arrowheads(draw):
    """K = 1..3 edge blocks of M-matrix rows, some with the viscous Neumann
    far row as row 0, a pinned or free node row with 0-2 entries per edge,
    and a right-hand side."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pinned = draw(st.booleans())
    blocks, node_row = [], []
    node_diag = 1.0 if pinned else rng.uniform(0.1, 2.0)
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 12))
        sub, sup = -rng.uniform(0.0, 1.0, n), -rng.uniform(0.0, 1.0, n)
        sub[0] = 0.0
        neumann = draw(st.booleans())
        if neumann:
            # folding row 0 into row 1 keeps row 1 dominant while
            # |sup[1]| >= |sub[1]| / 3, as in a viscous row with dH <= eps/h
            sup[1] = min(sup[1], sub[1] / 3.0)
        diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.1, 2.0, n)
        if neumann:
            h = rng.uniform(0.01, 0.5)
            diag[0], sup[0] = -1.5 / h, 2.0 / h
            blocks.append((sub, diag, sup, -0.5 / h))
        else:
            blocks.append((sub, diag, sup))
        cols = [] if pinned else draw(
            st.lists(st.integers(0, n - 1), max_size=2, unique=True))
        row = {j: rng.uniform(-1.0, 1.0) for j in cols}
        # x_0 of a Neumann block weighs up to 5/3 of its neighbours
        node_diag += 2.0 * sum(abs(v) for v in row.values())
        node_row.append(row)
    size = sum(len(b[1]) for b in blocks) + 1
    return (blocks, node_row, node_diag), rng.uniform(-1.0, 1.0, size)


@settings(max_examples=100)
@given(_arrowheads())
def test_solve_arrowhead_matches_dense_solve(dense_arrowhead, case):
    jac, rhs = case
    x = jn.solve_arrowhead(jac, rhs)
    ref = np.linalg.solve(dense_arrowhead(jac), rhs)
    np.testing.assert_allclose(x, ref, rtol=1e-9,
                               atol=1e-10 * float(np.max(np.abs(ref))))


def test_solve_arrowhead_fails_on_bad_pivot():
    sub, sup = np.array([0.0, -1.0, -1.0]), np.array([-1.0, -1.0, -1.0])
    good = (sub, np.full(3, 3.0), sup)
    cases = [
        ([(sub, np.array([0.0, 3.0, 3.0]), sup)], 1.0),
        # row 1's pivot 1 - (-1)(-1) vanishes only after elimination
        ([(sub, np.array([1.0, 1.0, 3.0]), sup)], 1.0),
        ([(sub, np.array([3.0, np.inf, 3.0]), sup)], 1.0),
        # the Schur complement of the node row
        ([good], 0.0),
        ([good], np.inf),
    ]
    for blocks, node_diag in cases:
        x = jn.solve_arrowhead((blocks, [{}], node_diag), np.ones(4))
        assert np.all(np.isnan(x))
