import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjj import edge as ed
from hjj import hamiltonians as hm
from hjj import junction as jn
from hjj import viscous as vs


@pytest.fixture(scope="module")
def h_abs():
    return hm.make_builtin("abs_shift", c=1.0)


@pytest.fixture(scope="module")
def prob_abs_dirichlet(h_abs):
    e = ed.EdgeSpec(1.0, 400, far_bc=ed.Dirichlet(0.0))
    return jn.make_junction_problem([e, e], [h_abs, h_abs])


@pytest.fixture(scope="module")
def sweep_abs(prob_abs_dirichlet):
    return vs.epsilon_sweep(prob_abs_dirichlet, [0.2, 0.1, 0.05, 0.025])


@pytest.fixture(scope="module")
def prob_quad_dirichlet():
    hq = hm.make_builtin("quadratic", b=1.0, c=1.0)
    e = ed.EdgeSpec(1.0, 400, far_bc=ed.Dirichlet(0.0))
    return jn.make_junction_problem([e, e], [hq, hq])


@pytest.fixture(scope="module")
def prob_quad_asymmetric():
    # the symmetric quadratic junction is solved by its start (u = 0 is the
    # exact discrete solution); unequal minimizers make Newton work
    e = ed.EdgeSpec(1.0, 170, far_bc=ed.Dirichlet(0.0))
    return jn.make_junction_problem(
        [e, e], [hm.make_builtin("quadratic", b=1.0, c=1.0),
                 hm.make_builtin("quadratic", b=0.5, c=1.0)])


class TestSolveViscous:
    def test_symmetric_solve(self, prob_abs_dirichlet):
        sol, rep = vs.solve_viscous_kirchhoff(prob_abs_dirichlet,
                                              vs.ViscousParams(0.1))
        assert rep.converged
        res, kirch = vs.viscous_scheme_residual(sol, prob_abs_dirichlet, 0.1)
        assert res <= 1e-8
        assert kirch <= 1e-8
        # symmetric data: both edges identical
        d = np.max(np.abs(sol.per_edge[0].values - sol.per_edge[1].values))
        assert d <= 1e-9
        # diffusion pins the junction below the first-order value
        sc, _ = jn.solve_junction_direct(jn.JunctionProblem(
            prob_abs_dirichlet.edges, prob_abs_dirichlet.hamiltonians))
        assert sol.node_value < sc.node_value

    def test_single_edge_exact_constant(self, h_abs):
        # u = 1 solves -eps u'' + u + |u'| - 1 = 0 with zero far slope and
        # zero junction slope, for every eps
        e = ed.EdgeSpec(1.0, 200)
        prob = jn.make_junction_problem([e], [h_abs])
        sol, rep = vs.solve_viscous_kirchhoff(prob, vs.ViscousParams(0.05))
        assert rep.converged
        assert np.max(np.abs(sol.per_edge[0].values - 1.0)) <= 1e-8

    def test_large_epsilon_flattens(self, h_abs):
        e = ed.EdgeSpec(1.0, 200)
        prob = jn.make_junction_problem([e, e], [h_abs, h_abs])
        sol, rep = vs.solve_viscous_kirchhoff(prob, vs.ViscousParams(1000.0))
        assert rep.converged
        assert sol.node_value == pytest.approx(1.0, abs=1e-2)

    def test_rejects_state_constraint_far_end(self, h_abs):
        e = ed.EdgeSpec(1.0, 200, far_bc=ed.StateConstraint())
        prob = jn.make_junction_problem([e], [h_abs])
        with pytest.raises(ValueError, match="far ends"):
            vs.solve_viscous_kirchhoff(prob, vs.ViscousParams(0.1))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            vs.ViscousParams(epsilon=-0.1)

    def test_shared_solve_report(self, prob_quad_asymmetric):
        sol, rep = vs.solve_viscous_kirchhoff(prob_quad_asymmetric,
                                              vs.ViscousParams(0.2))
        assert isinstance(rep, ed.SolveReport)
        assert rep.converged and rep.flags == ()
        assert rep.method == "newton"
        assert rep.flux == "central"
        assert rep.levels
        assert rep.levels[-1][0] == 0.2
        assert rep.iterations == sum(steps for _, steps in rep.levels)

    def test_failed_stage_retried_in_quarter_steps(self, prob_quad_asymmetric,
                                                   monkeypatch):
        # the first Newton attempt at eps = 0.25 fails; the leg from 0.5 is
        # retried in four geometric steps and the solve still converges
        real = vs._ViscousSystem.newton
        failed = []

        def newton(self, z, eps):
            if eps == 0.25 and not failed:
                failed.append(eps)
                return z, 1.0, 1, False
            return real(self, z, eps)

        monkeypatch.setattr(vs._ViscousSystem, "newton", newton)
        sol, rep = vs.solve_viscous_kirchhoff(prob_quad_asymmetric,
                                              vs.ViscousParams(0.2))
        assert rep.converged and rep.flags == ()
        eps = [e for e, _ in rep.levels]
        r = 0.5 ** 0.25
        assert eps[:2] == [1.0, 0.5]
        assert eps[2:5] == pytest.approx([0.5 * r, 0.5 * r ** 2, 0.5 * r ** 3])
        assert eps[5:] == [0.25, 0.2]
        assert rep.iterations == 1 + sum(steps for _, steps in rep.levels)

    def test_line_search_halves_a_tripled_step(self, prob_quad_asymmetric,
                                               step_factors):
        # no measured viscous step needs damping; a step three times the
        # Newton direction does, and the stages still reach the answer
        ref, _ = vs.solve_viscous_kirchhoff(prob_quad_asymmetric,
                                            vs.ViscousParams(0.2))
        factors = step_factors(vs, scale=3.0)
        sol, rep = vs.solve_viscous_kirchhoff(prob_quad_asymmetric,
                                              vs.ViscousParams(0.2))
        assert rep.converged and rep.flags == ()
        assert [e for e, _ in rep.levels] == [1.0, 0.5, 0.25, 0.2]
        assert min(factors) < 0.75
        for a, b in zip(sol.per_edge, ref.per_edge):
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_failed_solve_flags_max_iters(self, prob_quad_asymmetric,
                                          monkeypatch):
        monkeypatch.setattr(vs, "MAX_NEWTON", 1)
        sol, rep = vs.solve_viscous_kirchhoff(prob_quad_asymmetric,
                                              vs.ViscousParams(0.2))
        assert not rep.converged
        assert rep.flags == ("max_iters",)
        assert rep.levels == ()
        sweep = vs.epsilon_sweep(prob_quad_asymmetric,
                                 [0.2, 0.1, 0.05, 0.025])
        assert sweep.failed_epsilon == 0.2
        assert sweep.flags == ("max_iters",)
        assert sweep.records == []
        assert sweep.extrapolated_node_value is None
        assert sweep.classification == vs.UNDETERMINED
        assert sweep.reference_converged

    def test_failed_stage_keeps_converged_records(self, prob_quad_asymmetric,
                                                  monkeypatch):
        real = vs._ViscousSystem.newton

        def newton(self, z, eps):
            if eps == 0.1:
                return z, 1.0, 1, False
            return real(self, z, eps)

        monkeypatch.setattr(vs._ViscousSystem, "newton", newton)
        sweep = vs.epsilon_sweep(prob_quad_asymmetric, [0.2, 0.1, 0.05])
        assert [r.epsilon for r in sweep.records] == [0.2]
        assert sweep.failed_epsilon == 0.1
        assert sweep.flags == ("max_iters",)
        assert sweep.extrapolated_node_value == sweep.records[0].node_value
        assert sweep.classification == vs.UNDETERMINED


class TestSweep:
    def test_monotone_approach_to_state_constraint(self, sweep_abs):
        rep = sweep_abs
        assert rep.classification == vs.SELECTS_STATE_CONSTRAINT
        assert rep.predicted_selection == vs.SELECTS_STATE_CONSTRAINT
        vals = [r.node_value for r in rep.records]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert abs(rep.extrapolated_node_value - rep.sc_reference) <= 5e-2
        gaps = [abs(r.node_value - rep.sc_reference) for r in rep.records]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_kirchhoff_identity_along_sweep(self, sweep_abs):
        for r in sweep_abs.records:
            assert abs(r.kirchhoff_sum) <= 1e-8

    def test_uniform_lipschitz(self, prob_abs_dirichlet, h_abs):
        bound = 2.0 * h_abs.coercivity_bound + 1.0
        for eps in (0.2, 0.05):
            sol, _ = vs.solve_viscous_kirchhoff(prob_abs_dirichlet,
                                                vs.ViscousParams(eps))
            for g in sol.per_edge:
                assert g.discrete_lipschitz() <= bound

    def test_epsilon_stability(self, prob_abs_dirichlet):
        # |u^eps(0) - u^{eps/2}(0)| shrinks along the halving schedule
        vals = {}
        for eps in (0.2, 0.1, 0.05, 0.025):
            sol, _ = vs.solve_viscous_kirchhoff(prob_abs_dirichlet,
                                                vs.ViscousParams(eps))
            vals[eps] = sol.node_value
        jumps = [abs(vals[0.2] - vals[0.1]), abs(vals[0.1] - vals[0.05]),
                 abs(vals[0.05] - vals[0.025])]
        assert all(b <= a + 1e-12 for a, b in zip(jumps, jumps[1:]))

    def test_quadratic_kirchhoff_branch(self, prob_quad_dirichlet):
        rep = vs.epsilon_sweep(prob_quad_dirichlet, [0.2, 0.1, 0.05, 0.025])
        assert rep.predicted_selection == vs.NO_GUARANTEE
        assert rep.classification == vs.KIRCHHOFF_LIMIT
        assert rep.extrapolated_node_value < rep.sc_reference - 0.05
        assert abs(rep.records[-1].kirchhoff_sum) <= 5e-2

    def test_asymmetric_kirchhoff_branch(self, prob_quad_asymmetric):
        rep = vs.epsilon_sweep(prob_quad_asymmetric, [0.2, 0.1, 0.05, 0.025])
        assert all(r.newton_iters >= 1 for r in rep.records)
        assert rep.classification == vs.KIRCHHOFF_LIMIT
        assert rep.extrapolated_node_value < rep.sc_reference - 0.05
        assert all(abs(r.kirchhoff_sum) <= 1e-8 for r in rep.records)
        assert rep.reference_converged

    def test_trivial_single_edge_sweep(self, h_abs):
        e = ed.EdgeSpec(1.0, 200)
        prob = jn.make_junction_problem([e], [h_abs])
        rep = vs.epsilon_sweep(prob, [0.4, 0.2, 0.1])
        vals = [r.node_value for r in rep.records]
        assert max(vals) - min(vals) <= 1e-8

    def test_validation(self, prob_abs_dirichlet, h_abs):
        with pytest.raises(ValueError, match="decrease"):
            vs.epsilon_sweep(prob_abs_dirichlet, [0.05, 0.1, 0.2])
        with pytest.raises(ValueError, match="3 entries"):
            vs.epsilon_sweep(prob_abs_dirichlet, [0.2, 0.1])
        coarse = ed.EdgeSpec(1.0, 16, far_bc=ed.Dirichlet(0.0))
        prob = jn.make_junction_problem([coarse], [h_abs])
        with pytest.raises(ValueError, match="too coarse"):
            vs.epsilon_sweep(prob, [0.2, 0.1, 0.05])


class TestPredictSelection:
    def test_abs_family_sum_zero(self, h_abs):
        e = ed.EdgeSpec(1.0, 100)
        prob = jn.make_junction_problem(
            [e, e], [h_abs, hm.make_builtin("abs_shift", c=2.0)])
        assert vs.predict_selection(prob) == vs.SELECTS_STATE_CONSTRAINT

    def test_quadratic_positive_sum(self):
        hq = hm.make_builtin("quadratic", b=1.0, c=1.0)
        e = ed.EdgeSpec(1.0, 100)
        prob = jn.make_junction_problem([e, e], [hq, hq])
        assert vs.predict_selection(prob) == vs.NO_GUARANTEE

    def test_double_well_negative_sum(self):
        hd = hm.make_builtin("double_well", b=-2.0, c=0.0)
        e = ed.EdgeSpec(1.0, 100)
        prob = jn.make_junction_problem([e, e], [hd, hd])
        assert vs.predict_selection(prob) == vs.SELECTS_STATE_CONSTRAINT


class TestClassify:
    def _report(self, values, eps=(0.2, 0.1, 0.05), kirch=0.0):
        recs = [vs.SweepRecord(e, v, (0.0,), kirch, 1)
                for e, v in zip(eps, values)]
        rep = vs.VanishingViscosityReport(
            records=recs,
            extrapolated_node_value=vs.richardson_extrapolate(recs),
            classification=vs.UNDETERMINED,
            predicted_selection=vs.NO_GUARANTEE,
            sc_reference=1.0)
        return rep

    def test_selects_state_constraint(self):
        rep = self._report([0.8, 0.9, 0.95])
        assert vs.classify_limit(rep, 1.0) == vs.SELECTS_STATE_CONSTRAINT

    def test_kirchhoff(self):
        rep = self._report([0.30, 0.25, 0.225])
        assert vs.classify_limit(rep, 1.0) == vs.KIRCHHOFF_LIMIT

    def test_undetermined_on_conflicting_signals(self):
        rep = self._report([0.30, 0.25, 0.225], kirch=0.5)
        assert vs.classify_limit(rep, 1.0) == vs.UNDETERMINED

    def test_needs_three_records(self):
        rep = self._report([0.9, 0.95], eps=(0.2, 0.1))
        with pytest.raises(ValueError, match="3 sweep records"):
            vs.classify_limit(rep, 1.0)

    def test_exclusivity_with_prediction(self, sweep_abs):
        assert not (sweep_abs.predicted_selection == vs.SELECTS_STATE_CONSTRAINT
                    and sweep_abs.classification == vs.KIRCHHOFF_LIMIT)


def test_richardson_extrapolation_linear_model():
    recs = [vs.SweepRecord(e, 2.0 - 3.0 * e, (0.0,), 0.0, 1)
            for e in (0.2, 0.1, 0.05)]
    assert vs.richardson_extrapolate(recs) == pytest.approx(2.0, abs=1e-12)


def test_continuation_schedule():
    sched = vs._continuation_schedule(1.0, 0.1)
    assert sched[0] == 1.0 and sched[-1] == 0.1
    assert all(b < a for a, b in zip(sched, sched[1:]))
    assert vs._continuation_schedule(1.0, 2.0) == [2.0]


@st.composite
def _viscous_systems(draw):
    """A K = 1..3 junction of smooth Hamiltonians, some x-dependent, with
    Dirichlet or Neumann far ends, and a random state of its flat layout."""
    edges, hams = [], []
    for _ in range(draw(st.integers(1, 3))):
        far = draw(st.sampled_from([ed.Dirichlet(0.25), ed.Neumann(-0.5)]))
        edges.append(ed.EdgeSpec(draw(st.floats(0.5, 2.0)),
                                 draw(st.integers(8, 24)), far_bc=far))
        b = draw(st.floats(0.0, 1.0))
        c = draw(st.floats(0.0, 2.0))
        family = draw(st.sampled_from(["quadratic", "double_well", "x"]))
        if family == "x":
            hams.append(hm.parse_expression(
                f"(p - {b:.3f} * x)^2 + x * p - {c:.3f}"))
        else:
            hams.append(hm.make_builtin(family, b=b, c=c))
    sys_ = vs._ViscousSystem(jn.JunctionProblem(edges, hams))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return sys_, rng.uniform(-1.0, 1.0, sys_.size), draw(st.floats(1e-3, 1.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_viscous_systems())
def test_jacobian_matches_residual_differences(dense_arrowhead, case):
    sys_, z, eps = case
    J = dense_arrowhead(sys_.jacobian(z, eps))
    step = 1e-6
    fd = np.empty_like(J)
    for k in range(sys_.size):
        dz = np.zeros(sys_.size)
        dz[k] = step
        fd[:, k] = (sys_.residual(z + dz, eps)
                    - sys_.residual(z - dz, eps)) / (2.0 * step)
    np.testing.assert_allclose(J, fd, rtol=1e-5,
                               atol=1e-6 * float(np.max(np.abs(J))))
