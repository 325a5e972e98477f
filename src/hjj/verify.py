"""Built-in verification suite: runs the scheme and solver invariants on
small builtin fixtures and reports one pass/fail line per check.

This is the desk-scale sanity harness behind `hjj verify`; the full-size
tolerances live in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import edge as ed
from . import fatten2d as ft
from . import hamiltonians as hm
from . import junction as jn
from . import viscous as vs


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _fixture_hams():
    return {
        "abs1": hm.make_builtin("abs_shift", c=1.0),
        "abs2": hm.make_builtin("abs_shift", c=2.0),
        "quad": hm.make_builtin("quadratic", b=1.0, c=1.0),
        "dwell": hm.make_builtin("double_well", b=-2.0, c=0.0),
    }


def run_verification(trials=200, seed=0):
    """Run every check; returns a list of CheckResult."""
    rng = np.random.default_rng(seed)
    H = _fixture_hams()
    results = []

    def check(name, fn):
        t0 = time.perf_counter()
        try:
            detail = fn() or "ok"
            passed = True
        except AssertionError as e:
            detail = str(e) or "assertion failed"
            passed = False
        results.append(CheckResult(name, passed, detail,
                                   time.perf_counter() - t0))

    # -- Hamiltonian layer ---------------------------------------------------

    def envelope_identity():
        for key in ("abs1", "quad"):
            h = H[key]
            hm_minus = hm.nonincreasing_part(h)
            p0 = h.minima[0]
            ps = np.linspace(-h.coercivity_bound, h.coercivity_bound, 257)
            exact = h(np.minimum(ps, p0), 0.0)
            assert np.max(np.abs(hm_minus(ps) - exact)) == 0.0, key
            v = hm_minus(ps)
            assert np.all(v[:-1] >= v[1:] - 1e-12), f"{key} not nonincreasing"

    check("envelope identity", envelope_identity)

    def flux_limiter_monotone():
        lim = hm.make_flux_limiter([H["abs1"], H["quad"]], -0.3)
        ps = np.linspace(-4, 4, 81)
        for k in range(2):
            slopes = [ps, np.zeros_like(ps)]
            if k == 1:
                slopes.reverse()
            v = lim(slopes)
            assert np.all(v[:-1] >= v[1:] - 1e-12)

    check("flux limiter monotone", flux_limiter_monotone)

    def reduction_bound_and_witness():
        H2 = hm.parse_expression_2d("p1^2 + 10*p2^2")
        H1 = hm.reduce_2d(H2, 1)
        Hr = hm.reduce_2d(H2, 2)
        p1 = np.linspace(-1, 1, 21)
        for p2 in (-1.0, 0.0, 0.7):
            assert np.all(H1(p1) <= H2(p1, p2) + 1e-9)
        assert H2(1.0, 1.0) == 11.0
        assert max(H1(1.0), Hr(1.0)) == 10.0

    check("2-D reduction lower bound and joint-vs-max witness",
          reduction_bound_and_witness)

    def minima_analytic():
        for key, expected in (("abs1", [0.0]), ("quad", [1.0]),
                              ("dwell", [-3.0, -1.0])):
            h = H[key]
            got = hm.find_minima(h, h.coercivity_bound)
            assert len(got) == len(expected) and \
                np.max(np.abs(got - np.asarray(expected))) <= 1e-6, key

    check("builtin minima analytic", minima_analytic)

    def rightward_thresholds():
        for key, expected in (("abs1", 0.0), ("quad", 1.0), ("dwell", -1.0)):
            got = hm.rightward_min_threshold(H[key])
            assert abs(got - expected) <= 1e-6, f"{key}: {got}"

    check("rightward minimum thresholds", rightward_thresholds)

    # -- 1-D scheme ----------------------------------------------------------

    def interior_monotone_1d():
        spec = ed.EdgeSpec(1.0, 32)
        disc = ed.EdgeDiscretization(H["quad"], spec, ed.StateConstraint())
        P = H["quad"].coercivity_bound
        theta = float(disc.theta_tab.range_max(-2 * P, 2 * P))
        for _ in range(trials):
            u = np.cumsum(rng.uniform(-P, P, 33) * spec.h)
            j = int(rng.integers(1, 32))
            k = int(rng.choice([j - 1, j + 1]))
            delta = float(rng.uniform(0, spec.h))
            un, _, _ = disc.pseudo_time_step(u, theta=theta)
            u2 = u.copy()
            u2[k] += delta
            un2, _, _ = disc.pseudo_time_step(u2, theta=theta)
            assert un2[j] >= un[j] - 1e-12

    check("1-D interior step monotone", interior_monotone_1d)

    def node_monotone():
        e = ed.EdgeSpec(1.0, 32)
        prob = jn.make_junction_problem([e, e], [H["abs1"], H["quad"]])
        jd = jn.JunctionDiscretization(prob)
        for _ in range(trials):
            us = [np.cumsum(rng.uniform(-2, 2, 33) * e.h) for _ in range(2)]
            u0 = float(us[0][-1])
            for u in us:
                u[-1] = u0
            base = jd.node_residual(us, u0)
            delta = float(rng.uniform(0, 0.05))
            up = jd.node_residual(us, u0 + delta)
            assert up >= base - 1e-12
            us[int(rng.integers(0, 2))][-2] += delta
            nbr = jd.node_residual(us, u0)
            assert nbr <= base + 1e-12

    check("junction node residual monotone", node_monotone)

    def interior_monotone_2d():
        H2 = hm.max_form_2d(H["abs1"], H["abs2"])
        dom = ft.build_fat_domain(1.0, 1.0, 0.4, 0.1)
        sys_ = ft.FatSystem(H2, dom)
        interior = np.nonzero((sys_.mode1 == 0) & (sys_.mode2 == 0))[0]
        theta = (np.full(sys_.count, 1.5), np.full(sys_.count, 1.5))
        for _ in range(trials):
            u = rng.uniform(-1, 1, sys_.count) * dom.h2 * 4
            j = int(rng.choice(interior))
            nbr = int(rng.choice([sys_.iE[j], sys_.iW[j],
                                  sys_.iN[j], sys_.iS[j]]))
            delta = float(rng.uniform(0, dom.h2))
            un, _, _ = sys_.step(u, theta=theta)
            u2 = u.copy()
            u2[nbr] += delta
            un2, _, _ = sys_.step(u2, theta=theta)
            assert un2[j] >= un[j] - 1e-12

    check("2-D interior step monotone", interior_monotone_2d)

    def comparison_one_step():
        spec = ed.EdgeSpec(1.0, 32)
        disc = ed.EdgeDiscretization(H["abs1"], spec, ed.StateConstraint())
        for _ in range(trials):
            u = np.cumsum(rng.uniform(-1, 1, 33) * spec.h)
            v = u - rng.uniform(0, 1, 33)
            un, _, _ = disc.pseudo_time_step(u, theta=2.0)
            vn, _, _ = disc.pseudo_time_step(v, theta=2.0)
            assert np.all(vn <= un + 1e-12)

    check("one-step comparison", comparison_one_step)

    def consistency_stable():
        cs = []
        for n in (50, 100):
            spec = ed.EdgeSpec(1.0, n)
            disc = ed.EdgeDiscretization(H["abs1"], spec, ed.Dirichlet(0.0))
            exact = 1.0 - np.exp(spec.grid())
            R, _ = disc.residual(exact)
            cs.append(float(np.max(np.abs(R))) / spec.h)
        assert cs[1] <= 1.5 * cs[0] + 0.05, f"C grew: {cs}"
        return f"C(h)={cs[0]:.3f}, C(h/2)={cs[1]:.3f}"

    check("consistency constant stable", consistency_stable)

    def convergence_order():
        errs = []
        for n in (50, 100, 200):
            spec = ed.EdgeSpec(1.0, n)
            u, _ = ed.solve_edge(H["abs1"], spec, ed.Dirichlet(0.0),
                                 sc_value=1.0)
            errs.append(float(np.max(np.abs(
                u.values - (1.0 - np.exp(spec.grid()))))))
        orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
        assert np.all(orders >= 0.9), f"orders {orders}"
        return f"orders {np.round(orders, 3).tolist()}"

    check("first-order convergence", convergence_order)

    # -- junction, viscous, fattening at small scale --------------------------

    def cross_solver_and_value_formula():
        e = ed.EdgeSpec(1.0, 100)
        prob = jn.make_junction_problem([e, e], [H["abs1"], H["abs2"]])
        direct, _ = jn.solve_junction_direct(prob)
        constructive, _ = jn.solve_junction_constructive(prob)
        gap = max(abs(jn.compare_grid_functions(direct, constructive)),
                  abs(jn.compare_grid_functions(constructive, direct)))
        assert gap <= max(5e-2, 3.0 * np.sqrt(e.h)), f"gap {gap}"
        vals = []
        for Hi, ei in zip(prob.hamiltonians, prob.edges):
            u, _ = ed.solve_edge(Hi, ei, ed.StateConstraint())
            vals.append(u.node_value)
        assert abs(direct.node_value - min(vals)) <= 2e-2

    check("cross-solver equivalence and value formula",
          cross_solver_and_value_formula)

    def kirchhoff_identity():
        e = ed.EdgeSpec(1.0, 52, far_bc=ed.Dirichlet(0.0))
        prob = jn.make_junction_problem([e, e], [H["abs1"], H["abs1"]])
        sol, rep = vs.solve_viscous_kirchhoff(prob, vs.ViscousParams(0.2))
        assert rep.converged
        res, kirch = vs.viscous_scheme_residual(sol, prob, 0.2)
        assert res <= 1e-8 and kirch <= 1e-8, f"res {res}, kirchhoff {kirch}"

    check("discrete Kirchhoff identity", kirchhoff_identity)

    def sweep_dichotomy():
        e = ed.EdgeSpec(1.0, 52, far_bc=ed.Dirichlet(0.0))
        prob_a = jn.make_junction_problem([e, e], [H["abs1"], H["abs1"]])
        rep_a = vs.epsilon_sweep(prob_a, [0.4, 0.2, 0.1])
        assert rep_a.classification == vs.SELECTS_STATE_CONSTRAINT, \
            rep_a.classification
        prob_q = jn.make_junction_problem([e, e], [H["quad"], H["quad"]])
        rep_q = vs.epsilon_sweep(prob_q, [0.4, 0.2, 0.1])
        assert rep_q.classification == vs.KIRCHHOFF_LIMIT, rep_q.classification
        for rep in (rep_a, rep_q):
            assert not (rep.predicted_selection == vs.SELECTS_STATE_CONSTRAINT
                        and rep.classification == vs.KIRCHHOFF_LIMIT)

    check("vanishing-diffusion dichotomy", sweep_dichotomy)

    def flux_bound():
        e = ed.EdgeSpec(1.0, 64)
        for A in (-0.5, -2.0):
            prob = jn.make_junction_problem([e, e], [H["abs1"], H["abs1"]],
                                            jn.FluxLimited(A))
            sol, rep = jn.solve_flux_limited(prob)
            assert rep.converged
            assert sol.node_value <= -A + 2e-2, f"A={A}: {sol.node_value}"

    check("flux-limited junction bound", flux_bound)

    def lipschitz_bounds():
        e = ed.EdgeSpec(1.0, 64)
        for key in ("abs1", "quad"):
            u, _ = ed.solve_edge(H[key], e, ed.StateConstraint())
            assert u.discrete_lipschitz() <= 2.0 * H[key].coercivity_bound

    check("coercivity-implied Lipschitz bounds", lipschitz_bounds)

    def fattening_trace():
        H2 = hm.max_form_2d(H["abs1"], H["abs2"])
        rep = ft.fattening_study(H2, [0.2], n_1d=100)
        r = rep.records[0]
        assert rep.reference_converged
        assert r.converged and r.trace_error <= 0.1, r.trace_error
        assert r.node_super_residual >= -5e-2

    check("fattening trace vs reduced junction", fattening_trace)

    return results


def format_results(results):
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name} ({r.seconds:.2f}s): {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
