"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers (run with -s to see them on passing runs)."""

import json
import time

import numpy as np
import pytest

from hjj import cli
from hjj import edge as ed
from hjj import fatten2d as ft
from hjj import hamiltonians as hm
from hjj import junction as jn
from hjj import viscous as vs
from hjj.problems import write_problem


def _line(num, text):
    print(f"[acceptance] criterion {num}: PASS ({text})")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

def _edge(n, far="neumann"):
    bc = {"neumann": ed.Neumann(0.0), "dirichlet0": ed.Dirichlet(0.0),
          "sc": ed.StateConstraint()}[far]
    return ed.EdgeSpec(1.0, n, bc)


def _family_fixtures(n):
    """Five junction fixtures: kink-family mixtures, a parabola, and
    double wells."""
    mk = hm.make_builtin
    return [
        ("abs 1|2", [_edge(n), _edge(n)],
         [mk("abs_shift", c=1.0), mk("abs_shift", c=2.0)]),
        ("abs shifted", [_edge(n), _edge(n)],
         [mk("abs_shift", b=0.5, c=1.0), mk("abs_shift", c=2.0)]),
        ("quad + abs5", [_edge(n), _edge(n)],
         [mk("quadratic", b=1.0, c=1.0), mk("abs_shift", c=5.0)]),
        ("dwell + abs1", [_edge(n, "sc"), _edge(n, "sc")],
         [mk("double_well", b=-2.0, c=0.0), mk("abs_shift", c=1.0)]),
        ("dwell + quad", [_edge(n, "sc"), _edge(n, "sc")],
         [mk("double_well", b=-2.0, c=0.5), mk("quadratic", b=0.0, c=2.0)]),
    ]


@pytest.fixture(scope="module")
def bundles():
    """Direct/constructive solutions and per-edge constrained node values
    for every fixture at the resolutions the criteria compare."""
    out = {}
    for n in (200, 400, 800):
        for name, edges, hams in _family_fixtures(n):
            prob = jn.make_junction_problem(edges, hams)
            direct, rep_d = jn.solve_junction_direct(prob)
            assert rep_d.converged, f"{name} at n={n}"
            entry = {"problem": prob, "direct": direct}
            if n in (200, 400):
                constructive, rep_c = jn.solve_junction_constructive(prob)
                assert rep_c.converged, f"{name} constructive at n={n}"
                entry["constructive"] = constructive
            sc_vals = []
            for H, e in zip(prob.hamiltonians, prob.edges):
                u, rep = ed.solve_edge(H, e, ed.StateConstraint())
                assert rep.converged
                sc_vals.append(u.node_value)
            entry["sc_values"] = sc_vals
            out[(name, n)] = entry
    return out


@pytest.fixture(scope="module")
def sweep_problems():
    h_abs = hm.make_builtin("abs_shift", c=1.0)
    h_quad = hm.make_builtin("quadratic", b=1.0, c=1.0)
    e = _edge(400, "dirichlet0")
    return {
        "abs": jn.make_junction_problem([e, e], [h_abs, h_abs]),
        "quad": jn.make_junction_problem([e, e], [h_quad, h_quad]),
    }


@pytest.fixture(scope="module")
def sweeps(sweep_problems):
    eps = [0.2, 0.1, 0.05, 0.025]
    return {k: vs.epsilon_sweep(p, eps) for k, p in sweep_problems.items()}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_analytic_edge_oracle():
    t0 = time.perf_counter()
    H = hm.make_builtin("abs_shift", c=1.0)
    spec = _edge(400)
    u_sc, rep1 = ed.solve_edge(H, spec, ed.StateConstraint())
    err_sc = float(np.max(np.abs(u_sc.values - 1.0)))
    u_d, rep2 = ed.solve_edge(H, spec, ed.Dirichlet(0.0), sc_value=1.0)
    exact = 1.0 - np.exp(spec.grid())
    err_d = float(np.max(np.abs(u_d.values - exact)))
    elapsed = time.perf_counter() - t0
    assert rep1.converged and rep2.converged
    assert err_sc <= 1e-2
    assert err_d <= 1e-2
    assert elapsed < 5.0
    _line(1, f"sc_err={err_sc:.1e}, dirichlet_err={err_d:.1e}, "
             f"{elapsed:.2f}s")


def test_criterion_2_value_formula(bundles):
    details = []
    for name, _, _ in _family_fixtures(400):
        errs = {}
        for n in (400, 800):
            b = bundles[(name, n)]
            errs[n] = abs(b["direct"].node_value - min(b["sc_values"]))
        assert errs[400] <= 2e-2, f"{name}: {errs[400]}"
        # both sides of the gap are solver measurements; allow tolerance
        # noise when the true gap sits below it
        assert errs[800] <= errs[400] + 1e-6, f"{name}: {errs}"
        details.append(f"{name}: {errs[400]:.1e}/{errs[800]:.1e}")
    _line(2, "; ".join(details))


def test_criterion_3_cross_solver_equivalence(bundles):
    details = []
    for name, _, _ in _family_fixtures(400):
        for n in (200, 400):
            b = bundles[(name, n)]
            gap = max(abs(jn.compare_grid_functions(b["direct"],
                                                    b["constructive"])),
                      abs(jn.compare_grid_functions(b["constructive"],
                                                    b["direct"])))
            tol = max(5e-2, 3.0 * np.sqrt(1.0 / n))
            assert gap <= tol, f"{name} at n={n}: gap {gap} > {tol}"
            if n == 400:
                details.append(f"{name}: {gap:.1e}")
    _line(3, "; ".join(details))


def test_criterion_4_dirichlet_structure_suite():
    t0 = time.perf_counter()
    spec = _edge(400)
    h_abs = hm.make_builtin("abs_shift", c=1.0)
    cs_abs = np.linspace(-1.5, 0.6, 8)
    rep_abs = ed.check_dirichlet_structure(h_abs, spec, cs_abs)
    assert rep_abs.passed
    slope_err = float(np.max(np.abs(rep_abs.node_slopes - (cs_abs - 1.0))))
    assert slope_err <= 5e-3

    h_quad = hm.make_builtin("quadratic", b=1.0, c=1.0)
    cs_quad = np.linspace(-1.5, 0.6, 8)
    rep_quad = ed.check_dirichlet_structure(h_quad, spec, cs_quad)
    assert rep_quad.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(4, f"kink slope err={slope_err:.1e}, residuals<="
             f"{float(np.max(np.abs(np.concatenate([rep_abs.equation_residuals, rep_quad.equation_residuals])))):.1e}, "
             f"{elapsed:.1f}s")


def test_criterion_5_selection_of_state_constraint(sweeps):
    rep = sweeps["abs"]
    assert rep.predicted_selection == vs.SELECTS_STATE_CONSTRAINT
    assert rep.classification == vs.SELECTS_STATE_CONSTRAINT
    gap_extrap = abs(rep.extrapolated_node_value - rep.sc_reference)
    assert gap_extrap <= 5e-2
    by_eps = {r.epsilon: r.node_value for r in rep.records}
    g50 = abs(by_eps[0.05] - rep.sc_reference)
    g25 = abs(by_eps[0.025] - rep.sc_reference)
    assert g50 > g25, f"approach not monotone: {g50} vs {g25}"
    _line(5, f"extrap gap={gap_extrap:.1e}, approach {g50:.3f}>{g25:.3f}")


def test_criterion_6_kirchhoff_branch(sweeps):
    t0 = time.perf_counter()
    rep = sweeps["quad"]
    assert rep.classification == vs.KIRCHHOFF_LIMIT
    assert rep.extrapolated_node_value < rep.sc_reference - 0.05
    assert abs(rep.records[-1].kirchhoff_sum) <= 5e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(6, f"limit={rep.extrapolated_node_value:.3f} vs "
             f"sc={rep.sc_reference:.3f}, kirchhoff="
             f"{abs(rep.records[-1].kirchhoff_sum):.1e}")


def test_criterion_7_kirchhoff_identity(sweep_problems):
    worst_res = worst_node = 0.0
    h_abs = hm.make_builtin("abs_shift", c=1.0)
    single = jn.make_junction_problem([_edge(200)], [h_abs])
    cases = [(sweep_problems["abs"], (0.2, 0.05, 0.025)),
             (sweep_problems["quad"], (0.2, 0.025)),
             (single, (0.1,))]
    for prob, eps_values in cases:
        for eps in eps_values:
            sol, rep = vs.solve_viscous_kirchhoff(prob, vs.ViscousParams(eps))
            assert rep.converged
            res, node = vs.viscous_scheme_residual(sol, prob, eps)
            worst_res = max(worst_res, res)
            worst_node = max(worst_node, node)
    assert worst_res <= 1e-8
    assert worst_node <= 1e-8
    _line(7, f"max interior residual={worst_res:.1e}, "
             f"max node residual={worst_node:.1e}")


def test_criterion_8_flux_limited_suite():
    mk = hm.make_builtin
    fixtures = [
        ([_edge(400), _edge(400)], [mk("abs_shift", c=1.0),
                                    mk("abs_shift", c=2.0)], -0.5),
        ([_edge(400), _edge(400)], [mk("abs_shift", c=1.0),
                                    mk("abs_shift", c=1.0)], -2.0),
        ([_edge(400)], [mk("abs_shift", c=1.0)], -1.0),
        ([_edge(400), _edge(400)], [mk("quadratic", b=1.0, c=1.0),
                                    mk("abs_shift", c=2.0)], 0.3),
    ]
    details = []
    for edges, hams, A in fixtures:
        prob = jn.make_junction_problem(edges, hams, jn.FluxLimited(A))
        sol, rep = jn.solve_flux_limited(prob)
        assert rep.converged
        assert sol.node_value <= -A + 2e-2, f"A={A}: {sol.node_value}"
        lam = 0.1
        down = sol.copy()
        for g in down.per_edge:
            g.values -= lam
        down.node_value -= lam
        Rs, r0 = jn.junction_scheme_residuals(down, prob, rep)
        assert r0 <= 1e-6 and all(np.max(R) <= 1e-6 for R in Rs), \
            "downward shift is not a discrete sub-solution"
        assert jn.compare_grid_functions(down, sol) == pytest.approx(-lam)
        up = sol.copy()
        for g in up.per_edge:
            g.values += lam
        up.node_value += lam
        assert jn.compare_grid_functions(sol, up) == pytest.approx(-lam)
        details.append(f"A={A}: u(0)={sol.node_value:.3f}<=-A+2e-2")
    _line(8, "; ".join(details))


def test_criterion_9_fattening():
    t0 = time.perf_counter()
    H2 = hm.max_form_2d(hm.make_builtin("abs_shift", c=1.0),
                        hm.make_builtin("abs_shift", c=2.0))
    study = ft.fattening_study(H2, [0.2, 0.1], a1=1.0, a2=1.0,
                               h2_over_eps=0.125, n_1d=400)
    assert study.reference_converged
    errs = [r.trace_error for r in study.records]
    assert all(r.converged for r in study.records)
    assert errs[1] <= 0.1
    assert errs[1] <= errs[0] + 1e-9

    # joint-vs-max witness, asserted exactly
    H2q = hm.parse_expression_2d("p1^2 + 10*p2^2")
    H1 = hm.reduce_2d(H2q, 1)
    Hr = hm.reduce_2d(H2q, 2)
    assert H2q(1.0, 1.0) == 11.0
    assert max(H1(1.0), Hr(1.0)) == 10.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(9, f"trace errs {errs[0]:.1e} -> {errs[1]:.1e}, witness 11!=10, "
             f"{elapsed:.1f}s")


def test_criterion_10_scheme_property_suite(tmp_path):
    trials = 1000
    rng = np.random.default_rng(2024)

    # 1-D interior monotonicity
    h_quad = hm.make_builtin("quadratic", b=1.0, c=1.0)
    spec = ed.EdgeSpec(1.0, 64)
    disc = ed.EdgeDiscretization(h_quad, spec, ed.StateConstraint())
    P = h_quad.coercivity_bound
    theta = float(disc.theta_tab.range_max(-2 * P, 2 * P))
    for _ in range(trials):
        u = np.cumsum(rng.uniform(-P, P, 65) * spec.h)
        j = int(rng.integers(1, 64))
        k = int(rng.choice([j - 1, j + 1]))
        delta = float(rng.uniform(0, spec.h))
        un, _, _ = disc.pseudo_time_step(u, theta=theta)
        u2 = u.copy()
        u2[k] += delta
        un2, _, _ = disc.pseudo_time_step(u2, theta=theta)
        assert un2[j] >= un[j] - 1e-12

    # 1-D node monotonicity
    e = ed.EdgeSpec(1.0, 32)
    prob = jn.make_junction_problem(
        [e, e], [hm.make_builtin("abs_shift", c=1.0), h_quad])
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

    # 2-D interior monotonicity
    H2 = hm.max_form_2d(hm.make_builtin("abs_shift", c=1.0),
                        hm.make_builtin("abs_shift", c=2.0))
    dom = ft.build_fat_domain(1.0, 1.0, 0.4, 0.1)
    sys_ = ft.FatSystem(H2, dom)
    interior = np.nonzero((sys_.mode1 == 0) & (sys_.mode2 == 0))[0]
    theta2 = (np.full(sys_.count, 1.5), np.full(sys_.count, 1.5))
    for _ in range(trials):
        u = rng.uniform(-1, 1, sys_.count) * dom.h2 * 4
        j = int(rng.choice(interior))
        nbr = int(rng.choice([sys_.iE[j], sys_.iW[j], sys_.iN[j],
                              sys_.iS[j]]))
        delta = float(rng.uniform(0, dom.h2))
        un, _, _ = sys_.step(u, theta=theta2)
        u2 = u.copy()
        u2[nbr] += delta
        un2, _, _ = sys_.step(u2, theta=theta2)
        assert un2[j] >= un[j] - 1e-12

    # the convergence subcommand on the analytic Dirichlet case
    prob_file = tmp_path / "p.json"
    write_problem({
        "schema_version": 1, "K": 1,
        "edges": [{"length": 1.0, "n_cells": 400,
                   "far_bc": {"kind": "neumann", "slope": 0.0},
                   "hamiltonian": {"family": "abs_shift", "b": 0.0,
                                   "c": 1.0}}],
        "junction": {"kind": "state_constraint"},
    }, prob_file)
    out = tmp_path / "conv"
    assert cli.main(["convergence", "--problem", str(prob_file),
                     "--out", str(out), "--grids", "100,200,400"]) == 0
    report = json.loads((out / "report.json").read_text())
    orders = [r["observed_order"] for r in report["convergence"]["rows"][1:]]
    assert all(o >= 0.9 for o in orders)
    _line(10, f"3x{trials} monotonicity trials, observed orders "
              f"{[round(o, 3) for o in orders]}")
