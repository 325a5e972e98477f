import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hjj import cli
from hjj import edge as ed
from hjj import fatten2d as ft
from hjj import junction as jn
from hjj import reports as rp
from hjj import viscous as vs
from hjj.problems import (
    ProblemValidationError,
    hamiltonian2d_from_spec,
    hamiltonian_from_spec,
    load_problem,
    parse_problem_dict,
    write_problem,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "problems")


def minimal_problem(**overrides):
    data = {
        "schema_version": 1,
        "K": 2,
        "edges": [
            {"length": 1.0, "n_cells": 64,
             "far_bc": {"kind": "neumann", "slope": 0.0},
             "hamiltonian": {"family": "abs_shift", "b": 0.0, "c": 1.0}},
            {"length": 1.0, "n_cells": 64,
             "far_bc": {"kind": "neumann", "slope": 0.0},
             "hamiltonian": {"family": "abs_shift", "b": 0.0, "c": 2.0}},
        ],
        "junction": {"kind": "state_constraint"},
    }
    data.update(overrides)
    return data


def double_well_problem():
    """The stiff junction: a double well and a kink, both with
    state-constraint far ends."""
    sc = {"kind": "state_constraint"}
    return minimal_problem(edges=[
        {"length": 1.0, "n_cells": 64, "far_bc": sc,
         "hamiltonian": {"family": "double_well", "b": -2.0, "c": 0.0}},
        {"length": 1.0, "n_cells": 64, "far_bc": sc,
         "hamiltonian": {"family": "abs_shift", "b": 0.0, "c": 1.0}},
    ])


def expression_problem():
    """Three x-dependent parsed expressions meeting at a state-constraint
    junction."""
    exprs = ["abs(p - 0.1) - 1.2 + 0.1*sin(2*x)",
             "max(abs(p + 0.1), 0.5*(p + 0.1)^2) - 1.4 + 0.1*cos(1.5*x)",
             "0.5*(p - 0.05)^2 - 1.1 + 0.1*sin(2.5*x)^2"]
    edge = minimal_problem()["edges"][0]
    return minimal_problem(K=3, edges=[
        dict(edge, hamiltonian={"expr": e}) for e in exprs])


def _max_form_fatten(eps_list, **spacing):
    return {"hamiltonian2d": {"max_form": [
                {"family": "abs_shift", "c": 1.0},
                {"family": "abs_shift", "c": 2.0}]},
            "eps_list": eps_list, **spacing}


class TestHamiltonianSpecs:
    def test_family_spec(self):
        H = hamiltonian_from_spec({"family": "abs_shift", "b": 0.0, "c": 1.0})
        assert H(2.0) == 1.0

    def test_expr_spec(self):
        H = hamiltonian_from_spec({"expr": "abs(p)-1"})
        assert H(1.0) == 0.0

    def test_minima_override(self):
        H = hamiltonian_from_spec({"expr": "abs(p)-1", "minima": [0.0]})
        assert H.minima == (0.0,)

    def test_unknown_family_named(self):
        with pytest.raises(ProblemValidationError, match="cubic"):
            hamiltonian_from_spec({"family": "cubic"})

    def test_2d_specs(self):
        H2 = hamiltonian2d_from_spec({"expr": "p1^2 + 10*p2^2"})
        assert H2(1.0, 1.0) == 11.0
        Hm = hamiltonian2d_from_spec({"max_form": [
            {"family": "abs_shift", "c": 1.0},
            {"family": "abs_shift", "c": 2.0}]})
        assert Hm(0.0, 0.0) == -1.0


class TestLoadProblem:
    def test_fixture_roundtrip(self, tmp_path):
        pf = load_problem(os.path.join(FIXTURES, "junction_abs12.json"))
        assert pf.k == 2
        out = tmp_path / "copy.json"
        write_problem(pf.raw, out)
        pf2 = load_problem(out)
        assert pf2.raw == pf.raw

    def test_all_shipped_fixtures_load(self):
        for name in os.listdir(FIXTURES):
            pf = load_problem(os.path.join(FIXTURES, name))
            assert pf.problem.k >= 1

    def test_eps_must_decrease(self):
        data = minimal_problem(viscous={"eps_list": [0.1, 0.2]})
        with pytest.raises(ProblemValidationError, match="must decrease"):
            parse_problem_dict(data)

    def test_unknown_family_in_file(self):
        data = minimal_problem()
        data["edges"][0]["hamiltonian"] = {"family": "septic"}
        with pytest.raises(ProblemValidationError, match="septic"):
            parse_problem_dict(data)

    def test_k_mismatch(self):
        data = minimal_problem(K=3)
        with pytest.raises(ProblemValidationError, match="K=3"):
            parse_problem_dict(data)

    def test_parse_error_has_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1,\n  "K": }')
        with pytest.raises(ProblemValidationError, match="line 2"):
            load_problem(bad)

    def test_flux_needs_A(self):
        data = minimal_problem(junction={"kind": "flux_limited"})
        with pytest.raises(ProblemValidationError, match="junction.A"):
            parse_problem_dict(data)

    @pytest.mark.parametrize("overrides, field", [
        ({"K": True}, "K"),
        ({"junction": {"kind": "flux_limited", "A": float("nan")}},
         "junction.A"),
        ({"junction": {"kind": "flux_limited", "A": True}}, "junction.A"),
        ({"viscous": {"eps_list": [float("inf"), 0.1]}}, "viscous.eps_list"),
        ({"fatten": _max_form_fatten([0.2], h2=float("inf"))}, "fatten.h2"),
    ], ids=["K_bool", "A_nan", "A_bool", "eps_inf", "h2_inf"])
    def test_malformed_numbers_rejected(self, overrides, field):
        with pytest.raises(ProblemValidationError, match=f"^{field}:"):
            parse_problem_dict(minimal_problem(**overrides))

    def test_fatten_requires_two_edges(self):
        data = minimal_problem(K=1)
        data["edges"] = data["edges"][:1]
        data["fatten"] = {"hamiltonian2d": {"expr": "p1^2+p2^2"},
                         "eps_list": [0.2], "h2": 0.05}
        with pytest.raises(ProblemValidationError, match="K=2"):
            parse_problem_dict(data)


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_solve_junction_report(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["solve-junction", "--problem", str(prob),
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["direct"]["node_value"] == pytest.approx(1.0, abs=2e-2)
        assert report["direct"]["flux"] == "lax_friedrichs"
        assert (out / "grid.csv").exists()
        assert (out / "plot_profiles.gp").exists()

    def test_solve_edge_dirichlet(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["solve-edge", "--problem", str(prob), "--out",
                        str(out), "--dirichlet", "0.0"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solve"]["node_value"] == 0.0
        assert report["solve"]["node_slope"] == pytest.approx(-1.0, abs=2e-2)

    def test_flux_limited_requires_kind(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        assert run_cli(["flux-limited", "--problem", str(prob),
                        "--out", str(tmp_path / "o")]) == 3

    def test_flux_limited_bound(self, tmp_path):
        data = minimal_problem(junction={"kind": "flux_limited", "A": -0.5})
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["flux-limited", "--problem", str(prob),
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solve"]["bound_minus_A_ok"]
        assert [n for n, _ in report["solve"]["levels"]] == [8, 16, 32, 64]

    def test_consecutive_calls_carry_nothing_over(self, tmp_path):
        # main reuses one parser: an option given to one call must not
        # reach the next, nor the tolerance one call filled in
        prob = tmp_path / "p.json"
        write_problem(minimal_problem(), prob)
        reports = []
        for extra in (["--edge", "1", "--tol", "1e-6"], []):
            out = tmp_path / f"out{len(reports)}"
            assert run_cli(["solve-edge", "--problem", str(prob),
                            "--out", str(out)] + extra) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        assert cli.build_parser() is cli.build_parser()
        assert [r["solve"]["edge"] for r in reports] == [1, 0]
        assert [r["tolerances"]["tol"] for r in reports] == \
            [1e-6, cli.DEFAULT_TOL]

    def test_viscous_sweep_and_determinism(self, tmp_path):
        data = minimal_problem(viscous={"eps_list": [0.4, 0.2, 0.1]})
        for e in data["edges"]:
            e["far_bc"] = {"kind": "dirichlet", "value": 0.0}
            e["hamiltonian"] = {"family": "abs_shift", "b": 0.0, "c": 1.0}
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert run_cli(["viscous-sweep", "--problem", str(prob),
                            "--out", str(out), "--seed", "7"]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["tolerances"] == {"tol": 1e-8}
        assert report["sweep"]["classification"] == "selects_state_constraint"
        assert report["sweep"]["reference_converged"]

    def test_viscous_sweep_fails_on_reference(self, tmp_path, monkeypatch):
        # a state-constraint reference capped at one Newton step still
        # yields a classification, but the run must not pass
        real = vs.solve_junction_direct
        monkeypatch.setattr(
            vs, "solve_junction_direct",
            lambda problem, params=None: real(problem,
                                              ed.SolverParams(max_iters=1)))
        data = minimal_problem(viscous={"eps_list": [0.4, 0.2, 0.1]})
        for e in data["edges"]:
            e["far_bc"] = {"kind": "dirichlet", "value": 0.0}
            e["hamiltonian"] = {"family": "abs_shift", "b": 0.0, "c": 1.0}
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["viscous-sweep", "--problem", str(prob),
                        "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["sweep"]["reference_converged"] is False
        assert "max_iters" in report["sweep"]["reference_flags"]
        assert "max_iters" in report["flags"]

    def test_viscous_sweep_reports_failed_stage(self, tmp_path, monkeypatch):
        # a viscous stage capped at one Newton step fails; the run exits 2
        # and report.json still names the failed eps and its flags
        monkeypatch.setattr(vs, "MAX_NEWTON", 1)
        out = tmp_path / "out"
        assert run_cli(["viscous-sweep", "--problem",
                        os.path.join(FIXTURES, "sweep_abs.json"),
                        "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["sweep"]["failed_epsilon"] == 0.2
        assert "max_iters" in report["sweep"]["flags"]
        assert "max_iters" in report["flags"]

    @pytest.mark.parametrize("sub, problem", [
        ("solve-junction", "junction_abs12.json"),
        ("fatten2d", "fatten_max.json")])
    @pytest.mark.parametrize("option", [
        ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "inf"],
        ["--max-iters", "-5"]], ids=["tol-nan", "tol-negative", "tol-zero",
                                     "tol-inf", "max-iters-negative"])
    def test_bad_stopping_rule_rejected(self, tmp_path, capsys, sub, problem,
                                        option):
        # rejected before any solve: no residual meets such a tol, so the
        # solve would run to its cap, and a negative cap is no cap
        assert run_cli([sub, "--problem", os.path.join(FIXTURES, problem),
                        "--out", str(tmp_path / "o")] + option) == 3
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("sub, problem", [
        ("viscous-sweep", "sweep_abs.json"), ("verify", None)])
    @pytest.mark.parametrize("option", [
        ["--tol", "1e-6"], ["--tol", "1e-8"], ["--max-iters", "5"]],
        ids=["tol", "tol-default-value", "max-iters"])
    def test_own_stopping_rule_rejects_options(self, tmp_path, capsys, sub,
                                               problem, option):
        # these solvers never read --tol or --max-iters, so any explicit
        # value, even the default one, is refused rather than ignored
        argv = [sub, "--out", str(tmp_path / "o")] + option
        if problem:
            argv += ["--problem", os.path.join(FIXTURES, problem)]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert "validation error" in err and option[0] in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_convergence_subcommand(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["convergence", "--problem", str(prob), "--out",
                        str(out), "--grids", "50,100,200"]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = report["convergence"]["rows"]
        assert rows[0]["observed_order"] is None
        assert all(r["observed_order"] >= 0.9 for r in rows[1:])
        text = (out / "convergence.csv").read_text().splitlines()
        assert text[0] == "h,error,observed_order"

    def test_non_convergence_exit_code(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        # an impossible tolerance forces the non-convergence path
        code = run_cli(["solve-junction", "--problem", str(prob),
                        "--out", str(out), "--tol", "1e-300",
                        "--max-iters", "300"])
        assert code == 2
        report = json.loads((out / "report.json").read_text())
        assert not report["direct"]["converged"]
        assert "max_iters" in report["flags"]

    def test_newton_fallback_exit_code(self, tmp_path, monkeypatch):
        # a linear solve that returns NaN breaks Newton down; on the
        # Lax-Friedrichs scheme nothing falls back, and the stalled solve
        # fails the run
        monkeypatch.setattr(jn, "solve_arrowhead",
                            lambda J, b: np.full(len(b), np.nan))
        prob = tmp_path / "p.json"
        write_problem(minimal_problem(), prob)
        out = tmp_path / "out"
        assert run_cli(["solve-junction", "--problem", str(prob),
                        "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert not report["direct"]["converged"]
        assert report["direct"]["flux"] == "lax_friedrichs"
        assert np.isfinite(report["direct"]["node_value"])
        assert "newton_stalled" in report["flags"]
        assert "newton_fallback" not in report["flags"]

    def test_godunov_newton_fallback_exit_code(self, tmp_path, monkeypatch,
                                               sweep_solve):
        # the same breakdown on a double well: the sweeps finish each
        # Godunov level, and the run fails
        monkeypatch.setattr(jn, "solve_arrowhead",
                            lambda J, b: np.full(len(b), np.nan))
        prob = tmp_path / "p.json"
        write_problem(double_well_problem(), prob)
        out = tmp_path / "out"
        assert run_cli(["solve-junction", "--problem", str(prob),
                        "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["direct"]["converged"]
        assert report["direct"]["method"] == "godunov_newton"
        assert report["direct"]["flux"] == "godunov"
        assert "newton_fallback" in report["flags"]
        ref, _ = sweep_solve(load_problem(str(prob)).problem)
        assert report["direct"]["node_value"] == ref.node_value

    @pytest.mark.parametrize("sub", ["solve-edge", "solve-junction"])
    def test_lipschitz_overrun_exit_code(self, tmp_path, monkeypatch, sub):
        # a converged answer whose discrete Lipschitz constant exceeds the
        # bound 2P is flagged, and the flag fails the run
        monkeypatch.setattr(ed.GridFunction1D, "discrete_lipschitz",
                            lambda self: np.inf)
        prob = tmp_path / "p.json"
        write_problem(minimal_problem(), prob)
        out = tmp_path / "out"
        assert run_cli([sub, "--problem", str(prob), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert (report.get("solve") or report["direct"])["converged"]
        assert "lipschitz_exceeded" in report["flags"]

    @pytest.mark.parametrize("case", [
        "godunov_step_cap", "clamped_miss", "sweep_stalled", "sweep_cap"])
    def test_cascade_failure_exit_code(self, tmp_path, monkeypatch, case):
        # each failure path of the cascade, forced: its flags, whether the
        # solve counts as converged, its levels and the exit code 2
        dwell = double_well_problem()
        far_dirichlet = {"length": 1.0, "n_cells": 12,
                         "far_bc": {"kind": "dirichlet", "value": 0.0},
                         "hamiltonian": {"family": "double_well",
                                         "b": 0.0, "c": 0.5}}
        if case == "godunov_step_cap":
            # a Godunov level that hits its step cap has broken down: the
            # sweeps finish every level after the coarsest
            monkeypatch.setattr(jn, "MAX_GODUNOV_STEPS", 1)
            data = dwell
            expect = (["newton_fallback"], True,
                      [[8, 1], [16, 2], [32, 2], [64, 2]])
        elif case == "clamped_miss":
            # a finest Lax-Friedrichs answer whose clamped residual misses
            # tol has broken down, and the solve is not converged
            real = jn.JunctionDiscretization.residuals

            def missed(self, *args, **kwargs):
                Rs, r0 = real(self, *args, **kwargs)
                return Rs, r0 + 1.0
            monkeypatch.setattr(jn.JunctionDiscretization, "clamp_inactive",
                                lambda self, z: False)
            monkeypatch.setattr(jn.JunctionDiscretization, "residuals",
                                missed)
            data = minimal_problem()
            expect = (["newton_stalled"], False,
                      [[8, 1], [16, 0], [32, 0], [64, 0]])
        elif case == "sweep_stalled":
            # sweeps that leave the edge values where they are stall after
            # 60 sweeps without progress; the constant edge values and the
            # solved node value overrun the Lipschitz bound too
            monkeypatch.setattr(ed.EdgeDiscretization, "gauss_seidel_sweep",
                                lambda self, u, tol: u)
            dwell["edges"][0]["n_cells"] = 12
            data = dwell
            expect = (["sweep_stalled", "lipschitz_exceeded"], False,
                      [[12, 61]])
        else:
            # one sweep does not solve this single-level Godunov edge
            monkeypatch.setattr(jn, "MAX_SWEEPS", 1)
            dwell["edges"][0] = far_dirichlet
            data = dwell
            expect = (["max_iters"], False, [[12, 1]])
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["solve-edge", "--problem", str(prob),
                        "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        solve = report["solve"]
        assert (report["flags"], solve["converged"], solve["levels"]) == \
            expect
        assert solve["converged"] == (solve["final_residual"] <= 1e-8)

    def test_report_levels(self, tmp_path, monkeypatch):
        # the direct solve runs first; record what its cascade ran
        ran = []
        sweeps, newton = jn._sweeps, jn.JunctionDiscretization.newton

        def record_sweeps(s, tol):
            out = sweeps(s, tol)
            ran.append(("sweep", s.discs[0].edge.n_cells, out[2]))
            return out

        def record_newton(s, z, tol, budget, flux):
            out = newton(s, z, tol, budget, flux)
            ran.append((flux, s.discs[0].edge.n_cells, out[2]))
            return out

        monkeypatch.setattr(jn, "_sweeps", record_sweeps)
        monkeypatch.setattr(jn.JunctionDiscretization, "newton",
                            record_newton)
        prob = tmp_path / "p.json"
        write_problem(double_well_problem(), prob)
        out = tmp_path / "out"
        assert run_cli(["solve-junction", "--problem", str(prob),
                        "--out", str(out)]) == 0
        direct = json.loads((out / "report.json").read_text())["direct"]
        assert direct["method"] == "godunov_newton"
        levels = direct["levels"]
        assert [n for n, _ in levels] == [8, 16, 32, 64]
        assert [[n, c] for _, n, c in ran[:len(levels)]] == levels
        assert [kind for kind, _, _ in ran[:len(levels)]] == \
            ["sweep"] + ["godunov"] * (len(levels) - 1)
        assert direct["iterations"] == sum(c for _, c in levels)

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["solve-junction", "--problem", str(bad),
                        "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("key, value, field", [
        ("far_bc", {"kind": "neumann", "slope": "abc"}, "far_bc.slope"),
        ("far_bc", {"kind": "neumann", "slope": True}, "far_bc.slope"),
        ("far_bc", {"kind": "dirichlet", "value": None}, "far_bc.value"),
        ("length", float("inf"), "length"),
        ("hamiltonian", {"expr": 3}, "hamiltonian.expr"),
        ("hamiltonian", {"expr": "3"}, "hamiltonian"),
        ("hamiltonian", {"family": "abs_shift", "b": True, "c": 1.0},
         "hamiltonian"),
        ("hamiltonian", {"family": "abs_shift", "c": 1.0, "minima": [100.0]},
         "hamiltonian.minima"),
    ], ids=["slope_string", "slope_bool", "value_null", "length_inf",
            "expr_int", "expr_constant", "b_bool", "minima_outside"])
    def test_malformed_field_exit_code(self, tmp_path, capsys, key, value,
                                       field):
        data = minimal_problem()
        data["edges"][0][key] = value
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        assert run_cli(["solve-edge", "--problem", str(prob),
                        "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: edges[0].{field}:")

    @pytest.mark.parametrize("argv, data, builds", [
        (["solve-junction"], expression_problem(), 3),
        (["flux-limited"],
         minimal_problem(junction={"kind": "flux_limited", "A": -0.5}), 2),
    ], ids=["solve_junction_k3_expr", "flux_limited_k2"])
    def test_one_table_build_per_edge(self, tmp_path, monkeypatch, argv,
                                      data, builds):
        # the direct, constructive and diagnostic solves of one problem
        # share each (Hamiltonian, edge) pair's tables
        built = []

        class CountingTable(ed.SlopeLipschitzTable):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ed, "SlopeLipschitzTable", CountingTable)
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        assert run_cli(argv + ["--problem", str(prob),
                               "--out", str(tmp_path / "o")]) == 0
        assert len(built) == builds


class TestCliHeavySubcommands:
    def test_fatten2d_subcommand(self, tmp_path):
        data = minimal_problem()
        for e in data["edges"]:
            e["n_cells"] = 100
        data["fatten"] = {
            "hamiltonian2d": {"max_form": [
                {"family": "abs_shift", "c": 1.0},
                {"family": "abs_shift", "c": 2.0}]},
            "eps_list": [0.2],
            "h2_over_eps": 0.125,
        }
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["fatten2d", "--problem", str(prob),
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rec = report["fatten"]["records"][0]
        assert rec["trace_error"] <= 0.1
        assert (out / "fatten.csv").read_text().startswith("epsilon,h2,")

    def test_fatten2d_fixed_spacing_reports_methods(self, tmp_path):
        data = minimal_problem(fatten=_max_form_fatten([0.2, 0.1], h2=0.025))
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["fatten2d", "--problem", str(prob),
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        recs = report["fatten"]["records"]
        assert [r["epsilon"] for r in recs] == [0.2, 0.1]
        assert all(r["h2"] == 0.025 for r in recs)
        assert all(r["method"] == "newton_2d" for r in recs)
        assert report["flags"] == []

    def test_fatten2d_non_convex_sample(self, tmp_path):
        # the max form of a double well and a quadratic: its reduced
        # reference is non-convex
        out = tmp_path / "out"
        assert run_cli(["fatten2d", "--problem",
                        os.path.join(FIXTURES, "fatten_dwell.json"),
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fatten"]["reference_converged"]
        assert report["fatten"]["reference_node_value"] == pytest.approx(0.3)
        recs = report["fatten"]["records"]
        assert [r["epsilon"] for r in recs] == [0.1, 0.05]
        assert all(r["converged"] for r in recs)
        errs = [r["trace_error"] for r in recs]
        # criterion 9's rule
        assert max(errs) <= 0.1
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_fatten2d_honours_tol_and_max_iters(self, tmp_path):
        data = minimal_problem(
            fatten=_max_form_fatten([0.2], h2_over_eps=0.25))
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["fatten2d", "--problem", str(prob), "--out", str(out),
                        "--tol", "1e-300", "--max-iters", "3"]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["tolerances"]["tol"] == 1e-300
        (rec,) = report["fatten"]["records"]
        assert not rec["converged"]
        assert rec["method"] == "newton_2d"
        assert rec["iterations"] == 3
        assert "max_iters" in rec["flags"]
        assert "max_iters" in report["flags"]
        assert "newton_fallback" not in report["flags"]

    @pytest.mark.parametrize("max_iters, stalled", [(3, False),
                                                    (100000, True)])
    def test_fatten2d_fails_on_2d_solve_alone(self, tmp_path, monkeypatch,
                                              max_iters, stalled):
        # --tol 1e-300 and --max-iters reach the 2-D solves alone: the 1-D
        # reference keeps the default stopping rule and converges, while
        # the 2-D solve either reaches a small cap or, under a large one,
        # stops when the line search cannot decrease its residual any
        # further
        solver_params = cli._solver_params
        monkeypatch.setattr(
            cli, "_solver_params", lambda args, cls=ed.SolverParams:
            solver_params(args, cls) if cls is ft.FatSolverParams else cls())
        data = minimal_problem(
            fatten=_max_form_fatten([0.2], h2_over_eps=0.25))
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["fatten2d", "--problem", str(prob), "--out", str(out),
                        "--tol", "1e-300",
                        "--max-iters", str(max_iters)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["fatten"]["reference_converged"]
        assert report["fatten"]["reference_flags"] == []
        (rec,) = report["fatten"]["records"]
        assert not rec["converged"]
        assert rec["method"] == "newton_2d"
        flag = "newton_stalled" if stalled else "max_iters"
        if stalled:
            assert rec["iterations"] < max_iters
        else:
            assert rec["iterations"] == max_iters
        assert rec["flags"] == [flag]
        assert report["flags"] == [flag]

    def test_verify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["verify", "--out", str(out), "--trials", "25"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == 0
        assert "checks passed" in capsys.readouterr().out

    def test_solve_edge_state_constraint_default(self, tmp_path):
        data = minimal_problem()
        prob = tmp_path / "p.json"
        write_problem(data, prob)
        out = tmp_path / "out"
        assert run_cli(["solve-edge", "--problem", str(prob), "--edge", "1",
                        "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["solve"]["node_value"] == pytest.approx(2.0, abs=2e-2)
        assert report["solve"]["role"] == "state_constraint"
        assert [n for n, _ in report["solve"]["levels"]] == [8, 16, 32, 64]


class TestReports:
    def test_finite_check(self):
        with pytest.raises(ValueError, match="non-finite"):
            rp.check_finite({"a": [1.0, float("nan")]})

    def test_jsonable_handles_numpy(self):
        out = rp.jsonable({"x": np.float64(1.5), "v": np.arange(3)})
        assert out == {"x": 1.5, "v": [0, 1, 2]}

    def test_plot_missing_series(self, tmp_path):
        with pytest.raises(ValueError, match="sweep.csv"):
            rp.emit_plot_script({"csv_files": []}, "sweep", str(tmp_path))

    def test_plot_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            rp.emit_plot_script({"csv_files": []}, "pie", str(tmp_path))

    def test_atomic_write(self, tmp_path):
        p = tmp_path / "f.txt"
        rp.atomic_write_text(p, "hello")
        assert p.read_text() == "hello"
        assert not any(n.startswith(".tmp_") for n in os.listdir(tmp_path))


def test_cli_import_loads_no_scipy(tmp_path):
    # neither the import nor a 2-D study nor the verification checks load
    # scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    problem = os.path.abspath(os.path.join(FIXTURES, "fatten_max.json"))
    code = ("import sys, hjj.cli\n"
            f"assert hjj.cli.main(['fatten2d', '--problem', {problem!r}, "
            f"'--out', {str(tmp_path / 'f')!r}]) == 0\n"
            f"assert hjj.cli.main(['verify', '--out', "
            f"{str(tmp_path / 'v')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip().splitlines()[-1] == "[]"
