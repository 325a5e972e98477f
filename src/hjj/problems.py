"""Problem-file ingestion: JSON schema, validation, Hamiltonian construction.

Schema (version 1):

    {
      "schema_version": 1,
      "K": 2,
      "edges": [
        {"length": 1.0, "n_cells": 400,
         "far_bc": {"kind": "neumann", "slope": 0.0},
         "hamiltonian": {"family": "abs_shift", "b": 0.0, "c": 1.0}},
        ...
      ],
      "junction": {"kind": "state_constraint"}
                  or {"kind": "flux_limited", "A": -0.5},
      "viscous": {"eps_list": [0.2, 0.1, 0.05]},              (optional)
      "fatten": {"hamiltonian2d": {...}, "eps_list": [0.2, 0.1],
                 "h2": 0.025 or "h2_over_eps": 0.125}          (optional)
    }

Hamiltonian specs are either a builtin family with parameters or
{"expr": "..."} over p, x; an optional "minima" list overrides detection.
2-D specs are {"expr": "..."} over p1, p2, x1, x2 or
{"max_form": [spec, spec]}. A fattening study reads only "length" and
"n_cells" of the two edges: its 1-D reference has state-constraint far
ends, the tube's own boundary condition, whatever "far_bc" says.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

from .edge import Dirichlet, EdgeSpec, Neumann, StateConstraint
from .hamiltonians import (
    make_builtin,
    max_form_2d,
    parse_expression,
    parse_expression_2d,
    validate_hamiltonian,
)
from .junction import FluxLimited, JunctionProblem, make_junction_problem

SCHEMA_VERSION = 1


class ProblemValidationError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require(cond, field, message):
    if not cond:
        raise ProblemValidationError(field, message)


def _finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def hamiltonian_from_spec(spec, field="hamiltonian"):
    _require(isinstance(spec, dict), field, "must be an object")
    if "expr" in spec:
        _require(isinstance(spec["expr"], str), f"{field}.expr",
                 "must be a string")
        try:
            H = parse_expression(spec["expr"])
        except ValueError as e:
            raise ProblemValidationError(field, str(e)) from e
    elif "family" in spec:
        fam = spec["family"]
        try:
            H = make_builtin(fam, b=spec.get("b", 0.0), c=spec.get("c", 0.0),
                             src=spec.get("src"))
        except ValueError as e:
            raise ProblemValidationError(field, str(e)) from e
    else:
        raise ProblemValidationError(field, "needs 'family' or 'expr'")
    if "minima" in spec:
        m = spec["minima"]
        _require(isinstance(m, list) and all(_finite_number(v) for v in m),
                 f"{field}.minima", "must be a list of finite numbers")
        H = replace(H, minima=tuple(sorted(float(v) for v in m)))
        try:
            validate_hamiltonian(H)
        except ValueError as e:
            raise ProblemValidationError(f"{field}.minima", str(e)) from e
    return H


def hamiltonian2d_from_spec(spec, field="fatten.hamiltonian2d"):
    _require(isinstance(spec, dict), field, "must be an object")
    if "expr" in spec:
        try:
            return parse_expression_2d(
                spec["expr"], coercivity_bound=spec.get("coercivity_bound"))
        except ValueError as e:
            raise ProblemValidationError(field, str(e)) from e
    if "max_form" in spec:
        parts = spec["max_form"]
        _require(isinstance(parts, list) and len(parts) == 2, field,
                 "max_form needs exactly two 1-D Hamiltonian specs")
        h1 = hamiltonian_from_spec(parts[0], f"{field}.max_form[0]")
        h2 = hamiltonian_from_spec(parts[1], f"{field}.max_form[1]")
        return max_form_2d(h1, h2)
    raise ProblemValidationError(field, "needs 'expr' or 'max_form'")


def far_bc_from_spec(spec, field):
    _require(isinstance(spec, dict) and "kind" in spec, field,
             "must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "neumann":
        slope = spec.get("slope", 0.0)
        _require(_finite_number(slope), f"{field}.slope",
                 "must be a finite number")
        return Neumann(float(slope))
    if kind == "dirichlet":
        _require("value" in spec, field, "dirichlet needs 'value'")
        _require(_finite_number(spec["value"]), f"{field}.value",
                 "must be a finite number")
        return Dirichlet(float(spec["value"]))
    if kind == "state_constraint":
        return StateConstraint()
    raise ProblemValidationError(field, f"unknown far_bc kind '{kind}'")


def _check_eps_list(eps, field):
    _require(isinstance(eps, list) and len(eps) >= 1, field,
             "must be a non-empty list")
    _require(all(_finite_number(v) and v > 0 for v in eps), field,
             "entries must be positive numbers")
    _require(all(b < a for a, b in zip(eps, eps[1:])), field,
             "eps_list must decrease")
    return [float(v) for v in eps]


@dataclass
class ProblemFile:
    raw: dict
    problem: JunctionProblem
    viscous_eps: Optional[list]
    fatten_h2: Optional[object]
    fatten_eps: Optional[list]
    fatten_h2_spacing: Optional[object]  # float or ("eps_fraction", r)

    @property
    def k(self):
        return self.problem.k

    def to_json(self):
        return json.dumps(self.raw, indent=2, sort_keys=True)


def parse_problem_dict(data):
    _require(isinstance(data, dict), "<root>", "problem file must be an object")
    _require(data.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"must be {SCHEMA_VERSION}")
    K = data.get("K")
    edges_raw = data.get("edges")
    _require(isinstance(K, int) and not isinstance(K, bool) and K >= 1, "K",
             "must be an integer >= 1")
    _require(isinstance(edges_raw, list) and len(edges_raw) == K, "edges",
             f"must list exactly K={K} edges")

    edges, hams = [], []
    for i, e in enumerate(edges_raw):
        f = f"edges[{i}]"
        _require(isinstance(e, dict), f, "must be an object")
        length = e.get("length")
        n_cells = e.get("n_cells")
        _require(_finite_number(length) and length > 0,
                 f"{f}.length", "must be positive")
        _require(isinstance(n_cells, int) and n_cells >= 8,
                 f"{f}.n_cells", "must be an integer >= 8")
        far = far_bc_from_spec(e.get("far_bc", {"kind": "neumann"}),
                               f"{f}.far_bc")
        edges.append(EdgeSpec(float(length), n_cells, far))
        hams.append(hamiltonian_from_spec(e.get("hamiltonian"),
                                          f"{f}.hamiltonian"))

    jc_raw = data.get("junction", {"kind": "state_constraint"})
    _require(isinstance(jc_raw, dict) and "kind" in jc_raw, "junction",
             "must be an object with a 'kind'")
    if jc_raw["kind"] == "state_constraint":
        condition = StateConstraint()
    elif jc_raw["kind"] == "flux_limited":
        _require("A" in jc_raw and _finite_number(jc_raw["A"]),
                 "junction.A", "flux_limited needs a numeric 'A'")
        condition = FluxLimited(float(jc_raw["A"]))
    else:
        raise ProblemValidationError(
            "junction.kind", f"unknown kind '{jc_raw['kind']}'")

    problem = make_junction_problem(edges, hams, condition)

    viscous_eps = None
    if "viscous" in data:
        _require(isinstance(data["viscous"], dict), "viscous",
                 "must be an object")
        viscous_eps = _check_eps_list(data["viscous"].get("eps_list"),
                                      "viscous.eps_list")

    fatten_h2 = fatten_eps = fatten_h2_spacing = None
    if "fatten" in data:
        f = data["fatten"]
        _require(isinstance(f, dict), "fatten", "must be an object")
        _require(K == 2, "fatten", "fattening requires exactly K=2 edges")
        fatten_h2 = hamiltonian2d_from_spec(f.get("hamiltonian2d"))
        fatten_eps = _check_eps_list(f.get("eps_list"), "fatten.eps_list")
        if "h2" in f:
            _require(_finite_number(f["h2"]) and f["h2"] > 0,
                     "fatten.h2", "must be positive")
            fatten_h2_spacing = float(f["h2"])
        elif "h2_over_eps" in f:
            r = f["h2_over_eps"]
            _require(_finite_number(r) and 0 < r <= 0.25,
                     "fatten.h2_over_eps", "must lie in (0, 0.25]")
            fatten_h2_spacing = ("eps_fraction", float(r))
        else:
            raise ProblemValidationError(
                "fatten", "needs 'h2' or 'h2_over_eps'")

    return ProblemFile(raw=data, problem=problem, viscous_eps=viscous_eps,
                       fatten_h2=fatten_h2, fatten_eps=fatten_eps,
                       fatten_h2_spacing=fatten_h2_spacing)


def load_problem(path):
    """Load, validate, and construct a problem file; Hamiltonians come out
    probed at a shared coercivity level."""
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        raise ProblemValidationError("<file>", f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise ProblemValidationError(
            "<file>", f"parse error at line {e.lineno}, column {e.colno}: "
            f"{e.msg}")
    return parse_problem_dict(data)


def write_problem(data, path):
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
