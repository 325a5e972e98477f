"""Per-module tracing of hjj from the benchmark's side.

``Tracer.install`` wraps the public functions and the methods of every
class in the traced hjj modules, rebinds each wrapped object at every
module attribute that refers to it (so ``from .edge import solve_edge`` in
``junction`` is covered too), and wraps ``scipy.sparse.linalg.spsolve``,
which ``viscous`` calls through the module. Nothing under ``src/`` changes;
an untraced run never imports this module.

Each call records a span (id, name, start, end, parent id, op id) in
memory, capped per name so hot leaf functions cannot exhaust memory, while
call counts, total time and self time (duration minus the time of child
spans) are accumulated for every call. ``LayerMetrics`` turns the
aggregates and a few hooks on return values into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("problems", "hamiltonians", "expr", "edge", "junction", "viscous",
          "fatten2d", "reports", "cli")

_FAILED = object()  # passed to exit hooks when the wrapped call raised


class _Probe:
    __slots__ = ("name", "layer", "calls", "total", "self_time", "groups",
                 "enter", "exit", "spans")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.groups = ()
        self.enter = None
        self.exit = None
        self.spans = 0


class Group:
    """Outermost-call accounting for a set of functions that may nest
    (recursive solve_edge, parse_expression inside make_builtin, ...)."""

    __slots__ = ("depth", "calls", "time")

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.time = 0.0


class Tracer:
    def __init__(self, span_cap_per_name=500):
        self.probes = {}
        self.spans = []
        self.span_cap = span_cap_per_name
        self.dropped_spans = 0
        self.hook_errors = 0
        self.stack = []  # frames of active calls: [child_time, span_id]
        self.next_id = 0
        self.op_id = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, probe):
        tracer = self
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [0.0, span_id]
            for g in probe.groups:
                g.depth += 1
            if probe.enter is not None:
                tracer._hook(probe.enter, args, kwargs)
            stack.append(frame)
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                probe.calls += 1
                probe.total += dur
                probe.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                for g in probe.groups:
                    g.depth -= 1
                    if g.depth == 0:
                        g.calls += 1
                        g.time += dur
                if probe.spans < tracer.span_cap:
                    probe.spans += 1
                    spans.append((span_id, probe.name, t0, t1, parent,
                                  tracer.op_id))
                else:
                    tracer.dropped_spans += 1
                if probe.exit is not None:
                    tracer._hook(probe.exit, args, kwargs, result, dur)
            return result

        return wrapper

    def _hook(self, fn, *args):
        # a hook that no longer fits the code it observes (a later change
        # altered a signature or a return value) must not break the run
        try:
            fn(*args)
        except Exception:
            self.hook_errors += 1

    def install(self, modules=LAYERS):
        """Wrap the traced modules' functions and methods in place."""
        mods = {}
        for m in modules:
            try:
                mods[m] = importlib.import_module(f"hjj.{m}")
            except ModuleNotFoundError:
                continue  # a layer that no longer exists reports zeros
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    probe = self.probe(f"{short}.{attr}")
                    wrappers[id(obj)] = (obj, self._wrap(obj, probe))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        import scipy.sparse.linalg as spla
        probe = self.probe("viscous.spsolve")
        spla.spsolve = self._wrap(spla.spsolve, probe)

        def swap(obj):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                return hit[1]
            if isinstance(obj, tuple):
                return tuple(swap(v) for v in obj)
            return obj

        # rebind module attributes and module-level tables such as the
        # CLI's subcommand dispatch dict
        pkg = importlib.import_module("hjj")
        for mod in list(mods.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                setattr(mod, attr, swap(obj))
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        obj[k] = swap(v)

    def _wrap_class(self, short, cls):
        skip_init = dataclasses.is_dataclass(cls)
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__" and skip_init:
                continue
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            probe = self.probe(f"{short}.{cls.__name__}.{attr}")
            setattr(cls, attr, self._wrap(obj, probe))

    def probe(self, name):
        """The probe for "<layer>.<qualified name>"; one that nothing wraps
        (the function is gone) stays at zero calls."""
        p = self.probes.get(name)
        if p is None:
            p = self.probes[name] = _Probe(name, name.split(".")[0])
        return p

    def group(self, members):
        g = Group()
        for m in members:
            p = self.probe(m)
            p.groups = p.groups + (g,)
        return g

    # -- output -------------------------------------------------------------

    def stat(self, name):
        p = self.probes.get(name)
        return (p.calls, p.total) if p else (0, 0.0)

    def layer_self_times(self):
        out = {layer: 0.0 for layer in LAYERS}
        for p in self.probes.values():
            if p.layer in out:
                out[p.layer] += p.self_time
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "op": op}) + "\n")

    def summary(self):
        return {name: {"calls": p.calls, "total_s": p.total,
                       "self_s": p.self_time}
                for name, p in sorted(self.probes.items()) if p.calls}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_BUILD = ("hamiltonians.make_builtin", "hamiltonians.parse_expression",
          "hamiltonians.ensure_level", "hamiltonians.reduce_2d",
          "hamiltonians.max_form_2d", "hamiltonians.parse_expression_2d")
_TABLES = ("hamiltonians.SlopeEnvelope.__init__",
           "hamiltonians.SlopeLipschitzTable.__init__")
_REPORT_WRITERS = ("reports.atomic_write_text", "reports.write_report_json",
                   "reports.write_grid_csv", "reports.write_sweep_csv",
                   "reports.write_fatten_csv", "reports.write_convergence_csv",
                   "reports.emit_plot_script")
_JUNCTION_SOLVES = {
    "direct": "junction.solve_junction_direct",
    "constructive": "junction.solve_junction_constructive",
    "flux_limited": "junction.solve_flux_limited",
}
CLI_SUBCOMMANDS = ("solve_junction", "flux_limited", "viscous_sweep",
                   "fatten2d")


class _Driver:
    __slots__ = ("kind", "sweeps")

    def __init__(self, kind):
        self.kind = kind
        self.sweeps = 0


class LayerMetrics:
    """Hooks on a Tracer that derive the per-layer metrics.

    Solver-path counts come from return values: a driver solve's report
    gives its total iterations, and the sweeps it ran are counted while it
    is active (Gauss-Seidel sweep calls for an edge solve, Godunov-flux
    junction residual evaluations for a junction solve), so Jacobi
    iterations = iterations - sweeps."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        t = tracer
        self.build = t.group(_BUILD)
        self.tables = t.group(_TABLES)
        self.writes = t.group(_REPORT_WRITERS)
        self.edge_solve = t.group(["edge.solve_edge"])
        self.junction_solve = t.group(list(_JUNCTION_SOLVES.values()))
        self.eps_sweep = t.group(["viscous.epsilon_sweep"])
        self.fat_study = t.group(["fatten2d.fattening_study"])
        self.eval_points = 0
        self.report_bytes = 0
        self.drivers = []
        self.seen_reports = []
        self.jacobi_iters = 0
        self.wasted_iters = 0
        self.sweeps = 0
        self.newton_iters = 0
        self.newton_accepted = 0
        self.line_search_evals = 0
        self.sc_reference_s = 0.0
        self.fat_reference_s = 0.0
        self.fat_iterations = 0
        self._newton_marks = []

        def eval_enter(args, kwargs):
            p = args[1] if len(args) > 1 else kwargs.get("p", 0.0)
            x = args[2] if len(args) > 2 else kwargs.get("x", 0.0)
            try:
                self.eval_points += np.broadcast(p, x).size
            except ValueError:
                pass
        t.probe("hamiltonians.Hamiltonian.__call__").enter = eval_enter

        def write_enter(args, kwargs):
            text = args[1] if len(args) > 1 else kwargs.get("text", "")
            self.report_bytes += len(text.encode())
        t.probe("reports.atomic_write_text").enter = write_enter

        for name, kind in (("edge.solve_edge", "edge"),
                           ("junction.solve_junction_direct", "junction"),
                           ("junction.solve_flux_limited", "junction")):
            p = t.probe(name)
            p.enter = functools.partial(self._driver_enter, kind)
            p.exit = self._driver_exit

        def sweep_enter(args, kwargs):
            if self.drivers and self.drivers[-1].kind == "edge":
                self.drivers[-1].sweeps += 1
        t.probe("edge.EdgeDiscretization.gauss_seidel_sweep").enter = \
            sweep_enter

        def residuals_enter(args, kwargs):
            flux = args[4] if len(args) > 4 else kwargs.get("flux")
            if flux == "godunov" and self.drivers \
                    and self.drivers[-1].kind == "junction":
                self.drivers[-1].sweeps += 1
        t.probe("junction.JunctionDiscretization.residuals").enter = \
            residuals_enter

        def newton_enter(args, kwargs):
            self._newton_marks.append(
                (t.stat("viscous._ViscousSystem.residual")[0],
                 t.stat("viscous._ViscousSystem.jacobian")[0]))

        def newton_exit(args, kwargs, result, dur):
            r0, j0 = self._newton_marks.pop()
            if result is _FAILED:
                return
            _, _, iters, ok = result
            r = t.stat("viscous._ViscousSystem.residual")[0] - r0
            j = t.stat("viscous._ViscousSystem.jacobian")[0] - j0
            self.newton_iters += iters
            # a failed line search returns it + 1 with the last step rejected
            self.newton_accepted += iters if ok else max(iters - 1, 0)
            # per call: one initial residual, then per step one right-hand
            # side and the line-search trials
            self.line_search_evals += max(r - 1 - j, 0)
        p = t.probe("viscous._ViscousSystem.newton")
        p.enter, p.exit = newton_enter, newton_exit

        def direct_exit(args, kwargs, result, dur):
            if self.eps_sweep.depth:
                self.sc_reference_s += dur
            if self.fat_study.depth:
                self.fat_reference_s += dur
            self._driver_exit(args, kwargs, result, dur)
        t.probe("junction.solve_junction_direct").exit = direct_exit

        def fat_exit(args, kwargs, result, dur):
            if result is not _FAILED:
                self.fat_iterations += result[1].iterations
        t.probe("fatten2d.solve_fat_state_constraint").exit = fat_exit

    def _driver_enter(self, kind, args, kwargs):
        self.drivers.append(_Driver(kind))

    def _driver_exit(self, args, kwargs, result, dur):
        drv = self.drivers.pop()
        if result is _FAILED:
            return
        rep = result[1]
        # a Dirichlet edge solve whose data is unattainable hands back the
        # report of its inner state-constraint solve: count it once
        if any(rep is r for r in self.seen_reports):
            return
        self.seen_reports.append(rep)
        jacobi = max(rep.iterations - drv.sweeps, 0)
        self.jacobi_iters += jacobi
        self.sweeps += drv.sweeps
        if drv.sweeps:
            self.wasted_iters += jacobi

    def metrics(self):
        t = self.t
        m = {}

        def calls_s(prefix, name):
            c, s = t.stat(name)
            m[f"{prefix}_calls"] = (c, "count")
            m[f"{prefix}_s"] = (s, "s")

        m["problems.load_s"] = (t.stat("problems.load_problem")[1], "s")
        m["hamiltonians.build_calls"] = (self.build.calls, "count")
        m["hamiltonians.build_s"] = (self.build.time, "s")
        m["hamiltonians.table_calls"] = (self.tables.calls, "count")
        m["hamiltonians.table_s"] = (self.tables.time, "s")
        calls_s("hamiltonians.eval", "hamiltonians.Hamiltonian.__call__")
        m["hamiltonians.eval_points"] = (self.eval_points, "count")
        calls_s("expr.eval", "expr.Expression.__call__")
        calls_s("edge.disc_init", "edge.EdgeDiscretization.__init__")
        calls_s("edge.residual", "edge.EdgeDiscretization.residual")
        calls_s("junction.residuals",
                "junction.JunctionDiscretization.residuals")
        calls_s("edge.sweep", "edge.EdgeDiscretization.gauss_seidel_sweep")
        calls_s("edge.nodal", "edge.EdgeDiscretization.nodal_residual")
        m["edge.solve_calls"] = (self.edge_solve.calls, "count")
        m["edge.solve_s"] = (self.edge_solve.time, "s")
        m["junction.solve_calls"] = (self.junction_solve.calls, "count")
        m["junction.solve_s"] = (self.junction_solve.time, "s")
        for kind, name in _JUNCTION_SOLVES.items():
            calls_s(f"junction.solve_{kind}", name)
        m["junction.jacobi_iters"] = (self.jacobi_iters, "count")
        m["junction.sweeps"] = (self.sweeps, "count")
        m["junction.jacobi_wasted_frac"] = (
            self.wasted_iters / self.jacobi_iters if self.jacobi_iters
            else 0.0, "ratio")
        m["viscous.newton_iters"] = (self.newton_iters, "count")
        calls_s("viscous.jacobian", "viscous._ViscousSystem.jacobian")
        m["viscous.spsolve_s"] = (t.stat("viscous.spsolve")[1], "s")
        m["viscous.residual_calls"] = (
            t.stat("viscous._ViscousSystem.residual")[0], "count")
        m["viscous.step_accept_ratio"] = (
            self.newton_accepted / self.line_search_evals
            if self.line_search_evals else 0.0, "ratio")
        m["viscous.sc_reference_s"] = (self.sc_reference_s, "s")
        calls_s("fatten2d.residual", "fatten2d.FatSystem.residual")
        m["fatten2d.iterations"] = (self.fat_iterations, "count")
        m["fatten2d.solve_s"] = (
            t.stat("fatten2d.solve_fat_state_constraint")[1], "s")
        m["fatten2d.reference_s"] = (self.fat_reference_s, "s")
        m["reports.write_s"] = (self.writes.time, "s")
        m["reports.bytes"] = (self.report_bytes, "bytes")
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}_s"] = (t.stat(f"cli.cmd_{sub}")[1], "s")
        for layer, s in t.layer_self_times().items():
            m[f"{layer}.self_s"] = (s, "s")
        return m
