"""Which package entry points the traced run wraps, and the per-layer metrics
derived from the spans they record.

Layers are the package modules: grid, engine, bellman, likelihood, estimator
and sensitivity. cli, model and errors get no spans of their own; their cost
shows in set-up and inside the layers that call them. Counts come from return
values (sweeps from BellmanSolver.solve, Stage1Result.n_evals,
Stage2Result.n_iters) and from the number of wrapped calls.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span, Tracer

LAYERS = ("grid", "engine", "bellman", "likelihood", "estimator", "sensitivity")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _solve_attrs(args, kwargs, result, exc):
    solver = args[0]
    sweeps = result[1] if exc is None else getattr(exc, "iterations", 0)
    return {
        "sweeps": int(sweeps),
        "cold": _arg(args, kwargs, 4, "q0") is None,
        "beta": float(solver.model.discount),
    }


def _gather_bytes(solver, operand, result, width_factor):
    # Operands, result, and the gathered successor array (written once, read once).
    gathered = solver.flat_idx.size * width_factor * 8
    return solver.flat_idx.nbytes + solver.weights.nbytes + operand + result.nbytes + 2 * gathered


def _sweep_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    solver, q = args[0], _arg(args, kwargs, 1, "qvalues")
    rewards = _arg(args, kwargs, 2, "node_rewards")
    rewards = solver.node_rewards if rewards is None else rewards
    return {"bytes": _gather_bytes(solver, q.nbytes + rewards.nbytes, result, 1)}


def _stack_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    solver, stack = args[0], _arg(args, kwargs, 1, "flat_stack")
    return {"bytes": _gather_bytes(solver, stack.nbytes, result, stack.shape[-1])}


def _stage1_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"n_evals": int(result.n_evals), "n_iters": len(result.trace)}


def _stage2_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"n_iters": int(result.n_iters), "n_evaluated": len(result.loglik_trace)}


def _interp_attrs(args, kwargs, result, exc):
    return {} if exc is not None else {"rows": int(result[0].shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point under each name its callers look up."""
    from spe import bellman, engine, estimator, grid, likelihood, sensitivity

    namespaces = {
        "estimator.estimate": [(estimator, "estimate", None)],
        "estimator.fit_mdp_baseline": [(estimator, "fit_mdp_baseline", None)],
        "estimator.stage1": [
            (estimator, "stage1_fit_theta2", _stage1_attrs),
            (sensitivity, "stage1_fit_theta2", _stage1_attrs),
        ],
        "estimator.stage2": [
            (estimator, "stage2_policy_gradient", _stage2_attrs),
            (sensitivity, "stage2_policy_gradient", _stage2_attrs),
        ],
        "likelihood.observation_loglik": [
            (estimator, "observation_loglik", None),
            (likelihood, "observation_loglik", None),
        ],
        "likelihood.filter_dataset": [
            (estimator, "filter_dataset", None),
            (likelihood, "filter_dataset", None),
            (sensitivity, "filter_dataset", None),
        ],
        "likelihood.grad_q": [(estimator, "grad_q", None), (likelihood, "grad_q", None)],
        "likelihood.log_likelihood": [
            (estimator, "log_likelihood", None),
            (likelihood, "log_likelihood", None),
        ],
        "likelihood.choice_points": [(likelihood.ChoicePoints, "from_filtered", None)],
        "likelihood.sum_log_pi": [(likelihood.ChoicePoints, "sum_log_pi", None)],
        "likelihood.grad_sum_log_pi": [(likelihood.ChoicePoints, "grad_sum_log_pi", None)],
        "sensitivity.x0_sweep": [(sensitivity, "x0_sweep_estimate", None)],
        "engine.simulate": [(engine, "simulate", None)],
        "engine.build_kernel": [
            (engine.EngineFamily, "build_kernel", None),
            (engine.MdpEngineFamily, "build_kernel", None),
        ],
        "bellman.build": [(bellman.BellmanSolver, "__init__", None)],
        "bellman.solve": [(bellman.BellmanSolver, "solve", _solve_attrs)],
        "bellman.sweep": [(bellman.BellmanSolver, "apply", _sweep_attrs)],
        "bellman.propagate_stack": [(bellman.BellmanSolver, "propagate_stack", _stack_attrs)],
        "grid.interpolate_many": [(grid.BeliefGrid, "interpolate_many", _interp_attrs)],
    }
    for name, targets in namespaces.items():
        for owner, attr, attrs in targets:
            tracer.patch(owner, attr, name, attrs)


# name -> unit; the order is the order of the report.
METRICS = {
    "likelihood.gradq_solves": "count",
    "likelihood.gradq_s": "s",
    "likelihood.gradq_sweeps": "count",
    "likelihood.gradq_sweeps_per_solve": "ratio",
    "bellman.solve_calls": "count",
    "bellman.solve_s": "s",
    "bellman.sweeps": "count",
    "bellman.sweeps_per_solve": "ratio",
    "bellman.sweep_ms": "ms",
    "bellman.cold_sweeps_b095": "count",
    "bellman.cold_sweeps_b099": "count",
    "bellman.build_calls": "count",
    "bellman.build_s": "s",
    "likelihood.filter_passes": "count",
    "likelihood.filter_s": "s",
    "likelihood.filter_pass_ms": "ms",
    "engine.build_kernel_calls": "count",
    "engine.build_kernel_s": "s",
    "likelihood.choice_calls": "count",
    "likelihood.choice_s": "s",
    "grid.interp_calls": "count",
    "grid.interp_rows": "count",
    "grid.interp_s": "s",
    "estimator.stage1_s": "s",
    "estimator.stage1_evals": "count",
    "estimator.stage1_iters": "count",
    "estimator.stage1_evals_per_iter": "ratio",
    "estimator.stage2_s": "s",
    "estimator.stage2_iters": "count",
    "estimator.stage2_solves_per_iter": "ratio",
    "estimator.stage2_armijo_accept": "ratio",
    "likelihood.loglik_s": "s",
    "engine.simulate_s": "s",
    "sensitivity.sweep_fits": "count",
    "sensitivity.fit_s": "s",
    "bellman.sweep_bytes_computed": "bytes",
    "likelihood.gradq_sweep_bytes_computed": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _descendants(root: Span, kids: dict[int, list[Span]]) -> list[Span]:
    out, todo = [], list(kids.get(root.id, []))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s.id, []))
    return out


def accounted_spans(root: Span, kids: dict[int, list[Span]]) -> list[Span]:
    """The public calls an operation makes, with a whole fit split into its
    stage 1, stage 2 and final log likelihood (and any other direct call)."""
    out = []
    for s in kids.get(root.id, []):
        if s.name in ("estimator.estimate", "estimator.fit_mdp_baseline"):
            out.extend(kids.get(s.id, []))
        else:
            out.append(s)
    return out


def op_metrics(tracer: Tracer, root: Span, kids: dict[int, list[Span]]) -> dict[str, float]:
    """Per-layer numbers of one traced operation (its root span's subtree)."""
    spans = _descendants(root, kids)
    by: dict[str, list[Span]] = defaultdict(list)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by[s.name].append(s)
        own = s.duration - sum(c.duration for c in kids.get(s.id, []))
        self_s[s.name.split(".")[0]] += own

    def total(*names):
        return sum(s.duration for n in names for s in by[n])

    def count(*names):
        return sum(len(by[n]) for n in names)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    def cold_sweeps(beta):
        return _median(
            s.attrs["sweeps"]
            for s in by["bellman.solve"]
            if s.attrs.get("cold") and abs(s.attrs.get("beta", -1.0) - beta) < 1e-12
        )

    m: dict[str, float] = {}
    m["likelihood.gradq_solves"] = count("likelihood.grad_q")
    m["likelihood.gradq_s"] = total("likelihood.grad_q")
    m["likelihood.gradq_sweeps"] = count("bellman.propagate_stack")
    m["likelihood.gradq_sweeps_per_solve"] = _ratio(
        m["likelihood.gradq_sweeps"], m["likelihood.gradq_solves"]
    )
    m["bellman.solve_calls"] = count("bellman.solve")
    m["bellman.solve_s"] = total("bellman.solve")
    m["bellman.sweeps"] = attr_sum("bellman.solve", "sweeps")
    m["bellman.sweeps_per_solve"] = _ratio(m["bellman.sweeps"], m["bellman.solve_calls"])
    m["bellman.sweep_ms"] = 1e3 * _median(s.duration for s in by["bellman.sweep"])
    m["bellman.cold_sweeps_b095"] = cold_sweeps(0.95)
    m["bellman.cold_sweeps_b099"] = cold_sweeps(0.99)
    m["bellman.build_calls"] = count("bellman.build")
    m["bellman.build_s"] = total("bellman.build")
    filters = ("likelihood.observation_loglik", "likelihood.filter_dataset")
    m["likelihood.filter_passes"] = count(*filters)
    m["likelihood.filter_s"] = total(*filters)
    m["likelihood.filter_pass_ms"] = 1e3 * _ratio(
        m["likelihood.filter_s"], m["likelihood.filter_passes"]
    )
    m["engine.build_kernel_calls"] = count("engine.build_kernel")
    m["engine.build_kernel_s"] = total("engine.build_kernel")
    choice = ("likelihood.choice_points", "likelihood.sum_log_pi", "likelihood.grad_sum_log_pi")
    m["likelihood.choice_calls"] = count(*choice)
    # Self time: building choice points interpolates beliefs, which is the grid's.
    m["likelihood.choice_s"] = total(*choice) - sum(
        c.duration for n in choice for s in by[n] for c in kids.get(s.id, [])
    )
    m["grid.interp_calls"] = count("grid.interpolate_many")
    m["grid.interp_rows"] = attr_sum("grid.interpolate_many", "rows")
    m["grid.interp_s"] = total("grid.interpolate_many")
    m["estimator.stage1_s"] = total("estimator.stage1")
    m["estimator.stage1_evals"] = attr_sum("estimator.stage1", "n_evals")
    m["estimator.stage1_iters"] = attr_sum("estimator.stage1", "n_iters")
    m["estimator.stage1_evals_per_iter"] = _ratio(
        m["estimator.stage1_evals"], m["estimator.stage1_iters"]
    )
    stage2 = by["estimator.stage2"]
    stage2_solves = sum(
        1 for s in stage2 for d in _descendants(s, kids) if d.name == "bellman.solve"
    )
    accepted = attr_sum("estimator.stage2", "n_iters")
    # Each ascent iteration solves once at the current point; every other
    # stage-2 solve is a line-search trial.
    trials = stage2_solves - attr_sum("estimator.stage2", "n_evaluated")
    m["estimator.stage2_s"] = total("estimator.stage2")
    m["estimator.stage2_iters"] = accepted
    m["estimator.stage2_solves_per_iter"] = _ratio(stage2_solves, accepted)
    m["estimator.stage2_armijo_accept"] = _ratio(accepted, trials)
    m["likelihood.loglik_s"] = total("likelihood.log_likelihood")
    m["engine.simulate_s"] = total("engine.simulate")
    spans_by_id = tracer.spans
    sweep_fits = [
        s for s in by["estimator.stage1"]
        if s.parent is not None and spans_by_id[s.parent].name == "sensitivity.x0_sweep"
    ]
    m["sensitivity.sweep_fits"] = len(sweep_fits)
    m["sensitivity.fit_s"] = sum(s.duration for s in sweep_fits)
    m["bellman.sweep_bytes_computed"] = _median(
        s.attrs["bytes"] for s in by["bellman.sweep"] if "bytes" in s.attrs
    )
    m["likelihood.gradq_sweep_bytes_computed"] = _median(
        s.attrs["bytes"] for s in by["bellman.propagate_stack"] if "bytes" in s.attrs
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    return m
