"""Command line entry points.

Subcommands: simulate, estimate, evaluate, bellman-solve, sensitivity,
identify-probe. Validation problems (bad parameters, malformed datasets)
exit with code 1; I/O failures (missing or unwritable files) exit with 2.
Every JSON input file (model, parameter, config) is read by
model.read_json_object and fails the same way. evaluate, bellman-solve and
each side of identify-probe take a model file (--model) or engine parameters
(--params), not both; evaluate and bellman-solve fall back to the reference
values. A model file carries its own discount, so --discount beside one is
refused; engine models take it, 0.95 by default. The reports of estimate,
evaluate, sensitivity and identify-probe are written by one function: every
parsed argument, then the SHA-256 of each input file (null when the file is
not given), then the results, so a run can be traced to the files and
settings that produced it.

Threading: --threads (or the SPE_THREADS environment variable) caps the
linear-algebra thread pools before the numerical stack is loaded. It only
affects wall time, never results. A value that is not a positive integer is
a validation failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

from .errors import EstimationError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _thread_count(flag: str | None) -> int | None:
    """The thread cap from --threads, else SPE_THREADS; None when neither is set."""
    source, text = "--threads", flag
    if flag is None:
        source, text = "SPE_THREADS", os.environ.get("SPE_THREADS", "")
        if not text:
            return None
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return int(text)


def _set_threads(n: int | None) -> None:
    if n is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_x0(text: str):
    if text == "uniform":
        return "uniform"
    parts = [float(p) for p in text.split(",")]
    return parts


_INPUT_FILES = ("data", "config", "model", "params", "model_a", "model_b", "params_a", "params_b")


def _write_report(path, args, **results) -> None:
    """The report at path: every parsed argument, the hash of each input file, then results."""
    from .model import write_json_object

    payload = {k: v for k, v in vars(args).items() if k != "func"}
    for name in _INPUT_FILES:
        if name in payload:
            payload[f"{name}_sha256"] = _sha256(payload[name]) if payload[name] else None
    write_json_object({**payload, **results}, path, indent=2)


def _resolve_config(args) -> "object":
    from .estimator import EstimatorConfig
    from .model import read_json_object

    merged: dict = {}
    if getattr(args, "config", None):
        allowed = [f.name for f in dataclasses.fields(EstimatorConfig)]
        merged.update(read_json_object(args.config, "config", (), allowed))
    overrides = {
        "grid_resolution": getattr(args, "grid_resolution", None),
        "step_size": getattr(args, "step_size", None),
        "grad_norm_tol": getattr(args, "grad_tol", None),
        "max_stage2_iters": getattr(args, "max_iters", None),
        "stage1_max_iters": getattr(args, "stage1_max_iters", None),
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return EstimatorConfig(**merged)


def _model_source(model_path, params_path, discount):
    """The generic model file, else the engine model at the parameter file,
    else the engine model at the reference values. discount is None unless
    --discount was given: a model file refuses it, engine models default it.
    """
    from .engine import build_engine_model, load_params, reference_params
    from .model import load_model

    if model_path and params_path:
        raise ValueError("give a model file or a parameter file, not both")
    if model_path:
        if discount is not None:
            raise ValueError("--discount applies to engine models only: a --model file carries its own")
        return load_model(model_path)
    params = load_params(params_path) if params_path else reference_params()
    return build_engine_model(params) if discount is None else build_engine_model(params, discount)


def cmd_simulate(args) -> int:
    from .engine import SimConfig, emit_dataset, emit_debug_sidecar, load_params, reference_params, simulate

    params = load_params(args.params) if args.params else reference_params()
    config = SimConfig(
        n_histories=args.n,
        horizon=args.t,
        seed=args.seed,
        x0=_parse_x0(args.x0),
        z0=args.z0,
        grid_resolution=args.grid_resolution,
        discount=args.discount,
    )
    result = simulate(params, config)
    emit_dataset(result.histories, args.out)
    if args.debug_sidecar:
        emit_debug_sidecar(result, str(args.out) + ".debug.jsonl")
    n_steps = sum(h.horizon for h in result.histories)
    n_replace = sum(int(h.acts.sum()) for h in result.histories)
    rate = n_replace / n_steps if n_steps else 0.0
    print(
        f"wrote {len(result.histories)} histories x {args.t} periods to {args.out} "
        f"(replacement rate {rate:.4f})"
    )
    return 0


def cmd_estimate(args) -> int:
    from .engine import EngineFamily
    from .engine import load_dataset
    from .estimator import estimate, fit_mdp_baseline

    histories = load_dataset(args.data)
    config = _resolve_config(args)
    if args.family == "mdp":
        report = fit_mdp_baseline(
            histories, config, n_mileage_bins=args.n_mileage_bins, discount=args.discount
        )
    else:
        family = EngineFamily(n_mileage_bins=args.n_mileage_bins, discount=args.discount)
        report = estimate(histories, family, config)
    if args.out:
        _write_report(args.out, args, report=report.to_dict())
    for name, value in report.labeled.items():
        print(f"{name:24s} {value}")
    ll = report.loglik
    print(
        f"loglik total {ll.total:.3f} (obs {ll.obs_term:.3f}, "
        f"choice {ll.choice_term:.3f}, prior {ll.prior_term:.3f})"
    )
    for action, count in enumerate(report.stage2.diagnostics["action_counts"]):
        if count == 0:
            print(
                f"warning: action {action} is never taken; the choice likelihood "
                "has no finite maximum in its reward",
                file=sys.stderr,
            )
    if not report.stage1.converged or not report.stage2.converged:
        # Report is already on disk; flag the run and fail the exit code.
        print(
            "warning: optimizer stopped before tolerance "
            f"(stage1 converged={report.stage1.converged}, "
            f"stage2 converged={report.stage2.converged})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_evaluate(args) -> int:
    from .engine import load_dataset
    from .likelihood import log_likelihood

    histories = load_dataset(args.data)
    model = _model_source(args.model, args.params, args.discount)
    ll = log_likelihood(model, histories, resolution=args.grid_resolution)
    print(
        f"loglik total {ll.total:.6f} (obs {ll.obs_term:.6f}, "
        f"choice {ll.choice_term:.6f}, prior {ll.prior_term:.6f})"
    )
    if args.out:
        _write_report(args.out, args, discount=model.discount, loglik=ll.to_dict())
    return 0


def cmd_bellman_solve(args) -> int:
    from .bellman import save_qtable, solve

    model = _model_source(args.model, args.params, args.discount)
    result = solve(model, resolution=args.resolution, tol=args.tol)
    save_qtable(result.qtable, args.out)
    print(
        f"solved in {result.iterations} Newton iterations, residual {result.residual:.3e}; "
        f"wrote {args.out}"
    )
    return 0


def cmd_sensitivity(args) -> int:
    import numpy as np

    from .engine import EngineFamily, load_dataset
    from .sensitivity import x0_sweep_estimate

    histories = load_dataset(args.data)
    config = _resolve_config(args)
    family = EngineFamily(n_mileage_bins=args.n_mileage_bins, discount=args.discount)
    m_values = [int(m) for m in args.m.split(",")]
    p = np.linspace(0.0, 1.0, args.n_candidates)
    result = x0_sweep_estimate(
        histories, family, config, m_values=m_values, candidates=np.stack([p, 1.0 - p], axis=1)
    )
    csv_text = result.to_csv()
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    print(csv_text, end="")
    if args.report:
        _write_report(
            args.report,
            args,
            m_values=result.m_values,
            spreads=result.spreads,
            n_candidates=int(result.candidates.shape[0]),
            config=dataclasses.asdict(config),
            theta2_by_m={m: rows.tolist() for m, rows in result.theta2_by_m.items()},
            converged=result.converged_by_m,
            scaled=result.scaled,
        )
    unconverged = sum(not c for flags in result.converged_by_m.values() for c in flags)
    if unconverged:
        # The outputs are already on disk; flag the run and fail the exit code.
        print(
            f"warning: stage 1 stopped before tolerance in {unconverged} of the sweep's fits",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_identify_probe(args) -> int:
    from .sensitivity import two_period_identification_probe

    if not (args.model_a or args.params_a) or not (args.model_b or args.params_b):
        raise ValueError("each side needs --model-X or --params-X")
    model_a = _model_source(args.model_a, args.params_a, args.discount)
    model_b = _model_source(args.model_b, args.params_b, args.discount)
    x0 = [float(p) for p in args.x0.split(",")]
    probe = two_period_identification_probe(model_a, model_b, x0, tol=args.tol)
    if probe.distinguishable:
        print(f"distinguishable at period {probe.period}: witness {probe.witness}")
    else:
        suffix = " (rank-one pair: two-period argument does not apply)" if probe.rank1_pair else ""
        print(f"not distinguishable within two periods{suffix}")
    if args.out:
        _write_report(
            args.out,
            args,
            distinguishable=probe.distinguishable,
            period=probe.period,
            witness=list(probe.witness) if probe.witness else None,
            rank1_pair=probe.rank1_pair,
        )
    return 0


def _common_parser(discount: float | None) -> argparse.ArgumentParser:
    """The flags every subcommand takes, with --discount defaulting to discount."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        metavar="N",
        default=None,
        help="cap linear-algebra thread pools (default: SPE_THREADS or unlimited)",
    )
    common.add_argument("--discount", type=float, default=discount, help="discount of engine models (0.95)")
    return common


def build_parser() -> argparse.ArgumentParser:
    # Commands that also take model files leave --discount at None unless it
    # is given, so that _model_source can refuse it beside a model file. Each
    # needs its own parent: subparsers share their parent's argument objects.
    common, with_models = _common_parser(0.95), _common_parser(None)

    parser = argparse.ArgumentParser(
        prog="spe", description="Estimation of partially observable controlled processes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="generate a synthetic dataset")
    p_sim.add_argument("--params", help="engine parameter JSON (default: reference values)")
    p_sim.add_argument("--n", type=int, required=True, help="number of histories")
    p_sim.add_argument("--t", type=int, required=True, help="decision periods per history")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output JSONL path")
    p_sim.add_argument("--x0", default="uniform", help='"uniform" or comma-separated belief')
    p_sim.add_argument("--z0", type=int, default=0)
    p_sim.add_argument("--grid-resolution", type=int, default=101)
    p_sim.add_argument("--debug-sidecar", action="store_true", help="also write latent draws")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", parents=[common], help="two-stage fit on a dataset")
    p_est.add_argument("--data", required=True)
    p_est.add_argument("--out", help="report JSON path")
    p_est.add_argument("--family", choices=("pomdp", "mdp"), default="pomdp")
    p_est.add_argument("--bins", dest="n_mileage_bins", type=int, default=120)
    p_est.add_argument("--config", help="EstimatorConfig JSON (unknown fields rejected)")
    p_est.add_argument("--grid-resolution", type=int, default=None)
    p_est.add_argument("--step-size", type=float, default=None)
    p_est.add_argument("--grad-tol", type=float, default=None)
    p_est.add_argument("--max-iters", type=int, default=None)
    p_est.add_argument("--stage1-max-iters", type=int, default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", parents=[with_models], help="log likelihood at fixed parameters")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--params", help="engine parameter JSON")
    p_eval.add_argument("--model", help="generic model JSON")
    p_eval.add_argument("--grid-resolution", type=int, default=101)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bell = sub.add_parser("bellman-solve", parents=[with_models], help="solve and store a Q table")
    p_bell.add_argument("--model", help="generic model JSON")
    p_bell.add_argument("--params", help="engine parameter JSON")
    p_bell.add_argument("--resolution", type=int, default=101)
    p_bell.add_argument("--tol", type=float, default=1e-9)
    p_bell.add_argument("--out", required=True)
    p_bell.set_defaults(func=cmd_bellman_solve)

    p_sens = sub.add_parser(
        "sensitivity", parents=[common], help="initial-belief sweep; writes M,spread CSV"
    )
    p_sens.add_argument("--data", required=True)
    p_sens.add_argument("--m", default="1,2,4,8,16", help="comma-separated burn-in values")
    p_sens.add_argument("--candidates", dest="n_candidates", type=int, default=11)
    p_sens.add_argument("--bins", dest="n_mileage_bins", type=int, default=120)
    p_sens.add_argument("--config")
    p_sens.add_argument("--grid-resolution", type=int, default=None)
    p_sens.add_argument("--out", required=True, help="CSV output path")
    p_sens.add_argument("--report", help="optional JSON report path")
    p_sens.set_defaults(func=cmd_sensitivity)

    p_ident = sub.add_parser(
        "identify-probe", parents=[with_models], help="two-period distinguishability scan"
    )
    p_ident.add_argument("--model-a", help="generic model JSON")
    p_ident.add_argument("--model-b", help="generic model JSON")
    p_ident.add_argument("--params-a", help="engine parameter JSON")
    p_ident.add_argument("--params-b", help="engine parameter JSON")
    p_ident.add_argument("--x0", default="0.5,0.5")
    p_ident.add_argument("--tol", type=float, default=1e-9)
    p_ident.add_argument("--out")
    p_ident.set_defaults(func=cmd_identify_probe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _set_threads(_thread_count(args.threads))
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
