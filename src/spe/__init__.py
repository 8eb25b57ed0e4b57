"""Structural estimation of partially observable controlled processes.

Filter beliefs from observed action/observation histories, solve the soft
Bellman fixed point on a belief grid, and fit dynamics and reward parameters
by two-stage maximum likelihood with an analytic policy gradient.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> submodule that defines it. Submodules load on first access
# (PEP 562), so importing the package, or spe.cli, loads no numerical stack:
# the CLI sets thread-pool sizes before numpy is imported.
_SUBMODULES = {
    "errors": (
        "ContractionUndefined", "EstimationError", "InvalidParams", "MaxIterExceeded",
        "NonFiniteObjective", "ParseError", "SchemaError", "ZeroObservationProbability",
    ),
    "model": (
        "EULER_GAMMA", "Belief", "History", "PomdpModel", "lambda_update", "load_model",
        "save_model", "sigma",
    ),
    "grid": ("BeliefGrid",),
    "bellman": (
        "QTable", "SolveResult", "ccp", "finite_horizon_solve", "load_qtable", "save_qtable",
        "soft_value", "solve",
    ),
    "likelihood": (
        "DatasetBlocks", "FilteredDataset", "LogLikelihood", "SmoothnessConstants",
        "filter_dataset", "grad_log_pi", "grad_q", "log_likelihood",
        "observation_loglik", "observation_score", "pseudo_log_likelihood",
        "smoothness_constants",
    ),
    "estimator": (
        "EstimateReport", "EstimatorConfig", "Stage1Result", "Stage2Result",
        "empirical_increments", "estimate", "fit_mdp_baseline", "stage1_fit_theta2",
        "stage1_information", "stage2_policy_gradient",
    ),
    "engine": (
        "EngineFamily", "EngineParams", "SimConfig", "SimResult",
        "build_engine_model", "emit_dataset", "emit_debug_sidecar", "load_dataset",
        "load_fleet_records", "load_params", "reference_params", "save_params", "simulate",
    ),
    "sensitivity": (
        "ContractionReport", "IdentificationProbe", "X0SweepResult", "belief_metric",
        "contraction_certificate", "contraction_coefficient", "eta_table",
        "two_period_identification_probe", "x0_sweep_estimate",
    ),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
