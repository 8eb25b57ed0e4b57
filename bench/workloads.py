"""The four benchmark workloads, each a set-up, one operation and its check.

Every operation calls the public library function behind one `spe` command:
estimate, sensitivity (x0 prior sweep), simulate + evaluate (which solves the
Bellman equation from scratch, as bellman-solve does), and the observable-state
baseline (estimate --family mdp). Every EstimatorConfig field that sets the
amount of work is pinned here, so a later change of package defaults does not
silently change the work measured.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spe import engine, estimator, likelihood, sensitivity

# Bounds of the acceptance criteria the checks reuse.
THETA2_TOL = 0.02          # criterion 1: dynamics within 0.02 element-wise
SWEEP_SPREAD_MAX = 0.1     # criterion 3: prior-sweep spread at burn-in 8
BASELINE_GAP_MIN = 0.08    # criterion 2: observable baseline at least 8% worse

SWEEP_BURN_IN = 8
SWEEP_CANDIDATES = np.stack([np.linspace(0.0, 1.0, 11), 1.0 - np.linspace(0.0, 1.0, 11)], axis=1)
COLD_BETAS = (0.95, 0.99)
N_MILEAGE_BINS = 120
DISCOUNT = 0.95


@dataclass(frozen=True)
class Scale:
    """Input size and solver settings of one benchmark configuration."""

    n_histories: int
    horizon: int
    config: estimator.EstimatorConfig


FULL = Scale(
    500,
    100,
    estimator.EstimatorConfig(
        grid_resolution=101,
        bellman_tol=1e-9,
        grad_q_tol=1e-8,
        grad_norm_tol=1e-3,
        step_size=None,
        max_stage2_iters=300,
        stage1_max_iters=300,
    ),
)

# Toy size for the self-test only: it exercises every code path in seconds.
SMOKE = Scale(
    20,
    20,
    estimator.EstimatorConfig(
        grid_resolution=11,
        bellman_tol=1e-9,
        grad_q_tol=1e-8,
        grad_norm_tol=1e-3,
        step_size=None,
        max_stage2_iters=20,
        stage1_max_iters=20,
    ),
)


@dataclass
class Inputs:
    scale: Scale
    seed: int
    fleet: list
    truth_loglik: float | None = None   # hidden-state model at the generating parameters


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    setup: Callable[[Scale, int], Inputs]
    op: Callable[[Inputs], object]
    check: Callable[[Inputs, object], list]         # failed conditions, empty when correct
    neg_loglik: Callable[[Inputs, object], float]   # quality of the result, in nats
    summary: Callable[[object], str]


def simulate_fleet(scale: Scale, seed: int) -> list:
    config = engine.SimConfig(
        scale.n_histories,
        scale.horizon,
        seed=seed,
        grid_resolution=scale.config.grid_resolution,
        discount=DISCOUNT,
    )
    return engine.simulate(engine.reference_params(), config).histories


def decisions(fleet) -> int:
    return sum(h.horizon for h in fleet)


def replacements(fleet) -> int:
    return int(sum(int(np.sum(h.acts)) for h in fleet))


def _family():
    return engine.EngineFamily(N_MILEAGE_BINS, DISCOUNT)


def _truth():
    return _family().params_to_theta(engine.reference_params())


def _setup_fleet(scale: Scale, seed: int) -> Inputs:
    return Inputs(scale, seed, simulate_fleet(scale, seed))


def _setup_with_truth(scale: Scale, seed: int) -> Inputs:
    inputs = _setup_fleet(scale, seed)
    model = engine.build_engine_model(engine.reference_params(), DISCOUNT)
    inputs.truth_loglik = likelihood.log_likelihood(
        model, inputs.fleet, resolution=scale.config.grid_resolution, tol=scale.config.bellman_tol
    ).total
    return inputs


def _finite_terms(ll) -> bool:
    return all(np.isfinite(v) for v in (ll.obs_term, ll.choice_term, ll.prior_term))


# fit_hidden -------------------------------------------------------------

def _fit_hidden(inp: Inputs):
    return estimator.estimate(inp.fleet, _family(), inp.scale.config)


def _check_fit_hidden(inp: Inputs, report) -> list:
    problems = []
    if not report.stage1.converged:
        problems.append(f"stage 1 not converged: {report.stage1.message}")
    if not report.stage2.converged:
        problems.append(f"stage 2 not converged after {report.stage2.n_iters} steps")
    dev2 = float(np.max(np.abs(report.theta2 - _truth()[1])))
    if not dev2 <= THETA2_TOL:
        problems.append(f"theta2 deviation {dev2:.4f} > {THETA2_TOL}")
    if not _finite_terms(report.loglik):
        problems.append(f"non-finite log likelihood terms {report.loglik}")
    return problems


def _fit_summary(report) -> str:
    theta1 = ", ".join(f"{v:.4f}" for v in report.theta1)
    return (
        f"loglik {report.loglik.total:.4f} theta1 ({theta1}) "
        f"stage1 evals {report.stage1.n_evals} stage2 steps {report.stage2.n_iters}"
    )


# prior_sweep ------------------------------------------------------------

def _prior_sweep(inp: Inputs):
    return sensitivity.x0_sweep_estimate(
        inp.fleet,
        _family(),
        inp.scale.config,
        m_values=(SWEEP_BURN_IN,),
        candidates=SWEEP_CANDIDATES,
    )


def _check_prior_sweep(inp: Inputs, result) -> list:
    problems = []
    spread = result.spreads[0]
    if not spread <= SWEEP_SPREAD_MAX:
        problems.append(f"spread {spread:.4f} > {SWEEP_SPREAD_MAX}")
    theta2 = result.theta2_by_m[SWEEP_BURN_IN]
    if theta2.shape[0] != len(SWEEP_CANDIDATES) or not np.all(np.isfinite(theta2)):
        problems.append("missing or non-finite theta2 estimates")
    return problems


def _sweep_neg_loglik(inp: Inputs, result) -> float:
    """Median over candidates of the stage-1 objective each fit reached."""
    family = _family()
    probe = family.build_model(family.default_theta1(), family.default_theta2())
    blocks = likelihood.DatasetBlocks.from_histories(inp.fleet, probe)
    values = [
        -likelihood.observation_loglik(
            family.build_kernel(theta2), blocks, burn_in=SWEEP_BURN_IN, x0_override=cand
        )
        for theta2, cand in zip(result.theta2_by_m[SWEEP_BURN_IN], SWEEP_CANDIDATES)
    ]
    return float(np.median(values))


def _sweep_summary(result) -> str:
    return f"spread at M={SWEEP_BURN_IN}: {result.spreads[0]:.6f}"


# cold_solve -------------------------------------------------------------

def _cold_solve(inp: Inputs):
    fleet = simulate_fleet(inp.scale, inp.seed)
    logliks = {}
    for beta in COLD_BETAS:
        model = engine.build_engine_model(engine.reference_params(), beta)
        logliks[beta] = likelihood.log_likelihood(
            model, fleet, resolution=inp.scale.config.grid_resolution,
            tol=inp.scale.config.bellman_tol,
        )
    return fleet, logliks


def _check_cold_solve(inp: Inputs, result) -> list:
    fleet, logliks = result
    problems = []
    shapes_ok = len(fleet) == inp.scale.n_histories and all(
        h.acts.shape == (inp.scale.horizon,) and h.obs.shape == (inp.scale.horizon + 1,)
        for h in fleet
    )
    if not shapes_ok:
        problems.append(f"simulated fleet is not {inp.scale.n_histories}x{inp.scale.horizon}")
    if replacements(fleet) < 1:
        problems.append("simulated fleet has no replacement")
    if not all(
        np.array_equal(a.obs, b.obs) and np.array_equal(a.acts, b.acts)
        for a, b in zip(fleet, inp.fleet)
    ):
        problems.append("simulation is not reproducible from its seed")
    for beta, ll in logliks.items():
        if not _finite_terms(ll):
            problems.append(f"non-finite log likelihood at beta {beta}: {ll}")
    return problems


def _cold_summary(result) -> str:
    fleet, logliks = result
    parts = [f"beta {b}: loglik {ll.total:.4f}" for b, ll in logliks.items()]
    return f"{replacements(fleet)} replacements; " + "; ".join(parts)


# fit_observable ---------------------------------------------------------

def _fit_observable(inp: Inputs):
    return estimator.fit_mdp_baseline(
        inp.fleet, inp.scale.config, n_mileage_bins=N_MILEAGE_BINS, discount=DISCOUNT
    )


def _check_fit_observable(inp: Inputs, report) -> list:
    problems = []
    if not report.stage2.converged:
        problems.append(f"stage 2 not converged after {report.stage2.n_iters} steps")
    if not _finite_terms(report.loglik):
        problems.append(f"non-finite log likelihood terms {report.loglik}")
    gap = (inp.truth_loglik - report.loglik.total) / abs(inp.truth_loglik)
    if not gap >= BASELINE_GAP_MIN:
        problems.append(
            f"baseline loglik {report.loglik.total:.1f} is only {gap:.2%} below "
            f"the hidden-state {inp.truth_loglik:.1f}"
        )
    return problems


def _report_neg_loglik(inp: Inputs, report) -> float:
    return -float(report.loglik.total)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit_hidden",
            _setup_fleet, _fit_hidden, _check_fit_hidden, _report_neg_loglik, _fit_summary,
        ),
        Workload(
            "prior_sweep",
            _setup_fleet, _prior_sweep, _check_prior_sweep, _sweep_neg_loglik, _sweep_summary,
        ),
        Workload(
            "cold_solve",
            _setup_fleet, _cold_solve, _check_cold_solve,
            lambda inp, result: -float(result[1][DISCOUNT].total), _cold_summary,
        ),
        Workload(
            "fit_observable",
            _setup_with_truth, _fit_observable, _check_fit_observable, _report_neg_loglik, _fit_summary,
        ),
    )
}
