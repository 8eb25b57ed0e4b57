"""Two-stage maximum likelihood estimation.

Stage one maximizes the observation term of a dataset laid out once, with
each history's initial belief as the layout's x0, over the dynamics
parameters by a quasi-Newton method on an unconstrained chart; each pass
refilters the layout and returns the exact score by Fisher's identity
(likelihood.observation_score). It returns the estimate alone; the caller
filters the layout there once. Stage two freezes those beliefs and climbs
the resulting pseudo-likelihood in the reward parameters by BHHH steps on the
per-decision scores, which are assembled from the solved Q table and its
parameter derivative.

A family object supplies the parameterization (spe.engine.EngineFamily,
with two hidden conditions or one, is the shipped one):

- n_states, n_obs, n_actions and discount;
- build_kernel(theta2), the joint kernel (a, z, s, z', s');
- reward_tensor(theta1), the reward table (a, z, s), which must be affine
  in theta1: stage two reads its gradient table off reward_tensor once;
- build_model(theta1, theta2) and default_theta1(), which sizes theta1;
- the dynamics chart default_theta2 / theta2_to_unconstrained /
  theta2_from_unconstrained;
- kernel_blocks(u), the kernel at chart point u and its derivative in u
  as one block table (block_of, blocks, d_blocks) as in model.block_table,
  with the zero block in row 0; stage one filters on it alone. d_blocks
  must vanish wherever blocks does: the score reads d log K =
  d_blocks / blocks, and 0 where blocks is 0;
- describe(theta1, theta2), the labelled estimate for the report.
"""
from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bellman import BellmanSolver, QTable
from .engine import N_INCREMENTS, EngineFamily
from .errors import InvalidParams, NonFiniteObjective
from .grid import BeliefGrid
from .model import Belief, History
from .likelihood import (
    PRIOR_TERM,
    ChoicePoints,
    DatasetBlocks,
    FilteredDataset,
    LogLikelihood,
    filter_dataset,
    grad_q,
    observation_score,
    smoothness_constants,
    # Unused here; kept because the traced benchmark (bench/layers.py) wraps these names.
    log_likelihood,
    observation_loglik,
)

ARMIJO_SLOPE = 1e-4
STEP_FLOOR = 1e-18


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings shared by both stages.

    step_size None selects BHHH steps with Armijo backtracking from the
    unit step; a float runs plain fixed-step gradient ascent (with a warning
    when it exceeds the guaranteed stable range) and certifies stationarity.
    grad_norm_tol applies to the gradient norm divided by the total number
    of decisions. Both stages are deterministic.
    """

    grid_resolution: int = 101
    bellman_tol: float = 1e-9
    grad_q_tol: float = 1e-8
    grad_norm_tol: float = 1e-6
    step_size: float | None = None
    max_stage2_iters: int = 300
    stage1_max_iters: int = 300
    theta1_init: tuple | None = None
    theta2_init: tuple | None = None

    def __post_init__(self):
        # bool is a subclass of int, so True would pass for a number.
        for name, least in (("grid_resolution", 2), ("max_stage2_iters", 0), ("stage1_max_iters", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        for name in ("bellman_tol", "grad_q_tol", "grad_norm_tol", "step_size"):
            value = getattr(self, name)
            if name == "step_size" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not value > 0.0:
                raise ValueError(f"{name} must be positive")
        # np.asarray(..., dtype=float64) would read "0.2" as 0.2 and True as 1.0.
        for name in ("theta1_init", "theta2_init"):
            value = getattr(self, name)
            if value is not None and (
                np.ndim(value) != 1
                or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in value)
            ):
                raise ValueError(f"{name} must be a list of real numbers, got {value!r}")


@dataclass(eq=False)
class Stage1Result:
    theta2: np.ndarray
    obs_loglik: float
    trace: list
    converged: bool
    n_evals: int
    message: str


@dataclass(eq=False)
class Stage2Result:
    theta1: np.ndarray
    loglik_trace: list
    grad_norm_trace: list
    step_sizes: list
    converged: bool
    diagnostics: dict

    @property
    def pseudo_loglik(self) -> float:
        return self.loglik_trace[-1]

    @property
    def n_iters(self) -> int:
        return len(self.step_sizes)


@dataclass(eq=False)
class EstimateReport:
    theta1: np.ndarray
    theta2: np.ndarray
    labeled: dict
    loglik: LogLikelihood
    stage1: Stage1Result
    stage2: Stage2Result
    config: EstimatorConfig
    filtered: FilteredDataset    # the dataset's beliefs at theta2, stage two's input
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theta1": np.asarray(self.theta1).tolist(),
            "theta2": np.asarray(self.theta2).tolist(),
            "labeled": self.labeled,
            "loglik": self.loglik.to_dict(),
            "stage1": {
                "obs_loglik": self.stage1.obs_loglik,
                "trace": list(self.stage1.trace),
                "converged": self.stage1.converged,
                "n_evals": self.stage1.n_evals,
                "message": self.stage1.message,
            },
            "stage2": {
                "pseudo_loglik": self.stage2.pseudo_loglik,
                "loglik_trace": list(self.stage2.loglik_trace),
                "grad_norm_trace": list(self.stage2.grad_norm_trace),
                "step_sizes": list(self.stage2.step_sizes),
                "converged": self.stage2.converged,
                "n_iters": self.stage2.n_iters,
                "diagnostics": self.stage2.diagnostics,
            },
            "config": asdict(self.config),
            "diagnostics": self.diagnostics,
        }


def stage1_fit_theta2(
    data: DatasetBlocks, family, config: EstimatorConfig, burn_in: int = 0
) -> Stage1Result:
    """Maximize the observation term of a laid-out dataset over the dynamics parameters.

    Quasi-Newton (L-BFGS) on the unconstrained chart, started from
    config.theta2_init or the family default. Every trial point refilters
    the whole layout from its x0, in one forward-backward pass that returns
    the objective and its exact gradient (observation_score on the family's
    kernel_blocks, with no dense kernel). Vanished observation probabilities
    are floored inside the search so the objective stays finite; a floored
    step is a constant and adds nothing to the gradient. A value or gradient
    that is still not finite raises NonFiniteObjective rather than end the
    search as converged. burn_in drops the first steps of each history from
    the objective, for the initial-belief sweep. Nothing is filtered at the
    estimate: a caller that needs the beliefs runs filter_dataset there.
    """
    theta2_0 = (
        np.asarray(config.theta2_init, dtype=np.float64)
        if config.theta2_init is not None
        else family.default_theta2()
    )
    family.build_model(family.default_theta1(), theta2_0)   # refuses a start that is no kernel

    def negative_obs(u):
        value, score = observation_score(family.kernel_blocks(u), data, burn_in, penalize=True)
        if not (np.isfinite(value) and np.all(np.isfinite(score))):
            raise NonFiniteObjective(f"observation term {value!r} or its score not finite at u = {u}")
        return -value, -score

    trace: list[float] = []

    def record(intermediate_result):
        trace.append(-float(intermediate_result.fun))

    res = minimize(
        negative_obs,
        family.theta2_to_unconstrained(theta2_0),
        method="L-BFGS-B",
        jac=True,
        callback=record,
        options={"maxiter": config.stage1_max_iters},
    )
    return Stage1Result(
        theta2=family.theta2_from_unconstrained(res.x),
        obs_loglik=float(-res.fun),
        trace=trace,
        converged=bool(res.success),
        n_evals=int(res.nfev),
        message=str(res.message),
    )


def stage2_policy_gradient(
    family,
    theta2: np.ndarray,
    config: EstimatorConfig,
    filtered: FilteredDataset,
) -> Stage2Result:
    """Ascend the choice term in theta1 with beliefs frozen at theta2.

    filtered holds the dataset's beliefs filtered at theta2. By default each
    step is BHHH along (S'S)^+ S'1 for the per-decision scores S; a fixed
    step_size runs gradient ascent and certifies it. Each point is solved once.
    """
    theta1 = (
        np.asarray(config.theta1_init, dtype=np.float64)
        if config.theta1_init is not None
        else family.default_theta1()
    )
    model = family.build_model(theta1, theta2)
    grid = BeliefGrid.create(family.n_states, config.grid_resolution)
    solver = BellmanSolver(model, grid)
    points = ChoicePoints.from_filtered(grid, filtered)
    n_steps = max(points.n_steps, 1)

    # The reward is affine in theta1, so its gradient is a constant table
    # whose column p is r(e_p) - r(0), and its Hessian bound is zero.
    r_zero = family.reward_tensor(np.zeros_like(theta1))
    reward_grad = np.stack(
        [family.reward_tensor(e_p) - r_zero for e_p in np.eye(theta1.size)], axis=-1
    )
    lipschitz = smoothness_constants(
        float(np.max(np.abs(reward_grad))), 0.0, family.discount, points.n_steps
    ).grad_lipschitz
    fixed_step = config.step_size
    if fixed_step is not None and lipschitz > 0.0 and fixed_step >= 2.0 / lipschitz:
        warnings.warn(
            f"step size {fixed_step:.3e} is outside the guaranteed range "
            f"(< {2.0 / lipschitz:.3e}); ascent may diverge",
            stacklevel=2,
        )

    key = model.content_key()

    def pseudo(theta1_try, q_warm):
        rbar = solver.expected_rewards(family.reward_tensor(theta1_try))
        q, _, _ = solver.solve(rbar, tol=config.bellman_tol, q0=q_warm)
        return points.sum_log_pi(q), q

    ll_cur, q_cur = pseudo(theta1, None)
    loglik_trace: list[float] = [float(ll_cur)]    # every iterate, the start included
    grad_norm_trace: list[float] = []
    step_sizes: list[float] = []
    converged = False

    for k in range(config.max_stage2_iters):
        if not np.isfinite(ll_cur):
            raise NonFiniteObjective(f"pseudo-likelihood is {ll_cur!r} at iterate {k}")
        qtable = QTable(q_cur, grid, key)
        gq = grad_q(model, reward_grad, qtable, tol=config.grad_q_tol, solver=solver)
        _, scores = points.grad_sum_log_pi(q_cur, gq.values)
        grad = scores.sum(axis=0)
        gnorm = float(np.linalg.norm(grad))
        grad_norm_trace.append(gnorm)
        if gnorm / n_steps <= config.grad_norm_tol:
            converged = True
            break
        if fixed_step is not None:
            step, theta1 = fixed_step, theta1 + fixed_step * grad
            ll_cur, q_cur = pseudo(theta1, q_cur)
        else:
            # BHHH: S'S stands in for the negative Hessian; lstsq because
            # fewer decisions than parameters leave it singular.
            direction = np.linalg.lstsq(scores.T @ scores, grad, rcond=None)[0]
            step = 1.0
            while step * np.linalg.norm(direction) > STEP_FLOOR:
                trial = theta1 + step * direction
                ll_try, q_try = pseudo(trial, q_cur)
                if np.isfinite(ll_try) and ll_try >= ll_cur + ARMIJO_SLOPE * step * (grad @ direction):
                    theta1, ll_cur, q_cur = trial, ll_try, q_try
                    break
                step *= 0.5
            else:
                # No improving step exists at this scale; the gradient signal
                # is below the numerical floor.
                break
        step_sizes.append(step)
        loglik_trace.append(float(ll_cur))

    diagnostics: dict = {
        "grad_lipschitz": lipschitz,
        "mode": "fixed" if fixed_step is not None else "backtracking",
        "n_decisions": points.n_steps,
        "action_counts": np.bincount(points.actions, minlength=model.n_actions).tolist(),
    }
    n_updates = len(step_sizes)
    if fixed_step is not None and n_updates:
        denom = fixed_step * (1.0 - fixed_step * lipschitz / 2.0)
        if denom > 0:
            gain = max(loglik_trace) - loglik_trace[0]
            diagnostics["stationarity_bound"] = gain / (n_updates * denom)
            diagnostics["min_sq_grad_norm"] = min(g**2 for g in grad_norm_trace[:n_updates])
    return Stage2Result(
        theta1=theta1,
        loglik_trace=loglik_trace,
        grad_norm_trace=grad_norm_trace,
        step_sizes=step_sizes,
        converged=converged,
        diagnostics=diagnostics,
    )


def _fit_rewards(family, stage1: Stage1Result, filtered: FilteredDataset, config, start, **diagnostics):
    """Stage two at the stage-one dynamics, then the report.

    filtered is the dataset filtered at stage1.theta2 (the kernel depends on
    theta2 alone). The log likelihood is the stages' own: its observation
    term and the choice term stage two reached.
    """
    stage2 = stage2_policy_gradient(family, stage1.theta2, config, filtered)
    return EstimateReport(
        theta1=stage2.theta1,
        theta2=stage1.theta2,
        labeled=family.describe(stage2.theta1, stage1.theta2),
        loglik=LogLikelihood(filtered.obs_term, stage2.pseudo_loglik, PRIOR_TERM),
        stage1=stage1,
        stage2=stage2,
        config=config,
        filtered=filtered,
        diagnostics={"runtime_seconds": time.perf_counter() - start, **diagnostics},
    )


def _require_decisions(histories) -> None:
    if not any(h.horizon for h in histories):
        raise InvalidParams("the dataset holds no decisions to fit")


def estimate(histories, family, config: EstimatorConfig | None = None) -> EstimateReport:
    """Two-stage fit; deterministic for a given dataset and configuration."""
    _require_decisions(histories)
    if config is None:
        config = EstimatorConfig()
    start = time.perf_counter()
    data = DatasetBlocks.from_histories(histories, family)
    stage1 = stage1_fit_theta2(data, family, config)
    filtered = filter_dataset(family.build_model(family.default_theta1(), stage1.theta2), data)
    return _fit_rewards(family, stage1, filtered, config, start)


def empirical_increments(data: DatasetBlocks, n_bins: int) -> np.ndarray:
    """Empirical usage-increment frequencies over keep decisions.

    Steps whose start bin could censor the increment against the top of the
    range are excluded so the counts match the uncapped distribution.
    """
    z = data.obs[:, :-1]
    deltas = (data.obs[:, 1:] - z)[data.steps & (data.acts == 0) & (z <= n_bins - 1 - N_INCREMENTS)]
    if deltas.size and (deltas.min() < 0 or deltas.max() >= N_INCREMENTS):
        raise ValueError("usage decreased or jumped beyond the increment range")
    counts = np.bincount(deltas, minlength=N_INCREMENTS)
    total = counts.sum()
    if total == 0:
        return np.full(N_INCREMENTS, 1.0 / N_INCREMENTS)
    return counts / total


def fit_mdp_baseline(
    histories,
    config: EstimatorConfig | None = None,
    n_mileage_bins: int = 120,
    discount: float = 0.95,
) -> EstimateReport:
    """Fit the fully observed baseline, EngineFamily(n_conditions=1), on the same dataset.

    The increments are the closed-form frequency estimate (the observation
    term is separable), so config.theta2_init is refused; the reward
    parameters go through the same policy-gradient stage as the hidden-state model.
    """
    _require_decisions(histories)
    if config is None:
        config = EstimatorConfig()
    if config.theta2_init is not None:
        raise ValueError("theta2_init does not apply: the baseline's increments have a closed form")
    family = EngineFamily(n_mileage_bins, discount, n_conditions=1)
    start = time.perf_counter()
    # Histories carry two-state initial beliefs; the baseline ignores them.
    flat = [History(Belief(np.ones(1)), h.obs, h.acts) for h in histories]
    data = DatasetBlocks.from_histories(flat, family)
    theta2 = empirical_increments(data, n_mileage_bins)
    filtered = filter_dataset(family.build_model(family.default_theta1(), theta2), data)
    stage1 = Stage1Result(
        theta2=theta2,
        obs_loglik=filtered.obs_term,
        trace=[filtered.obs_term],
        converged=True,
        n_evals=1,
        message="closed form: empirical increment frequencies",
    )
    return _fit_rewards(family, stage1, filtered, config, start, baseline="fully observed")
