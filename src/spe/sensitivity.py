"""Robustness diagnostics: belief-filter contraction, initial-belief sweeps,
and a two-period distinguishability probe.

The projective-style metric D(x, x') = max{d(x, x'), d(x', x)} with
d(x, x') = 1 - min{x(s) / x'(s) : x'(s) > 0} makes every Bayes update a
contraction: one step shrinks D by at least the coefficient of ergodicity of
the conditional transition matrix, computed from the posteriors of the
simplex vertices. Repeated updates therefore forget the initial belief
geometrically, which the sweep checks empirically on real estimates.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ContractionUndefined, InvalidParams
from .estimator import EstimatorConfig, _require_decisions, stage1_fit_theta2
from .estimator import stage2_policy_gradient
# Unused here; kept because the traced benchmark (bench/layers.py) wraps this name.
from .likelihood import filter_dataset
from .model import Belief, History, PomdpModel, SIGMA_FLOOR, lambda_update
from .model import _belief_array, bayes_posterior, reachable_blocks


def _metric_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D along the trailing axis of two broadcastable stacks of beliefs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(b > 0.0, a / b, np.inf).min(axis=-1)
        r2 = np.where(a > 0.0, b / a, np.inf).min(axis=-1)
    return np.maximum(1.0 - r1, 1.0 - r2)


def belief_metric(x, x_other) -> float:
    """D(x, x') = max of the two one-sided ratio gaps; 0 iff equal supports and values."""
    return float(_metric_rows(_belief_array(x), _belief_array(x_other)))


def _vertex_contraction(blocks: np.ndarray):
    """Largest D between the live vertex posteriors of (..., s, s') kernel blocks.

    Returns (eta, defined). A vertex is live when its row mass reaches
    SIGMA_FLOOR; eta is 0 with one live vertex, and defined is False with none.
    """
    mass = blocks.sum(axis=-1)
    live = mass >= SIGMA_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        posteriors = blocks / mass[..., None]
    d = _metric_rows(posteriors[..., :, None, :], posteriors[..., None, :, :])
    pairs = live[..., :, None] & live[..., None, :]
    return np.where(pairs, d, 0.0).max(axis=(-2, -1)), live.any(axis=-1)


def contraction_coefficient(model: PomdpModel, z_next: int, z: int, a: int) -> float:
    """Ergodicity coefficient of the belief update for one (z', z, a).

    Maximum D-distance between posteriors of simplex vertices with positive
    observation probability. Raises ContractionUndefined when every vertex
    gives the observation probability zero.
    """
    eta, defined = _vertex_contraction(model.kernel[a, z, :, z_next, :])
    if not defined:
        raise ContractionUndefined(
            f"observation z'={z_next} unreachable from z={z} under action {a}"
        )
    return float(eta)


def eta_table(model: PomdpModel) -> np.ndarray:
    """Contraction coefficients for all (z', z, a); NaN where undefined."""
    z, a, z2 = reachable_blocks(model)
    out = np.full((model.n_obs, model.n_obs, model.n_actions), np.nan)
    out[z2, z, a] = _vertex_contraction(model.kernel[a, z, :, z2, :])[0]
    return out


@dataclass(eq=False)
class ContractionReport:
    """Monte Carlo certificate for the one-step (or folded) contraction bound."""

    eta: np.ndarray          # (z', z, a), NaN where undefined
    fold: int
    n_checked: int
    n_violations: int
    max_excess: float        # worst D_after - bound over all checks

    @property
    def eta_max(self) -> float:
        return float(np.nanmax(self.eta)) if np.any(np.isfinite(self.eta)) else 0.0

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def contraction_check(
    model: PomdpModel,
    fold: int = 1,
    n_pairs: int = 100,
    seed: int = 0,
    slack: float = 1e-10,
) -> ContractionReport:
    """Verify D(update(x1), update(x2)) <= eta * D(x1, x2) on random pairs.

    Random belief pairs are pushed through `fold` feasible update steps
    (actions and successor observations drawn uniformly among those with
    positive probability under both beliefs); after each step the posterior
    distance is checked against the per-transition coefficient, and the
    folded distance against the running product of coefficients, which is
    itself at most eta_max ** fold. The bound is on the output distance
    alone: the update is not Lipschitz in D, so eta * D(x1, x2) would be
    a different (and false) claim.
    """
    rng = np.random.default_rng(seed)
    etas = eta_table(model)
    marg = model.kernel.sum(axis=-1)                  # (a, z, s, z')
    n_checked = 0
    n_violations = 0
    max_excess = float("-inf")
    for _ in range(n_pairs):
        x1 = Belief(rng.dirichlet(np.ones(model.n_states)))
        x2 = Belief(rng.dirichlet(np.ones(model.n_states)))
        z = int(rng.integers(model.n_obs))
        d_last = belief_metric(x1, x2)
        eta_product = 1.0
        steps_done = 0
        for _ in range(fold):
            a = int(rng.integers(model.n_actions))
            row1 = x1.probs @ marg[a, z]
            row2 = x2.probs @ marg[a, z]
            feasible = np.flatnonzero((row1 >= SIGMA_FLOOR) & (row2 >= SIGMA_FLOOR))
            if feasible.size == 0:
                break
            z2 = int(feasible[int(rng.integers(feasible.size))])
            y1 = lambda_update(model, z2, z, x1, a)
            y2 = lambda_update(model, z2, z, x2, a)
            d_last = belief_metric(y1, y2)
            eta_product *= etas[z2, z, a]
            excess = d_last - etas[z2, z, a] - slack
            max_excess = max(max_excess, excess)
            n_checked += 1
            if excess > 0.0:
                n_violations += 1
            x1, x2, z = y1, y2, z2
            steps_done += 1
        if steps_done == fold and fold > 1:
            excess = d_last - eta_product - slack
            max_excess = max(max_excess, excess)
            n_checked += 1
            if excess > 0.0:
                n_violations += 1
    return ContractionReport(
        etas, fold, n_checked, n_violations, max_excess if n_checked else 0.0
    )


def contraction_certificate(
    model: PomdpModel,
    n_pairs: int = 10_000,
    seed: int = 0,
    slack: float = 1e-10,
) -> ContractionReport:
    """Dense one-step certificate over every defined (z', z, a).

    Checks D(update(x1), update(x2)) <= eta(z', z, a) + slack for n_pairs
    random belief pairs per transition, fully vectorized; one pair batch is
    drawn per (z, a) and shared across the successor observations. This is
    the coarse form of the contraction bound (D of inputs is at most 1), so
    it holds whenever the per-pair bound does.
    """
    rng = np.random.default_rng(seed)
    etas = eta_table(model)
    n_checked = 0
    n_violations = 0
    max_excess = float("-inf")
    for a in range(model.n_actions):
        for z in range(model.n_obs):
            pairs = rng.dirichlet(np.ones(model.n_states), size=(2, n_pairs))
            for z2 in np.flatnonzero(np.isfinite(etas[:, z, a])):
                (y1, y2), _, live = bayes_posterior(pairs @ model.kernel[a, z, :, z2, :])
                live = live.all(axis=0)
                if not np.any(live):
                    continue
                excess = _metric_rows(y1[live], y2[live]) - etas[z2, z, a] - slack
                n_checked += int(excess.size)
                n_violations += int(np.count_nonzero(excess > 0.0))
                max_excess = max(max_excess, float(excess.max()))
    return ContractionReport(
        etas, 1, n_checked, n_violations, max_excess if n_checked else 0.0
    )


@dataclass(eq=False)
class X0SweepResult:
    """Dispersion of dynamics estimates across assumed initial beliefs."""

    m_values: list
    spreads: list
    candidates: np.ndarray
    theta2_by_m: dict
    theta1_by_m: dict | None
    theta1_spreads: list | None

    def to_csv(self) -> str:
        lines = ["M,spread"]
        for m, s in zip(self.m_values, self.spreads):
            lines.append(f"{m},{s:.10g}")
        return "\n".join(lines) + "\n"


def _diameter(vectors: np.ndarray) -> float:
    diffs = vectors[:, None, :] - vectors[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def x0_sweep_estimate(
    histories,
    family,
    config: EstimatorConfig | None = None,
    m_values=(1, 2, 4, 8, 16),
    candidates: np.ndarray | None = None,
    refit_rewards: bool = False,
) -> X0SweepResult:
    """Refit the dynamics under a grid of assumed initial beliefs.

    Each candidate belief replaces the initial belief of every history, and
    stage one is fitted on those histories with the first M steps dropped
    from the objective; the spread is the 2-norm diameter of the dynamics
    estimates for one burn-in M. Each fit starts from the previous estimate.
    With refit_rewards the reward stage is rerun per candidate on the
    post-burn-in tails of the stage-one belief paths, and the reward spread
    is recorded too.
    """
    _require_decisions(histories)
    if config is None:
        config = EstimatorConfig()
    if candidates is None:
        if family.n_states != 2:
            raise InvalidParams("default candidate grid only covers two hidden states")
        p = np.linspace(0.0, 1.0, 11)
        candidates = np.stack([p, 1.0 - p], axis=1)
    else:
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if candidates.ndim != 2 or candidates.shape[0] < 1 or candidates.shape[1] != family.n_states:
        raise InvalidParams(
            f"need at least one candidate belief over {family.n_states} hidden states, "
            f"got shape {candidates.shape}"
        )
    m_values = [int(m) for m in m_values]
    if any(m < 1 for m in m_values):
        raise InvalidParams("burn-in values must be at least 1")
    min_horizon = min(h.horizon for h in histories)
    if any(m >= min_horizon for m in m_values):
        raise InvalidParams(
            f"burn-in must be shorter than the shortest horizon {min_horizon}"
        )
    rebased = [
        [History(Belief(c), h.obs, h.acts) for h in histories] for c in candidates
    ]

    spreads = []
    theta2_by_m: dict[int, np.ndarray] = {}
    theta1_by_m: dict[int, np.ndarray] = {}
    theta1_spreads: list[float] = []
    fit_config = config
    for m in m_values:
        vecs = []
        theta1_vecs = []
        for fit_histories in rebased:
            res = stage1_fit_theta2(fit_histories, family, fit_config, burn_in=m)
            fit_config = dataclasses.replace(config, theta2_init=tuple(res.theta2))
            vecs.append(np.asarray(res.theta2, dtype=np.float64).ravel())
            if refit_rewards:
                theta1_vecs.append(_refit_rewards_tail(fit_histories, family, res, m, config))
        vecs = np.stack(vecs)
        theta2_by_m[m] = vecs
        spreads.append(_diameter(vecs))
        if refit_rewards:
            stacked = np.stack(theta1_vecs)
            theta1_by_m[m] = stacked
            theta1_spreads.append(_diameter(stacked))
    return X0SweepResult(
        m_values=list(m_values),
        spreads=spreads,
        candidates=candidates,
        theta2_by_m=theta2_by_m,
        theta1_by_m=theta1_by_m if refit_rewards else None,
        theta1_spreads=theta1_spreads if refit_rewards else None,
    )


def _refit_rewards_tail(histories, family, stage1, burn_in, config):
    """Reward stage on the history tails, from the stage-one beliefs at burn_in."""
    tails = [
        History(Belief(f.beliefs[burn_in]), h.obs[burn_in:], h.acts[burn_in:])
        for h, f in zip(histories, stage1.filtered)
    ]
    res = stage2_policy_gradient(tails, family, stage1.theta2, config)
    return np.asarray(res.theta1, dtype=np.float64)


@dataclass(frozen=True)
class IdentificationProbe:
    """Outcome of the two-period distinguishability scan."""

    distinguishable: bool
    period: int | None
    witness: tuple | None
    rank1_pair: bool


def _is_rank1(model: PomdpModel, tol: float) -> bool:
    """True when every (a, z) block of observation rows is rank one."""
    s_vals = np.linalg.svd(model.kernel.sum(axis=-1), compute_uv=False)   # (a, z, k), descending
    return bool(np.all(s_vals[..., 1:] <= tol * np.maximum(s_vals[..., :1], 1.0)))


def two_period_identification_probe(
    model_a: PomdpModel,
    model_b: PomdpModel,
    x0,
    tol: float = 1e-9,
) -> IdentificationProbe:
    """Search two periods of observable predictions for a difference.

    Scans first-period observation probabilities in lexicographic order of
    (z0, a0, z1); if they all agree, follows each feasible transition with a
    Bayes update and scans the second period over (a1, z2). Two dynamics that
    agree on both periods from x0 are reported indistinguishable; when both
    kernels are rank one in every block the pair is flagged, since posterior
    movement (which the two-period argument relies on) is absent.
    """
    if (model_a.n_obs, model_a.n_states, model_a.n_actions) != (
        model_b.n_obs,
        model_b.n_states,
        model_b.n_actions,
    ):
        raise InvalidParams("models must share observation, state, and action spaces")
    xs = _belief_array(x0)
    marg_a = model_a.kernel.sum(axis=-1)
    marg_b = model_b.kernel.sum(axis=-1)
    # First-period posteriors and observation probabilities, (z0, a0, z1, s').
    post_a, sig0_a, live_a = bayes_posterior(np.einsum("s,azswt->zawt", xs, model_a.kernel))
    post_b, sig0_b, live_b = bayes_posterior(np.einsum("s,azswt->zawt", xs, model_b.kernel))
    diff0 = np.abs(sig0_a - sig0_b) > tol
    rank1_pair = _is_rank1(model_a, tol) and _is_rank1(model_b, tol)
    if np.any(diff0):
        z0, a0, z1 = map(int, np.argwhere(diff0)[0])
        return IdentificationProbe(True, 1, (z0, a0, z1), rank1_pair)

    # First-period predictions agree; posteriors may still differ.
    valid = live_a & live_b
    best: tuple | None = None
    for a1 in range(model_a.n_actions):
        sig1_a = np.einsum("zaws,wsv->zawv", post_a, marg_a[a1])
        sig1_b = np.einsum("zaws,wsv->zawv", post_b, marg_b[a1])
        mask = (np.abs(sig1_a - sig1_b) > tol) & valid[..., None]
        if np.any(mask):
            z0, a0, z1, z2 = map(int, np.argwhere(mask)[0])
            cand = (z0, a0, z1, a1, z2)
            if best is None or cand < best:
                best = cand
    if best is not None:
        return IdentificationProbe(True, 2, best, rank1_pair)
    return IdentificationProbe(False, None, None, rank1_pair)
