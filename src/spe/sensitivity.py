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

from dataclasses import dataclass

import numpy as np

from .errors import ContractionUndefined, InvalidParams
from .estimator import EstimatorConfig, stage1_fit_theta2, stage2_policy_gradient
from .likelihood import filter_dataset
from .model import Belief, History, PomdpModel, SIGMA_FLOOR, lambda_update
from .model import bayes_posterior, reachable_blocks


def belief_metric(x, x_other) -> float:
    """D(x, x') = max of the two one-sided ratio gaps; 0 iff equal supports and values."""
    a = x.probs if hasattr(x, "probs") else np.asarray(x, dtype=np.float64)
    b = x_other.probs if hasattr(x_other, "probs") else np.asarray(x_other, dtype=np.float64)
    return max(_one_sided(a, b), _one_sided(b, a))


def _one_sided(a: np.ndarray, b: np.ndarray) -> float:
    support = b > 0.0
    return 1.0 - float(np.min(a[support] / b[support]))


def _pairwise_metric(posteriors: np.ndarray) -> float:
    """Max D over all row pairs of a (k, n_states) posterior stack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.where(posteriors > 0.0, posteriors, np.nan)
        ratios = posteriors[:, None, :] / denom[None, :, :]
        d = 1.0 - np.nanmin(ratios, axis=2)
    return float(np.max(np.maximum(d, d.T)))


def contraction_coefficient(model: PomdpModel, z_next: int, z: int, a: int) -> float:
    """Ergodicity coefficient of the belief update for one (z', z, a).

    Maximum D-distance between posteriors of simplex vertices with positive
    observation probability. Raises ContractionUndefined when every vertex
    gives the observation probability zero.
    """
    block = model.kernel[a, z, :, z_next, :]          # (s, s')
    mass = block.sum(axis=1)
    live = mass >= SIGMA_FLOOR
    if not np.any(live):
        raise ContractionUndefined(
            f"observation z'={z_next} unreachable from z={z} under action {a}"
        )
    posteriors = block[live] / mass[live][:, None]
    if posteriors.shape[0] == 1:
        return 0.0
    return _pairwise_metric(posteriors)


def eta_table(model: PomdpModel) -> np.ndarray:
    """Contraction coefficients for all (z', z, a); NaN where undefined."""
    out = np.full((model.n_obs, model.n_obs, model.n_actions), np.nan)
    for z, a, z2 in zip(*reachable_blocks(model)):
        out[z2, z, a] = contraction_coefficient(model, z2, z, a)
    return out


@dataclass(eq=False)
class ContractionReport:
    """Monte Carlo certificate for the one-step (or folded) contraction bound."""

    eta: np.ndarray          # (z', z, a), NaN where undefined
    eta_max: float
    fold: int
    n_checked: int
    n_violations: int
    max_excess: float        # worst D_after - bound over all checks
    passed: bool


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
    eta_max = float(np.nanmax(etas)) if np.any(np.isfinite(etas)) else 0.0
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
        eta=etas,
        eta_max=eta_max,
        fold=fold,
        n_checked=n_checked,
        n_violations=n_violations,
        max_excess=max_excess if n_checked else 0.0,
        passed=n_violations == 0,
    )


def _metric_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise D for two aligned stacks of beliefs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(b > 0.0, a / b, np.inf).min(axis=1)
        r2 = np.where(a > 0.0, b / a, np.inf).min(axis=1)
    return np.maximum(1.0 - r1, 1.0 - r2)


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
        eta=etas,
        eta_max=float(np.nanmax(etas)) if np.any(np.isfinite(etas)) else 0.0,
        fold=1,
        n_checked=n_checked,
        n_violations=n_violations,
        max_excess=max_excess if n_checked else 0.0,
        passed=n_violations == 0,
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

    For each burn-in M the observation objective drops the first M steps and
    every history starts from the candidate belief; the spread is the 2-norm
    diameter of the resulting dynamics estimates. Consecutive fits warm-start
    each other. With refit_rewards the reward stage is rerun per candidate on
    the post-burn-in tails and the reward spread is recorded too.
    """
    if config is None:
        config = EstimatorConfig()
    if candidates is None:
        if family.n_states != 2:
            raise InvalidParams("default candidate grid only covers two hidden states")
        p = np.linspace(0.0, 1.0, 11)
        candidates = np.stack([p, 1.0 - p], axis=1)
    else:
        candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    m_values = [int(m) for m in m_values]
    if any(m < 1 for m in m_values):
        raise InvalidParams("burn-in values must be at least 1")
    min_horizon = min(h.horizon for h in histories)
    if any(m >= min_horizon for m in m_values):
        raise InvalidParams(
            f"burn-in must be shorter than the shortest horizon {min_horizon}"
        )

    spreads = []
    theta2_by_m: dict[int, np.ndarray] = {}
    theta1_by_m: dict[int, np.ndarray] = {}
    theta1_spreads: list[float] = []
    last_u = None
    for m in m_values:
        vecs = []
        theta1_vecs = []
        for cand in candidates:
            res = stage1_fit_theta2(
                histories,
                family,
                config,
                burn_in=m,
                x0_override=cand,
                u0=last_u,
                with_filtered=False,
            )
            last_u = res.unconstrained
            vecs.append(np.asarray(res.theta2, dtype=np.float64).ravel())
            if refit_rewards:
                theta1_vecs.append(
                    _refit_rewards_tail(histories, family, res.theta2, cand, m, config)
                )
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


def _refit_rewards_tail(histories, family, theta2, candidate, burn_in, config):
    """Reward stage on history tails, beliefs filtered from the candidate."""
    model = family.build_model(family.default_theta1(), theta2)
    replaced = [History(Belief(candidate), h.obs, h.acts) for h in histories]
    filtered = filter_dataset(model, replaced)
    tails = [
        History(Belief(f.beliefs[burn_in]), h.obs[burn_in:], h.acts[burn_in:])
        for h, f in zip(replaced, filtered)
    ]
    res = stage2_policy_gradient(tails, family, theta2, config)
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
    marg = model.kernel.sum(axis=-1)                  # (a, z, s, z')
    for a in range(model.n_actions):
        for z in range(model.n_obs):
            block = marg[a, z]                        # (s, z')
            s_vals = np.linalg.svd(block, compute_uv=False)
            if s_vals.size > 1 and s_vals[1] > tol * max(s_vals[0], 1.0):
                return False
    return True


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
    xs = x0.probs if hasattr(x0, "probs") else np.asarray(x0, dtype=np.float64)
    marg_a = model_a.kernel.sum(axis=-1)
    marg_b = model_b.kernel.sum(axis=-1)
    sig0_a = np.einsum("s,azsw->zaw", xs, marg_a)     # (z0, a0, z1)
    sig0_b = np.einsum("s,azsw->zaw", xs, marg_b)
    diff0 = np.abs(sig0_a - sig0_b) > tol
    rank1_pair = _is_rank1(model_a, tol) and _is_rank1(model_b, tol)
    if np.any(diff0):
        z0, a0, z1 = map(int, np.argwhere(diff0)[0])
        return IdentificationProbe(True, 1, (z0, a0, z1), rank1_pair)

    # First-period predictions agree; posteriors may still differ.
    numer_a = np.einsum("s,azswt->zawt", xs, model_a.kernel)   # (z0, a0, z1, s')
    numer_b = np.einsum("s,azswt->zawt", xs, model_b.kernel)
    valid = (sig0_a >= SIGMA_FLOOR) & (sig0_b >= SIGMA_FLOOR)
    safe_a = np.where(valid[..., None], numer_a / np.maximum(sig0_a, SIGMA_FLOOR)[..., None], 0.0)
    safe_b = np.where(valid[..., None], numer_b / np.maximum(sig0_b, SIGMA_FLOOR)[..., None], 0.0)
    best: tuple | None = None
    for a1 in range(model_a.n_actions):
        sig1_a = np.einsum("zaws,wsv->zawv", safe_a, marg_a[a1])
        sig1_b = np.einsum("zaws,wsv->zawv", safe_b, marg_b[a1])
        mask = (np.abs(sig1_a - sig1_b) > tol) & valid[..., None]
        if np.any(mask):
            z0, a0, z1, z2 = map(int, np.argwhere(mask)[0])
            cand = (z0, a0, z1, a1, z2)
            if best is None or cand < best:
                best = cand
    if best is not None:
        return IdentificationProbe(True, 2, best, rank1_pair)
    return IdentificationProbe(False, None, None, rank1_pair)
