"""Robustness diagnostics: belief-filter contraction, initial-belief sweeps,
and a two-period distinguishability probe.

The projective-style metric D(x, x') = max{d(x, x'), d(x', x)} with
d(x, x') = 1 - min{x(s) / x'(s) : x'(s) > 0} bounds one Bayes update: every
posterior of a transition is a mixture of its live vertex posteriors, so any
two posteriors lie within the largest D between those vertex posteriors, the
transition's coefficient of ergodicity. The bound is on the output distance
alone. D can grow in one update, so the bound neither scales with the input
distance nor multiplies along a path; how fast estimates forget the initial
belief is what the prior sweep measures. The sweep lays its dataset out once;
an assumed prior is that layout with the candidate as every history's x0.
Its fits are chained, each started at the previous estimate, and after the
first they run in coordinates whitened by the first fit's observed
information, so each starts with the curvature it would otherwise relearn.
"""
from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractionUndefined, InvalidParams
from .estimator import EstimatorConfig, _require_decisions, _whitener, stage1_fit_theta2
from .estimator import stage1_information, stage2_policy_gradient
from .likelihood import DatasetBlocks, filter_dataset
from .model import Belief, PomdpModel, SIGMA_FLOOR
from .model import _belief_array, bayes_posterior, block_table


def _metric_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """D along the trailing axis of two broadcastable stacks of beliefs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(b > 0.0, a / b, np.inf).min(axis=-1)
        r2 = np.where(a > 0.0, b / a, np.inf).min(axis=-1)
    return np.maximum(1.0 - r1, 1.0 - r2)


def belief_metric(x, x_other) -> float:
    """D(x, x') = max of the two one-sided ratio gaps; 0 iff equal supports and values."""
    return float(_metric_rows(_belief_array(x), _belief_array(x_other)))


def _vertex_contraction(blocks: np.ndarray) -> np.ndarray:
    """Largest D between the live vertex posteriors of (..., s, s') kernel blocks.

    A vertex is live when its row mass reaches SIGMA_FLOOR; the result is 0
    with at most one live vertex.
    """
    mass = blocks.sum(axis=-1)
    live = mass >= SIGMA_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        posteriors = blocks / mass[..., None]
    d = _metric_rows(posteriors[..., :, None, :], posteriors[..., None, :, :])
    pairs = live[..., :, None] & live[..., None, :]
    return np.where(pairs, d, 0.0).max(axis=(-2, -1))


def contraction_coefficient(model: PomdpModel, z_next: int, z: int, a: int) -> float:
    """Ergodicity coefficient of the belief update for one (z', z, a).

    Maximum D-distance between posteriors of simplex vertices with positive
    observation probability. Raises ContractionUndefined when every vertex
    gives the observation probability zero.
    """
    eta = eta_table(model)[z_next, z, a]
    if np.isnan(eta):
        raise ContractionUndefined(
            f"observation z'={z_next} unreachable from z={z} under action {a}"
        )
    return float(eta)


def eta_table(model: PomdpModel) -> np.ndarray:
    """Contraction coefficients for all (z', z, a); NaN where undefined."""
    block_of, blocks = block_table(model.kernel)
    eta = np.where(block_of > 0, _vertex_contraction(blocks)[block_of], np.nan)
    return np.ascontiguousarray(eta.transpose(2, 1, 0))


@dataclass(eq=False)
class ContractionReport:
    """Monte Carlo certificate for the one-step contraction bound."""

    eta: np.ndarray          # (z', z, a), NaN where undefined
    n_checked: int
    n_violations: int
    max_excess: float        # worst D_after - bound over all checks

    @property
    def eta_max(self) -> float:
        return float(np.nanmax(self.eta)) if np.any(np.isfinite(self.eta)) else 0.0

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def contraction_certificate(
    model: PomdpModel,
    n_pairs: int = 10_000,
    seed: int = 0,
    slack: float = 1e-10,
) -> ContractionReport:
    """Dense one-step certificate over every defined (z', z, a).

    Checks D(update(x1), update(x2)) <= eta(z', z, a) + slack for n_pairs
    random belief pairs per transition, fully vectorized; one pair batch is
    drawn per (z, a) and shared across the successor observations. The bound
    holds for every input pair, whatever their distance.
    """
    rng = np.random.default_rng(seed)
    etas = eta_table(model)
    block_of, blocks = block_table(model.kernel)
    n_checked = 0
    n_violations = 0
    max_excess = float("-inf")
    for a in range(model.n_actions):
        for z in range(model.n_obs):
            pairs = rng.dirichlet(np.ones(model.n_states), size=(2, n_pairs))
            for z2 in np.flatnonzero(block_of[a, z]):
                (y1, y2), _, live = (v.T for v in bayes_posterior((pairs @ blocks[block_of[a, z, z2]]).T))
                live = live.all(axis=0)
                if not np.any(live):
                    continue
                excess = _metric_rows(y1[live], y2[live]) - etas[z2, z, a] - slack
                n_checked += int(excess.size)
                n_violations += int(np.count_nonzero(excess > 0.0))
                max_excess = max(max_excess, float(excess.max()))
    return ContractionReport(
        etas, n_checked, n_violations, max_excess if n_checked else 0.0
    )


@dataclass(eq=False)
class X0SweepResult:
    """Dispersion of dynamics estimates across assumed initial beliefs."""

    m_values: list
    spreads: list
    candidates: np.ndarray
    theta2_by_m: dict
    converged_by_m: dict     # M -> one bool per candidate: did stage one converge
    scaled: bool             # did the fits after the first run whitened by its information
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

    The histories are laid out once. Each fit copies that layout with its
    candidate belief as x0, the initial belief of every history, when it
    starts, so one candidate's layout and step index are held at a time. Stage
    one is fitted on it with the first M steps dropped from the objective; the
    spread is the 2-norm diameter of the dynamics estimates for one burn-in M,
    and the burn-ins must be distinct. Each fit starts from the previous
    estimate, and whether each converged is recorded. The first fit's observed
    information (stage1_information, 2 n_u passes) is measured once; when it
    is positive definite every later fit, over all candidates and burn-ins,
    runs L-BFGS whitened by it (stage1_fit_theta2's information) and scaled is
    set, so a chained fit no longer relearns the curvature it had one fit
    earlier. With refit_rewards the layout is filtered at each estimate, and
    the reward stage is rerun on it cut at the burn-in (FilteredDataset.tail);
    the reward spread is recorded too.
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
    # bool is a subclass of int, and int() reads 1.5 and True as 1.
    if any(isinstance(m, bool) or not isinstance(m, numbers.Integral) for m in m_values):
        raise InvalidParams(f"burn-in values must be integers, got {list(m_values)!r}")
    m_values = [int(m) for m in m_values]
    if any(m < 1 for m in m_values) or len(set(m_values)) < len(m_values):
        raise InvalidParams(f"burn-in values must be distinct and at least 1, got {m_values}")
    data = DatasetBlocks.from_histories(histories, family)
    if any(m >= data.horizons.min() for m in m_values):
        raise InvalidParams(
            f"burn-in must be shorter than the shortest horizon {data.horizons.min()}"
        )
    x0s = [np.tile(Belief(c).probs, (len(histories), 1)) for c in candidates]

    spreads = []
    theta2_by_m: dict[int, np.ndarray] = {}
    converged_by_m: dict[int, list] = {}
    theta1_by_m: dict[int, np.ndarray] = {}
    theta1_spreads: list[float] = []
    # the first fit's information is measured once, and only if a fit follows it
    fit_config, information, measure = config, None, len(m_values) * len(x0s) > 1
    for m in m_values:
        vecs = []
        converged_by_m[m] = []
        theta1_vecs = []
        for x0 in x0s:
            prior = dataclasses.replace(data, x0=x0)
            res = stage1_fit_theta2(prior, family, fit_config, burn_in=m, information=information)
            if measure:
                measure, information = False, stage1_information(prior, family, res.theta2, burn_in=m)
                if _whitener(information) is None:
                    information = None
            fit_config = dataclasses.replace(config, theta2_init=tuple(res.theta2))
            vecs.append(np.asarray(res.theta2, dtype=np.float64).ravel())
            converged_by_m[m].append(res.converged)
            if refit_rewards:
                filtered = filter_dataset(family.build_model(family.default_theta1(), res.theta2), prior)
                theta1_vecs.append(stage2_policy_gradient(family, res.theta2, config, filtered.tail(m)).theta1)
                del filtered    # it holds this candidate's layout, which the next fit no longer needs
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
        converged_by_m=converged_by_m,
        scaled=information is not None,
        theta1_by_m=theta1_by_m if refit_rewards else None,
        theta1_spreads=theta1_spreads if refit_rewards else None,
    )


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
    movement (which the two-period argument relies on) is absent. x0 must be
    a belief over the models' hidden states; tol = 0 compares exactly.
    """
    if (model_a.n_obs, model_a.n_states, model_a.n_actions) != (
        model_b.n_obs,
        model_b.n_states,
        model_b.n_actions,
    ):
        raise InvalidParams("models must share observation, state, and action spaces")
    if not tol >= 0.0:
        raise InvalidParams(f"tol must be zero or positive, got {tol!r}")
    xs = Belief(_belief_array(x0)).probs
    if xs.size != model_a.n_states:
        raise InvalidParams(f"x0 has {xs.size} entries for {model_a.n_states} hidden states")
    marg_a = model_a.kernel.sum(axis=-1)
    marg_b = model_b.kernel.sum(axis=-1)
    # First-period posteriors and observation probabilities, (z0, a0, z1, s').
    post_a, sig0_a, live_a = (v.T for v in bayes_posterior(np.einsum("s,azswt->zawt", xs, model_a.kernel).T))
    post_b, sig0_b, live_b = (v.T for v in bayes_posterior(np.einsum("s,azswt->zawt", xs, model_b.kernel).T))
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
