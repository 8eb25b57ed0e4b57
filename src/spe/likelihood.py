"""Likelihood of observed histories and its gradient in the reward parameters.

The log likelihood of one history splits into an observation term
sum_t log sigma_t, a choice term sum_t log pi(a_t | z_t, x_t), and a prior
term for the initial belief. Beliefs x_t are produced by the Bayes filter, so
the whole likelihood is a function of the model parameters only.

For estimation the beliefs are frozen at the dynamics estimate and only the
choice term varies with the reward parameters; its gradient uses the score
identity grad log pi(a) = g(a) - sum_a' pi(a') g(a') where g = grad Q solves a
linear fixed point in the system that each Newton step of the Bellman solve
factors, solved directly by one sparse LU. grad Q is a QTable with a trailing
parameter axis, read like Q through the grid.locate places of ChoicePoints.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bellman import BellmanSolver, QTable, _logsumexp_actions, _softmax_actions
from .bellman import solve as bellman_solve
from .errors import InvalidParams, MaxIterExceeded, ZeroObservationProbability
from .grid import BeliefGrid, read
from .model import History, PomdpModel, bayes_posterior, block_table

PRIOR_TERM = 0.0  # initial beliefs are treated as data, not parameters


@dataclass(frozen=True, eq=False)
class FilteredPath:
    """Filtered beliefs x_0..x_{T-1} and step observation probabilities.

    A zero-length history keeps a single row holding the initial belief.
    model_key records which dynamics produced the path.
    """

    beliefs: np.ndarray      # (max(T, 1), n_states)
    sigmas: np.ndarray       # (T,)
    model_key: str


@dataclass(eq=False)
class DatasetBlocks:
    """Histories grouped by horizon for vectorized filtering.

    Each block is (original indices, obs (b, T+1), acts (b, T), x0 (b, s)).
    Likelihood terms are summed block by block in ascending horizon, dataset
    order within a block; for equal-length histories this is dataset order.
    """

    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    n_histories: int

    @classmethod
    def from_histories(cls, histories: list[History], model) -> "DatasetBlocks":
        """Only n_obs, n_actions and n_states are read: model may be a family."""
        by_t: dict[int, list[int]] = {}
        for i, h in enumerate(histories):
            h.validate_against(model)
            if h.x0.probs.size != model.n_states:
                raise InvalidParams(
                    f"history {i}: initial belief has {h.x0.probs.size} states, model has {model.n_states}"
                )
            by_t.setdefault(h.horizon, []).append(i)
        blocks = []
        for t in sorted(by_t):
            idx = np.asarray(by_t[t], dtype=np.int64)
            obs = np.stack([histories[i].obs for i in idx])
            acts = (
                np.stack([histories[i].acts for i in idx])
                if t > 0
                else np.zeros((idx.size, 0), dtype=np.int64)
            )
            x0 = np.stack([histories[i].x0.probs for i in idx])
            blocks.append((idx, obs, acts, x0))
        return cls(blocks, len(histories))

    @property
    def total_steps(self) -> int:
        return sum(acts.shape[0] * acts.shape[1] for _, _, acts, _ in self.blocks)


def _scan_block(
    kernel_blocks,
    idx: np.ndarray,
    obs: np.ndarray,
    acts: np.ndarray,
    x0: np.ndarray,
    burn_in: int,
    penalize: bool,
    store: bool,
):
    """Filter one block. Returns (obs_loglik, beliefs, sigmas, score).

    kernel_blocks = (block_of, blocks, d_blocks): a block table as in
    model.block_table, and d_blocks of the same row its derivative in
    parameters u, or None; each step reads both through one row per history.
    beliefs and sigmas are None unless store is set. With penalize=True a
    vanished observation contributes log(SIGMA_FLOOR) and filtering continues
    from a uniform belief; otherwise it raises.

    d_blocks makes the scan carry dx_t/du beside the belief and return the
    score d obs_loglik/du (the recursive score of the filter); else the score
    is None. With numer = x T and sigma = sum numer: d numer = dx T + x dT,
    d sigma = sum d numer, dx' = (d numer - x' d sigma) / sigma and
    d log sigma = d sigma / sigma. A floored step is a constant and restarts
    from a constant belief, so it adds 0 to the score and resets dx. Initial
    beliefs do not depend on u.
    """
    block_of, blocks, d_blocks = kernel_blocks
    b, horizon = acts.shape
    n_s = x0.shape[1]
    x = x0.copy()
    beliefs = np.empty((b, max(horizon, 1), n_s)) if store else None
    sigmas = np.empty((b, horizon)) if store else None
    if store:
        beliefs[:, 0, :] = x
    step_blocks = block_of[acts, obs[:, :-1], obs[:, 1:]]           # (b, T)
    score = None
    if d_blocks is not None:
        # The tangent keeps histories on its last axis, (s, n_u, b), so each
        # operation runs along the batch and not along the short state axes.
        d_rows = np.ascontiguousarray(np.moveaxis(d_blocks, 0, -1))  # (s, s', n_u, rows)
        score = np.zeros(d_blocks.shape[-1])
        dx = np.zeros((n_s, score.size, b))
    total = 0.0
    for t in range(horizon):
        trans = blocks[step_blocks[:, t]]                            # (b, s, s')
        numer = np.einsum("bs,bst->bt", x, trans)
        if score is not None:
            d_trans = np.take(d_rows, step_blocks[:, t], axis=-1)   # (s, s', n_u, b)
            d_numer = np.einsum(
                "jub,jkb->kub", dx, np.ascontiguousarray(trans.transpose(1, 2, 0))
            ) + np.einsum("jb,jkub->kub", np.ascontiguousarray(x.T), d_trans)
        x, sig, live = bayes_posterior(numer)
        if not penalize and not np.all(live):
            bad = int(np.flatnonzero(~live)[0])
            raise ZeroObservationProbability(
                f"history {int(idx[bad])}: observation z={int(obs[bad, t + 1])} has "
                f"probability 0 at step {t}",
                step=t,
            )
        if t >= burn_in:
            total += float(np.log(sig).sum())
        if score is not None:
            if not np.all(live):
                d_numer[:, :, ~live] = 0.0
            d_sig = d_numer.sum(axis=0)                               # (n_u, b)
            inv_sig = 1.0 / sig
            dx = (d_numer - x.T[:, None, :] * d_sig) * inv_sig
            if t >= burn_in:
                score += d_sig @ inv_sig
        if store:
            sigmas[:, t] = sig
            if t + 1 < horizon:
                beliefs[:, t + 1, :] = x
    return total, beliefs, sigmas, score


def filter_dataset(model: PomdpModel, histories: list[History]) -> list[FilteredPath]:
    """Run the Bayes filter over every history. Raises on impossible data."""
    blocks = DatasetBlocks.from_histories(histories, model)
    out: list[FilteredPath | None] = [None] * len(histories)
    key = model.content_key()
    kernel_blocks = block_table(model.kernel) + (None,)
    for idx, obs, acts, x0 in blocks.blocks:
        _, beliefs, sigmas, _ = _scan_block(
            kernel_blocks, idx, obs, acts, x0, burn_in=0, penalize=False, store=True
        )
        for j, i in enumerate(idx):
            out[int(i)] = FilteredPath(beliefs[j].copy(), sigmas[j].copy(), key)
    return out


def filtered_obs_term(filtered: list[FilteredPath]) -> float:
    """Observation term sum_t log sigma_t of filtered paths, summed path by path."""
    return float(sum(np.log(f.sigmas).sum() for f in filtered))


def observation_loglik(
    kernel: np.ndarray,
    blocks: DatasetBlocks,
    burn_in: int = 0,
    penalize: bool = False,
    x0_override: np.ndarray | None = None,
) -> float:
    """sum_t log sigma_t over the dataset, optionally skipping a burn-in prefix.

    x0_override replaces every initial belief; the benchmark scores the prior
    sweep's fits with it (bench/workloads.py).
    """
    return observation_score(block_table(kernel) + (None,), blocks, burn_in, penalize, x0_override)[0]


def observation_score(
    kernel_blocks,
    blocks: DatasetBlocks,
    burn_in: int = 0,
    penalize: bool = False,
    x0_override: np.ndarray | None = None,
):
    """observation_loglik and its exact gradient, from one filter pass.

    kernel_blocks = (block_of, blocks, d_blocks) is the kernel and its
    derivative in the parameters u as one block table, as a family's
    kernel_blocks returns it. Returns (value, score) with score of shape
    (n_u,), or None when d_blocks is None.
    """
    total = 0.0
    score = None if kernel_blocks[2] is None else np.zeros(kernel_blocks[2].shape[-1])
    for idx, obs, acts, x0 in blocks.blocks:
        if burn_in > 0 and burn_in >= acts.shape[1]:
            raise InvalidParams(
                f"burn-in {burn_in} must be shorter than the horizon {acts.shape[1]}"
            )
        if x0_override is not None:
            x0 = np.broadcast_to(x0_override, x0.shape)
        t, _, _, g = _scan_block(kernel_blocks, idx, obs, acts, x0, burn_in, penalize, False)
        total += t
        if score is not None:
            score += g
    return float(total), score


@dataclass(frozen=True)
class LogLikelihood:
    """Decomposition of the dataset log likelihood."""

    obs_term: float
    choice_term: float
    prior_term: float

    @property
    def total(self) -> float:
        return self.obs_term + self.choice_term + self.prior_term

    def to_dict(self) -> dict:
        """The three terms and their total, as reports record them."""
        return {**asdict(self), "total": self.total}


@dataclass(eq=False)
class ChoicePoints:
    """Gather structure for the choice term at frozen beliefs.

    Row m holds one decision (z, x, a): flat and weights are grid.locate's
    place of (z, x) on a value table.
    """

    actions: np.ndarray      # (m,)
    flat: np.ndarray         # (m, n_states)
    weights: np.ndarray      # (m, n_states)

    @classmethod
    def from_filtered(
        cls,
        grid: BeliefGrid,
        histories: list[History],
        filtered: list[FilteredPath],
    ) -> "ChoicePoints":
        # Each stack starts empty, so a dataset without decisions gets zero rows.
        z = np.concatenate([np.zeros(0, dtype=np.int64), *(h.obs[:-1] for h in histories)])
        a = np.concatenate([np.zeros(0, dtype=np.int64), *(h.acts for h in histories)])
        beliefs = (f.beliefs[: h.horizon] for h, f in zip(histories, filtered))
        return cls(a, *grid.locate(z, np.concatenate([np.zeros((0, grid.n_states)), *beliefs])))

    @property
    def n_steps(self) -> int:
        return self.actions.size

    def q_rows(self, values: np.ndarray) -> np.ndarray:
        """A table on (observable, node, action, ...) at every decision, shape (m, n_actions, ...)."""
        return read(values, self.flat, self.weights)

    def _log_pi_terms(self, qvalues: np.ndarray):
        """(rows, lse, picked): the q_rows, their log-sum-exp and the value of each taken action."""
        rows = self.q_rows(qvalues)
        return rows, _logsumexp_actions(rows), rows[np.arange(self.n_steps), self.actions]

    def sum_log_pi(self, qvalues: np.ndarray) -> float:
        _, lse, picked = self._log_pi_terms(qvalues)
        return float((picked - lse).sum())

    def grad_sum_log_pi(self, qvalues: np.ndarray, gvalues: np.ndarray):
        """Value of the choice term and its (m, p) per-decision scores."""
        rows, lse, picked = self._log_pi_terms(qvalues)
        rows_pi = np.exp(rows - lse[:, None])
        grows = self.q_rows(gvalues)
        score = grows[np.arange(self.n_steps), self.actions, :] - np.einsum("ma,map->mp", rows_pi, grows)
        return float((picked - lse).sum()), score


def pseudo_log_likelihood(
    q: QTable, histories: list[History], filtered: list[FilteredPath]
) -> float:
    """Choice term with beliefs frozen at the dynamics used to filter them."""
    points = ChoicePoints.from_filtered(q.grid, histories, filtered)
    return points.sum_log_pi(q.values)


def log_likelihood(
    model: PomdpModel,
    histories: list[History],
    grid: BeliefGrid | None = None,
    resolution: int = 101,
    tol: float = 1e-9,
    qtable: QTable | None = None,
) -> LogLikelihood:
    """Full decomposition obs + choice + prior at one parameter point.

    Solves the soft Bellman equation internally unless a table is supplied.
    Impossible data give an observation term of -inf; the choice term is left
    at zero because beliefs are undefined past the failure.
    """
    if not histories:
        return LogLikelihood(0.0, 0.0, PRIOR_TERM)
    try:
        filtered = filter_dataset(model, histories)
    except ZeroObservationProbability:
        return LogLikelihood(float("-inf"), 0.0, PRIOR_TERM)
    obs_term = filtered_obs_term(filtered)
    if qtable is None:
        if grid is None:
            grid = BeliefGrid.create(model.n_states, resolution)
        qtable = bellman_solve(model, grid, tol=tol).qtable
    choice_term = pseudo_log_likelihood(qtable, histories, filtered)
    return LogLikelihood(obs_term, choice_term, PRIOR_TERM)


def grad_q(
    model: PomdpModel,
    reward_grad: np.ndarray,
    qtable: QTable,
    tol: float = 1e-8,
    solver: BellmanSolver | None = None,
) -> QTable:
    """Solve the linear fixed point for grad Q at a solved Q table.

    reward_grad[a, z, s, p] = d r(a, z, s) / d theta_p. grad Q solves
    g = grad r + discount * W Pi g, where Pi averages a (z, node) row's actions
    under the table's softmax policy. The policy average v = Pi g therefore
    solves (I - Pi discount W) v = Pi grad r, one BellmanSolver.policy_solve
    for every parameter, and g = grad r + discount * W v. Raises
    MaxIterExceeded when the solution's residual max |Pi g - v| is above tol.
    Returns grad Q as a QTable on (z, node, a, param).
    """
    if not tol > 0.0:
        raise InvalidParams("tol must be positive")
    if solver is None:
        solver = BellmanSolver(model, qtable.grid)
    rg_nodes = solver.expected_rewards(reward_grad)
    n_p = rg_nodes.shape[-1]
    pis = _softmax_actions(qtable.values)[..., None]
    v = solver.policy_solve(qtable.values)((pis * rg_nodes).sum(axis=2).reshape(-1, n_p))
    g = rg_nodes + solver.propagate_stack(v)
    residual = float(np.max(np.abs((pis * g).sum(axis=2).reshape(-1, n_p) - v)))
    if not residual <= tol:
        raise MaxIterExceeded(
            f"grad-Q residual {residual:.3e} above tol {tol:.1e} after the direct solve",
            residual=residual,
            iterations=1,
        )
    return QTable(g, qtable.grid, qtable.model_key)


def grad_log_pi(gq: QTable, q: QTable, z: int, x, a: int) -> np.ndarray:
    """Score of the choice probability at one decision, shape (n_params,)."""
    grow = gq.interpolate_row(z, x)
    return grow[a] - _softmax_actions(q.interpolate_row(z, x)) @ grow


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz data for the pseudo-likelihood ascent.

    reward_grad_bound / reward_hess_bound bound the reward gradient and
    Hessian in the reward parameters; the derived fields bound the Q and soft
    value Hessians and the Lipschitz constant of the pseudo-likelihood
    gradient over a dataset of n_decisions decisions.
    """

    reward_grad_bound: float
    reward_hess_bound: float
    discount: float
    q_grad_bound: float
    q_hess_bound: float
    value_hess_bound: float
    grad_lipschitz: float


def smoothness_constants(
    reward_grad_bound: float,
    reward_hess_bound: float,
    discount: float,
    n_decisions: int,
) -> SmoothnessConstants:
    one_minus = 1.0 - discount
    q_grad = reward_grad_bound / one_minus
    q_hess = reward_hess_bound / one_minus + 2.0 * discount * reward_grad_bound**2 / one_minus**3
    v_hess = reward_hess_bound / one_minus + 2.0 * reward_grad_bound**2 / one_minus**3
    total = n_decisions * (q_hess + v_hess)
    return SmoothnessConstants(
        reward_grad_bound=reward_grad_bound,
        reward_hess_bound=reward_hess_bound,
        discount=discount,
        q_grad_bound=q_grad,
        q_hess_bound=q_hess,
        value_hess_bound=v_hess,
        grad_lipschitz=total,
    )
