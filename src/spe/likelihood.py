"""Likelihood of observed histories and its gradient in the reward parameters.

The log likelihood of one history splits into an observation term
sum_t log sigma_t, a choice term sum_t log pi(a_t | z_t, x_t), and a prior
term for the initial belief. Beliefs x_t are produced by the Bayes filter, so
the whole likelihood is a function of the model parameters only.

A fit lays its histories out once, as one padded batch (DatasetBlocks), and
filter_dataset returns their beliefs in the same layout (FilteredDataset):
its observation term is stage one's, and its decision rows (ChoicePoints)
are stage two's.

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


@dataclass(eq=False)
class DatasetBlocks:
    """Histories as one padded batch, T the longest horizon.

    Row i holds history i: obs (N, T+1) and acts (N, T) padded with zeros past
    its horizon, its initial belief x0 (N, s) and horizons (N,). Likelihood
    terms are summed step by step over all rows; for equal-length histories
    this is dataset order within each step.
    """

    obs: np.ndarray
    acts: np.ndarray
    x0: np.ndarray
    horizons: np.ndarray

    @classmethod
    def from_histories(cls, histories: list[History], model) -> "DatasetBlocks":
        """Only n_obs, n_actions and n_states are read: model may be a family."""
        horizons = np.array([h.horizon for h in histories], dtype=np.int64)
        n, t = horizons.size, int(horizons.max(initial=0))
        obs, acts = np.zeros((n, t + 1), dtype=np.int64), np.zeros((n, t), dtype=np.int64)
        x0 = np.zeros((n, model.n_states))
        for i, h in enumerate(histories):
            h.validate_against(model)
            obs[i, : h.obs.size], acts[i, : h.horizon], x0[i] = h.obs, h.acts, h.x0.probs
        return cls(obs, acts, x0, horizons)

    @property
    def steps(self) -> np.ndarray:
        """(N, T) mask of the steps inside each history's horizon."""
        return np.arange(self.acts.shape[1]) < self.horizons[:, None]


@dataclass(frozen=True, eq=False)
class FilteredDataset:
    """Filtered beliefs x_0..x_T and step observation probabilities of a dataset.

    beliefs (N, T+1, s) and sigmas (N, T) share data's padded layout; past a
    history's horizon, sigmas read 1 and beliefs are padding. model_key
    records which dynamics filtered them.
    """

    data: DatasetBlocks
    beliefs: np.ndarray
    sigmas: np.ndarray
    model_key: str

    @property
    def obs_term(self) -> float:
        """Observation term sum_t log sigma_t, summed history by history."""
        return float(sum(np.log(self.sigmas).sum(axis=1)))

    def tail(self, burn_in: int) -> "FilteredDataset":
        """The histories and beliefs from step burn_in on, each starting at its belief there."""
        d, beliefs = self.data, self.beliefs[:, burn_in:]
        data = DatasetBlocks(d.obs[:, burn_in:], d.acts[:, burn_in:], beliefs[:, 0], d.horizons - burn_in)
        return FilteredDataset(data, beliefs, self.sigmas[:, burn_in:], self.model_key)


def _scan(
    kernel_blocks,
    data: DatasetBlocks,
    burn_in: int,
    penalize: bool,
    store: bool,
    x0: np.ndarray | None = None,
):
    """Filter every history at once. Returns (obs_loglik, beliefs, sigmas, score).

    kernel_blocks = (block_of, blocks, d_blocks): a block table as in
    model.block_table, and d_blocks of the same row its derivative in
    parameters u, or None; each step reads both through one row per history.
    Padding steps read an identity block appended to the table, with a zero
    derivative; their sigma is set to 1 (the identity step's is 1 only to an
    ulp) and, like a floored step, they add 0 to the score and reset dx. x0,
    when given, replaces every initial belief. beliefs and sigmas are None
    unless store is set. With penalize=True a vanished observation
    contributes log(SIGMA_FLOOR) and filtering continues from a uniform
    belief; otherwise it raises.

    d_blocks makes the scan carry dx_t/du beside the belief and return the
    score d obs_loglik/du (the recursive score of the filter); else the score
    is None. With numer = x T and sigma = sum numer: d numer = dx T + x dT,
    d sigma = sum d numer, dx' = (d numer - x' d sigma) / sigma and
    d log sigma = d sigma / sigma. A floored step is a constant and restarts
    from a constant belief, so it adds 0 to the score and resets dx. Initial
    beliefs do not depend on u.
    """
    if burn_in > 0 and np.any(data.horizons <= burn_in):
        raise InvalidParams(
            f"burn-in {burn_in} must be shorter than the shortest horizon {data.horizons.min()}"
        )
    block_of, blocks, d_blocks = kernel_blocks
    b, horizon = data.acts.shape
    n_s = data.x0.shape[1]
    steps = data.steps
    padded = not steps.all()
    step_blocks = np.where(
        steps, block_of[data.acts, data.obs[:, :-1], data.obs[:, 1:]], blocks.shape[0]
    )                                                                 # (b, T)
    blocks = np.concatenate([blocks, np.eye(n_s)[None]])
    x = (data.x0 if x0 is None else np.broadcast_to(x0, data.x0.shape)).copy()
    beliefs = np.empty((b, horizon + 1, n_s)) if store else None
    sigmas = np.empty((b, horizon)) if store else None
    if store:
        beliefs[:, 0, :] = x
    score = None
    if d_blocks is not None:
        # The tangent keeps histories on its last axis, (s, n_u, b), so each
        # operation runs along the batch and not along the short state axes.
        d_rows = np.zeros(d_blocks.shape[1:] + (d_blocks.shape[0] + 1,))  # (s, s', n_u, rows)
        d_rows[..., :-1] = np.moveaxis(d_blocks, 0, -1)
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
                f"history {bad}: observation z={int(data.obs[bad, t + 1])} has "
                f"probability 0 at step {t}",
                step=t,
            )
        if padded:
            sig = np.where(steps[:, t], sig, 1.0)
            live = live & steps[:, t]
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
            beliefs[:, t + 1, :] = x
    return total, beliefs, sigmas, score


def filter_dataset(model: PomdpModel, data: DatasetBlocks) -> FilteredDataset:
    """Run the Bayes filter over every history. Raises on impossible data."""
    _, beliefs, sigmas, _ = _scan(
        block_table(model.kernel) + (None,), data, burn_in=0, penalize=False, store=True
    )
    return FilteredDataset(data, beliefs, sigmas, model.content_key())


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
    total, _, _, score = _scan(kernel_blocks, blocks, burn_in, penalize, False, x0_override)
    return total, score


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
    def from_filtered(cls, grid: BeliefGrid, filtered: FilteredDataset) -> "ChoicePoints":
        """The decisions of a filtered dataset, history by history."""
        data, steps = filtered.data, filtered.data.steps
        return cls(data.acts[steps], *grid.locate(data.obs[:, :-1][steps], filtered.beliefs[:, :-1][steps]))

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


def pseudo_log_likelihood(q: QTable, filtered: FilteredDataset) -> float:
    """Choice term with beliefs frozen at the dynamics used to filter them."""
    return ChoicePoints.from_filtered(q.grid, filtered).sum_log_pi(q.values)


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
        filtered = filter_dataset(model, DatasetBlocks.from_histories(histories, model))
    except ZeroObservationProbability:
        return LogLikelihood(float("-inf"), 0.0, PRIOR_TERM)
    if qtable is None:
        if grid is None:
            grid = BeliefGrid.create(model.n_states, resolution)
        qtable = bellman_solve(model, grid, tol=tol).qtable
    return LogLikelihood(filtered.obs_term, pseudo_log_likelihood(qtable, filtered), PRIOR_TERM)


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
