"""Likelihood of observed histories and its gradient in the reward parameters.

The log likelihood of one history splits into an observation term
sum_t log sigma_t, a choice term sum_t log pi(a_t | z_t, x_t), and a prior
term for the initial belief. Beliefs x_t are produced by the Bayes filter, so
the whole likelihood is a function of the model parameters only.

A fit lays its histories out once, as one padded batch (DatasetBlocks) whose
x0 holds every history's initial belief, so an assumed prior is the same
layout with another x0. filter_dataset, run once at the dynamics estimate,
returns the beliefs in that layout (FilteredDataset): its observation term
is the report's, and its decision rows (ChoicePoints) are stage two's. Stage
one's score in the dynamics parameters is Fisher's identity, the smoothed
expectation of d log K over each step's hidden pair, evaluated by a forward
filter pass and a reverse pass of reverse conditionals (Cappe, Moulines and
Ryden 2005, ch. 3 and sec. 10.1.3), so its cost does not grow with the
number of parameters.

For estimation the beliefs are frozen at the dynamics estimate and only the
choice term varies with the reward parameters; its gradient uses the score
identity grad log pi(a) = g(a) - sum_a' pi(a') g(a') where g = grad Q solves a
linear fixed point in the system that each Newton step of the Bellman solve
factors, solved directly by one sparse LU. grad Q is a QTable with a trailing
parameter axis, read like Q through the grid.locate places of ChoicePoints.
"""
from __future__ import annotations

import dataclasses
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


def _scan(kernel_blocks, data: DatasetBlocks, burn_in: int, penalize: bool, store: bool):
    """Filter every history at once. Returns (obs_loglik, beliefs, sigmas, score).

    kernel_blocks = (block_of, blocks, d_blocks): a block table as in
    model.block_table, and d_blocks of the same row its derivative in
    parameters u, or None. Padding steps read an identity block appended to
    the table; their sigma is set to 1 (the identity step's is 1 only to an
    ulp). Every history starts at its initial belief in data.x0. beliefs and
    sigmas are None unless store is set. With penalize=True a vanished
    observation contributes log(SIGMA_FLOOR) and filtering continues from a
    uniform belief; otherwise it raises.

    The forward pass keeps histories on the last axis and stores x_t,
    numer_t = x_t K_t, sigma_t and the live steps. With d_blocks a reverse
    pass returns the score d obs_loglik/du by Fisher's identity: the sum over
    steps and hidden pairs (j, k) of W_t(j, k) d log K_t(j, k), where from
    h_T = 0
        W_t(j, k) = R_t(j, k) h_{t+1}(k) + c_t x_t(j) K_t(j, k) / sigma_t,
        h_t(j) = sum_k W_t(j, k),  c_t = [t >= burn_in] - sum_k h_{t+1}(k),
    and R_t(j, k) = x_t(j) K_t(j, k) / numer_t(k), 0 where numer_t(k) = 0, is
    the reverse conditional. W_t is the smoothed law of the hidden pair less
    its law given the observations up to burn_in, and h_t sums to 1 or to 0:
    every carried quantity is bounded where a belief component vanishes, as
    the scaled backward message, which grows like 1 / x_t(j), is not. A
    floored or padding step breaks the chain (x_{t+1} is a constant there),
    and its W_t and h_t are 0. d log K = d_blocks / blocks reads 0 where
    blocks is 0, so d_blocks must vanish there. W is summed per block-table
    row before it meets d log K, so the cost does not grow with n_u.
    """
    if burn_in > 0 and np.any(data.horizons <= burn_in):
        raise InvalidParams(
            f"burn-in {burn_in} must be shorter than the shortest horizon {data.horizons.min()}"
        )
    block_of, blocks, d_blocks = kernel_blocks
    b, horizon = data.acts.shape
    n_s = data.x0.shape[1]
    obs, steps = data.obs.T, data.steps.T                               # (T + 1, b), (T, b)
    rows = np.where(steps, block_of[data.acts.T, obs[:-1], obs[1:]], blocks.shape[0])
    table = np.concatenate([blocks, np.eye(n_s)[None]])
    trans = np.take(np.moveaxis(table, 0, -1), rows, axis=-1)           # (s, s', T, b)
    xs, numer = np.empty((n_s, horizon + 1, b)), np.empty((n_s, horizon, b))
    sigmas, live = np.empty((horizon, b)), np.empty((horizon, b), dtype=bool)
    xs[:, 0] = data.x0.T
    for t in range(horizon):
        np.einsum("jb,jkb->kb", xs[:, t], trans[:, :, t], out=numer[:, t])
        x, sigmas[t], live[t] = bayes_posterior(numer[:, t].T)
        if not penalize and not np.all(live[t]):
            bad = int(np.flatnonzero(~live[t])[0])
            raise ZeroObservationProbability(
                f"history {bad}: observation z={int(data.obs[bad, t + 1])} has "
                f"probability 0 at step {t}",
                step=t,
            )
        xs[:, t + 1] = x.T
    sigmas[~steps] = 1.0
    live &= steps
    total = float(np.log(sigmas[burn_in:]).sum())
    score = None
    if d_blocks is not None:
        xk = np.multiply(trans, xs[:, None, :-1], out=trans)             # x_t(j) K_t(j, k)
        w = xk / np.where((numer > 0.0) & live, numer, np.inf)            # R_t, 0 on dead steps
        xk *= live / sigmas                                               # two-slice filter law
        h = np.zeros((n_s, b))
        for t in range(horizon - 1, -1, -1):
            c = float(t >= burn_in) - h.sum(axis=0)
            w[:, :, t] *= h
            w[:, :, t] += c * xk[:, :, t]                                 # W_t
            h = w[:, :, t].sum(axis=1)
        flat, k_u = rows.ravel(), blocks[..., None]
        per_row = [np.bincount(flat, w_jk, table.shape[0])[:-1] for w_jk in w.reshape(n_s * n_s, -1)]
        d_log = np.divide(d_blocks, k_u, out=np.zeros_like(d_blocks), where=k_u > 0.0)
        score = np.einsum("qr,rqu->u", per_row, d_log.reshape(k_u.shape[0], n_s * n_s, -1))
    if not store:
        return total, None, None, score
    return total, np.ascontiguousarray(xs.transpose(2, 1, 0)), np.ascontiguousarray(sigmas.T), score


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

    Each history starts at its initial belief in blocks.x0. x0_override, one
    belief for every history, is the layout with that x0 (the benchmark
    scores the prior sweep's fits with it, bench/workloads.py).
    """
    if x0_override is not None:
        blocks = dataclasses.replace(blocks, x0=np.broadcast_to(x0_override, blocks.x0.shape))
    return observation_score(block_table(kernel) + (None,), blocks, burn_in, penalize)[0]


def observation_score(kernel_blocks, blocks: DatasetBlocks, burn_in: int = 0, penalize: bool = False):
    """observation_loglik and its exact gradient, from one forward-backward pass.

    kernel_blocks = (block_of, blocks, d_blocks) is the kernel and its
    derivative in the parameters u as one block table, as a family's
    kernel_blocks returns it; d_blocks must vanish wherever blocks do.
    Returns (value, score) with score of shape (n_u,), or None when d_blocks
    is None, in which case only the forward pass runs.
    """
    total, _, _, score = _scan(kernel_blocks, blocks, burn_in, penalize, False)
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
