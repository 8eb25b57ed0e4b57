"""Likelihood of observed histories and its gradient in the reward parameters.

The log likelihood of one history splits into an observation term
sum_t log sigma_t, a choice term sum_t log pi(a_t | z_t, x_t), and a prior
term for the initial belief. Beliefs x_t are produced by the Bayes filter, so
the whole likelihood is a function of the model parameters only.

For estimation the beliefs are frozen at the dynamics estimate and only the
choice term varies with the reward parameters; its gradient uses the score
identity grad log pi(a) = g(a) - sum_a' pi(a') g(a') where g = grad Q solves a
linear fixed point with the same successor matrix as the Bellman operator,
solved directly by one sparse LU factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .bellman import BellmanSolver, QTable, _logsumexp_actions, _softmax_actions
from .bellman import solve as bellman_solve
from .errors import InvalidParams, MaxIterExceeded, ZeroObservationProbability
from .grid import BeliefGrid
from .model import History, PomdpModel, bayes_posterior

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
    n_states: int

    @classmethod
    def from_histories(cls, histories: list[History], model: PomdpModel) -> "DatasetBlocks":
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
        return cls(blocks, len(histories), model.n_states)

    @property
    def total_steps(self) -> int:
        return sum(acts.shape[0] * acts.shape[1] for _, _, acts, _ in self.blocks)


def _scan_block(
    kernel: np.ndarray,
    idx: np.ndarray,
    obs: np.ndarray,
    acts: np.ndarray,
    x0: np.ndarray,
    burn_in: int,
    penalize: bool,
    store: bool,
    kernel_grad=None,
):
    """Filter one block. Returns (obs_loglik, beliefs, sigmas, score).

    beliefs and sigmas are None unless store is set. With penalize=True a
    vanished observation contributes log(SIGMA_FLOOR) and filtering continues
    from a uniform belief; otherwise it raises.

    kernel_grad = (block_of, d_blocks), with d_blocks[block_of[a, z, z']] the
    derivative of kernel[a, z, :, z', :] in parameters u, makes the scan carry
    dx_t/du beside the belief and return the score d obs_loglik/du (the
    recursive score of the filter). With numer = x T and sigma = sum numer:
    d numer = dx T + x dT, d sigma = sum d numer, dx' = (d numer - x' d sigma)
    / sigma and d log sigma = d sigma / sigma. A floored step is a constant and
    restarts from a constant belief, so it adds 0 to the score and resets dx.
    Initial beliefs do not depend on u. Without kernel_grad the score is None.
    """
    b, horizon = acts.shape
    n_s = x0.shape[1]
    x = x0.copy()
    beliefs = np.empty((b, max(horizon, 1), n_s)) if store else None
    sigmas = np.empty((b, horizon)) if store else None
    if store:
        beliefs[:, 0, :] = x
    score = None
    if kernel_grad is not None:
        block_of, d_blocks = kernel_grad
        step_blocks = block_of[acts, obs[:, :-1], obs[:, 1:]]       # (b, T)
        # The tangent keeps histories on its last axis, (s, n_u, b), so each
        # operation runs along the batch and not along the short state axes.
        d_rows = np.ascontiguousarray(np.moveaxis(d_blocks, 0, -1))  # (s, s', n_u, rows)
        score = np.zeros(d_blocks.shape[-1])
        dx = np.zeros((n_s, score.size, b))
    total = 0.0
    for t in range(horizon):
        trans = kernel[acts[:, t], obs[:, t], :, obs[:, t + 1], :]   # (b, s, s')
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
    for idx, obs, acts, x0 in blocks.blocks:
        _, beliefs, sigmas, _ = _scan_block(
            model.kernel, idx, obs, acts, x0, burn_in=0, penalize=False, store=True
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
    return observation_score(kernel, None, blocks, burn_in, penalize, x0_override)[0]


def observation_score(
    kernel: np.ndarray,
    kernel_grad,
    blocks: DatasetBlocks,
    burn_in: int = 0,
    penalize: bool = False,
    x0_override: np.ndarray | None = None,
):
    """observation_loglik and its exact gradient, from one filter pass.

    kernel_grad = (block_of, d_blocks) is the kernel's derivative in the
    parameters u, gathered per block as a family's kernel_derivative returns
    it. Returns (value, score) with score of shape (n_u,), or None when
    kernel_grad is None.
    """
    total = 0.0
    score = None if kernel_grad is None else np.zeros(kernel_grad[1].shape[-1])
    for idx, obs, acts, x0 in blocks.blocks:
        if burn_in > 0 and burn_in >= acts.shape[1]:
            raise InvalidParams(
                f"burn-in {burn_in} must be shorter than the horizon {acts.shape[1]}"
            )
        if x0_override is not None:
            x0 = np.broadcast_to(x0_override, x0.shape)
        t, _, _, g = _scan_block(kernel, idx, obs, acts, x0, burn_in, penalize, False, kernel_grad)
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


@dataclass(eq=False)
class ChoicePoints:
    """Gather structure for the choice term at frozen beliefs.

    Row m holds one decision (z, x, a): flat_idx points into the flattened
    (n_obs * n_nodes) axis of a Q table, node_w are the interpolation weights.
    """

    actions: np.ndarray      # (m,)
    flat_idx: np.ndarray     # (m, n_states)
    node_w: np.ndarray       # (m, n_states)
    n_histories: int

    @classmethod
    def from_filtered(
        cls,
        grid: BeliefGrid,
        histories: list[History],
        filtered: list[FilteredPath],
    ) -> "ChoicePoints":
        zs, acs, beliefs = [], [], []
        for h, f in zip(histories, filtered):
            if h.horizon == 0:
                continue
            zs.append(h.obs[:-1])
            acs.append(h.acts)
            beliefs.append(f.beliefs)
        if not zs:
            empty = np.zeros((0, grid.n_states))
            return cls(
                np.zeros(0, dtype=np.int64),
                np.zeros((0, grid.n_states), dtype=np.int64),
                empty,
                len(histories),
            )
        z = np.concatenate(zs)
        a = np.concatenate(acs)
        x = np.concatenate(beliefs, axis=0)
        idx, w = grid.interpolate_many(x)
        flat = z[:, None] * grid.n_nodes + idx
        return cls(a, flat, w, len(histories))

    @property
    def n_steps(self) -> int:
        return self.actions.size

    def q_rows(self, qvalues: np.ndarray) -> np.ndarray:
        """Interpolated action values at every decision, shape (m, n_actions)."""
        flat = qvalues.reshape(-1, qvalues.shape[-1])
        return np.einsum("mn,mna->ma", self.node_w, flat[self.flat_idx])

    def sum_log_pi(self, qvalues: np.ndarray) -> float:
        if self.n_steps == 0:
            return 0.0
        rows = self.q_rows(qvalues)
        lse = _logsumexp_actions(rows)
        picked = rows[np.arange(rows.shape[0]), self.actions]
        return float((picked - lse).sum())

    def grad_sum_log_pi(self, qvalues: np.ndarray, gvalues: np.ndarray):
        """Value of the choice term and its (m, p) per-decision scores."""
        if self.n_steps == 0:
            return 0.0, np.zeros((0, gvalues.shape[-1]))
        rows = self.q_rows(qvalues)
        lse = _logsumexp_actions(rows)
        rows_pi = np.exp(rows - lse[:, None])
        m = rows.shape[0]
        picked = rows[np.arange(m), self.actions]
        gflat = gvalues.reshape(-1, gvalues.shape[-2], gvalues.shape[-1])
        grows = np.einsum("mn,mnap->map", self.node_w, gflat[self.flat_idx])
        score = grows[np.arange(m), self.actions, :] - np.einsum("ma,map->mp", rows_pi, grows)
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


@dataclass(frozen=True, eq=False)
class GradQTable:
    """Gradient of the Q table in the reward parameters, (z, node, a, param)."""

    values: np.ndarray
    grid: BeliefGrid
    model_key: str

    def interpolate_row(self, z: int, x) -> np.ndarray:
        probs = x.probs if hasattr(x, "probs") else np.asarray(x, dtype=np.float64)
        idx, w = self.grid.interpolate(probs)
        return np.einsum("n,nap->ap", w, self.values[z, idx, :, :])


def grad_q(
    model: PomdpModel,
    reward_grad: np.ndarray,
    qtable: QTable,
    tol: float = 1e-8,
    solver: BellmanSolver | None = None,
) -> GradQTable:
    """Solve the linear fixed point for grad Q at a solved Q table.

    reward_grad[a, z, s, p] = d r(a, z, s) / d theta_p. grad Q solves
    g = grad r + discount * W Pi g, where Pi averages a (z, node) row's actions
    under the table's softmax policy. The policy average v = Pi g therefore
    solves (I - Pi discount W) v = Pi grad r over the (z, node) rows; one
    sparse LU factorization solves it for every parameter at once, and
    g = grad r + discount * W v. Raises MaxIterExceeded when the solution's
    residual max |Pi g - v| is above tol.
    """
    if not tol > 0.0:
        raise InvalidParams("tol must be positive")
    if solver is None:
        solver = BellmanSolver(model, qtable.grid)
    reward_grad = np.asarray(reward_grad, dtype=np.float64)
    n_p = reward_grad.shape[-1]
    rg_nodes = np.einsum("azsp,gs->zgap", reward_grad, qtable.grid.nodes)
    pis = _softmax_actions(qtable.values)
    # Row (z, node) of the policy matrix holds that node's action probabilities.
    policy = sparse.csr_matrix(
        (pis.ravel(), np.arange(pis.size), np.arange(0, pis.size + 1, pis.shape[-1]))
    )
    system = (sparse.identity(policy.shape[0]) - policy @ solver.successors).tocsc()
    # Narrow supernodes: SuperLU's defaults take about twice the time, and more memory, here.
    v = splu(system, panel_size=1, relax=1).solve(policy @ rg_nodes.reshape(-1, n_p))
    g = rg_nodes + solver.propagate_stack(v)
    residual = float(np.max(np.abs(policy @ g.reshape(-1, n_p) - v)))
    if not residual <= tol:
        raise MaxIterExceeded(
            f"grad-Q residual {residual:.3e} above tol {tol:.1e} after the direct solve",
            residual=residual,
            iterations=1,
        )
    return GradQTable(g, qtable.grid, qtable.model_key)


def grad_log_pi(gq: GradQTable, q: QTable, z: int, x, a: int) -> np.ndarray:
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
