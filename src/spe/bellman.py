"""Soft Bellman equation on a discretized belief space.

The action value table Q lives on (observable, grid node, action). One operator
sweep computes

    (HQ)(z, x, a) = r(z, x, a) + discount * sum_{z'} sigma(z', z, x, a) * Vbar(z', lambda(z', z, x, a))

with the soft value Vbar(z, x) = euler_gamma + log sum_a exp Q(z, x, a), where
successor values are evaluated by barycentric interpolation on the grid. The
successor weights are assembled once into a sparse matrix discount * W with
rows (z, x, a) and columns (z', node), so a sweep is one log-sum-exp and one
sparse product. The sweep is a sup-norm contraction with modulus equal to the
discount factor, so span-corrected fixed-point iteration converges
geometrically. Its parameter gradient is linear in Q's successors, and
likelihood.grad_q solves it directly with a sparse LU over the same matrix.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidParams, MaxIterExceeded
from .grid import BeliefGrid
from .model import EULER_GAMMA, PomdpModel, bayes_posterior, block_table, json_number, read_json_object


@dataclass(frozen=True, eq=False)
class QTable:
    """Action values on (observable, grid node, action)."""

    values: np.ndarray          # (n_obs, n_nodes, n_actions)
    grid: BeliefGrid
    model_key: str

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 3 or v.shape[1] != self.grid.n_nodes:
            raise InvalidParams(f"qtable shape {v.shape} does not match grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[2]

    def interpolate_row(self, z: int, x) -> np.ndarray:
        """Action-value vector at an arbitrary belief, shape (n_actions,)."""
        probs = x.probs if hasattr(x, "probs") else np.asarray(x, dtype=np.float64)
        idx, w = self.grid.interpolate(probs)
        return w @ self.values[z, idx, :]


def soft_value(q: QTable, z: int, x) -> float:
    """Expected maximum under Gumbel taste shocks: euler_gamma + logsumexp of Q."""
    return float(EULER_GAMMA + _logsumexp_actions(q.interpolate_row(z, x)))


def ccp(q: QTable, z: int, x) -> np.ndarray:
    """Conditional choice probabilities: softmax of the action values at (z, x)."""
    return _softmax_actions(q.interpolate_row(z, x))


def _logsumexp_actions(values: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over the trailing action axis.

    Sums over per-action slices: a numpy or scipy reduction over the short
    trailing axis costs about ten times more.
    """
    actions = np.moveaxis(values, -1, 0)
    top = functools.reduce(np.maximum, actions)
    return np.log(sum(np.exp(qa - top) for qa in actions)) + top


def _softmax_actions(values: np.ndarray) -> np.ndarray:
    """Choice probabilities along the trailing action axis."""
    return np.exp(values - _logsumexp_actions(values)[..., None])


class BellmanSolver:
    """Precomputed sweep structure for one (model dynamics, grid) pair.

    One batched Bayes update of every grid node through every row of
    model.block_table gives the observation probabilities and the
    interpolation indices/weights of the updated beliefs (flat_idx, weights).
    Nodes whose observation probability is below the floor get weight 0.
    The rows are then assembled into one sparse matrix discount * W over the
    flattened (z', node) axis, so a sweep is a single sparse product.
    """

    def __init__(self, model: PomdpModel, grid: BeliefGrid):
        if grid.n_states != model.n_states:
            raise InvalidParams("grid dimension does not match the model")
        self.model = model
        self.grid = grid
        n_z, n_a, n_s = model.n_obs, model.n_actions, model.n_states
        g = grid.n_nodes

        block_of, blocks = block_table(model.kernel)
        z, a, z2 = np.nonzero(block_of.transpose(1, 0, 2))
        lam, sig, live = bayes_posterior(grid.nodes @ blocks[1:])    # (blocks, g, s)
        idx, w = grid.interpolate_many(lam.reshape(-1, n_s))
        w = np.where(live.reshape(-1, 1), w * sig.reshape(-1, 1), 0.0)
        # A block's slot is its rank among the blocks of its (z, a).
        za = z * n_a + a
        slot = np.arange(za.size) - np.searchsorted(za, za)
        k_max = int(slot.max()) + 1
        width = k_max * n_s
        flat_idx = np.zeros((n_z, g, n_a, k_max, n_s), dtype=np.int64)
        weights = np.zeros((n_z, g, n_a, k_max, n_s))
        flat_idx[z, :, a, slot, :] = z2[:, None, None] * g + idx.reshape(-1, g, n_s)
        weights[z, :, a, slot, :] = w.reshape(-1, g, n_s)
        self.flat_idx = flat_idx.reshape(n_z, g, n_a, width)
        self.weights = weights.reshape(n_z, g, n_a, width)
        n_rows = n_z * g * n_a
        successors = sparse.csr_matrix(
            (model.discount * weights.ravel(), flat_idx.ravel(), np.arange(0, n_rows * width + 1, width)),
            shape=(n_rows, n_z * g),
        )
        successors.sum_duplicates()
        successors.eliminate_zeros()
        self.successors = successors
        self.node_rewards = self.expected_rewards(model.reward)

    def expected_rewards(self, reward: np.ndarray) -> np.ndarray:
        """Belief-averaged rewards at grid nodes, shape (n_obs, n_nodes, n_actions)."""
        # reward is (a, z, s); nodes are (g, s).
        return np.einsum("azs,gs->zga", np.asarray(reward, dtype=np.float64), self.grid.nodes)

    def soft_values(self, qvalues: np.ndarray) -> np.ndarray:
        return EULER_GAMMA + _logsumexp_actions(qvalues)

    def propagate(self, flat_values: np.ndarray) -> np.ndarray:
        """Expected successor value for every (z, node, a), discount applied."""
        return (self.successors @ flat_values).reshape(self.node_rewards.shape)

    def propagate_stack(self, flat_stack: np.ndarray) -> np.ndarray:
        """Vector-valued variant: flat_stack is (n_obs * n_nodes, p), result (z, node, a, p)."""
        return (self.successors @ flat_stack).reshape(*self.node_rewards.shape, flat_stack.shape[-1])

    def apply(self, qvalues: np.ndarray, node_rewards: np.ndarray | None = None) -> np.ndarray:
        r = self.node_rewards if node_rewards is None else node_rewards
        vf = self.soft_values(qvalues).ravel()
        return r + self.propagate(vf)

    def solve(
        self,
        node_rewards: np.ndarray | None = None,
        tol: float = 1e-9,
        max_iter: int | None = None,
        q0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, float]:
        """Span-corrected fixed-point iteration to sup-norm residual <= tol.

        A sweep shifts a constant added to Q by discount times that constant
        (each row's successor weights sum to one). Once the span of a step is
        small, the remaining offset therefore solves to beta/(1 - beta) times
        the midpoint of the step; the corrected iterate is accepted only after
        a verification sweep confirms the residual. Returns (values, sweeps,
        residual). Raises MaxIterExceeded when the cap is hit with the residual
        still above tolerance.
        """
        if not tol > 0.0:
            raise InvalidParams("tol must be positive")
        beta = self.model.discount
        span_gate = tol * (1.0 - beta)
        q = np.zeros_like(self.node_rewards) if q0 is None else np.asarray(q0, dtype=np.float64)
        q_next = self.apply(q, node_rewards)
        sweeps, corrected = 1, False
        while True:
            step = q_next - q
            d_max, d_min = float(step.max()), float(step.min())
            residual = max(d_max, -d_min)
            if residual <= tol:
                return (q if corrected else q_next), sweeps, residual
            if max_iter is None and beta == 0.0:
                max_iter = 2
            elif max_iter is None:
                # Geometric decay reaches tol * (1 - beta) within this many sweeps.
                max_iter = int(np.ceil(np.log(span_gate / residual) / np.log(beta))) + 10
            if sweeps >= max_iter:
                raise MaxIterExceeded(
                    f"Bellman residual {residual:.3e} above tol {tol:.1e} after {sweeps} sweeps",
                    residual=residual,
                    iterations=sweeps,
                )
            corrected = beta > 0.0 and d_max - d_min <= span_gate
            q = q_next + beta / (1.0 - beta) * 0.5 * (d_max + d_min) if corrected else q_next
            q_next = self.apply(q, node_rewards)
            sweeps += 1


@dataclass(frozen=True, eq=False)
class SolveResult:
    qtable: QTable
    iterations: int
    residual: float


def solve(
    model: PomdpModel,
    grid: BeliefGrid | None = None,
    resolution: int = 101,
    tol: float = 1e-9,
    max_iter: int | None = None,
    q0: QTable | None = None,
) -> SolveResult:
    """Solve the soft Bellman fixed point on a belief grid."""
    if grid is None:
        grid = BeliefGrid.create(model.n_states, resolution)
    solver = BellmanSolver(model, grid)
    values, iters, residual = solver.solve(
        tol=tol, max_iter=max_iter, q0=None if q0 is None else q0.values
    )
    return SolveResult(QTable(values, grid, model.content_key()), iters, residual)


def finite_horizon_solve(
    model: PomdpModel,
    grid: BeliefGrid,
    horizon: int,
    terminal: np.ndarray | None = None,
) -> list[QTable]:
    """Backward induction: returns [Q_0, ..., Q_horizon], terminal last.

    Q_t = r + discount * E[Vbar_{t+1}]; the terminal table defaults to zero.
    """
    if horizon < 0:
        raise InvalidParams("horizon must be nonnegative")
    solver = BellmanSolver(model, grid)
    shape = (model.n_obs, grid.n_nodes, model.n_actions)
    q_T = np.zeros(shape) if terminal is None else np.asarray(terminal, dtype=np.float64)
    key = model.content_key()
    tables = [QTable(q_T, grid, key)]
    q = q_T
    for _ in range(horizon):
        q = solver.apply(q)
        tables.append(QTable(q, grid, key))
    tables.reverse()
    return tables


def save_qtable(q: QTable, path) -> None:
    payload = {
        "n_states": q.grid.n_states,
        "resolution": q.grid.resolution,
        "model_key": q.model_key,
        "euler_gamma": EULER_GAMMA,
        "values": q.values.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_qtable(path) -> QTable:
    payload = read_json_object(
        path, "qtable", ("n_states", "resolution", "model_key", "euler_gamma", "values")
    )
    if payload["euler_gamma"] != EULER_GAMMA:
        raise InvalidParams(f"euler_gamma must be {EULER_GAMMA!r}, got {payload['euler_gamma']!r}")
    grid = BeliefGrid.create(*(json_number(payload, k, integer=True) for k in ("n_states", "resolution")))
    return QTable(np.asarray(payload["values"], dtype=np.float64), grid, str(payload["model_key"]))
