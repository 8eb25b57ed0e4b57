"""Soft Bellman equation on a discretized belief space.

The action value table Q lives on (observable, grid node, action); a
QTable also holds its gradient, with a trailing parameter axis, and reads
either at beliefs through grid.locate and grid.read. The operator is

    (HQ)(z, x, a) = r(z, x, a) + discount * sum_{z'} sigma(z', z, x, a) * Vbar(z', lambda(z', z, x, a))

with the soft value Vbar(z, x) = euler_gamma + log sum_a exp Q(z, x, a), where
successor values are evaluated by barycentric interpolation on the grid. The
successor weights are assembled once into a sparse matrix discount * W with
rows (z, x, a) and columns (z', node), so one application of H is one
log-sum-exp and one sparse product.

The fixed point is solved by soft policy iteration, Newton's method on the
soft values, whose steps and likelihood.grad_q factor (I - Pi discount W) at a
softmax policy Pi. Its rows are strictly diagonally dominant (margin
1 - discount), so the LU skips pivoting. It orders the observables so that
only moves closing a cycle point later: the engine's system is then block
triangular apart from its replacement bin's columns, and the factor sparse.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvalidParams, MaxIterExceeded
from .grid import BeliefGrid, read
from .model import EULER_GAMMA, PomdpModel, bayes_posterior, block_table, json_array, json_number
from .model import read_json_object, write_json_object

MAX_NEWTON_ITERATIONS = 50   # BellmanSolver.solve's cap; cold engine solves take 4 or 5


@dataclass(frozen=True, eq=False)
class QTable:
    """Action values, or their gradient, on (observable, grid node, action, ...)."""

    values: np.ndarray          # (n_obs, n_nodes, n_actions, ...)
    grid: BeliefGrid
    model_key: str

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim < 3 or v.shape[1] != self.grid.n_nodes:
            raise InvalidParams(f"qtable shape {v.shape} does not match grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def interpolate_row(self, z: int, x) -> np.ndarray:
        """The table's row at an arbitrary belief, shape (n_actions, ...)."""
        return read(self.values, *self.grid.locate(z, getattr(x, "probs", x)))[0]


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


def _successors_first(moves: np.ndarray) -> np.ndarray:
    """Observables in depth-first postorder over moves[z, z'], the most entered first as roots.

    Every move then goes to an earlier observable unless it closes a cycle.
    For the engine only the moves into the replacement bin do, and the rest,
    which only raise mileage, come out in descending mileage.
    """
    order, seen = [], np.zeros(len(moves), dtype=bool)
    for root in np.argsort(moves.diagonal() - moves.sum(axis=0), kind="stable"):
        path = [] if seen[root] else [root]
        seen[root] = True
        while path:
            unseen = np.flatnonzero(moves[path[-1]] & ~seen)
            if unseen.size:
                seen[unseen[0]] = True
                path.append(unseen[0])
            else:
                order.append(path.pop())
    return np.array(order)


class BellmanSolver:
    """Precomputed sweep structure for one (model dynamics, grid) pair.

    One batched Bayes update of every grid node through every row of
    model.block_table gives the observation probabilities and the
    interpolation indices/weights of the updated beliefs (flat_idx, weights).
    Nodes whose observation probability is below the floor get weight 0.
    The rows are then assembled into one sparse matrix discount * W over the
    flattened (z', node) axis, so a sweep is a single sparse product.
    policy_solve factors in factor_order: _successors_first, then node.
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
        flat, w = grid.locate(np.repeat(z2, g), lam.reshape(-1, n_s))
        w = np.where(live.reshape(-1, 1), w * sig.reshape(-1, 1), 0.0)
        # A block's slot is its rank among the blocks of its (z, a).
        za = z * n_a + a
        slot = np.arange(za.size) - np.searchsorted(za, za)
        k_max = int(slot.max()) + 1
        width = k_max * n_s
        flat_idx = np.zeros((n_z, g, n_a, k_max, n_s), dtype=np.int64)
        weights = np.zeros((n_z, g, n_a, k_max, n_s))
        flat_idx[z, :, a, slot, :] = flat.reshape(-1, g, n_s)
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
        z_order = _successors_first((block_of > 0).any(axis=0))
        self.factor_order = (z_order[:, None] * g + np.arange(g)).ravel()
        self.node_rewards = self.expected_rewards(model.reward)

    def expected_rewards(self, reward: np.ndarray) -> np.ndarray:
        """Belief-averaged rewards at grid nodes, shape (n_obs, n_nodes, n_actions, ...).

        reward is (a, z, s, ...): trailing axes, such as the parameters of a
        reward gradient, are carried through. Nodes are (g, s).
        """
        return np.einsum("azs...,gs->zga...", np.asarray(reward, dtype=np.float64), self.grid.nodes)

    def soft_values(self, qvalues: np.ndarray) -> np.ndarray:
        return EULER_GAMMA + _logsumexp_actions(qvalues)

    def propagate(self, flat_values: np.ndarray) -> np.ndarray:
        """Expected successor value for every (z, node, a), discount applied."""
        return (self.successors @ flat_values).reshape(self.node_rewards.shape)

    def propagate_stack(self, flat_stack: np.ndarray) -> np.ndarray:
        """Vector-valued variant: flat_stack is (n_obs * n_nodes, p), result (z, node, a, p)."""
        return (self.successors @ flat_stack).reshape(*self.node_rewards.shape, flat_stack.shape[-1])

    def apply(self, qvalues: np.ndarray) -> np.ndarray:
        return self.node_rewards + self.propagate(self.soft_values(qvalues).ravel())

    def policy_solve(self, qvalues: np.ndarray):
        """Factor (I - Pi discount W) at the softmax policy Pi of qvalues; return its solve.

        Pi averages each (z, node) row's actions, and the solve takes a vector
        or a stack of columns over the flattened (z, node) axis.
        """
        order = self.factor_order
        rank = np.argsort(order)
        pis = _softmax_actions(qvalues)
        policy = sparse.csr_matrix(
            (pis.ravel(), np.arange(pis.size), np.arange(0, pis.size + 1, pis.shape[-1]))
        )
        system = sparse.identity(order.size, format="csr") - policy[order] @ self.successors[:, order]
        # Narrow supernodes: SuperLU's defaults hold about 4 MB more at grid 101.
        lu = splu(system.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1, relax=1)
        return lambda rhs: lu.solve(rhs[order])[rank]

    def solve(
        self,
        node_rewards: np.ndarray | None = None,
        tol: float = 1e-9,
        max_iter: int = MAX_NEWTON_ITERATIONS,
        q0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, float]:
        """Soft policy iteration to a Bellman residual max |HQ - Q| <= tol.

        Newton's method on V = soft(r + discount W V) from V = soft(q0), q0 = 0
        by default: an iteration sets Q = r + discount W V, returns Q if its
        residual HQ - Q = discount W (soft(Q) - V) is within tol, and else
        solves (I - Pi discount W) dV = soft(Q) - V at Q's softmax policy Pi.
        Returns (values, iterations, residual); an accepted start is one
        iteration. Raises MaxIterExceeded when max_iter iterations leave the
        residual above tol.
        """
        if not tol > 0.0:
            raise InvalidParams("tol must be positive")
        if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
            raise InvalidParams(f"max_iter must be a positive integer, got {max_iter!r}")
        r = self.node_rewards if node_rewards is None else node_rewards
        v = self.soft_values(np.zeros_like(r) if q0 is None else np.asarray(q0, dtype=np.float64)).ravel()
        iterations = 1
        while True:
            q = r + self.propagate(v)
            step = self.soft_values(q).ravel() - v
            residual = float(np.max(np.abs(self.propagate(step))))
            if residual <= tol:
                return q, iterations, residual
            if iterations >= max_iter:
                raise MaxIterExceeded(
                    f"Bellman residual {residual:.3e} above tol {tol:.1e} after {iterations} Newton iterations",
                    residual=residual,
                    iterations=iterations,
                )
            v = v + self.policy_solve(q)(step)
            iterations += 1


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
    max_iter: int = MAX_NEWTON_ITERATIONS,
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
    write_json_object(payload, path)


def load_qtable(path) -> QTable:
    payload = read_json_object(
        path, "qtable", ("n_states", "resolution", "model_key", "euler_gamma", "values")
    )
    if payload["euler_gamma"] != EULER_GAMMA:
        raise InvalidParams(f"euler_gamma must be {EULER_GAMMA!r}, got {payload['euler_gamma']!r}")
    grid = BeliefGrid.create(*(json_number(payload, k, integer=True) for k in ("n_states", "resolution")))
    return QTable(json_array(payload, "values"), grid, str(payload["model_key"]))
