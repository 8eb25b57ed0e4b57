"""Shared builders and scalar reference oracles for the test suite."""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import spe
from spe import EULER_GAMMA, Belief, InvalidParams, PomdpModel, ZeroObservationProbability, lambda_update
from spe.model import bayes_posterior


def random_kernel(rng: np.random.Generator, n_states: int, n_obs: int, n_actions: int) -> np.ndarray:
    flat = rng.dirichlet(np.ones(n_obs * n_states), size=(n_actions, n_obs, n_states))
    return flat.reshape(n_actions, n_obs, n_states, n_obs, n_states)


def random_model(
    seed: int = 0,
    n_states: int = 2,
    n_obs: int = 4,
    n_actions: int = 2,
    discount: float = 0.9,
    reward_scale: float = 1.0,
) -> PomdpModel:
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n_states, n_obs, n_actions)
    reward = reward_scale * rng.standard_normal((n_actions, n_obs, n_states))
    return PomdpModel(n_states, n_obs, n_actions, kernel, reward, discount)


def sparse_random_model(seed: int, n_states: int, n_obs: int = 5, n_actions: int = 2) -> PomdpModel:
    """Random model with about half of the (a, z, s, z') masses zeroed.

    Some kernel blocks (z, a, z') are then unreachable, and some are reached
    from only one hidden state, so their posteriors are dead at some beliefs.
    """
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, n_states, n_obs, n_actions)
    keep = rng.random((n_actions, n_obs, n_states, n_obs)) < 0.45
    keep[..., 0] |= ~keep.any(axis=-1)
    kernel = kernel * keep[..., None]
    kernel /= kernel.sum(axis=(3, 4), keepdims=True)
    reward = rng.standard_normal((n_actions, n_obs, n_states))
    return PomdpModel(n_states, n_obs, n_actions, kernel, reward, 0.9)


def random_belief(rng: np.random.Generator, n_states: int) -> Belief:
    return Belief(rng.dirichlet(np.ones(n_states)))


def two_state_hand_model(discount: float = 0.9) -> PomdpModel:
    """One action, two observations; the worked Bayes-update numbers.

    From observation 0: hidden state 0 moves to observation 1 with mass 0.7
    split (0.6, 0.1) over next hidden states, hidden state 1 with mass 0.4
    split (0.2, 0.2). At belief (0.5, 0.5) the observation probability of 1
    is 0.55 and the posterior is (8/11, 3/11).
    """
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, 0, 0] = [[0.2, 0.1], [0.6, 0.1]]
    kernel[0, 0, 1] = [[0.3, 0.3], [0.2, 0.2]]
    kernel[0, 1, :] = [[0.25, 0.25], [0.25, 0.25]]
    reward = np.zeros((1, 2, 2))
    return PomdpModel(2, 2, 1, kernel, reward, discount)


def qtable_bound(model: PomdpModel) -> float:
    """Sup-norm bound satisfied by the solved Q table."""
    return (float(np.max(np.abs(model.reward))) + EULER_GAMMA + np.log(model.n_actions)) / (
        1.0 - model.discount
    ) + 1.0


def expected_reward(model: PomdpModel, z: int, x, a: int) -> float:
    """Belief-averaged flow reward: sum_s x(s) r(a, z, s)."""
    xs = x.probs if isinstance(x, Belief) else np.asarray(x, dtype=np.float64)
    return float(xs @ model.reward[a, z, :])


def apply_lambda_M(model: PomdpModel, obs_window, act_window, x_start) -> Belief:
    """Fold the Bayes update along a window: obs z_t..z_{t+M}, acts a_t..a_{t+M-1}.

    With an empty action window the start belief is returned unchanged.
    Propagates ZeroObservationProbability with the failing step index.
    """
    obs_window = np.asarray(obs_window, dtype=np.int64)
    act_window = np.asarray(act_window, dtype=np.int64)
    if obs_window.size != act_window.size + 1:
        raise InvalidParams(
            f"need len(obs_window) == len(act_window) + 1, got "
            f"{obs_window.size} and {act_window.size}"
        )
    x = x_start if isinstance(x_start, Belief) else Belief(np.asarray(x_start, dtype=np.float64))
    for t in range(act_window.size):
        try:
            x = lambda_update(model, int(obs_window[t + 1]), int(obs_window[t]), x, int(act_window[t]))
        except ZeroObservationProbability as exc:
            raise ZeroObservationProbability(str(exc), step=t) from None
    return x


def call_sites(names):
    """Sorted (file, enclosing function, callee) of every call in the package to one of names.

    A callee matches by its dotted name (json.load) or by its attribute name
    (interpolate_many matches grid.interpolate_many and self.interpolate_many).
    """
    package = Path(spe.__file__).parent
    calls = []
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):    # breadth first: an inner function overwrites its outer one
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        calls += [
            (path.name, owner.get(node), ast.unparse(node.func))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (ast.unparse(node.func) in names or getattr(node.func, "attr", None) in names)
        ]
    return sorted(calls)


def forward_tangent_score(kernel_blocks, data, burn_in: int = 0) -> np.ndarray:
    """Score of the penalized observation term by the filter's forward tangent.

    The oracle for observation_score: dx_t/du rides beside the belief. With
    numer = x K and sigma = sum numer, d numer = dx K + x dK, d sigma = sum
    d numer, dx' = (d numer - x' d sigma) / sigma and d log sigma =
    d sigma / sigma. Floored and padding steps add 0 and reset dx to 0.
    """
    block_of, blocks, d_blocks = kernel_blocks
    steps = data.steps
    rows = np.where(steps, block_of[data.acts, data.obs[:, :-1], data.obs[:, 1:]], blocks.shape[0])
    blocks = np.concatenate([blocks, np.eye(blocks.shape[1])[None]])
    d_blocks = np.concatenate([d_blocks, np.zeros((1,) + d_blocks.shape[1:])])
    x = data.x0.copy()
    dx = np.zeros(x.shape + d_blocks.shape[-1:])                          # (b, s, n_u)
    score = np.zeros(d_blocks.shape[-1])
    for t in range(data.acts.shape[1]):
        trans, d_trans = blocks[rows[:, t]], d_blocks[rows[:, t]]
        d_numer = np.einsum("bju,bjk->bku", dx, trans) + np.einsum("bj,bjku->bku", x, d_trans)
        x, sig, live = bayes_posterior(np.einsum("bj,bjk->bk", x, trans))
        live &= steps[:, t]
        d_numer[~live] = 0.0
        d_sig = d_numer.sum(axis=1)
        dx = (d_numer - x[:, :, None] * d_sig[:, None, :]) / sig[:, None, None]
        if t >= burn_in:
            score += (d_sig / sig[:, None]).sum(axis=0)
    return score
