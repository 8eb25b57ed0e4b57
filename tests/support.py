"""Shared builders and scalar reference oracles for the test suite."""
from __future__ import annotations

import numpy as np

from spe import Belief, InvalidParams, PomdpModel, ZeroObservationProbability, lambda_update


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
    return (float(np.max(np.abs(model.reward))) + model.euler_gamma + np.log(model.n_actions)) / (
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
