"""Primitives for partially observable controlled processes.

A model couples an observable component z with a hidden state s. One joint
transition kernel gives P(z', s' | z, s, a); a reward table gives the expected
flow reward r(a, z, s). Beliefs are distributions over the hidden state and are
updated by Bayes' rule after each (z, a, z') transition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, ZeroObservationProbability

# Euler-Mascheroni constant: mean of a standard Gumbel, enters the soft value.
EULER_GAMMA = 0.5772156649015329

# Observation probabilities below this are treated as exactly zero.
SIGMA_FLOOR = 1e-300

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PomdpModel:
    """Joint transition kernel, reward table, and discount factor.

    kernel[a, z, s, z2, s2] = P(z2, s2 | z, s, a); rows over (z2, s2) sum to 1.
    reward[a, z, s] is the expected flow reward of action a at (z, s).
    """

    n_states: int
    n_obs: int
    n_actions: int
    kernel: np.ndarray
    reward: np.ndarray
    discount: float
    euler_gamma: float = EULER_GAMMA

    def __post_init__(self):
        kernel = np.ascontiguousarray(np.asarray(self.kernel, dtype=np.float64))
        reward = np.ascontiguousarray(np.asarray(self.reward, dtype=np.float64))
        a, z, s = self.n_actions, self.n_obs, self.n_states
        if min(a, z, s) < 1:
            raise InvalidParams("state, observation, and action spaces must be nonempty")
        if kernel.shape != (a, z, s, z, s):
            raise InvalidParams(
                f"kernel shape {kernel.shape} != {(a, z, s, z, s)}"
            )
        if reward.shape != (a, z, s):
            raise InvalidParams(f"reward shape {reward.shape} != {(a, z, s)}")
        if not np.all(np.isfinite(reward)):
            raise InvalidParams("reward table contains non-finite entries")
        if np.any(kernel < 0.0):
            raise InvalidParams("kernel has negative entries")
        row_sums = kernel.reshape(a, z, s, z * s).sum(axis=-1)
        if np.max(np.abs(row_sums - 1.0)) > _ROW_SUM_TOL:
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise InvalidParams(f"kernel rows must sum to 1 (worst drift {worst:.3e})")
        if not (0.0 <= self.discount < 1.0):
            raise InvalidParams(f"discount must lie in [0, 1), got {self.discount}")
        kernel.setflags(write=False)
        reward.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "reward", reward)

    def content_key(self) -> str:
        """Short hash of the model contents, used to tag derived tables."""
        import hashlib

        h = hashlib.sha256()
        h.update(np.float64(self.discount).tobytes())
        h.update(np.float64(self.euler_gamma).tobytes())
        h.update(self.kernel.tobytes())
        h.update(self.reward.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Belief:
    """Distribution over the hidden state: entries >= 0, sum 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if p.ndim != 1 or p.size < 1:
            raise InvalidParams("belief must be a nonempty vector")
        if np.any(p < 0.0):
            raise InvalidParams("belief has negative entries")
        if not abs(p.sum() - 1.0) <= _ROW_SUM_TOL:
            raise InvalidParams(f"belief sums to {p.sum()!r}, expected 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, n_states: int) -> "Belief":
        return cls(np.full(n_states, 1.0 / n_states))

    @classmethod
    def point_mass(cls, state: int, n_states: int) -> "Belief":
        p = np.zeros(n_states)
        p[state] = 1.0
        return cls(p)


@dataclass(frozen=True, eq=False)
class History:
    """One observed trajectory: initial belief, z_0..z_T, a_0..a_{T-1}."""

    x0: Belief
    obs: np.ndarray
    acts: np.ndarray

    def __post_init__(self):
        obs = np.ascontiguousarray(np.asarray(self.obs, dtype=np.int64))
        acts = np.ascontiguousarray(np.asarray(self.acts, dtype=np.int64))
        if obs.ndim != 1 or acts.ndim != 1:
            raise InvalidParams("obs and acts must be 1-d integer sequences")
        if obs.size != acts.size + 1:
            raise InvalidParams(
                f"need len(obs) == len(acts) + 1, got {obs.size} and {acts.size}"
            )
        if obs.size and obs.min() < 0 or acts.size and acts.min() < 0:
            raise InvalidParams("negative index in history")
        obs.setflags(write=False)
        acts.setflags(write=False)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "acts", acts)

    @property
    def horizon(self) -> int:
        """Number of decision epochs T."""
        return self.acts.size

    def validate_against(self, model: PomdpModel) -> None:
        if self.obs.size and self.obs.max() >= model.n_obs:
            raise InvalidParams(f"observation index out of range for n_obs={model.n_obs}")
        if self.acts.size and self.acts.max() >= model.n_actions:
            raise InvalidParams(f"action index out of range for n_actions={model.n_actions}")


def _belief_array(x) -> np.ndarray:
    return x.probs if isinstance(x, Belief) else np.asarray(x, dtype=np.float64)


def sigma(model: PomdpModel, z_next: int, z: int, x, a: int) -> float:
    """Observation probability: P(z_next | z, x, a) = sum_s x(s) P(z_next | z, s, a)."""
    xs = _belief_array(x)
    # kernel[a, z, :, z_next, :] has shape (s, s2); marginalize s2, mix over s.
    return float(xs @ model.kernel[a, z, :, z_next, :].sum(axis=1))


def _lambda_raw(model: PomdpModel, z_next: int, z: int, xs: np.ndarray, a: int):
    numer = xs @ model.kernel[a, z, :, z_next, :]
    sig = float(numer.sum())
    return numer, sig


def lambda_update(model: PomdpModel, z_next: int, z: int, x, a: int) -> Belief:
    """Bayes update of the hidden-state belief after observing (z, a) -> z_next.

    Raises ZeroObservationProbability when the observation has probability
    below the floor under the current belief.
    """
    xs = _belief_array(x)
    numer, sig = _lambda_raw(model, z_next, z, xs, a)
    if sig < SIGMA_FLOOR:
        raise ZeroObservationProbability(
            f"observation z={z_next} has probability {sig!r} after (z={z}, a={a})"
        )
    out = numer / sig
    out = np.maximum(out, 0.0)
    return Belief(out / out.sum())


def bayes_posterior(numer: np.ndarray):
    """Batched Bayes rule on unnormalized posteriors numer[..., s'].

    Returns (beliefs, sigma, live): sigma is the row mass floored at
    SIGMA_FLOOR, live marks rows whose mass reaches the floor, and dead rows
    get the uniform belief. Beliefs are clamped at 0 and renormalized. Sums
    run column by column: a reduction over the short state axis costs more.
    """
    n = numer.shape[-1]
    sig = sum(numer[..., j] for j in range(n))
    live = sig >= SIGMA_FLOOR
    if np.all(live):
        x = numer / sig[..., None]
    else:
        sig = np.where(live, sig, SIGMA_FLOOR)
        x = np.where(live[..., None], numer / sig[..., None], 1.0 / n)
    x = np.maximum(x, 0.0)
    x /= sum(x[..., j] for j in range(n))[..., None]
    return x, sig, live


def reachable_blocks(model: PomdpModel):
    """(z, a, z') index arrays of the kernel blocks some hidden state reaches.

    Ordered by z, then a, then z'.
    """
    mass = model.kernel.sum(axis=-1)                  # (a, z, s, z')
    return np.nonzero((mass >= SIGMA_FLOOR).any(axis=2).transpose(1, 0, 2))


def save_model(model: PomdpModel, path) -> None:
    payload = {
        "n_states": model.n_states,
        "n_obs": model.n_obs,
        "n_actions": model.n_actions,
        "discount": model.discount,
        "kernel": model.kernel.tolist(),
        "reward": model.reward.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> PomdpModel:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidParams("model file must hold a JSON object")
    try:
        return PomdpModel(
            n_states=int(payload["n_states"]),
            n_obs=int(payload["n_obs"]),
            n_actions=int(payload["n_actions"]),
            kernel=np.asarray(payload["kernel"], dtype=np.float64),
            reward=np.asarray(payload["reward"], dtype=np.float64),
            discount=float(payload["discount"]),
        )
    except KeyError as exc:
        raise InvalidParams(f"model file missing key {exc}") from None
