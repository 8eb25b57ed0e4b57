"""Machine replacement benchmark with a hidden condition state.

The observable is a discretized cumulative-usage reading z; the hidden state
s is binary (0 good, 1 bad). Keeping the machine (a = 0) costs an amount
linear in z with a slope that depends on s, usage advances by a random
increment of 0..3 bins whose distribution depends on s, and the condition
evolves with given persistence probabilities. Replacing (a = 1) pays a fixed
cost and resets both usage and condition.

EngineFamily parametrizes this model; with n_conditions=1 it is the same
model with a single condition, the fully observed baseline of Rust (1987)
used for misspecification comparisons. The module also carries a simulator
for synthetic datasets and JSONL dataset IO.

Field data note: fits on the historical bus-fleet maintenance records that
motivated this benchmark reached a log likelihood of about -3819 for the
hidden-state model against -4495 for the fully observed baseline (17.7%
worse). Those records are not distributed here; load_fleet_records is a stub
documenting the expected interface.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, softmax

from .bellman import _softmax_actions, solve as bellman_solve
from .errors import InvalidParams, ParseError, SchemaError
from .grid import BeliefGrid, read
from .model import Belief, History, PomdpModel, bayes_posterior, block_table, json_array, json_number
from .model import read_json_object, write_json_object

_ROW_TOL = 1e-9
N_INCREMENTS = 4


@dataclass(frozen=True, eq=False)
class EngineParams:
    """Parameters of the hidden-condition replacement model.

    persistence[s] is the probability the condition stays at s when keeping;
    increments[s] is the usage-increment distribution (4 bins) in condition s;
    cost_slopes[s] scales the per-bin operating cost; replacement_cost is the
    price of a reset.
    """

    persistence: np.ndarray
    increments: np.ndarray
    cost_slopes: np.ndarray
    replacement_cost: float
    n_mileage_bins: int = 120

    def __post_init__(self):
        pers = np.asarray(self.persistence, dtype=np.float64)
        inc = np.asarray(self.increments, dtype=np.float64)
        slopes = np.asarray(self.cost_slopes, dtype=np.float64)
        if pers.shape != (2,) or not np.all((pers >= 0.0) & (pers <= 1.0)):
            raise InvalidParams("persistence must be two probabilities")
        if inc.shape != (2, N_INCREMENTS) or not np.all(inc >= 0.0):
            raise InvalidParams(f"increments must be nonnegative with shape (2, {N_INCREMENTS})")
        if not np.max(np.abs(inc.sum(axis=1) - 1.0)) <= _ROW_TOL:
            raise InvalidParams("increment rows must sum to 1")
        if slopes.shape != (2,) or not np.all(np.isfinite(slopes)):
            raise InvalidParams("cost_slopes must be two finite numbers")
        if not (self.replacement_cost > 0.0):
            raise InvalidParams("replacement_cost must be positive")
        if not self.n_mileage_bins >= N_INCREMENTS:
            raise InvalidParams(f"need at least {N_INCREMENTS} usage bins")
        for name, arr in (("persistence", pers), ("increments", inc), ("cost_slopes", slopes)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def reference_params() -> EngineParams:
    """Ground truth used throughout the synthetic experiments."""
    return EngineParams(
        persistence=np.array([0.949, 0.988]),
        increments=np.array(
            [
                [0.039, 0.333, 0.590, 0.038],
                [0.181, 0.757, 0.061, 0.001],
            ]
        ),
        cost_slopes=np.array([0.2, 1.2]),
        replacement_cost=9.243,
    )


def save_params(params: EngineParams, path) -> None:
    payload = {
        "persistence": params.persistence.tolist(),
        "increments": params.increments.tolist(),
        "cost_slopes": params.cost_slopes.tolist(),
        "replacement_cost": params.replacement_cost,
        "n_mileage_bins": params.n_mileage_bins,
    }
    write_json_object(payload, path, indent=2)


def load_params(path) -> EngineParams:
    payload = read_json_object(
        path,
        "parameter",
        ("persistence", "increments", "cost_slopes", "replacement_cost"),
        ("n_mileage_bins",),
    )
    return EngineParams(
        persistence=json_array(payload, "persistence"),
        increments=json_array(payload, "increments"),
        cost_slopes=json_array(payload, "cost_slopes"),
        replacement_cost=float(json_number(payload, "replacement_cost")),
        n_mileage_bins=json_number({"n_mileage_bins": 120, **payload}, "n_mileage_bins", integer=True),
    )


def _usage_masses(inc: np.ndarray, n_bins: int) -> np.ndarray:
    """Mass of the keep move z -> min(z + d, top bin), (z, d, s, ...) from inc (s, d, ...)."""
    tail = np.zeros_like(inc)   # top-bin sums, in increment order as pinned kernel bytes need
    for d in range(N_INCREMENTS):
        tail[:, : d + 1] += inc[:, d : d + 1]
    top = np.arange(n_bins)[:, None] + np.arange(N_INCREMENTS) >= n_bins - 1
    top = top.reshape(top.shape + (1,) * (inc.ndim - 1))
    return np.where(top, np.moveaxis(tail, 0, 1), np.moveaxis(inc, 0, 1))


def _engine_blocks(stay: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Block table of the joint kernel: blocks[block_of[a, z, z']] is kernel[a, z, :, z', :].

    Row 0 is the zero block, row 1 replacing (a reset to (0, 0)), then one
    keep block per (z, d): usage mass (z, d, s) as _usage_masses gives it,
    times stay[s, s'].
    """
    keep = mass[..., None] * stay                                   # (z, d, s, s')
    blocks = np.concatenate([np.zeros((2,) + stay.shape), keep.reshape((-1,) + stay.shape)])
    blocks[1, :, 0] = 1.0
    return blocks


def build_engine_model(params: EngineParams, discount: float = 0.95) -> PomdpModel:
    """Assemble the joint kernel and reward table for the replacement model."""
    family = EngineFamily(params.n_mileage_bins, discount)
    return family.build_model(*family.params_to_theta(params))


def _anchored_softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities from free logits with the last category pinned at 0."""
    full = np.concatenate([logits, [0.0]])
    return softmax(full)


def _anchored_logits(probs: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, None)
    logs = np.log(p)
    return (logs - logs[-1])[:-1]


def _anchored_softmax_jacobian(probs: np.ndarray) -> np.ndarray:
    """d probs / d logits of _anchored_softmax, shape (n, n - 1)."""
    return probs[:, None] * (np.eye(probs.size)[:, :-1] - probs[None, :-1])


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return np.log(p) - np.log1p(-p)


def _stay_matrix(pers: np.ndarray) -> np.ndarray:
    """Condition transitions when keeping: stay at s with probability pers[s], or the one condition."""
    if not len(pers):
        return np.ones((1, 1))
    return np.array([[pers[0], 1.0 - pers[0]], [1.0 - pers[1], pers[1]]])


class EngineFamily:
    """Parametric family of the replacement model with K = n_conditions hidden conditions.

    K = 2 is the hidden-condition model; K = 1 is the fully observed engine
    model of Rust (1987), the baseline for misspecification comparisons.
    Reward parameters theta1 = (one cost slope per condition,
    replacement_cost) enter the reward table linearly. Dynamics parameters
    theta2 stack the persistence probabilities (K = 2 only) and one increment
    row per condition: (p_good, p_bad, inc_good[0..3], inc_bad[0..3]), 10
    entries, or inc[0..3]; each increment row sums to 1. The unconstrained
    chart uses logits for the persistences and anchored log-ratios for the
    increment rows (8 or 3 free coordinates).
    """

    n_actions = 2

    def __init__(self, n_mileage_bins: int = 120, discount: float = 0.95, n_conditions: int = 2):
        if isinstance(n_conditions, bool) or n_conditions not in (1, 2):
            raise InvalidParams(f"n_conditions must be 1 or 2, got {n_conditions!r}")
        if not n_mileage_bins >= N_INCREMENTS:      # EngineParams' rule
            raise InvalidParams(f"need at least {N_INCREMENTS} usage bins")
        self.n_mileage_bins = n_mileage_bins
        self.discount = discount
        self.n_states = int(n_conditions)
        self._n_pers = 0 if n_conditions == 1 else self.n_states
        zz, dd = np.nonzero(np.arange(n_mileage_bins)[:, None] + np.arange(N_INCREMENTS) < n_mileage_bins)
        self._block_of = np.zeros((2, n_mileage_bins, n_mileage_bins), dtype=np.int64)
        self._block_of[0, zz, zz + dd] = 2 + zz * N_INCREMENTS + dd
        self._block_of[1, :, 0] = 1
        self._block_of.flags.writeable = False

    @property
    def n_obs(self) -> int:
        return self.n_mileage_bins

    def default_theta1(self) -> np.ndarray:
        return np.zeros(self.n_states + 1)

    def default_theta2(self) -> np.ndarray:
        uniform = np.full(N_INCREMENTS, 1.0 / N_INCREMENTS)
        return np.concatenate([np.full(self._n_pers, 0.5), np.tile(uniform, self.n_states)])

    def params_to_theta(self, params: EngineParams) -> tuple[np.ndarray, np.ndarray]:
        if self.n_states != 2:
            raise InvalidParams("EngineParams describe the two-condition model")
        theta1 = np.array([params.cost_slopes[0], params.cost_slopes[1], params.replacement_cost])
        theta2 = np.concatenate([params.persistence, params.increments.ravel()])
        return theta1, theta2

    def theta_to_params(self, theta1: np.ndarray, theta2: np.ndarray) -> EngineParams:
        return EngineParams(
            persistence=np.asarray(theta2[:2]),
            increments=np.asarray(theta2[2:]).reshape(2, N_INCREMENTS),
            cost_slopes=np.asarray(theta1[:2]),
            replacement_cost=float(theta1[2]),
            n_mileage_bins=self.n_mileage_bins,
        )

    def reward_tensor(self, theta1: np.ndarray) -> np.ndarray:
        slopes = np.asarray(theta1[:-1])
        if slopes.shape != (self.n_states,):
            raise InvalidParams(f"theta1 must hold {self.n_states + 1} entries")
        reward = np.empty((2, self.n_mileage_bins, self.n_states))
        z_axis = np.arange(self.n_mileage_bins, dtype=np.float64)
        reward[0] = -0.001 * z_axis[:, None] * slopes[None, :]
        reward[1] = -float(theta1[-1])
        return reward

    def _sized(self, values, chart: bool) -> np.ndarray:
        """theta2, or a chart point u (one increment anchored per condition), as floats of the right length."""
        size = self.default_theta2().size - (self.n_states if chart else 0)
        if np.shape(values) != (size,):
            raise InvalidParams(f"{'u' if chart else 'theta2'} must hold {size} entries")
        return np.asarray(values, dtype=np.float64)

    def _split(self, theta2) -> tuple[np.ndarray, np.ndarray]:
        """(persistences, increments (K, 4)) of theta2."""
        theta2 = np.asarray(theta2)
        return theta2[: self._n_pers], theta2[self._n_pers :].reshape(self.n_states, N_INCREMENTS)

    def theta2_to_unconstrained(self, theta2: np.ndarray) -> np.ndarray:
        pers, inc = self._split(self._sized(theta2, chart=False))
        return np.concatenate([_logit(pers), *(_anchored_logits(row) for row in inc)])

    def theta2_from_unconstrained(self, u: np.ndarray) -> np.ndarray:
        u = self._sized(u, chart=True)
        rows = u[self._n_pers :].reshape(self.n_states, N_INCREMENTS - 1)
        return np.concatenate([expit(u[: self._n_pers]), *(_anchored_softmax(row) for row in rows)])

    def build_model(self, theta1: np.ndarray, theta2: np.ndarray) -> PomdpModel:
        return PomdpModel(
            n_states=self.n_states,
            n_obs=self.n_obs,
            n_actions=self.n_actions,
            kernel=self.build_kernel(self._sized(theta2, chart=False)),
            reward=self.reward_tensor(theta1),
            discount=self.discount,
        )

    def build_kernel(self, theta2: np.ndarray) -> np.ndarray:
        pers, increments = self._split(theta2)
        blocks = _engine_blocks(_stay_matrix(pers), _usage_masses(increments, self.n_mileage_bins))
        return np.ascontiguousarray(blocks[self._block_of].transpose(0, 1, 3, 2, 4))

    def kernel_blocks(self, u: np.ndarray):
        """(block_of, blocks, d_blocks) of build_kernel(theta2_from_unconstrained(u)).

        blocks[block_of[a, z, z']] is kernel[a, z, :, z', :] bit for bit, and
        d_blocks of the same row its derivative in u, shape (s, s', n_u).
        block_of is the family's read-only table, the same array every call.
        """
        pers, inc = self._split(self.theta2_from_unconstrained(u))
        stay, n_p, k = _stay_matrix(pers), self._n_pers, N_INCREMENTS - 1
        d_stay = np.zeros(stay.shape + (np.size(u),))
        d_inc = np.zeros(inc.shape + (np.size(u),))
        for s in range(n_p):
            d_stay[s, :, s] = pers[s] * (1.0 - pers[s]) * np.where(np.arange(n_p) == s, 1.0, -1.0)
        for s in range(self.n_states):
            d_inc[s, :, n_p + s * k : n_p + (s + 1) * k] = _anchored_softmax_jacobian(inc[s])
        both = _usage_masses(np.concatenate([inc[..., None], d_inc], axis=-1), self.n_mileage_bins)
        mass, d_mass = both[..., 0], both[..., 1:]
        blocks = _engine_blocks(stay, mass)
        d_keep = d_mass[:, :, :, None, :] * stay[:, :, None] + mass[..., None, None] * d_stay
        d_blocks = np.zeros(blocks.shape + (d_stay.shape[-1],))
        d_blocks[2:] = d_keep.reshape(d_blocks[2:].shape)
        return self._block_of, blocks, d_blocks

    def describe(self, theta1: np.ndarray, theta2: np.ndarray) -> dict:
        pers, inc = self._split(theta2)
        names = ("",) if self.n_states == 1 else ("_good", "_bad")
        return {
            **{f"cost_slope{name}": float(v) for name, v in zip(names, theta1)},
            "replacement_cost": float(theta1[-1]),
            **{f"persistence{name}": float(p) for name, p in zip(names, pers)},
            **{f"increments{name}": [float(v) for v in row] for name, row in zip(names, inc)},
        }


class MdpEngineFamily(EngineFamily):
    # EngineFamily(n_conditions=1) under its old name, unused in the package; kept
    # because the traced benchmark (bench/layers.py) wraps this class's own build_kernel.

    def __init__(self, n_mileage_bins: int = 120, discount: float = 0.95):
        super().__init__(n_mileage_bins, discount, n_conditions=1)

    build_kernel = EngineFamily.build_kernel


@dataclass(frozen=True)
class SimConfig:
    """Synthetic data generation settings.

    x0 is either the string "uniform" (good-state weight drawn uniformly per
    history) or a fixed two-entry belief. Per-history draw order from a
    spawned seed stream: initial belief, initial state, then one action draw
    and one transition draw per period.
    """

    n_histories: int
    horizon: int
    seed: int
    x0: object = "uniform"
    z0: int = 0
    grid_resolution: int = 101
    discount: float = 0.95

    def __post_init__(self):
        # bool is a subclass of int, so True would pass for a size.
        for name in ("n_histories", "horizon", "seed", "z0", "grid_resolution"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        if self.n_histories < 1 or self.horizon < 1:
            raise InvalidParams("n_histories and horizon must be at least 1")
        if isinstance(self.x0, str):
            if self.x0 != "uniform":
                raise InvalidParams(f"unknown x0 policy {self.x0!r}")
        elif np.shape(self.x0) != (2,):
            raise InvalidParams("fixed x0 must be a two-entry belief")
        else:
            Belief(self.x0)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Histories plus the latent draws behind them (debugging sidecar)."""

    histories: list
    states: np.ndarray       # (n, horizon + 1) hidden condition paths
    beliefs: np.ndarray      # (n, horizon, 2) decision-time beliefs


def _transition_tables(kernel: np.ndarray):
    """Per (a, z, s) cdf over the flat indices of the nonzero (z', s') entries,
    in index order; padded slots hold cdf 1.0 and repeat the last index."""
    flat = kernel.reshape(kernel.shape[:3] + (-1,))
    nonzero = flat > 0
    count = nonzero.sum(axis=-1, keepdims=True)
    width = int(count.max())
    order = np.argsort(~nonzero, axis=-1, kind="stable")[..., :width]
    pad = np.arange(width) >= count
    cdf = np.where(pad, 1.0, np.cumsum(np.take_along_axis(flat, order, axis=-1), axis=-1))
    cols = np.where(pad, np.take_along_axis(order, count - 1, axis=-1), order)
    return cdf, cols


def simulate(params: EngineParams, config: SimConfig) -> SimResult:
    """Generate histories by sampling actions from the model's own policy.

    The action at each period is drawn from the conditional choice
    probabilities of the solved model at the current (z, belief); the latent
    condition then evolves under the joint kernel and the belief is updated by
    Bayes' rule. Output is byte-identical for a given (params, config).
    """
    if not 0 <= config.z0 < params.n_mileage_bins:
        raise InvalidParams(
            f"z0 {config.z0} is outside the usage bins [0, {params.n_mileage_bins})"
        )
    model = build_engine_model(params, config.discount)
    grid = BeliefGrid.create(2, config.grid_resolution)
    qtable = bellman_solve(model, grid).qtable

    n, horizon = config.n_histories, config.horizon
    draws_per = 2 * horizon + 2
    streams = np.random.SeedSequence(config.seed).spawn(n)
    u = np.stack([np.random.default_rng(s).random(draws_per) for s in streams])

    if isinstance(config.x0, str):
        good = u[:, 0]
    else:
        good = np.full(n, float(np.asarray(config.x0)[0]))
    x = np.stack([good, 1.0 - good], axis=1)
    s = (u[:, 1] >= good).astype(np.int64)      # hidden condition, 0 good
    z = np.full(n, config.z0, dtype=np.int64)

    cdf, cols = _transition_tables(model.kernel)
    block_of, blocks = block_table(model.kernel)
    obs = np.empty((n, horizon + 1), dtype=np.int64)
    acts = np.empty((n, horizon), dtype=np.int64)
    states = np.empty((n, horizon + 1), dtype=np.int64)
    beliefs = np.empty((n, horizon, 2))
    obs[:, 0] = z
    states[:, 0] = s
    x0_beliefs = x.copy()

    for t in range(horizon):
        beliefs[:, t, :] = x
        cum = np.cumsum(_softmax_actions(read(qtable.values, *grid.locate(z, x))), axis=1)
        a = np.minimum((u[:, 2 + 2 * t, None] >= cum).sum(axis=1), model.n_actions - 1)
        rows = cdf[a, z, s]
        k = np.minimum((u[:, 3 + 2 * t, None] >= rows).sum(axis=1), rows.shape[1] - 1)
        z_next, s_next = np.divmod(cols[a, z, s, k], model.n_states)
        trans = blocks[block_of[a, z, z_next]]
        x = bayes_posterior(np.einsum("ms,mst->mt", x, trans).T)[0].T
        acts[:, t] = a
        obs[:, t + 1] = z_next
        states[:, t + 1] = s_next
        z, s = z_next, s_next

    histories = [
        History(Belief(x0_beliefs[i]), obs[i], acts[i]) for i in range(n)
    ]
    return SimResult(histories, states, beliefs)


def write_json_lines(records, path) -> None:
    """Write each record as one compact JSON line: every JSON-lines file the package writes."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record))
            fh.write("\n")


def emit_dataset(histories: list, path) -> None:
    """Write histories as JSON lines: {"x0": [...], "z": [...], "a": [...]}."""
    records = ({"x0": h.x0.probs.tolist(), "z": h.obs.tolist(), "a": h.acts.tolist()} for h in histories)
    write_json_lines(records, path)


def emit_debug_sidecar(result: SimResult, path) -> None:
    """Latent conditions and decision-time beliefs, aligned with the dataset."""
    records = ({"s": s.tolist(), "x": x.tolist()} for s, x in zip(result.states, result.beliefs))
    write_json_lines(records, path)


def load_dataset(path) -> list:
    """Read a JSONL dataset. ParseError carries the 1-based line number."""
    histories = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc}", line=lineno) from None
            if not isinstance(rec, dict) or not {"x0", "z", "a"} <= set(rec):
                raise SchemaError(f"line {lineno}: record must carry x0, z, and a")
            # type(), since bool is a subclass of int; np.asarray would cast a
            # float, string or bool entry silently.
            for key, types, kind in (
                ("z", (int,), "integers"), ("a", (int,), "integers"), ("x0", (int, float), "numbers")
            ):
                if not isinstance(rec[key], list) or any(type(v) not in types for v in rec[key]):
                    raise SchemaError(f"line {lineno}: {key} must be a list of {kind}")
            obs = np.asarray(rec["z"], dtype=np.int64)
            acts = np.asarray(rec["a"], dtype=np.int64)
            if obs.size != acts.size + 1:
                raise SchemaError(
                    f"line {lineno}: got {obs.size} observations and {acts.size} actions"
                )
            try:
                histories.append(History(Belief(np.asarray(rec["x0"], dtype=np.float64)), obs, acts))
            except InvalidParams as exc:
                raise SchemaError(f"line {lineno}: {exc}") from None
    return histories


def load_fleet_records(path=None):
    """Placeholder for the historical maintenance records; not distributed.

    Reference fits on those records: hidden-state model log likelihood about
    -3819 versus -4495 for the fully observed baseline, a 17.7 percent fit
    improvement. Those two numbers are documented targets, not outputs this
    package can regenerate.
    """
    raise NotImplementedError(
        "the field maintenance records are not distributed with this package; "
        "supply your own JSONL dataset via load_dataset instead"
    )
