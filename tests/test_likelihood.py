from __future__ import annotations

import itertools

import numpy as np
import pytest

from spe import (
    Belief,
    BeliefGrid,
    History,
    InvalidParams,
    PomdpModel,
    ccp,
    filter_dataset,
    lambda_update,
    log_likelihood,
    observation_loglik,
    observation_score,
    pseudo_log_likelihood,
    sigma,
    solve,
)
from spe.likelihood import DatasetBlocks
from spe.model import SIGMA_FLOOR
from support import (
    apply_lambda_M,
    random_belief,
    random_model,
    sparse_random_model,
    two_state_hand_model,
)


def simulate_crude(model, rng, horizon, x0=None):
    """Reference sampler used only by these tests: explicit scalar loop."""
    x = random_belief(rng, model.n_states) if x0 is None else x0
    s = int(rng.choice(model.n_states, p=x.probs))
    z = 0
    obs = [z]
    acts = []
    q = solve(model, resolution=21, tol=1e-10).qtable
    xs = x
    for _ in range(horizon):
        p = ccp(q, z, xs)
        a = int(rng.choice(model.n_actions, p=p))
        flat = model.kernel[a, z, s].ravel()
        nxt = int(rng.choice(flat.size, p=flat))
        z2, s2 = nxt // model.n_states, nxt % model.n_states
        xs = lambda_update(model, z2, z, xs, a)
        obs.append(z2)
        acts.append(a)
        z, s = z2, s2
    return History(x, np.array(obs), np.array(acts))


def brute_force_obs_loglik(model, history) -> float:
    """Hidden-path enumeration of P(z_1..z_T | z_0, x_0, a_0..a_{T-1})."""
    T = history.horizon
    prob = 0.0
    for path in itertools.product(range(model.n_states), repeat=T + 1):
        p = history.x0.probs[path[0]]
        for t in range(T):
            p *= model.kernel[
                history.acts[t], history.obs[t], path[t], history.obs[t + 1], path[t + 1]
            ]
        prob += p
    return float(np.log(prob))


def brute_force_beliefs(model, history) -> np.ndarray:
    """Decision-time beliefs by joint enumeration, bypassing the filter."""
    T = history.horizon
    out = np.empty((max(T, 1), model.n_states))
    out[0] = history.x0.probs
    for t in range(1, T):
        joint = np.zeros(model.n_states)
        for path in itertools.product(range(model.n_states), repeat=t + 1):
            p = history.x0.probs[path[0]]
            for u in range(t):
                p *= model.kernel[
                    history.acts[u], history.obs[u], path[u], history.obs[u + 1], path[u + 1]
                ]
            joint[path[t]] += p
        out[t] = joint / joint.sum()
    return out


def test_decomposition_and_prior():
    m = random_model(seed=31, n_obs=3)
    rng = np.random.default_rng(5)
    hs = [simulate_crude(m, rng, 6) for _ in range(4)]
    ll = log_likelihood(m, hs, resolution=21, tol=1e-10)
    assert ll.prior_term == 0.0
    assert ll.total == ll.obs_term + ll.choice_term + ll.prior_term
    blocks = DatasetBlocks.from_histories(hs, m)
    assert observation_loglik(m.kernel, blocks) == pytest.approx(ll.obs_term, abs=1e-12)


def test_filter_matches_scalar_updates():
    m = random_model(seed=8, n_obs=3)
    rng = np.random.default_rng(11)
    h = simulate_crude(m, rng, 7)
    fp = filter_dataset(m, [h])[0]
    x = h.x0
    for t in range(h.horizon):
        np.testing.assert_allclose(fp.beliefs[t], x.probs, atol=1e-12)
        assert fp.sigmas[t] == pytest.approx(
            sigma(m, int(h.obs[t + 1]), int(h.obs[t]), x, int(h.acts[t])), abs=1e-12
        )
        x = lambda_update(m, int(h.obs[t + 1]), int(h.obs[t]), x, int(h.acts[t]))
    assert fp.model_key == m.content_key()


def test_filter_agrees_with_apply_lambda():
    m = two_state_hand_model()
    h = History(Belief(np.array([0.5, 0.5])), np.array([0, 1, 0]), np.array([0, 0]))
    fp = filter_dataset(m, [h])[0]
    mid = apply_lambda_M(m, [0, 1], [0], h.x0)
    np.testing.assert_allclose(fp.beliefs[1], mid.probs, atol=1e-14)


def test_brute_force_oracle_small_histories():
    # five random T=3 histories against hidden-path enumeration
    m = random_model(seed=77, n_states=2, n_obs=3, n_actions=2)
    rng = np.random.default_rng(99)
    grid = BeliefGrid.create(2, 41)
    q = solve(m, grid=grid, tol=1e-12).qtable
    for k in range(5):
        h = simulate_crude(m, rng, 3)
        ll = log_likelihood(m, [h], grid=grid, tol=1e-12, qtable=q)
        assert ll.obs_term == pytest.approx(brute_force_obs_loglik(m, h), abs=1e-10)
        xs = brute_force_beliefs(m, h)
        choice = sum(
            float(np.log(ccp(q, int(h.obs[t]), xs[t])[int(h.acts[t])]))
            for t in range(h.horizon)
        )
        assert ll.choice_term == pytest.approx(choice, abs=1e-10)


def test_empty_and_single_action_edges():
    m = random_model(seed=2, n_actions=1)
    x = Belief.uniform(m.n_states)
    h = History(x, np.array([0]), np.array([], dtype=np.int64))
    ll = log_likelihood(m, [h], resolution=11)
    assert ll.obs_term == 0.0 and ll.choice_term == 0.0
    assert log_likelihood(m, [], resolution=11).total == 0.0
    rng = np.random.default_rng(3)
    h2 = simulate_crude(m, rng, 5)
    # a single action carries no choice information
    assert log_likelihood(m, [h2], resolution=11).choice_term == pytest.approx(0.0, abs=1e-12)


def test_zero_reward_choice_term_is_uniform():
    m = random_model(seed=13, n_actions=3, reward_scale=0.0)
    rng = np.random.default_rng(7)
    hs = [simulate_crude(m, rng, 4) for _ in range(3)]
    ll = log_likelihood(m, hs, resolution=11, tol=1e-11)
    assert ll.choice_term == pytest.approx(3 * 4 * np.log(1.0 / 3.0), abs=1e-9)


def test_impossible_data_minus_inf():
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, :, :, 1, :] = 0.5   # chain always moves to z=1
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    h = History(Belief.uniform(2), np.array([0, 0]), np.array([0]))
    ll = log_likelihood(m, [h], resolution=5)
    assert ll.obs_term == float("-inf")
    assert ll.choice_term == 0.0
    assert ll.total == float("-inf")


def test_engine_reset_belief_in_filter(engine_model):
    h = History(
        Belief(np.array([0.4, 0.6])),
        np.array([3, 5, 0, 1]),
        np.array([0, 1, 0]),
    )
    fp = filter_dataset(engine_model, [h])[0]
    np.testing.assert_allclose(fp.beliefs[2], [1.0, 0.0], atol=1e-12)


def test_rank_one_kernel_forgets_x0_after_one_step():
    rng = np.random.default_rng(1)
    row = rng.dirichlet(np.ones(4)).reshape(2, 2)
    kernel = np.tile(row, (1, 2, 2, 1, 1)).reshape(1, 2, 2, 2, 2)
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    obs = np.array([0, 1, 0, 1])
    acts = np.array([0, 0, 0])
    fa = filter_dataset(m, [History(Belief(np.array([0.9, 0.1])), obs, acts)])[0]
    fb = filter_dataset(m, [History(Belief(np.array([0.1, 0.9])), obs, acts)])[0]
    np.testing.assert_allclose(fa.beliefs[1:], fb.beliefs[1:], atol=1e-13)


def test_burn_in_drops_prefix_terms():
    m = random_model(seed=41, n_obs=3)
    rng = np.random.default_rng(21)
    hs = [simulate_crude(m, rng, 6) for _ in range(3)]
    blocks = DatasetBlocks.from_histories(hs, m)
    full = observation_loglik(m.kernel, blocks)
    tail = observation_loglik(m.kernel, blocks, burn_in=2)
    manual = 0.0
    for h in hs:
        fp = filter_dataset(m, [h])[0]
        manual += float(np.log(fp.sigmas[2:]).sum())
    assert tail == pytest.approx(manual, abs=1e-10)
    assert tail != pytest.approx(full, abs=1e-6)
    with pytest.raises(InvalidParams):
        observation_loglik(m.kernel, blocks, burn_in=6)


def test_x0_override_replaces_initial_beliefs():
    m = random_model(seed=51, n_obs=3)
    rng = np.random.default_rng(31)
    hs = [simulate_crude(m, rng, 5) for _ in range(3)]
    blocks = DatasetBlocks.from_histories(hs, m)
    u = np.full(m.n_states, 1.0 / m.n_states)
    overridden = observation_loglik(m.kernel, blocks, x0_override=u)
    swapped = [History(Belief(u), h.obs, h.acts) for h in hs]
    ref = observation_loglik(m.kernel, DatasetBlocks.from_histories(swapped, m))
    assert overridden == pytest.approx(ref, abs=1e-12)


def test_penalized_filter_floors_and_continues():
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, :, :, 1, :] = 0.5
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    h = History(Belief.uniform(2), np.array([0, 0, 1]), np.array([0, 0]))
    blocks = DatasetBlocks.from_histories([h], m)
    val = observation_loglik(m.kernel, blocks, penalize=True)
    assert np.isfinite(val)
    assert val < np.log(1e-6)   # floored step dominates


def _one_direction(direction: np.ndarray):
    """A kernel direction D as observation_score's (block_of, d_blocks), one parameter."""
    n_a, n_z, n_s = direction.shape[:3]
    block_of = np.arange(n_a * n_z * n_z).reshape(n_a, n_z, n_z)
    return block_of, direction.transpose(0, 1, 3, 2, 4).reshape(-1, n_s, n_s, 1)


@pytest.mark.parametrize("burn_in", [0, 3])
@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_tangent_filter_matches_central_differences(n_states, burn_in):
    m = sparse_random_model(seed=10 + n_states, n_states=n_states)
    rng = np.random.default_rng(n_states)
    hs = [simulate_crude(m, rng, t) for t in (6, 9, 9, 12)]
    blocks = DatasetBlocks.from_histories(hs, m)
    # scaling the kernel entry by entry keeps its support, so K +- hD stays a
    # nonnegative kernel under which the data remain possible
    direction = m.kernel * rng.standard_normal(m.kernel.shape)
    value, score = observation_score(m.kernel, _one_direction(direction), blocks, burn_in)
    assert value == observation_loglik(m.kernel, blocks, burn_in)
    h = 1e-6
    up = observation_loglik(m.kernel + h * direction, blocks, burn_in)
    down = observation_loglik(m.kernel - h * direction, blocks, burn_in)
    assert score.shape == (1,)
    assert score[0] == pytest.approx((up - down) / (2.0 * h), rel=1e-6)


def test_floored_steps_add_nothing_to_the_score():
    # observation 0 is impossible from either observation: every move to 0 is
    # floored, and the filter restarts from the uniform belief
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, :, :, 1, :] = 0.5
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    # a direction that moves the impossible blocks too
    grad = _one_direction(np.random.default_rng(3).standard_normal(kernel.shape))
    acts = np.zeros(3, dtype=np.int64)

    def score_of(*histories):
        return observation_score(
            m.kernel, grad, DatasetBlocks.from_histories(list(histories), m), penalize=True
        )

    dead = History(Belief(np.array([0.3, 0.7])), np.array([1, 0, 0, 0]), acts)
    value, score = score_of(dead)
    assert value == pytest.approx(3 * np.log(SIGMA_FLOOR))
    assert score[0] == 0.0
    live = History(Belief(np.array([0.8, 0.2])), np.array([0, 1, 1, 1]), acts)
    assert score_of(live, dead)[1][0] == pytest.approx(score_of(live)[1][0], rel=1e-14)
    # after a floored step the tangent restarts at 0 with the uniform belief
    restart = History(Belief(np.array([0.8, 0.2])), np.array([1, 0, 1, 1]), acts)
    fresh = History(Belief.uniform(2), np.array([0, 1, 1]), acts[:2])
    assert score_of(restart)[1][0] == pytest.approx(score_of(fresh)[1][0], rel=1e-14)


def test_mixed_horizon_blocks_group_and_sum():
    m = random_model(seed=61, n_obs=3)
    rng = np.random.default_rng(41)
    hs = [simulate_crude(m, rng, t) for t in (2, 5, 2, 7)]
    blocks = DatasetBlocks.from_histories(hs, m)
    assert blocks.n_histories == 4
    assert blocks.total_steps == 2 + 5 + 2 + 7
    assert len(blocks.blocks) == 3   # horizons 2, 5, 7
    total = observation_loglik(m.kernel, blocks)
    by_hand = sum(
        observation_loglik(m.kernel, DatasetBlocks.from_histories([h], m)) for h in hs
    )
    assert total == pytest.approx(by_hand, abs=1e-10)
    fps = filter_dataset(m, hs)
    assert [fp.sigmas.shape[0] for fp in fps] == [2, 5, 2, 7]


def test_pseudo_log_likelihood_matches_pointwise():
    m = random_model(seed=71, n_obs=3)
    rng = np.random.default_rng(51)
    hs = [simulate_crude(m, rng, 4) for _ in range(3)]
    grid = BeliefGrid.create(m.n_states, 21)
    q = solve(m, grid=grid, tol=1e-11).qtable
    fps = filter_dataset(m, hs)
    got = pseudo_log_likelihood(q, hs, fps)
    want = 0.0
    for h, fp in zip(hs, fps):
        for t in range(h.horizon):
            want += float(np.log(ccp(q, int(h.obs[t]), fp.beliefs[t])[int(h.acts[t])]))
    assert got == pytest.approx(want, abs=1e-10)
