from __future__ import annotations

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import spe
from spe import (
    Belief,
    BeliefGrid,
    EngineFamily,
    History,
    InvalidParams,
    PomdpModel,
    SimConfig,
    ZeroObservationProbability,
    ccp,
    filter_dataset,
    lambda_update,
    log_likelihood,
    observation_loglik,
    observation_score,
    pseudo_log_likelihood,
    reference_params,
    sigma,
    simulate,
    solve,
)
from spe.likelihood import DatasetBlocks, _scan
from spe.model import SIGMA_FLOOR, block_table
from support import (
    apply_lambda_M,
    call_sites,
    forward_tangent_score,
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


def filtered(model, *histories):
    return filter_dataset(model, DatasetBlocks.from_histories(list(histories), model))


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
    # the sparse model leaves some kernel blocks unreachable
    for m in (random_model(seed=8, n_obs=3), sparse_random_model(seed=5, n_states=3)):
        rng = np.random.default_rng(11)
        h = simulate_crude(m, rng, 7)
        fp = filtered(m, h)
        x = h.x0
        for t in range(h.horizon):
            np.testing.assert_allclose(fp.beliefs[0, t], x.probs, atol=1e-12)
            assert fp.sigmas[0, t] == pytest.approx(
                sigma(m, int(h.obs[t + 1]), int(h.obs[t]), x, int(h.acts[t])), abs=1e-12
            )
            x = lambda_update(m, int(h.obs[t + 1]), int(h.obs[t]), x, int(h.acts[t]))
        assert fp.model_key == m.content_key()


def test_filter_agrees_with_apply_lambda():
    m = two_state_hand_model()
    h = History(Belief(np.array([0.5, 0.5])), np.array([0, 1, 0]), np.array([0, 0]))
    fp = filtered(m, h)
    mid = apply_lambda_M(m, [0, 1], [0], h.x0)
    np.testing.assert_allclose(fp.beliefs[0, 1], mid.probs, atol=1e-14)


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
    fp = filtered(engine_model, h)
    np.testing.assert_allclose(fp.beliefs[0, 2], [1.0, 0.0], atol=1e-12)


def test_rank_one_kernel_forgets_x0_after_one_step():
    rng = np.random.default_rng(1)
    row = rng.dirichlet(np.ones(4)).reshape(2, 2)
    kernel = np.tile(row, (1, 2, 2, 1, 1)).reshape(1, 2, 2, 2, 2)
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    obs = np.array([0, 1, 0, 1])
    acts = np.array([0, 0, 0])
    fa = filtered(m, History(Belief(np.array([0.9, 0.1])), obs, acts))
    fb = filtered(m, History(Belief(np.array([0.1, 0.9])), obs, acts))
    np.testing.assert_allclose(fa.beliefs[0, 1:-1], fb.beliefs[0, 1:-1], atol=1e-13)


def test_burn_in_drops_prefix_terms():
    m = random_model(seed=41, n_obs=3)
    rng = np.random.default_rng(21)
    hs = [simulate_crude(m, rng, 6) for _ in range(3)]
    blocks = DatasetBlocks.from_histories(hs, m)
    full = observation_loglik(m.kernel, blocks)
    tail = observation_loglik(m.kernel, blocks, burn_in=2)
    manual = 0.0
    for h in hs:
        fp = filtered(m, h)
        manual += float(np.log(fp.sigmas[0, 2:]).sum())
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


def _one_direction(kernel: np.ndarray, direction: np.ndarray):
    """Kernel K and direction D as observation_score's dense block table, one parameter."""
    n_a, n_z, n_s = kernel.shape[:3]
    block_of = np.arange(n_a * n_z * n_z).reshape(n_a, n_z, n_z)

    def rows(k):
        return k.transpose(0, 1, 3, 2, 4).reshape(-1, n_s, n_s)

    return block_of, rows(kernel), rows(direction)[..., None]


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
    value, score = observation_score(_one_direction(m.kernel, direction), blocks, burn_in)
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
    table = _one_direction(m.kernel, np.random.default_rng(3).standard_normal(kernel.shape))
    acts = np.zeros(3, dtype=np.int64)

    def score_of(*histories):
        return observation_score(
            table, DatasetBlocks.from_histories(list(histories), m), penalize=True
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


def _never_to_the_last_observation(n_obs: int = 3) -> PomdpModel:
    """Random two-state model under which observation n_obs - 1 is never reached."""
    kernel = np.random.default_rng(5).random((1, n_obs, 2, n_obs, 2))
    kernel[:, :, :, -1] = 0.0
    kernel /= kernel.sum(axis=(3, 4), keepdims=True)
    return PomdpModel(2, n_obs, 1, kernel, np.zeros((1, n_obs, 2)), 0.9)


def test_unpenalized_pass_reports_the_earliest_impossible_step():
    # the floor is tested once per pass, yet the error names the first step at
    # which some history is impossible, and that step's first such history
    m = _never_to_the_last_observation()
    acts = np.zeros(4, dtype=np.int64)
    late = History(Belief.uniform(2), np.array([0, 1, 0, 1, 2]), acts)    # impossible at step 3
    early = History(Belief.uniform(2), np.array([1, 0, 2, 1, 0]), acts)   # impossible at step 1
    data = DatasetBlocks.from_histories([late, early], m)
    for call in (lambda: filter_dataset(m, data), lambda: observation_loglik(m.kernel, data)):
        with pytest.raises(ZeroObservationProbability) as exc:
            call()
        assert exc.value.step == 1
        assert str(exc.value) == "history 1: observation z=2 has probability 0 at step 1"


@pytest.mark.parametrize("burn_in", [0, 2])
def test_floor_restarts_match_histories_filtered_alone(burn_in):
    # histories that floor at step 0, at two separate later steps and at their
    # last step, with a live one and mixed horizons: every restart refilters
    # the later steps, and each history's beliefs and sigmas come out as when
    # it is filtered alone
    m = _never_to_the_last_observation()
    direction = np.random.default_rng(6).standard_normal(m.kernel.shape)
    table = _one_direction(m.kernel, direction)
    obs = [
        [0, 2, 1, 0, 1, 0, 1],      # step 0
        [1, 0, 1, 2, 0, 2, 1],      # steps 2 and 4
        [0, 1, 1, 0, 0, 1, 2],      # step 5, its last
        [1, 1, 0, 1, 2],            # step 3, the last of a shorter history
        [0, 0, 1, 0, 1, 1, 0],      # never
    ]
    x0s = [Belief(np.array([0.3 + 0.1 * i, 0.7 - 0.1 * i])) for i in range(len(obs))]
    hs = [History(x0, np.array(o), np.zeros(len(o) - 1, dtype=np.int64)) for x0, o in zip(x0s, obs)]
    data = DatasetBlocks.from_histories(hs, m)
    value, beliefs, sigmas, score = _scan(table, data, burn_in, penalize=True, store=True)
    alone = [_scan(table, DatasetBlocks.from_histories([h], m), burn_in, True, True) for h in hs]
    assert int((sigmas == SIGMA_FLOOR).sum()) == 5
    for i, (h, (_, b_i, s_i, _)) in enumerate(zip(hs, alone)):
        np.testing.assert_array_equal(beliefs[i, : h.horizon + 1], b_i[0])
        np.testing.assert_array_equal(sigmas[i, : h.horizon], s_i[0])
    assert value == pytest.approx(sum(a[0] for a in alone), rel=1e-12)
    np.testing.assert_allclose(score, sum(a[3] for a in alone), rtol=1e-12, atol=0)


def _assert_matches_the_oracle(kernel_blocks, data, burn_in):
    value, score = observation_score(kernel_blocks, data, burn_in, penalize=True)
    oracle = forward_tangent_score(kernel_blocks, data, burn_in)
    assert np.all(np.isfinite(score)) and np.abs(oracle).max() > 0.0
    np.testing.assert_allclose(score, oracle, rtol=0, atol=1e-10 * np.abs(oracle).max())
    return value


@pytest.fixture(scope="module")
def engine_histories(ref_params):
    """Engine histories cut to horizons 10 to 30, one in eight with an impossible move.

    Usage never rises by 7 bins in one step, so that move's step is floored.
    """
    hs = simulate(ref_params, SimConfig(40, 30, seed=9, grid_resolution=21)).histories
    rng = np.random.default_rng(9)
    cut = []
    for i, h in enumerate(hs):
        t = int(rng.integers(10, 31))
        obs = h.obs[: t + 1].copy()
        if i % 8 == 0:
            obs[6] = obs[5] + 7
        cut.append(History(h.x0, obs, h.acts[:t]))
    return cut


@pytest.mark.parametrize("burn_in", [0, 8])
@pytest.mark.parametrize("n_conditions", [2, 1])
def test_score_matches_the_forward_tangent_on_the_engine(engine_histories, n_conditions, burn_in):
    family = EngineFamily(n_conditions=n_conditions)
    hs = [
        History(h.x0 if n_conditions == 2 else Belief(np.ones(1)), h.obs, h.acts)
        for h in engine_histories
    ]
    data = DatasetBlocks.from_histories(hs, family)
    assert len(set(data.horizons.tolist())) > 1
    with pytest.raises(ZeroObservationProbability):
        observation_loglik(family.build_kernel(family.default_theta2()), data)
    rng = np.random.default_rng(20 + n_conditions)
    u0 = family.theta2_to_unconstrained(family.default_theta2())
    for _ in range(3):
        u = u0 + 2.0 * rng.standard_normal(u0.size)
        value = _assert_matches_the_oracle(family.kernel_blocks(u), data, burn_in)
        kernel = family.build_kernel(family.theta2_from_unconstrained(u))
        assert value == observation_loglik(kernel, data, burn_in, penalize=True)


@pytest.mark.parametrize("burn_in", [0, 3])
def test_score_matches_the_forward_tangent_on_a_random_block_table(burn_in):
    # a random sparse kernel, with one reachable block zeroed so that its
    # moves are floored; the derivative blocks share the blocks' support
    m = sparse_random_model(seed=82, n_states=3)
    rng = np.random.default_rng(83)
    hs = [simulate_crude(m, rng, t) for t in (4, 9, 6, 12, 12)]
    data = DatasetBlocks.from_histories(hs, m)
    block_of, blocks = block_table(m.kernel)
    blocks[block_of[hs[0].acts[1], hs[0].obs[1], hs[0].obs[2]]] = 0.0
    d_blocks = blocks[..., None] * rng.standard_normal(blocks.shape + (4,))
    _assert_matches_the_oracle((block_of, blocks, d_blocks), data, burn_in)


@pytest.mark.parametrize("horizons", [(2, 5, 2, 7), (0, 1, 7, 100)], ids=["2-5-2-7", "0-1-7-100"])
def test_mixed_horizon_blocks_group_and_sum(horizons):
    # one padded batch gives what each history gives alone: the value, its
    # score, the stored observation term and the choice term
    m = random_model(seed=61, n_obs=3)
    rng = np.random.default_rng(41)
    hs = [simulate_crude(m, rng, t) for t in horizons]
    blocks = DatasetBlocks.from_histories(hs, m)
    assert blocks.acts.shape == (4, max(horizons))
    assert blocks.horizons.sum() == sum(horizons)
    singles = [DatasetBlocks.from_histories([h], m) for h in hs]
    total = observation_loglik(m.kernel, blocks)
    by_hand = sum(observation_loglik(m.kernel, b) for b in singles)
    assert total == pytest.approx(by_hand, abs=1e-12)
    table = _one_direction(m.kernel, m.kernel * rng.standard_normal(m.kernel.shape))
    score = observation_score(table, blocks)[1][0]
    assert score == pytest.approx(sum(observation_score(table, b)[1][0] for b in singles), abs=1e-12)
    fps = filter_dataset(m, blocks)
    alone = [filter_dataset(m, b) for b in singles]
    assert fps.sigmas.shape == (4, max(horizons))
    assert np.all(fps.sigmas[~blocks.steps] == 1.0)
    assert fps.obs_term == pytest.approx(sum(f.obs_term for f in alone), abs=1e-12)
    q = solve(m, resolution=21, tol=1e-11).qtable
    choice = sum(pseudo_log_likelihood(q, f) for f in alone)
    assert pseudo_log_likelihood(q, fps) == pytest.approx(choice, abs=1e-12)


def test_burn_in_on_mixed_horizons():
    # burn-in cuts every history's prefix, and is refused exactly when some
    # history is no longer than it
    m = random_model(seed=63, n_obs=3)
    rng = np.random.default_rng(43)
    hs = [simulate_crude(m, rng, t) for t in (3, 9)]
    blocks = DatasetBlocks.from_histories(hs, m)
    table = _one_direction(m.kernel, m.kernel * rng.standard_normal(m.kernel.shape))
    value, score = observation_score(table, blocks, burn_in=2)
    tails = [observation_score(table, DatasetBlocks.from_histories([h], m), burn_in=2) for h in hs]
    assert value == pytest.approx(sum(v for v, _ in tails), abs=1e-12)
    assert score[0] == pytest.approx(sum(g[0] for _, g in tails), abs=1e-12)
    assert value == pytest.approx(sum(np.log(filtered(m, h).sigmas[0, 2:]).sum() for h in hs), abs=1e-12)
    with pytest.raises(InvalidParams):
        observation_score(table, blocks, burn_in=3)


def test_dataset_is_laid_out_once_per_fit():
    # a fit lays the histories out before stage one, which fits that layout,
    # and filters it once at the estimate; stage two and the report read the
    # same FilteredDataset. The prior sweep lays out once for all its fits.
    assert call_sites(("from_histories",)) == [
        ("estimator.py", "estimate", "DatasetBlocks.from_histories"),
        ("estimator.py", "fit_mdp_baseline", "DatasetBlocks.from_histories"),
        ("likelihood.py", "log_likelihood", "DatasetBlocks.from_histories"),
        ("sensitivity.py", "x0_sweep_estimate", "DatasetBlocks.from_histories"),
    ]
    assert "FilteredPath" not in spe.__all__


def test_layout_indexes_the_cells_its_steps_visit():
    # cells are the distinct (a, z, z') of the steps inside the horizons, in
    # sorted order; each step's index reads its cell's block, and padding
    # steps read the identity row after the cells; index is time-major and
    # contiguous, as a pass gathers through it
    m = sparse_random_model(seed=82, n_states=3)
    rng = np.random.default_rng(84)
    hs = [simulate_crude(m, rng, t) for t in (4, 9, 0, 12, 6)]
    data = DatasetBlocks.from_histories(hs, m)
    visited = sorted({(int(h.acts[t]), int(h.obs[t]), int(h.obs[t + 1])) for h in hs for t in range(h.horizon)})
    assert list(zip(*(c.tolist() for c in data.cells))) == visited
    n_cells, steps = len(visited), data.steps.T
    cell_of = data.index[:, 0, :]
    assert data.index.shape == (12, 9, 5) and data.index.flags.c_contiguous
    np.testing.assert_array_equal(data.index, cell_of[:, None, :] + (n_cells + 1) * np.arange(9)[:, None])
    assert np.all(cell_of[~steps] == n_cells)
    for c, step_of in zip(data.cells, (data.acts.T, data.obs[:, :-1].T, data.obs[:, 1:].T)):
        np.testing.assert_array_equal(c[cell_of[steps]], step_of[steps])


def test_replaced_layout_derives_its_own_step_structure():
    # dataclasses.replace makes the step structure anew from the histories it
    # is given, and shares none of it: the copy filters as a fresh layout
    m = random_model(seed=61, n_obs=3)
    rng = np.random.default_rng(45)
    hs = [simulate_crude(m, rng, t) for t in (2, 5, 7)]
    other = [History(h.x0, o.obs, o.acts) for h, o in zip(hs, (simulate_crude(m, rng, t) for t in (6, 3, 1)))]
    data, fresh = DatasetBlocks.from_histories(hs, m), DatasetBlocks.from_histories(other, m)
    copy = dataclasses.replace(data, obs=fresh.obs, acts=fresh.acts, horizons=fresh.horizons)
    for derived in (copy.steps, copy.index, *copy.cells):
        assert not any(np.shares_memory(derived, kept) for kept in (data.steps, data.index, *data.cells))
    table = _one_direction(m.kernel, m.kernel * rng.standard_normal(m.kernel.shape))
    got, want = filter_dataset(m, copy), filter_dataset(m, fresh)
    np.testing.assert_array_equal(got.beliefs, want.beliefs)
    np.testing.assert_array_equal(got.sigmas, want.sigmas)
    assert observation_score(table, copy)[0] == observation_score(table, fresh)[0]
    np.testing.assert_array_equal(observation_score(table, copy)[1], observation_score(table, fresh)[1])


def test_one_layout_reads_either_numbering_of_a_kernel(ref_params):
    # the family's block table and model.block_table number one kernel's
    # blocks differently; a layout read through each in turn filters alike
    family = EngineFamily()
    hs = simulate(ref_params, SimConfig(20, 15, seed=5, grid_resolution=21)).histories
    data = DatasetBlocks.from_histories(hs, family)
    u = np.linspace(-1.0, 1.0, family.theta2_to_unconstrained(family.default_theta2()).size)
    tables = (family.kernel_blocks(u)[:2], block_table(family.build_kernel(family.theta2_from_unconstrained(u))))
    assert not np.array_equal(tables[0][0], tables[1][0])
    _, beliefs, sigmas, _ = _scan(tables[0] + (None,), data, 0, False, True)
    for kernel_blocks in tables * 2:
        _, other_beliefs, other_sigmas, _ = _scan(kernel_blocks + (None,), data, 0, False, True)
        np.testing.assert_array_equal(other_beliefs, beliefs)
        np.testing.assert_array_equal(other_sigmas, sigmas)


def test_pseudo_log_likelihood_matches_pointwise():
    m = random_model(seed=71, n_obs=3)
    rng = np.random.default_rng(51)
    hs = [simulate_crude(m, rng, 4) for _ in range(3)]
    grid = BeliefGrid.create(m.n_states, 21)
    q = solve(m, grid=grid, tol=1e-11).qtable
    fps = filtered(m, *hs)
    got = pseudo_log_likelihood(q, fps)
    want = 0.0
    for h, beliefs in zip(hs, fps.beliefs):
        for t in range(h.horizon):
            want += float(np.log(ccp(q, int(h.obs[t]), beliefs[t])[int(h.acts[t])]))
    assert got == pytest.approx(want, abs=1e-10)


def _pin_cases(ref_params):
    """(name, model, data, kernel_blocks) for the filter-pass pin: unequal horizons throughout."""
    hs = simulate(ref_params, SimConfig(30, 24, seed=5, grid_resolution=21)).histories
    horizons = np.random.default_rng(5).integers(10, 25, size=len(hs))
    hs = [History(h.x0, h.obs[: t + 1], h.acts[:t]) for h, t in zip(hs, horizons)]
    cases = []
    for n_conditions in (2, 1):
        family = EngineFamily(n_conditions=n_conditions)
        flat = hs if n_conditions == 2 else [History(Belief(np.ones(1)), h.obs, h.acts) for h in hs]
        u0 = family.theta2_to_unconstrained(family.default_theta2())
        u = u0 + np.linspace(-0.5, 0.5, u0.size)
        model = family.build_model(family.default_theta1(), family.theta2_from_unconstrained(u))
        data = DatasetBlocks.from_histories(flat, family)
        cases.append((f"engine K={n_conditions}", model, data, family.kernel_blocks(u), (0, 8)))
    # a 3-state sparse table with one reachable block zeroed: its moves are
    # floored in the penalized score, while the dense model filters them
    m = sparse_random_model(seed=82, n_states=3)
    rng = np.random.default_rng(83)
    rand = [simulate_crude(m, rng, t) for t in (4, 9, 6, 12, 12)]
    block_of, blocks = block_table(m.kernel)
    blocks[block_of[rand[0].acts[1], rand[0].obs[1], rand[0].obs[2]]] = 0.0
    d_blocks = blocks[..., None] * rng.standard_normal(blocks.shape + (4,))
    data = DatasetBlocks.from_histories(rand, m)
    cases.append(("sparse 3-state", m, data, (block_of, blocks, d_blocks), (0, 3)))
    return cases


def _pass_digest(model, data, kernel_blocks, burn_ins) -> str:
    fps = filter_dataset(model, data)
    h = hashlib.sha256(fps.beliefs.tobytes() + fps.sigmas.tobytes())
    for burn_in in burn_ins:
        value, score = observation_score(kernel_blocks, data, burn_in, penalize=True)
        h.update(np.float64(value).tobytes() + score.tobytes())
    return h.hexdigest()


def test_filter_pass_bytes_frozen(ref_params):
    # filter_dataset's beliefs and sigmas and observation_score's value and
    # score, bit for bit, on both engine sizes and a sparse random table
    digests = {name: _pass_digest(*rest) for name, *rest in _pin_cases(ref_params)}
    assert digests == {
        "engine K=2": "1b0330f1053ecd6d046e07a35309eacd5231c467914eede00faa5d6f92bab44c",
        "engine K=1": "0c385c702dfee184488736279a4a7a38758602b1a559c1b55485f0a11a41a99a",
        "sparse 3-state": "9567708286ecbb4a577470011f9163236b1a5be300a8a7342531c3dd2971f8d8",
    }
