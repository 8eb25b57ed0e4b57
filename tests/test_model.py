from __future__ import annotations

import argparse
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spe
from spe import (
    Belief,
    History,
    InvalidParams,
    ParseError,
    PomdpModel,
    ZeroObservationProbability,
    lambda_update,
    sigma,
)
from spe.bellman import QTable, load_qtable, save_qtable
from spe.cli import _resolve_config
from spe.engine import load_params, reference_params, save_params
from spe.grid import BeliefGrid
from spe.model import SIGMA_FLOOR, bayes_posterior, block_table
from support import (
    apply_lambda_M,
    expected_reward,
    random_belief,
    random_model,
    sparse_random_model,
    two_state_hand_model,
)

sizes = st.tuples(
    st.integers(0, 2**31 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 3),
)


def test_sigma_hand_case():
    m = two_state_hand_model()
    x = Belief(np.array([0.5, 0.5]))
    assert sigma(m, 1, 0, x, 0) == pytest.approx(0.55, abs=1e-12)
    assert sigma(m, 0, 0, x, 0) == pytest.approx(0.45, abs=1e-12)


def test_lambda_hand_case():
    m = two_state_hand_model()
    x = Belief(np.array([0.5, 0.5]))
    out = lambda_update(m, 1, 0, x, 0)
    np.testing.assert_allclose(out.probs, [8.0 / 11.0, 3.0 / 11.0], atol=1e-12)


def test_sigma_degenerate_belief_is_kernel_row():
    m = random_model(seed=3)
    for s in range(m.n_states):
        e = np.zeros(m.n_states)
        e[s] = 1.0
        got = sigma(m, 2, 1, Belief(e), 1)
        assert got == pytest.approx(float(m.kernel[1, 1, s, 2, :].sum()), abs=1e-14)


def test_lambda_rank_one_kernel_forgets_belief():
    # All hidden rows identical: the posterior cannot depend on the prior.
    rng = np.random.default_rng(0)
    row = rng.dirichlet(np.ones(6)).reshape(3, 2)
    kernel = np.tile(row, (1, 3, 2, 1, 1)).reshape(1, 3, 2, 3, 2)
    m = PomdpModel(2, 3, 1, kernel, np.zeros((1, 3, 2)), 0.9)
    a = lambda_update(m, 1, 0, Belief(np.array([0.9, 0.1])), 0)
    b = lambda_update(m, 1, 0, Belief(np.array([0.2, 0.8])), 0)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-14)


def test_lambda_zero_probability_raises():
    # observation 1 is unreachable from observation 0 by construction
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, :, :, 0, :] = 0.5
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    x = Belief(np.array([0.5, 0.5]))
    with pytest.raises(ZeroObservationProbability):
        lambda_update(m, 1, 0, x, 0)


def test_bayes_posterior_matches_scalar_update_and_floors_dead_rows():
    m = sparse_random_model(seed=5, n_states=3)
    block_of, blocks = block_table(m.kernel)
    z, a, z2 = np.nonzero(block_of.transpose(1, 0, 2))
    mass = m.kernel.sum(axis=-1)[a, z, :, z2]          # (blocks, s)
    assert np.all(mass.max(axis=1) >= SIGMA_FLOOR)
    # every block that no hidden state reaches is left out
    n_reachable = int((m.kernel.sum(axis=-1) > 0.0).any(axis=2).sum())
    assert z.size == n_reachable < m.n_obs**2 * m.n_actions
    rng = np.random.default_rng(1)
    xs = rng.dirichlet(np.ones(3), size=4)
    xs[0] = [0.0, 0.0, 1.0]
    numer = np.einsum("bs,kst->kbt", xs, blocks[1:])
    beliefs, sig, live = (v.T for v in bayes_posterior(numer.T))
    for k in range(z.size):
        for b in range(xs.shape[0]):
            s_ref = sigma(m, z2[k], z[k], xs[b], a[k])
            if live[k, b]:
                assert sig[k, b] == pytest.approx(s_ref, rel=1e-13)
                ref = lambda_update(m, z2[k], z[k], xs[b], a[k]).probs
                np.testing.assert_allclose(beliefs[k, b], ref, rtol=0, atol=1e-15)
            else:
                assert s_ref < SIGMA_FLOOR and sig[k, b] == SIGMA_FLOOR
                np.testing.assert_array_equal(beliefs[k, b], np.full(3, 1.0 / 3.0))
    assert not np.all(live)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_model(seed=2, n_states=3),
        lambda: sparse_random_model(seed=5, n_states=3),
        two_state_hand_model,
        lambda: spe.build_engine_model(spe.reference_params(), 0.95),
    ],
    ids=["random", "sparse_random", "hand", "engine"],
)
def test_block_table_matches_the_dense_kernel(build):
    m = build()
    block_of, blocks = block_table(m.kernel)
    assert block_of.shape == (m.n_actions, m.n_obs, m.n_obs)
    np.testing.assert_array_equal(blocks[0], 0.0)
    reachable = (m.kernel.sum(axis=-1) >= SIGMA_FLOOR).any(axis=2)     # (a, z, z')
    for a in range(m.n_actions):
        for z in range(m.n_obs):
            for z2 in range(m.n_obs):
                k = block_of[a, z, z2]
                assert (k > 0) == reachable[a, z, z2]
                if k > 0:
                    np.testing.assert_array_equal(blocks[k], m.kernel[a, z, :, z2, :])
    # one row per reachable cell, numbered in order of (z, a, z')
    rows = block_of.transpose(1, 0, 2)[reachable.transpose(1, 0, 2)]
    np.testing.assert_array_equal(rows, np.arange(1, blocks.shape[0]))


def test_expected_reward_engine_numbers(ref_params, engine_model):
    x = Belief(np.array([0.5, 0.5]))
    got = expected_reward(engine_model, 10, x, 0)
    assert got == pytest.approx(-0.001 * 10 * (0.5 * 0.2 + 0.5 * 1.2), abs=1e-15)
    # replacement cost is flat in mileage and belief
    for z in (0, 57, 119):
        assert expected_reward(engine_model, z, x, 1) == pytest.approx(
            -ref_params.replacement_cost, abs=1e-12
        )


def test_expected_reward_vertex():
    m = random_model(seed=11)
    e0 = np.zeros(m.n_states)
    e0[0] = 1.0
    assert expected_reward(m, 2, Belief(e0), 1) == pytest.approx(
        float(m.reward[1, 2, 0]), abs=1e-14
    )


def test_engine_replacement_resets_belief(engine_model):
    for xg in (0.0, 0.35, 1.0):
        x = Belief(np.array([xg, 1.0 - xg]))
        assert sigma(engine_model, 0, 40, x, 1) == pytest.approx(1.0, abs=1e-12)
        out = lambda_update(engine_model, 0, 40, x, 1)
        np.testing.assert_allclose(out.probs, [1.0, 0.0], atol=1e-14)


def test_apply_lambda_m_edges():
    m = two_state_hand_model()
    x = Belief(np.array([0.3, 0.7]))
    out0 = apply_lambda_M(m, [0], [], x)
    np.testing.assert_allclose(out0.probs, x.probs, atol=0)
    out1 = apply_lambda_M(m, [0, 1], [0], x)
    ref = lambda_update(m, 1, 0, x, 0)
    np.testing.assert_allclose(out1.probs, ref.probs, atol=0)


def test_apply_lambda_m_composition():
    m = random_model(seed=5, n_obs=3)
    rng = np.random.default_rng(9)
    obs = [0, 1, 2, 0, 1]
    acts = [0, 1, 0, 1]
    x = random_belief(rng, 2)
    full = apply_lambda_M(m, obs, acts, x)
    mid = apply_lambda_M(m, obs[:3], acts[:2], x)
    tail = apply_lambda_M(m, obs[2:], acts[2:], mid)
    np.testing.assert_allclose(full.probs, tail.probs, atol=1e-12)


def test_apply_lambda_m_reports_step():
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, 0, :, 1, :] = 0.5   # from z=0 the chain must move to z=1
    kernel[0, 1, :, 1, :] = 0.5   # and then stays there
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    x = Belief(np.array([0.5, 0.5]))
    with pytest.raises(ZeroObservationProbability) as exc:
        # second update asks for the impossible return to z=0
        apply_lambda_M(m, [0, 1, 0], [0, 0], x)
    assert exc.value.step == 1


def test_apply_lambda_m_replacement_forgets(engine_model):
    for xg in (0.1, 0.8):
        out = apply_lambda_M(
            engine_model, [10, 12, 0, 2], [0, 1, 0], Belief(np.array([xg, 1.0 - xg]))
        )
        ref = apply_lambda_M(
            engine_model, [10, 12, 0, 2], [0, 1, 0], Belief(np.array([0.5, 0.5]))
        )
        np.testing.assert_allclose(out.probs, ref.probs, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(sizes)
def test_sigma_normalizes(dims):
    seed, n_states, n_obs, n_actions = dims
    m = random_model(seed, n_states, n_obs, n_actions)
    rng = np.random.default_rng(seed + 1)
    x = random_belief(rng, n_states)
    for a in range(n_actions):
        total = sum(sigma(m, z2, 0, x, a) for z2 in range(n_obs))
        assert total == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(sizes)
def test_lambda_output_is_valid_belief(dims):
    seed, n_states, n_obs, n_actions = dims
    m = random_model(seed, n_states, n_obs, n_actions)
    rng = np.random.default_rng(seed + 2)
    x = random_belief(rng, n_states)
    for z2 in range(n_obs):
        if sigma(m, z2, 0, x, 0) <= 1e-12:
            continue
        out = lambda_update(m, z2, 0, x, 0)
        assert np.all(out.probs >= 0.0)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_expected_reward_linear_in_belief(seed, alpha):
    m = random_model(seed, n_states=3)
    rng = np.random.default_rng(seed + 3)
    x = random_belief(rng, 3)
    y = random_belief(rng, 3)
    mix = Belief(alpha * x.probs + (1.0 - alpha) * y.probs)
    lhs = expected_reward(m, 1, mix, 0)
    rhs = alpha * expected_reward(m, 1, x, 0) + (1.0 - alpha) * expected_reward(m, 1, y, 0)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_model_validation(tmp_path):
    # rows of four entries of 0.25 sum to 1, so each case below trips its own check
    kernel = np.full((1, 2, 2, 2, 2), 0.25)
    reward = np.zeros((1, 2, 2))
    with pytest.raises(InvalidParams, match="sum to 1"):
        PomdpModel(2, 2, 1, kernel * 1.01, reward, 0.9)
    with pytest.raises(InvalidParams, match="discount"):
        PomdpModel(2, 2, 1, kernel, reward, 1.0)
    with pytest.raises(InvalidParams, match="discount"):
        PomdpModel(2, 2, 1, kernel, reward, -0.1)
    with pytest.raises(InvalidParams, match="reward shape"):
        PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 3)), 0.9)
    bad = kernel.copy()
    bad[0, 0, 0, 0, 0] = -0.1
    bad[0, 0, 0, 1, 0] += 0.35
    with pytest.raises(InvalidParams, match="negative"):
        PomdpModel(2, 2, 1, bad, reward, 0.9)
    # a model file needs JSON integers for the sizes and a JSON number for the discount
    path = tmp_path / "model.json"
    for key, value in [("n_states", 2.7), ("n_obs", True), ("n_actions", "1"), ("discount", "0.9")]:
        spe.save_model(PomdpModel(2, 2, 1, kernel, reward, 0.9), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidParams, match=key):
            spe.load_model(path)


@pytest.mark.parametrize(
    "key, path, value",
    [("kernel", (0, 1, 0, 0, 1), "0.25"), ("kernel", (0, 0, 1, 1, 0), True), ("reward", (0, 1, 0), False)],
)
def test_model_file_array_fields_need_numbers(tmp_path, key, path, value):
    # np.asarray(..., dtype=float64) reads "0.25" as 0.25 and true as 1.0
    file = tmp_path / "model.json"
    spe.save_model(two_state_hand_model(), file)
    payload = json.loads(file.read_text())
    inner = payload[key]
    for i in path[:-1]:
        inner = inner[i]
    inner[path[-1]] = value
    file.write_text(json.dumps(payload))
    with pytest.raises(InvalidParams, match=f"{key} must hold only numbers, got {value!r}"):
        spe.load_model(file)
    payload[key] = [[0.5], 0.5]
    file.write_text(json.dumps(payload))
    with pytest.raises(InvalidParams, match=f"{key} must be a rectangular array"):
        spe.load_model(file)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_refuses_non_finite_kernel_entries(value):
    # NaN fails both "< 0" and "> tol", so a NaN kernel used to pass both checks
    kernel = np.full((1, 2, 2, 2, 2), 0.25)
    kernel[0, 1, 0, 0, 1] = value
    with pytest.raises(InvalidParams, match="non-finite"):
        PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)


def test_belief_validation():
    with pytest.raises(InvalidParams):
        Belief(np.array([0.6, 0.6]))
    with pytest.raises(InvalidParams):
        Belief(np.array([-0.1, 1.1]))
    with pytest.raises(InvalidParams):
        Belief(np.array([np.nan, np.nan]))
    u = Belief.uniform(4)
    assert u.probs.sum() == pytest.approx(1.0)
    p = Belief.point_mass(1, 3)
    np.testing.assert_allclose(p.probs, [0.0, 1.0, 0.0], atol=0)


def test_history_validation():
    x = Belief(np.array([0.5, 0.5]))
    with pytest.raises(InvalidParams):
        History(x, np.array([0, 1]), np.array([0, 0]))
    h = History(x, np.array([0, 1, 0]), np.array([0, 2]))
    m = two_state_hand_model()
    with pytest.raises(InvalidParams):
        h.validate_against(m)  # action 2 out of range for a 1-action model
    ok = History(x, np.array([0, 1, 0]), np.array([0, 0]))
    ok.validate_against(m)
    assert ok.horizon == 2


def test_model_round_trip(tmp_path):
    m = random_model(seed=21, n_obs=3)
    path = tmp_path / "model.json"
    spe.save_model(m, path)
    back = spe.load_model(path)
    np.testing.assert_array_equal(back.kernel, m.kernel)
    np.testing.assert_array_equal(back.reward, m.reward)
    assert back.discount == m.discount
    assert back.content_key() == m.content_key()
    other = random_model(seed=22, n_obs=3)
    assert other.content_key() != m.content_key()


def _save_qtable(path):
    grid = BeliefGrid.create(2, 5)
    save_qtable(QTable(np.zeros((2, grid.n_nodes, 2)), grid, "k"), path)


JSON_FILE_KINDS = {
    # kind: (writer of a valid file, its loader, one required key or None)
    "model": (lambda p: spe.save_model(two_state_hand_model(), p), spe.load_model, "reward"),
    "qtable": (_save_qtable, load_qtable, "values"),
    "parameter": (lambda p: save_params(reference_params(), p), load_params, "replacement_cost"),
    "config": (
        lambda p: p.write_text(json.dumps({"grid_resolution": 31})),
        lambda p: _resolve_config(argparse.Namespace(config=p)),
        None,
    ),
}


@pytest.mark.parametrize("kind", list(JSON_FILE_KINDS))
def test_every_json_file_kind_fails_the_same_way(tmp_path, kind):
    # model, Q-table, parameter and config files all go through read_json_object
    save, load, required = JSON_FILE_KINDS[kind]
    path = tmp_path / "file.json"
    save(path)
    load(path)
    payload = json.loads(path.read_text())
    path.write_text('{\n  "n_states": 2,\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3") as exc:
        load(path)
    assert exc.value.line == 3
    faults = [
        ([payload], "file must hold a JSON object"),
        (5, "file must hold a JSON object"),
        ({**payload, "extra": 1}, f"unknown {kind} fields: ['extra']"),
    ]
    if required:
        rest = {k: v for k, v in payload.items() if k != required}
        faults.append((rest, f"missing {kind} fields: ['{required}']"))
    for value, message in faults:
        path.write_text(json.dumps(value))
        with pytest.raises(InvalidParams, match=re.escape(message)):
            load(path)
