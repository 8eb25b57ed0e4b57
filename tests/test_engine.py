from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from spe import (
    Belief,
    BeliefGrid,
    EngineFamily,
    History,
    InvalidParams,
    ParseError,
    SchemaError,
    SimConfig,
    build_engine_model,
    emit_dataset,
    emit_debug_sidecar,
    load_dataset,
    load_fleet_records,
    load_params,
    reference_params,
    save_params,
    sigma,
    simulate,
)
from spe.bellman import BellmanSolver
import spe
from support import call_sites, expected_reward

# One family at two sizes; the ids keep the names the two sizes had as two classes.
BOTH_SIZES = pytest.mark.parametrize("n_conditions", [2, 1], ids=["EngineFamily", "MdpEngineFamily"])


def test_reference_values_frozen(ref_params):
    np.testing.assert_allclose(ref_params.persistence, [0.949, 0.988], atol=0)
    np.testing.assert_allclose(
        ref_params.increments,
        [[0.039, 0.333, 0.590, 0.038], [0.181, 0.757, 0.061, 0.001]],
        atol=0,
    )
    np.testing.assert_allclose(ref_params.cost_slopes, [0.2, 1.2], atol=0)
    assert ref_params.replacement_cost == 9.243
    assert ref_params.n_mileage_bins == 120


def test_kernel_is_stochastic(engine_model):
    sums = engine_model.kernel.sum(axis=(3, 4))
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_keep_transition_follows_increments(ref_params, engine_model):
    # at a degenerate good belief the usage distribution is the good row
    x = Belief(np.array([1.0, 0.0]))
    for d in range(4):
        assert sigma(engine_model, 10 + d, 10, x, 0) == pytest.approx(
            ref_params.increments[0, d], abs=1e-12
        )
    x_bad = Belief(np.array([0.0, 1.0]))
    for d in range(4):
        assert sigma(engine_model, 10 + d, 10, x_bad, 0) == pytest.approx(
            ref_params.increments[1, d], abs=1e-12
        )


def test_replacement_resets_usage_and_condition(ref_params, engine_model):
    x = Belief(np.array([0.3, 0.7]))
    for z in (0, 60, 119):
        assert sigma(engine_model, 0, z, x, 1) == pytest.approx(1.0, abs=1e-12)
    # all replacement mass lands on (z'=0, s'=good)
    mass = engine_model.kernel[1, 60, :, 0, 0]
    np.testing.assert_allclose(mass, 1.0, atol=1e-12)


def test_usage_saturates_at_cap(ref_params, engine_model):
    cap = ref_params.n_mileage_bins - 1
    x = Belief(np.array([1.0, 0.0]))
    inc = ref_params.increments[0]
    # from two bins below: increments of 2 and 3 pile onto the cap
    assert sigma(engine_model, cap, cap - 2, x, 0) == pytest.approx(
        inc[2] + inc[3], abs=1e-12
    )
    assert sigma(engine_model, cap, cap - 1, x, 0) == pytest.approx(
        inc[1:].sum(), abs=1e-12
    )
    # at the cap every keep transition stays put
    assert sigma(engine_model, cap, cap, x, 0) == pytest.approx(1.0, abs=1e-12)


def test_reward_table_values(ref_params, engine_model):
    x_bad = Belief(np.array([0.0, 1.0]))
    assert expected_reward(engine_model, 50, x_bad, 0) == pytest.approx(
        -0.001 * 1.2 * 50, abs=1e-12
    )
    assert expected_reward(engine_model, 50, x_bad, 1) == pytest.approx(-9.243, abs=1e-12)


def test_condition_persistence_on_keep(ref_params, engine_model):
    # staying mass in condition s sums to persistence[s] across usage bins
    stay_good = engine_model.kernel[0, 10, 0, :, 0].sum()
    assert stay_good == pytest.approx(ref_params.persistence[0], abs=1e-12)
    stay_bad = engine_model.kernel[0, 10, 1, :, 1].sum()
    assert stay_bad == pytest.approx(ref_params.persistence[1], abs=1e-12)


def test_params_round_trip(tmp_path, ref_params):
    path = tmp_path / "params.json"
    save_params(ref_params, path)
    back = load_params(path)
    np.testing.assert_array_equal(back.persistence, ref_params.persistence)
    np.testing.assert_array_equal(back.increments, ref_params.increments)
    np.testing.assert_array_equal(back.cost_slopes, ref_params.cost_slopes)
    assert back.replacement_cost == ref_params.replacement_cost


def test_params_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"persistence": [0.9, 0.9]}))
    with pytest.raises(InvalidParams):
        load_params(path)
    path.write_text(json.dumps({"persistence": [0.9, 0.9], "extra": 1}))
    with pytest.raises(InvalidParams):
        load_params(path)
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_params(path)
    # float() reads a boolean as 1.0 and a numeric string as its number
    for cost in (True, "9.243"):
        save_params(reference_params(), path)
        payload = json.loads(path.read_text())
        payload["replacement_cost"] = cost
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidParams, match="replacement_cost must be a number"):
            load_params(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("persistence", ["0.949", True]),
        ("increments", [[0.039, 0.333, 0.590, 0.038], [0.181, 0.757, 0.061, "0.001"]]),
        ("cost_slopes", [0.2, True]),
        ("cost_slopes", [0.2, None]),
    ],
)
def test_params_file_array_fields_need_numbers(tmp_path, ref_params, field, value):
    # np.asarray(..., dtype=float64) would load ["0.949", true] as [0.949, 1.0]
    path = tmp_path / "params.json"
    save_params(ref_params, path)
    payload = json.loads(path.read_text())
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidParams, match=f"{field} must hold only numbers"):
        load_params(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("persistence", [np.nan, 0.988]),
        ("increments", [[0.039, 0.333, np.nan, 0.038], [0.181, 0.757, 0.061, 0.001]]),
        ("n_mileage_bins", np.nan),
    ],
)
def test_params_refuse_nan(ref_params, field, value):
    with pytest.raises(InvalidParams):
        dataclasses.replace(ref_params, **{field: np.asarray(value)})


@pytest.mark.parametrize("bins", [12.7, 12.0, True, "12"])
def test_params_file_needs_an_integer_bin_count(tmp_path, ref_params, bins):
    # a fractional bin count used to be truncated to 12
    path = tmp_path / "params.json"
    save_params(ref_params, path)
    payload = json.loads(path.read_text())
    payload["n_mileage_bins"] = bins
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidParams, match="n_mileage_bins must be an integer"):
        load_params(path)


def test_params_validation():
    with pytest.raises(InvalidParams):
        dataclasses.replace(reference_params(), replacement_cost=-1.0)
    with pytest.raises(InvalidParams):
        dataclasses.replace(reference_params(), persistence=np.array([1.2, 0.5]))
    with pytest.raises(InvalidParams):
        dataclasses.replace(
            reference_params(),
            increments=np.array([[0.5, 0.5, 0.1, 0.0], [0.25, 0.25, 0.25, 0.25]]),
        )


def test_simulate_deterministic(ref_params):
    cfg = SimConfig(6, 20, seed=77)
    a = simulate(ref_params, cfg)
    b = simulate(ref_params, cfg)
    for ha, hb in zip(a.histories, b.histories):
        np.testing.assert_array_equal(ha.obs, hb.obs)
        np.testing.assert_array_equal(ha.acts, hb.acts)
        np.testing.assert_array_equal(ha.x0.probs, hb.x0.probs)
    np.testing.assert_array_equal(a.states, b.states)
    c = simulate(ref_params, SimConfig(6, 20, seed=78))
    assert any(
        not np.array_equal(ha.obs, hc.obs) for ha, hc in zip(a.histories, c.histories)
    )


def test_simulate_shapes_and_support(ref_params):
    res = simulate(ref_params, SimConfig(5, 30, seed=3))
    assert len(res.histories) == 5
    assert res.states.shape == (5, 31)
    assert res.beliefs.shape == (5, 30, 2)
    for h in res.histories:
        assert h.obs.shape == (31,)
        assert h.obs.min() >= 0 and h.obs.max() < 120
        assert set(np.unique(h.acts)).issubset({0, 1})
        # usage only moves up by at most 3 between keeps, resets on replace
        deltas = np.diff(h.obs)
        keep = h.acts == 0
        assert np.all(deltas[keep] >= 0) and np.all(deltas[keep] <= 3)
        assert np.all(h.obs[1:][~keep] == 0)


def test_simulate_fixed_x0_and_z0(ref_params):
    res = simulate(ref_params, SimConfig(4, 5, seed=1, x0=(1.0, 0.0), z0=7))
    for h in res.histories:
        np.testing.assert_allclose(h.x0.probs, [1.0, 0.0], atol=0)
        assert h.obs[0] == 7
    # the hidden state draw respects a degenerate initial belief
    assert np.all(res.states[:, 0] == 0)


@pytest.mark.parametrize(
    "config, digests",
    [
        (
            SimConfig(500, 100, seed=4),
            (
                "43c2e419699138f47ad34dd347b2dd3379aedfe70b9bb96c74d70b7319cb47cc",
                "32c02e15379588b77e54b5239043d5bab09cab9e70c2838dc4768416166d9b15",
                "4c5e5e572071ea71c3fd47ad0d366fbc014a023cc7f507557ca3db2d3b4da4a6",
            ),
        ),
        (
            SimConfig(40, 30, seed=7, x0=(0.3, 0.7), z0=60),
            (
                "e5e13a331cc0586dd6dd0df374b38fd4fe0d274f28c4b0ee0986d9a4a6df671f",
                "e9a15a094703faaea3fdf53af7e04da21717008ab4bb228799712b2fced03c65",
                "6eaadf2db65c0c8ef43ae6f36858a2dffbfe6e79c2fad68ff947e1994633d814",
            ),
        ),
    ],
    ids=["pinned-fleet", "fixed-x0"],
)
def test_simulated_fleet_bytes_frozen(ref_params, config, digests):
    # the pinned acceptance fleet and every benchmark fleet come from simulate
    res = simulate(ref_params, config)
    obs = np.stack([h.obs for h in res.histories])
    acts = np.stack([h.acts for h in res.histories])
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (obs, acts, res.beliefs))
    assert got == digests


@pytest.mark.parametrize("z0", [-1, 120, 500])
def test_simulate_rejects_z0_outside_usage_bins(ref_params, z0):
    with pytest.raises(InvalidParams, match="z0"):
        simulate(ref_params, SimConfig(3, 5, seed=1, z0=z0))


def test_simulate_config_validation():
    with pytest.raises(InvalidParams):
        SimConfig(0, 10, seed=1)
    with pytest.raises(InvalidParams):
        SimConfig(10, 0, seed=1)
    with pytest.raises(InvalidParams):
        SimConfig(10, 10, seed=1, x0="half")
    with pytest.raises(InvalidParams):
        SimConfig(10, 10, seed=1, x0=(0.7, 0.7))
    # a NaN x0 would be simulated on NaN beliefs
    with pytest.raises(InvalidParams):
        SimConfig(10, 10, seed=1, x0=(np.nan, np.nan))
    # only x0[0] is read, so the sum must hold to Belief's 1e-12
    with pytest.raises(InvalidParams):
        SimConfig(10, 10, seed=1, x0=(0.5, 0.5 + 5e-10))


@pytest.mark.parametrize(
    "field, value",
    [("n_histories", 2.5), ("n_histories", True), ("horizon", 3.0), ("seed", "1"), ("z0", False),
     ("grid_resolution", 11.0)],
)
def test_simulate_config_needs_integer_sizes(field, value):
    # 2.5 histories used to end in numpy's TypeError and True to simulate one history
    with pytest.raises(InvalidParams, match=f"{field} must be an integer"):
        SimConfig(**{"n_histories": 3, "horizon": 5, "seed": 1, field: value})


def test_dataset_round_trip(tmp_path, ref_params):
    res = simulate(ref_params, SimConfig(4, 12, seed=9))
    path = tmp_path / "fleet.jsonl"
    emit_dataset(res.histories, path)
    back = load_dataset(path)
    assert len(back) == 4
    for ha, hb in zip(res.histories, back):
        np.testing.assert_array_equal(ha.obs, hb.obs)
        np.testing.assert_array_equal(ha.acts, hb.acts)
        np.testing.assert_allclose(ha.x0.probs, hb.x0.probs, atol=1e-15)


def test_dataset_parse_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x0": [1.0, 0.0], "z": [0, 1], "a": [0]}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert exc.value.line == 2
    path.write_text('{"x0": [1.0, 0.0], "z": [0, 1]}\n')
    with pytest.raises(SchemaError):
        load_dataset(path)
    path.write_text('{"x0": [1.0, 0.0], "z": [0, 1], "a": [0, 0]}\n')
    with pytest.raises(SchemaError):
        load_dataset(path)
    path.write_text("\n\n")
    assert load_dataset(path) == []
    path.write_text('{"x0": [1.0, 0.0], "z": [3], "a": []}\n')
    (h,) = load_dataset(path)
    assert h.horizon == 0


@pytest.mark.parametrize(
    "key, entries",
    [
        ("z", "[0, 1.7, 2]"),
        ("z", "[0, 1.0, 2]"),
        ("z", '[0, "1", 2]'),
        ("z", "[0, true, 2]"),
        ("a", "[0.5, 0]"),
        ("a", '["0", 0]'),
        ("a", "[false, 0]"),
    ],
)
def test_dataset_entries_must_be_json_integers(tmp_path, key, entries):
    # a float, string or boolean entry used to be cast to an integer silently
    fields = {"z": "[0, 1, 2]", "a": "[0, 0]", key: entries}
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"x0": [1.0, 0.0], "z": [0, 1, 2], "a": [0, 0]}\n'
        f'{{"x0": [1.0, 0.0], "z": {fields["z"]}, "a": {fields["a"]}}}\n'
    )
    with pytest.raises(SchemaError, match=f"line 2: {key} must be a list of integers"):
        load_dataset(path)


@pytest.mark.parametrize("x0", ["[true, false]", '["0.5", "0.5"]', '"ab"'])
def test_dataset_x0_must_be_json_numbers(tmp_path, x0):
    # a boolean or string entry used to be cast to a number silently, and "ab" to fail without a line
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"x0": [1.0, 0.0], "z": [0, 1, 2], "a": [0, 0]}\n'
        f'{{"x0": {x0}, "z": [0, 1, 2], "a": [0, 0]}}\n'
    )
    with pytest.raises(SchemaError, match="line 2: x0 must be a list of numbers"):
        load_dataset(path)


def test_debug_sidecar_alignment(tmp_path, ref_params):
    res = simulate(ref_params, SimConfig(3, 8, seed=21))
    path = tmp_path / "debug.jsonl"
    emit_debug_sidecar(res, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 3
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(row["s"], res.states[i])
        np.testing.assert_allclose(row["x"], res.beliefs[i], atol=1e-15)
        assert row["s"][0] in (0, 1)


def test_loader_stub_raises():
    with pytest.raises(NotImplementedError):
        load_fleet_records()


def test_family_round_trips_params(ref_params):
    family = EngineFamily()
    theta1, theta2 = family.params_to_theta(ref_params)
    back = family.theta_to_params(theta1, theta2)
    np.testing.assert_allclose(back.persistence, ref_params.persistence, atol=1e-12)
    np.testing.assert_allclose(back.increments, ref_params.increments, atol=1e-12)
    np.testing.assert_allclose(back.cost_slopes, ref_params.cost_slopes, atol=1e-12)
    assert back.replacement_cost == pytest.approx(ref_params.replacement_cost, abs=1e-12)
    u = family.theta2_to_unconstrained(theta2)
    np.testing.assert_allclose(
        family.theta2_from_unconstrained(u), theta2, atol=1e-10
    )
    model = family.build_model(theta1, theta2)
    ref_model = build_engine_model(ref_params)
    np.testing.assert_allclose(model.kernel, ref_model.kernel, atol=1e-12)
    np.testing.assert_allclose(model.reward, ref_model.reward, atol=1e-12)


def test_engine_model_bytes_frozen(ref_params):
    # the pinned fleets, benchmarks and cold solves are built from these exact tables
    assert build_engine_model(ref_params, 0.95).content_key() == "1cee3b26fd665da6"
    assert build_engine_model(ref_params, 0.99).content_key() == "1ee08b1d2626a5cc"


@pytest.mark.parametrize(
    "discount, data_sha",
    [
        (0.95, "1e82ba403751b83b50b2a69c5dc80c77983972b69d61cb65f37f73c96cfcc02b"),
        (0.99, "9627fefa8a962fa16d0a8a991bdc891fe7574a2b8aef83f9d11150b54d374a6d"),
    ],
)
def test_engine_solver_bytes_frozen(ref_params, discount, data_sha):
    # the successor matrix behind every sweep of the pinned fits and cold solves
    solver = BellmanSolver(build_engine_model(ref_params, discount), BeliefGrid.create(2, 101))
    succ = solver.successors
    digests = [hashlib.sha256(arr.tobytes()).hexdigest() for arr in (succ.data, succ.indices, succ.indptr)]
    assert digests == [
        data_sha,
        "427f698a67881d760a4823a967ffe64270655bb8313f2de5f5faaa15e417b071",
        "3da8c7f5e0d37ec32143b276b69934531d8d4d37bc902638ca0d19c6eb4a3934",
    ]


@BOTH_SIZES
def test_reward_tensor_is_affine_in_theta1(n_conditions):
    family = EngineFamily(n_conditions=n_conditions)
    # stage 2 reads the reward gradient off r(e_p) - r(0), which is exact
    # only for a reward table affine in theta1
    rng = np.random.default_rng(3)
    dim = family.default_theta1().size
    r0 = family.reward_tensor(np.zeros(dim))
    table = np.stack([family.reward_tensor(e) - r0 for e in np.eye(dim)], axis=-1)
    for _ in range(5):
        theta1 = rng.normal(scale=5.0, size=dim)
        np.testing.assert_allclose(family.reward_tensor(theta1), r0 + table @ theta1, atol=1e-12)
    # a theta1 of the other family's length must not broadcast into a table
    for wrong in (dim - 1, dim + 1):
        with pytest.raises(InvalidParams):
            family.reward_tensor(np.zeros(wrong))
@BOTH_SIZES
def test_dynamics_of_the_wrong_length_are_refused(n_conditions):
    family = EngineFamily(n_conditions=n_conditions)
    # like a wrong-length theta1, a wrong-length theta2 used to reach numpy and
    # end in its reshape or broadcast error
    dim = family.default_theta2().size
    for wrong in (2, dim - 1, dim + 1):
        with pytest.raises(InvalidParams, match=f"theta2 must hold {dim} entries"):
            family.build_model(family.default_theta1(), np.full(wrong, 1.0 / wrong))


@BOTH_SIZES
def test_chart_points_of_the_wrong_length_are_refused(n_conditions):
    family = EngineFamily(n_conditions=n_conditions)
    # a wrong-length chart point used to be cut or padded into some theta2,
    # and a wrong-length theta2 to end in numpy's reshape error
    dim = family.default_theta2().size
    n_u = family.theta2_to_unconstrained(family.default_theta2()).size
    for wrong in (n_u - 2, n_u - 1, n_u + 1, n_u + 2):
        with pytest.raises(InvalidParams, match=f"u must hold {n_u} entries"):
            family.theta2_from_unconstrained(np.zeros(wrong))
        with pytest.raises(InvalidParams, match=f"u must hold {n_u} entries"):
            family.kernel_blocks(np.zeros(wrong))
    for wrong in (dim - 1, dim + 1, dim + 2):
        with pytest.raises(InvalidParams, match=f"theta2 must hold {dim} entries"):
            family.theta2_to_unconstrained(np.full(wrong, 1.0 / wrong))


@pytest.mark.parametrize("n_bins", [7, 120])
@BOTH_SIZES
def test_kernel_blocks_match_build_kernel_and_central_differences(n_conditions, n_bins):
    # seven usage bins, so the increments that saturate at the top bin are
    # covered from most bins; 120 is the default model
    family = EngineFamily(n_bins, n_conditions=n_conditions)

    def kernel_at(u):
        return family.build_kernel(family.theta2_from_unconstrained(u))

    rng = np.random.default_rng(8)
    u = rng.normal(size=family.theta2_to_unconstrained(family.default_theta2()).size)
    block_of, blocks, d_blocks = family.kernel_blocks(u)
    n_s = family.n_states
    rows = 2 + 4 * n_bins
    assert block_of.shape == (2, n_bins, n_bins)
    assert blocks.shape == (rows, n_s, n_s) and d_blocks.shape == (rows, n_s, n_s, u.size)
    assert not blocks[0].any() and not d_blocks[:2].any()
    # the block table is the kernel, bit for bit
    gathered = np.ascontiguousarray(blocks[block_of].transpose(0, 1, 3, 2, 4))
    assert gathered.tobytes() == kernel_at(u).tobytes()
    dense = d_blocks[block_of].transpose(0, 1, 3, 2, 4, 5)   # (a, z, s, z', s', u)
    h = 1e-6
    for j in range(u.size):
        step = np.zeros(u.size)
        step[j] = h
        fd = (kernel_at(u + step) - kernel_at(u - step)) / (2.0 * h)
        np.testing.assert_allclose(dense[..., j], fd, atol=1e-9)


def test_mdp_family_shapes():
    family = EngineFamily(n_conditions=1)
    assert family.n_states == 1
    model = family.build_model(family.default_theta1(), family.default_theta2())
    assert model.n_states == 1 and model.n_actions == 2
    np.testing.assert_allclose(model.kernel.sum(axis=(3, 4)), 1.0, atol=1e-12)


def test_mdp_kernel_is_hidden_kernel_with_equal_rows():
    # with both increment rows equal, usage no longer depends on the hidden
    # condition: summing out the next condition leaves the baseline kernel
    q = np.array([0.1, 0.5, 0.3, 0.1])
    mdp = EngineFamily(30, n_conditions=1).build_kernel(q)
    hidden = EngineFamily(30).build_kernel(np.concatenate([[0.9, 0.7], q, q]))
    marginal = hidden.sum(axis=4)
    for s in range(2):
        np.testing.assert_allclose(marginal[:, :, s, :], mdp[:, :, 0, :, 0], atol=1e-15)


def test_describe_is_json_ready(ref_params):
    family = EngineFamily()
    theta1, theta2 = family.params_to_theta(ref_params)
    text = json.dumps(family.describe(theta1, theta2))
    loaded = json.loads(text)
    assert loaded["replacement_cost"] == pytest.approx(9.243)
    assert loaded["persistence_bad"] == pytest.approx(0.988)
    # the one-condition family labels its single slope and increment row without a suffix
    mdp = EngineFamily(n_conditions=1)
    loaded = json.loads(json.dumps(mdp.describe(np.array([0.3, 9.0]), ref_params.increments[0])))
    assert list(loaded) == ["cost_slope", "replacement_cost", "increments"]
    assert loaded["increments"] == pytest.approx(ref_params.increments[0].tolist())


@pytest.mark.parametrize(
    "n_conditions, digests",
    [
        (2, (
            "1331230461a63122450f8db8a7e56325eb4720f61bfb90b86ed703dbb3d195e7",
            "ca277ac9cd29a9a1ea620cc6347390e1f06bc8233e0a66e3feaf7d72d25105e2",
            "1f8a7eb9e3430e14a06557d2173d3f9f91355e30f7a1cc84277a28c9645eb5c0",
            "7ec1c6c3a9ae7542b2a70eedb77daaeb9948502c2b7594e78c17c0aba8f3ca0a",
        )),
        (1, (
            "46e051d48eced750df15df2741a6a84c7cd6bf7f4427d44da69dd7a0622a318c",
            "ca277ac9cd29a9a1ea620cc6347390e1f06bc8233e0a66e3feaf7d72d25105e2",
            "eb1133ce5c5f2ce3cfa1baede5090729d9754e4fe18ca9036e141d9cbe8a0166",
            "72b64d4733bb91d539194a9ca852e13ef17b56a6e2100a9aa902578824eb05ab",
        )),
    ],
)
def test_kernel_and_blocks_bytes_frozen(n_conditions, digests):
    # every stage-1 pass filters on kernel_blocks and every model is built by
    # build_kernel; digests of (kernel, block_of, blocks, d_blocks) at a fixed u
    family = EngineFamily(n_conditions=n_conditions)
    u = np.linspace(-1.0, 1.0, family.theta2_to_unconstrained(family.default_theta2()).size)
    arrays = (family.build_kernel(family.theta2_from_unconstrained(u)), *family.kernel_blocks(u))
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests


def test_family_refuses_sizes_it_cannot_build():
    # fewer usage bins than increments used to end in an IndexError or in a
    # kernel that EngineParams refuses
    for bins in (0, 2, 3):
        with pytest.raises(InvalidParams, match="usage bins"):
            EngineFamily(bins)
    for n_conditions in (0, 3, True):
        with pytest.raises(InvalidParams, match="n_conditions"):
            EngineFamily(n_conditions=n_conditions)
    # EngineParams hold two conditions
    with pytest.raises(InvalidParams, match="two-condition"):
        EngineFamily(n_conditions=1).params_to_theta(reference_params())


def test_the_package_builds_one_family_class():
    # the one-condition baseline is EngineFamily(n_conditions=1); the
    # MdpEngineFamily subclass is kept only for the traced benchmark
    assert call_sites(("MdpEngineFamily",)) == []
    assert "MdpEngineFamily" not in spe.__all__


def test_action_frequencies_chi_squared(ref_params):
    # chi-squared goodness of fit of simulated decisions against the model's
    # own choice probabilities, pooled over (usage, belief) cells
    from scipy.stats import chi2

    from spe import BeliefGrid, solve

    model = build_engine_model(ref_params)
    grid = BeliefGrid.create(2, 101)
    q = solve(model, grid=grid).qtable
    res = simulate(ref_params, SimConfig(3000, 100, seed=19))

    z = np.stack([h.obs[:-1] for h in res.histories]).ravel()
    a = np.stack([h.acts for h in res.histories]).ravel()
    x = res.beliefs.reshape(-1, 2)
    idx, w = grid.interpolate_many(x)
    flat = q.values.reshape(-1, 2)
    rows = np.einsum("mn,mna->ma", w, flat[z[:, None] * grid.n_nodes + idx])
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p_repl = e[:, 1] / e.sum(axis=1)

    cells = (z // 12) * 10 + np.minimum((x[:, 0] * 10).astype(np.int64), 9)
    stat = 0.0
    dof = 0
    spill = np.zeros(3)   # observed, expected, variance of the pooled small cells
    for c in np.unique(cells):
        sel = cells == c
        obs = float(a[sel].sum())
        exp = float(p_repl[sel].sum())
        var = float((p_repl[sel] * (1.0 - p_repl[sel])).sum())
        if exp < 5.0:
            spill += (obs, exp, var)
            continue
        stat += (obs - exp) ** 2 / var
        dof += 1
    if spill[1] > 0:
        stat += (spill[0] - spill[1]) ** 2 / spill[2]
        dof += 1
    assert dof >= 1
    assert chi2.sf(stat, dof) > 0.001


def test_latent_transitions_within_bands(ref_params):
    # hidden condition realizations against the generating chain, 4 sigma
    res = simulate(ref_params, SimConfig(200, 50, seed=13))
    stays = np.zeros(2)
    totals = np.zeros(2)
    for i in range(200):
        s = res.states[i]
        a = res.histories[i].acts
        for t in range(50):
            if a[t] == 1:
                continue   # replacement forces a reset, not a chain draw
            totals[s[t]] += 1
            stays[s[t]] += float(s[t + 1] == s[t])
    for cond in range(2):
        p = ref_params.persistence[cond]
        se = np.sqrt(p * (1.0 - p) / totals[cond])
        assert abs(stays[cond] / totals[cond] - p) <= 4.0 * se


def test_usage_increments_within_bands_given_latent(ref_params):
    # conditioned on the recorded hidden state, usage deltas are draws from
    # that condition's increment row; 3 sigma multinomial bands per cell.
    # Steps near the cap are excluded because saturation folds the top bins.
    res = simulate(ref_params, SimConfig(300, 40, seed=13))
    cap = ref_params.n_mileage_bins - 1
    counts = np.zeros((2, 4))
    for i in range(300):
        s = res.states[i]
        z = res.histories[i].obs
        a = res.histories[i].acts
        for t in range(40):
            if a[t] == 1 or z[t] > cap - 4:
                continue
            counts[s[t], z[t + 1] - z[t]] += 1
    for cond in range(2):
        n = counts[cond].sum()
        assert n > 500
        for d in range(4):
            p = ref_params.increments[cond, d]
            se = np.sqrt(p * (1.0 - p) / n)
            assert abs(counts[cond, d] / n - p) <= 3.0 * se


def test_replacement_rate_rises_with_cheaper_resets(ref_params):
    cheap = dataclasses.replace(ref_params, replacement_cost=2.0)
    cfg = SimConfig(40, 60, seed=17)
    base_rate = np.mean([h.acts.mean() for h in simulate(ref_params, cfg).histories])
    cheap_rate = np.mean([h.acts.mean() for h in simulate(cheap, cfg).histories])
    assert cheap_rate > base_rate
