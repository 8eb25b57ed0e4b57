from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from spe import (
    Belief,
    ContractionUndefined,
    EngineFamily,
    EstimatorConfig,
    History,
    InvalidParams,
    PomdpModel,
    SimConfig,
    belief_metric,
    build_engine_model,
    contraction_certificate,
    contraction_coefficient,
    eta_table,
    filter_dataset,
    lambda_update,
    reference_params,
    simulate,
    stage1_fit_theta2,
    stage2_policy_gradient,
    two_period_identification_probe,
    x0_sweep_estimate,
)
from spe import estimator, sensitivity
from spe.likelihood import DatasetBlocks
from spe.model import SIGMA_FLOOR
from support import random_belief, random_model, sparse_random_model, two_state_hand_model


def test_metric_worked_example():
    assert belief_metric(
        Belief(np.array([0.5, 0.5])), Belief(np.array([0.25, 0.75]))
    ) == pytest.approx(0.5, abs=1e-12)


def test_metric_axioms():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = random_belief(rng, 3)
        y = random_belief(rng, 3)
        d = belief_metric(x, y)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(belief_metric(y, x), abs=1e-14)
        assert belief_metric(x, x) == 0.0
    # losing a support point saturates the metric
    assert belief_metric(
        Belief(np.array([1.0, 0.0])), Belief(np.array([0.6, 0.4]))
    ) == pytest.approx(1.0, abs=1e-14)
    assert belief_metric(
        Belief(np.array([1.0, 0.0])), Belief(np.array([0.0, 1.0]))
    ) == pytest.approx(1.0, abs=1e-14)


def test_contraction_coefficient_hand_case():
    # vertex posteriors for (z'=1, z=0, a=0) are (6/7, 1/7) and (1/2, 1/2)
    m = two_state_hand_model()
    assert contraction_coefficient(m, 1, 0, 0) == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_one_step_contraction_holds_on_hand_case():
    m = two_state_hand_model()
    eta = contraction_coefficient(m, 1, 0, 0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x1 = random_belief(rng, 2)
        x2 = random_belief(rng, 2)
        y1 = lambda_update(m, 1, 0, x1, 0)
        y2 = lambda_update(m, 1, 0, x2, 0)
        assert belief_metric(y1, y2) <= eta * belief_metric(x1, x2) + 1e-10


def test_rank_one_update_contracts_to_zero():
    rng = np.random.default_rng(4)
    row = rng.dirichlet(np.ones(4)).reshape(2, 2)
    kernel = np.tile(row, (1, 2, 2, 1, 1)).reshape(1, 2, 2, 2, 2)
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    for z2 in range(2):
        assert contraction_coefficient(m, z2, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_contraction_undefined_raises():
    kernel = np.zeros((1, 2, 2, 2, 2))
    kernel[0, :, :, 1, :] = 0.5
    m = PomdpModel(2, 2, 1, kernel, np.zeros((1, 2, 2)), 0.9)
    with pytest.raises(ContractionUndefined):
        contraction_coefficient(m, 0, 0, 0)
    table = eta_table(m)
    assert np.isnan(table[0, 0, 0])
    assert np.isfinite(table[1, 0, 0])


@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_eta_table_on_uneven_models(n_states):
    # blocks no vertex reaches, blocks reached from one vertex, and blocks
    # with dead vertices: each entry is the largest D between the scalar
    # posteriors of the live vertices
    m = sparse_random_model(seed=5, n_states=n_states)
    table = eta_table(m)
    live_counts = set()
    for z2, z, a in np.ndindex(table.shape):
        live = np.flatnonzero(m.kernel[a, z, :, z2, :].sum(axis=1) >= SIGMA_FLOOR)
        live_counts.add(live.size)
        if live.size == 0:
            assert np.isnan(table[z2, z, a])
            with pytest.raises(ContractionUndefined):
                contraction_coefficient(m, z2, z, a)
            continue
        posts = [lambda_update(m, z2, z, Belief.point_mass(s, n_states), a) for s in live]
        expected = max(belief_metric(p, q) for p in posts for q in posts)
        assert abs(table[z2, z, a] - expected) <= 1e-12
        assert contraction_coefficient(m, z2, z, a) == table[z2, z, a]
    assert {0, 1} <= live_counts
    if n_states == 3:
        assert 2 in live_counts


def test_engine_replacement_forgets_immediately(engine_model):
    # the reset action maps every belief to (1, 0): coefficient zero
    table = eta_table(engine_model)
    defined = np.isfinite(table[:, :, 1])
    assert np.all(table[:, :, 1][defined] == 0.0)


def test_engine_filter_is_stable(engine_model):
    table = eta_table(engine_model)
    eta_max = float(np.nanmax(table))
    assert eta_max < 1.0


def test_contraction_certificate_dense(engine_model):
    rep = contraction_certificate(engine_model, n_pairs=200, seed=3)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.eta_max < 1.0
    # every defined keep transition was exercised
    assert rep.n_checked >= 200 * np.isfinite(rep.eta[:, :, 0]).sum()
    # pinned: the same pairs are drawn and checked as before the batched posterior
    assert (rep.n_checked, rep.n_violations) == (118_800, 0)


def test_engine_eta_table_frozen(engine_model):
    # the coefficients and the NaN pattern of the 594 reachable blocks
    table = eta_table(engine_model)
    assert np.isfinite(table).sum() == 594
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == "e3e59ed84a829a4a209ae4f389080f74725aed06d40f6d9e00a0764a3f89b38e"


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(two_state_hand_model, id="hand"),
        pytest.param(lambda: random_model(27, n_states=2), id="random-2"),
        pytest.param(lambda: random_model(27, n_states=3), id="random-3"),
        pytest.param(lambda: sparse_random_model(5, 3), id="sparse-3"),
    ],
)
def test_hand_model_certificate(build):
    rep = contraction_certificate(build(), n_pairs=500, seed=4)
    assert rep.passed


def test_distance_can_grow_in_one_update():
    # why only the one-step bound is certified: D is not scaled by eta, and
    # the coefficients do not multiply along a path
    m = random_model(27, n_states=2)
    eta = contraction_coefficient(m, 3, 2, 0)
    assert eta == pytest.approx(0.99415, abs=1e-5)

    def step(x1, x2, z_next, z):
        return lambda_update(m, z_next, z, x1, 0), lambda_update(m, z_next, z, x2, 0)

    x1, x2 = Belief(np.array([0.5, 0.5])), Belief(np.array([0.6, 0.4]))
    assert belief_metric(x1, x2) == pytest.approx(0.2, abs=1e-12)
    d_after = belief_metric(*step(x1, x2, 3, 2))
    assert d_after == pytest.approx(0.2883, abs=1e-4)
    assert d_after <= eta

    # from the two vertices through z = 0 -> 2 -> 3: D ends above eta * eta'
    ys = step(Belief.point_mass(0, 2), Belief.point_mass(1, 2), 2, 0)
    d_two = belief_metric(*step(*ys, 3, 2))
    assert contraction_coefficient(m, 2, 0, 0) * eta == pytest.approx(0.7640, abs=1e-4)
    assert d_two == pytest.approx(0.9005, abs=1e-4)
    assert d_two <= eta


def test_sweep_validation(ref_params):
    sim = simulate(ref_params, SimConfig(4, 10, seed=2))
    family = EngineFamily()
    with pytest.raises(InvalidParams):
        x0_sweep_estimate(sim.histories, family, m_values=(0, 1))
    with pytest.raises(InvalidParams):
        x0_sweep_estimate(sim.histories, family, m_values=(10,))
    # each candidate must be a belief over the family's hidden states, and
    # there must be one; all of this is caught before any fit starts
    for cands in ([[0.5, 0.6]], [[1.5, -0.5]], [[0.2, 0.3, 0.5]], np.zeros((0, 2))):
        with pytest.raises(InvalidParams):
            x0_sweep_estimate(sim.histories, family, m_values=(1,), candidates=cands)
    # each history's own initial belief is checked when the dataset is laid
    # out, as estimate checks it, though every candidate replaces it
    three_states = [History(Belief.uniform(3), h.obs, h.acts) for h in sim.histories]
    with pytest.raises(InvalidParams, match="initial belief has 3 states"):
        x0_sweep_estimate(three_states, family, m_values=(1,))


def test_sweep_prior_travels_on_the_histories(ref_params):
    # candidate c's fit is stage 1 on the histories rebased onto c and laid
    # out, started from the previous candidate's estimate: the sweep's one
    # layout with c as its x0 is that layout, bit for bit
    sim = simulate(ref_params, SimConfig(12, 20, seed=7))
    family = EngineFamily()
    cfg = EstimatorConfig(grid_resolution=31, stage1_max_iters=120)
    cands = np.array([[0.8, 0.2], [0.2, 0.8]])
    res = x0_sweep_estimate(sim.histories, family, cfg, m_values=(2,), candidates=cands)
    rebased = [
        DatasetBlocks.from_histories([History(Belief(c), h.obs, h.acts) for h in sim.histories], family)
        for c in cands
    ]
    first = stage1_fit_theta2(rebased[0], family, cfg, burn_in=2)
    np.testing.assert_array_equal(res.theta2_by_m[2][0], first.theta2)
    warm = dataclasses.replace(cfg, theta2_init=tuple(first.theta2))
    second = stage1_fit_theta2(rebased[1], family, warm, burn_in=2)
    np.testing.assert_array_equal(res.theta2_by_m[2][1], second.theta2)
    assert res.converged_by_m == {2: [first.converged, second.converged]}


def test_sweep_lays_the_dataset_out_once(ref_params, monkeypatch):
    # one layout for every candidate and burn-in; the layout is filtered at
    # an estimate only when the rewards are refitted there
    layouts, filters = [], []
    lay_out, filter_once = DatasetBlocks.from_histories.__func__, sensitivity.filter_dataset

    def counted_layout(cls, *args, **kwargs):
        layouts.append(1)
        return lay_out(cls, *args, **kwargs)

    def counted_filter(*args, **kwargs):
        filters.append(1)
        return filter_once(*args, **kwargs)

    monkeypatch.setattr(DatasetBlocks, "from_histories", classmethod(counted_layout))
    monkeypatch.setattr(estimator, "filter_dataset", counted_filter)
    monkeypatch.setattr(sensitivity, "filter_dataset", counted_filter)
    sim = simulate(ref_params, SimConfig(6, 12, seed=3))
    cfg = EstimatorConfig(
        grid_resolution=11, stage1_max_iters=5, grad_norm_tol=1e-1, max_stage2_iters=1
    )
    cands = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
    for refit, n_filters in ((False, 0), (True, 6)):
        layouts.clear()
        filters.clear()
        x0_sweep_estimate(
            sim.histories, EngineFamily(), cfg, m_values=(1, 2), candidates=cands,
            refit_rewards=refit,
        )
        assert (len(layouts), len(filters)) == (1, n_filters)


def test_sweep_refuses_burn_in_values_that_are_not_integers(ref_params, monkeypatch):
    # int() used to read 1.5 and True as a burn-in of 1
    def no_work(*args, **kwargs):
        raise AssertionError("fitting started with a burn-in that is not an integer")

    monkeypatch.setattr(sensitivity, "stage1_fit_theta2", no_work)
    sim = simulate(ref_params, SimConfig(4, 10, seed=2))
    for m_values in ((1.5,), (True,), (2, "3"), (np.float64(2.0),)):
        with pytest.raises(InvalidParams, match="must be integers"):
            x0_sweep_estimate(sim.histories, EngineFamily(), m_values=m_values)


def test_sweep_rank_one_dynamics_ignore_x0(ref_params):
    # identical increment rows make the observable process independent of the
    # hidden condition, so the assumed initial belief cannot matter
    inc = np.stack([ref_params.increments[0], ref_params.increments[0]])
    params = dataclasses.replace(ref_params, increments=inc)
    sim = simulate(params, SimConfig(30, 30, seed=6))
    cfg = EstimatorConfig(grid_resolution=31, stage1_max_iters=150)
    cands = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
    res = x0_sweep_estimate(
        sim.histories, EngineFamily(), cfg, m_values=(1, 2), candidates=cands
    )
    # increment estimates cannot depend on the candidate; persistence is not
    # identified here, so compare the increment block only
    for m in (1, 2):
        block = res.theta2_by_m[m][:, 2:]
        assert float(np.abs(block - block[0]).max()) <= 1e-4


def test_sweep_csv_and_shapes(ref_params):
    sim = simulate(ref_params, SimConfig(12, 20, seed=7))
    cfg = EstimatorConfig(grid_resolution=31, stage1_max_iters=120)
    cands = np.array([[0.8, 0.2], [0.2, 0.8]])
    res = x0_sweep_estimate(
        sim.histories, EngineFamily(), cfg, m_values=(1, 3), candidates=cands
    )
    assert res.m_values == [1, 3]
    assert len(res.spreads) == 2
    assert {m: len(flags) for m, flags in res.converged_by_m.items()} == {1: 2, 3: 2}
    assert all(np.isfinite(s) for s in res.spreads)
    assert res.theta1_by_m is None
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "M,spread"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(res.spreads[0])


def _burn_in_8_spread(histories) -> float:
    # the acceptance sweep: the 11 default candidates, each fit chained from the last
    return x0_sweep_estimate(histories, EngineFamily(), m_values=(8,)).spreads[0]


def test_sweep_holds_where_the_first_fit_saturates(fleet6):
    # the first fit's trial points reach |u| near 120, where a score carried as
    # the scaled backward message, or as the adjoint of the beliefs, overflows
    assert _burn_in_8_spread(fleet6) <= 0.1


@pytest.mark.slow
def test_sweep_holds_on_every_fleet_seed(ref_params):
    spreads = {
        seed: _burn_in_8_spread(simulate(ref_params, SimConfig(500, 100, seed=seed)).histories)
        for seed in range(41)
    }
    assert {seed: v for seed, v in spreads.items() if not v <= 0.1} == {}


def test_sweep_refit_rewards_path(ref_params):
    sim = simulate(ref_params, SimConfig(10, 20, seed=8))
    cfg = EstimatorConfig(
        grid_resolution=31, stage1_max_iters=80, grad_norm_tol=1e-2, max_stage2_iters=10
    )
    cands = np.array([[0.9, 0.1], [0.3, 0.7]])
    res = x0_sweep_estimate(
        sim.histories,
        EngineFamily(),
        cfg,
        m_values=(2,),
        candidates=cands,
        refit_rewards=True,
    )
    assert res.theta1_by_m is not None
    assert res.theta1_by_m[2].shape == (2, 3)
    assert len(res.theta1_spreads) == 1
    assert np.isfinite(res.theta1_spreads[0])
    # the refit fits the layout filtered at each estimate and cut at the
    # burn-in, which is the filter run afresh on the tails
    family = EngineFamily()
    for c, theta2, theta1 in zip(cands, res.theta2_by_m[2], res.theta1_by_m[2]):
        model = family.build_model(family.default_theta1(), theta2)
        rebased = [History(Belief(c), h.obs, h.acts) for h in sim.histories]
        paths = filter_dataset(model, DatasetBlocks.from_histories(rebased, model))
        tails = [
            History(Belief(x[2]), h.obs[2:], h.acts[2:])
            for h, x in zip(rebased, paths.beliefs)
        ]
        again = stage2_policy_gradient(
            family, theta2, cfg, filter_dataset(model, DatasetBlocks.from_histories(tails, model))
        )
        np.testing.assert_array_equal(again.theta1, theta1)


def test_probe_equal_models(engine_model):
    probe = two_period_identification_probe(
        engine_model, engine_model, Belief(np.array([0.5, 0.5]))
    )
    assert not probe.distinguishable
    assert probe.period is None and probe.witness is None
    assert not probe.rank1_pair


def test_probe_increment_difference_first_period(ref_params):
    inc = ref_params.increments.copy()
    inc[0] = np.array([0.1, 0.3, 0.5, 0.1])
    other = dataclasses.replace(ref_params, increments=inc)
    probe = two_period_identification_probe(
        build_engine_model(ref_params),
        build_engine_model(other),
        Belief(np.array([0.5, 0.5])),
    )
    assert probe.distinguishable
    assert probe.period == 1
    assert len(probe.witness) == 3


def test_probe_persistence_difference_second_period(ref_params):
    # same increment rows per condition: first-period usage marginals agree,
    # but the posterior mixes conditions differently, so period two separates
    other = dataclasses.replace(ref_params, persistence=np.array([0.7, 0.9]))
    probe = two_period_identification_probe(
        build_engine_model(ref_params),
        build_engine_model(other),
        Belief(np.array([0.5, 0.5])),
    )
    assert probe.distinguishable
    assert probe.period == 2
    assert len(probe.witness) == 5
    assert not probe.rank1_pair


def test_probe_rank_one_pair_unidentifiable(ref_params):
    # equal increment rows kill all posterior information: persistence cannot
    # be told apart from observables, and the probe flags the rank-1 cause
    inc = np.stack([ref_params.increments[0], ref_params.increments[0]])
    a = dataclasses.replace(ref_params, increments=inc)
    b = dataclasses.replace(
        ref_params, increments=inc, persistence=np.array([0.7, 0.9])
    )
    probe = two_period_identification_probe(
        build_engine_model(a), build_engine_model(b), Belief(np.array([0.5, 0.5]))
    )
    assert not probe.distinguishable
    assert probe.rank1_pair


@pytest.mark.parametrize(
    "x0, tol",
    [
        ([0.5, 0.6], 1e-9),
        ([1.5, -0.5], 1e-9),
        ([np.nan, np.nan], 1e-9),
        ([1.0], 1e-9),
        ([0.2, 0.3, 0.5], 1e-9),
        ([0.5, 0.5], -1.0),
        ([0.5, 0.5], np.nan),
    ],
    ids=["sum-1.1", "negative", "nan", "one-entry", "three-entries", "tol-negative", "tol-nan"],
)
def test_probe_rejects_a_non_belief_or_a_bad_tolerance(x0, tol):
    # a one-entry x0 would broadcast through the first-period einsum
    m = two_state_hand_model()
    with pytest.raises(InvalidParams):
        two_period_identification_probe(m, m, x0, tol=tol)


def test_probe_shape_mismatch():
    m = two_state_hand_model()
    other = PomdpModel(
        2, 3, 1, np.full((1, 3, 2, 3, 2), 1.0 / 6.0), np.zeros((1, 3, 2)), 0.9
    )
    with pytest.raises(InvalidParams):
        two_period_identification_probe(m, other, Belief(np.array([0.5, 0.5])))
