from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from spe import (
    Belief,
    EngineFamily,
    EstimatorConfig,
    History,
    InvalidParams,
    PomdpModel,
    SimConfig,
    empirical_increments,
    estimate,
    filter_dataset,
    fit_mdp_baseline,
    log_likelihood,
    observation_loglik,
    reference_params,
    simulate,
    solve,
    stage1_fit_theta2,
    stage2_policy_gradient,
    x0_sweep_estimate,
)
from spe import estimator, sensitivity
from spe.bellman import BellmanSolver
from spe.likelihood import DatasetBlocks


class TwoButtonFamily:
    """One observable, one hidden state, two actions with reward gap theta.

    The continuation value is common to both actions, so Q(1) - Q(0) equals
    theta exactly and the choice likelihood is a logistic in theta: the
    maximizer is the log odds of the action counts. Closed form oracle for
    the whole gradient-ascent stage.
    """

    n_states = 1
    discount = 0.9

    def default_theta1(self):
        return np.zeros(1)

    def default_theta2(self):
        return np.zeros(0)

    def reward_tensor(self, theta1):
        return np.array([[[0.0]], [[float(theta1[0])]]])

    def build_kernel(self, theta2):
        return np.ones((2, 1, 1, 1, 1))

    def build_model(self, theta1, theta2):
        return PomdpModel(
            1, 1, 2, self.build_kernel(theta2), self.reward_tensor(theta1), self.discount
        )


def frozen(family, histories):
    """The histories filtered at the family's dynamics, for stage two."""
    model = family.build_model(family.default_theta1(), None)
    return filter_dataset(model, DatasetBlocks.from_histories(histories, model))


def increments(*histories):
    """empirical_increments of observable-engine histories."""
    family = EngineFamily(n_conditions=1)
    return empirical_increments(DatasetBlocks.from_histories(list(histories), family), n_bins=120)


@pytest.fixture(scope="module")
def small_fleet():
    return simulate(reference_params(), SimConfig(24, 50, seed=5)).histories


@pytest.fixture(scope="module")
def small_config():
    return EstimatorConfig(grid_resolution=51, max_stage2_iters=60)


@pytest.fixture(scope="module")
def small_report(small_fleet, small_config):
    return estimate(small_fleet, EngineFamily(), small_config)


def test_stage1_dominates_truth(small_fleet, small_config):
    family = EngineFamily()
    _, truth2 = family.params_to_theta(reference_params())
    s1 = stage1_fit_theta2(small_fleet, family, small_config)
    probe = family.build_model(family.default_theta1(), truth2)
    blocks = DatasetBlocks.from_histories(small_fleet, probe)
    at_truth = observation_loglik(family.build_kernel(truth2), blocks)
    assert s1.obs_loglik >= at_truth - 1e-6
    assert s1.converged
    # frozen paths were filtered at the fitted dynamics
    model_hat = family.build_model(family.default_theta1(), s1.theta2)
    assert s1.filtered.model_key == model_hat.content_key()


def test_stage1_trace_costs_no_extra_filter_pass(small_fleet, small_config, monkeypatch):
    # the trace is read off the optimizer's own objective values, so the
    # dataset is filtered once per objective evaluation and not again per
    # iteration
    passes = []
    filter_pass = estimator.observation_score

    def counted(*args, **kwargs):
        passes.append(1)
        return filter_pass(*args, **kwargs)

    monkeypatch.setattr(estimator, "observation_score", counted)
    s1 = stage1_fit_theta2(small_fleet, EngineFamily(), small_config)
    assert len(passes) == s1.n_evals
    assert len(s1.trace) >= 2 and all(type(v) is float for v in s1.trace)
    assert s1.trace[-1] == s1.obs_loglik
    assert np.all(np.diff(s1.trace) >= 0.0)


def test_stage1_objective_builds_no_dense_kernel(small_fleet, small_config, monkeypatch):
    # every pass filters on the family's kernel blocks; build_kernel runs
    # only outside the search, to check the start and for the final paths
    builds = []
    build_kernel = EngineFamily.build_kernel

    def counted(self, theta2):
        builds.append(1)
        return build_kernel(self, theta2)

    inside = []
    search = estimator.minimize

    def counted_search(*args, **kwargs):
        before = len(builds)
        res = search(*args, **kwargs)
        inside.append(len(builds) - before)
        return res

    monkeypatch.setattr(EngineFamily, "build_kernel", counted)
    monkeypatch.setattr(estimator, "minimize", counted_search)
    s1 = stage1_fit_theta2(small_fleet, EngineFamily(), small_config)
    assert s1.n_evals >= 2
    assert inside == [0]
    assert len(builds) >= 1


@pytest.mark.parametrize(
    "theta2_init",
    [(1.5, 0.9) + (0.25,) * 8, (0.9, 0.9) + (0.5,) * 4 + (0.25,) * 4, (np.nan, 0.9) + (0.25,) * 8],
)
def test_stage1_refuses_a_start_outside_the_parameter_space(small_fleet, small_config, theta2_init):
    # a config file can set theta2_init; the chart would move a bad start into range unseen
    config = dataclasses.replace(small_config, theta2_init=theta2_init)
    with pytest.raises(InvalidParams):
        stage1_fit_theta2(small_fleet, EngineFamily(), config)


def test_backtracking_ascent_is_monotone(small_report):
    trace = np.asarray(small_report.stage2.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    assert small_report.stage2.diagnostics["mode"] == "backtracking"


def test_report_total_matches_recomputation(small_report, small_fleet, small_config):
    model = EngineFamily().build_model(small_report.theta1, small_report.theta2)
    ll = log_likelihood(
        model,
        small_fleet,
        resolution=small_config.grid_resolution,
        tol=small_config.bellman_tol,
    )
    assert small_report.loglik.total == pytest.approx(ll.total, abs=1e-8)
    assert small_report.loglik.total == small_report.loglik.obs_term + small_report.loglik.choice_term


def test_fit_reports_the_stages_own_likelihood(monkeypatch, small_report):
    # The report's likelihood is what the two stages already computed: stage
    # two's solver is the only one built, with no final refilter or cold solve.
    fleet = simulate(reference_params(), SimConfig(500, 100, seed=4)).histories
    builds = []
    build = BellmanSolver.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(BellmanSolver, "__init__", counted)
    report = fit_mdp_baseline(fleet)
    assert len(builds) == 1
    for rep in (report, small_report):
        assert rep.loglik.choice_term == rep.stage2.pseudo_loglik
        obs_term = float(sum(np.log(sigmas).sum() for sigmas in rep.stage1.filtered.sigmas))
        assert rep.loglik.obs_term == obs_term


def test_estimate_is_deterministic(small_fleet, small_config, small_report):
    again = estimate(small_fleet, EngineFamily(), small_config)
    np.testing.assert_array_equal(again.theta1, small_report.theta1)
    np.testing.assert_array_equal(again.theta2, small_report.theta2)
    assert again.loglik.total == small_report.loglik.total


def test_report_serializes(small_report):
    import json

    payload = small_report.to_dict()
    text = json.dumps(payload)
    assert "theta1" in payload and "loglik" in payload
    assert json.loads(text)["stage2"]["converged"] in (True, False)


def test_two_button_oracle():
    rng = np.random.default_rng(13)
    theta_true = 0.8
    p1 = 1.0 / (1.0 + np.exp(-theta_true))
    acts = (rng.random(400) < p1).astype(np.int64)
    hs = [
        History(Belief(np.ones(1)), np.zeros(2, dtype=np.int64), a[None])
        for a in acts
    ]
    n1 = int(acts.sum())
    closed_form = float(np.log(n1 / (400.0 - n1)))
    family = TwoButtonFamily()
    cfg = EstimatorConfig(
        grid_resolution=2, grad_norm_tol=1e-6, max_stage2_iters=200
    )
    s2 = stage2_policy_gradient(
        family, family.default_theta2(), cfg, frozen(family, hs),
    )
    assert s2.converged
    assert s2.n_iters <= 5
    assert float(s2.theta1[0]) == pytest.approx(closed_form, abs=1e-4)
    # and the solved action-value gap equals the fitted reward gap
    model = family.build_model(s2.theta1, None)
    q = solve(model, resolution=2, tol=1e-12).qtable
    gap = float(q.values[0, 0, 1] - q.values[0, 0, 0])
    assert gap == pytest.approx(float(s2.theta1[0]), abs=1e-9)


def test_fixed_step_stationarity_bound():
    # the descent-lemma bound on the smallest gradient norm must hold on a
    # completed fixed-step run
    rng = np.random.default_rng(29)
    acts = (rng.random(300) < 0.62).astype(np.int64)
    hs = [
        History(Belief(np.ones(1)), np.zeros(2, dtype=np.int64), a[None])
        for a in acts
    ]
    family = TwoButtonFamily()
    rho = 1e-6
    cfg = EstimatorConfig(
        grid_resolution=2,
        grad_norm_tol=1e-12,
        max_stage2_iters=40,
        step_size=rho,
    )
    s2 = stage2_policy_gradient(
        family, family.default_theta2(), cfg, frozen(family, hs),
    )
    assert s2.diagnostics["mode"] == "fixed"
    lipschitz = s2.diagnostics["grad_lipschitz"]
    denom = rho * (1.0 - rho * lipschitz / 2.0)
    assert denom > 0
    # ascent is guaranteed step by step inside the stable range
    assert np.all(np.diff(s2.loglik_trace) >= -1e-9)
    n_updates = len(s2.loglik_trace) - 1
    # loglik of a discrete choice model is bounded above by zero
    descent_bound = (0.0 - s2.loglik_trace[0]) / (n_updates * denom)
    assert s2.diagnostics["min_sq_grad_norm"] <= descent_bound * (1.0 + 1e-9)
    assert s2.diagnostics["min_sq_grad_norm"] <= s2.diagnostics["stationarity_bound"] * (
        1.0 + 1e-6
    ) + 1e-12


def test_fixed_step_outside_stable_range_warns():
    rng = np.random.default_rng(31)
    acts = (rng.random(50) < 0.5).astype(np.int64)
    hs = [
        History(Belief(np.ones(1)), np.zeros(2, dtype=np.int64), a[None])
        for a in acts
    ]
    family = TwoButtonFamily()
    cfg = EstimatorConfig(
        grid_resolution=2, grad_norm_tol=1e-6, max_stage2_iters=2, step_size=10.0
    )
    with pytest.warns(UserWarning, match="outside the guaranteed range"):
        stage2_policy_gradient(
            family, family.default_theta2(), cfg, frozen(family, hs),
        )


def test_stage2_solves_each_point_once(monkeypatch, small_fleet, small_config, small_report):
    # every iterate and every rejected BHHH trial costs one Bellman solve; an
    # accepted trial is the next iterate and is not solved again
    solves = []
    solve_once = BellmanSolver.solve

    def counted(self, *args, **kwargs):
        solves.append(1)
        return solve_once(self, *args, **kwargs)

    monkeypatch.setattr(BellmanSolver, "solve", counted)
    family = EngineFamily()
    s2 = stage2_policy_gradient(
        family, small_report.theta2, small_config, small_report.stage1.filtered
    )
    assert s2.converged
    rejected = sum(round(-np.log2(step)) for step in s2.step_sizes)
    assert len(solves) == len(s2.loglik_trace) + rejected

    solves.clear()
    rng = np.random.default_rng(29)
    hs = [
        History(Belief(np.ones(1)), np.zeros(2, dtype=np.int64), a[None])
        for a in (rng.random(300) < 0.62).astype(np.int64)
    ]
    family = TwoButtonFamily()
    cfg = EstimatorConfig(
        grid_resolution=2, grad_norm_tol=1e-12, max_stage2_iters=10, step_size=1e-6
    )
    s2 = stage2_policy_gradient(
        family, family.default_theta2(), cfg, frozen(family, hs),
    )
    assert s2.n_iters == 10
    assert len(solves) == len(s2.loglik_trace) == 11


def test_iteration_cap_flags_non_convergence(small_fleet):
    cfg = EstimatorConfig(
        grid_resolution=51, grad_norm_tol=1e-12, max_stage2_iters=1
    )
    family = EngineFamily()
    s1 = stage1_fit_theta2(small_fleet, family, cfg)
    s2 = stage2_policy_gradient(family, s1.theta2, cfg, s1.filtered)
    assert not s2.converged
    assert np.all(np.isfinite(s2.theta1))   # best iterate still returned


def test_empirical_increments_hand_counts():
    x = Belief(np.ones(1))
    h1 = History(x, np.array([0, 2, 2, 5]), np.array([0, 0, 0]))
    h2 = History(x, np.array([10, 11, 0, 1]), np.array([0, 1, 0]))
    got = increments(h1, h2)
    # deltas: +2, 0, +3 from h1; +1 twice from h2 around the replacement,
    # whose own step carries no increment information
    np.testing.assert_allclose(got, np.array([1, 2, 1, 1]) / 5.0, atol=1e-12)


def test_empirical_increments_censoring_and_fallback():
    x = Belief(np.ones(1))
    # start bin 117 could censor a 3-step increment against the cap at 119
    capped = History(x, np.array([117, 119]), np.array([0]))
    np.testing.assert_allclose(
        increments(capped), np.full(4, 0.25), atol=0
    )
    low = History(x, np.array([3, 4]), np.array([0]))
    got = increments(capped, low)
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 0.0], atol=0)
    with pytest.raises(ValueError):
        increments(History(x, np.array([5, 1]), np.array([0])))


def test_mdp_baseline_matches_pomdp_on_observable_data(small_config):
    # freeze the hidden state at good: the partially observed model and the
    # fully observed baseline then describe the same process, so the fitted
    # likelihoods must nearly coincide
    params = reference_params()
    degenerate = dataclasses.replace(params, persistence=np.array([1.0, 0.988]))
    sim = simulate(degenerate, SimConfig(30, 60, seed=9, x0=(1.0, 0.0)))
    pomdp = estimate(sim.histories, EngineFamily(), small_config)
    mdp = fit_mdp_baseline(sim.histories, small_config)
    gap = abs(pomdp.loglik.total - mdp.loglik.total) / abs(mdp.loglik.total)
    assert gap <= 5e-3
    assert mdp.diagnostics["baseline"] == "fully observed"


def test_mdp_baseline_matches_pomdp_on_rank_one_dynamics(small_config):
    # identical increment rows make usage independent of the hidden condition:
    # the latent state carries no observable information, and the baseline
    # should fit exactly as well as the filtered model
    params = reference_params()
    inc = np.stack([params.increments[0], params.increments[0]])
    rank1 = dataclasses.replace(params, increments=inc)
    sim = simulate(rank1, SimConfig(30, 50, seed=13))
    pomdp = estimate(sim.histories, EngineFamily(), small_config)
    mdp = fit_mdp_baseline(sim.histories, small_config)
    gap = abs(pomdp.loglik.total - mdp.loglik.total) / abs(mdp.loglik.total)
    assert gap <= 5e-3


def test_mdp_baseline_refuses_a_dynamics_start(small_fleet):
    # its increments have a closed form; a theta2_init used to be ignored and
    # stage 1 reported as converged
    config = EstimatorConfig(theta2_init=(0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ValueError, match="theta2_init"):
        fit_mdp_baseline(small_fleet, config)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(grad_norm_tol=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(bellman_tol=-1e-9)
    with pytest.raises(ValueError):
        EstimatorConfig(grid_resolution=1)
    with pytest.raises(ValueError):
        EstimatorConfig(stage1_max_iters=-1)
    with pytest.raises(ValueError):
        EstimatorConfig(max_stage2_iters=-1)
    with pytest.raises(ValueError, match="must be an integer"):
        EstimatorConfig(max_stage2_iters=2.5)
    with pytest.raises(ValueError, match="must be an integer"):
        EstimatorConfig(stage1_max_iters=True)
    with pytest.raises(ValueError, match="must be a real number"):
        EstimatorConfig(grad_norm_tol="1e-3")
    with pytest.raises(ValueError, match="must be a real number"):
        EstimatorConfig(step_size=False)


@pytest.mark.parametrize("name", ["theta1_init", "theta2_init"])
def test_config_start_values_need_real_numbers(name):
    # np.asarray(..., dtype=float64) would read ["0.2", True, 9] as [0.2, 1.0, 9.0]
    for value in (["0.2", 1.0, 9.0], [0.2, True, 9.0], "0.2", 0.2):
        with pytest.raises(ValueError, match=f"{name} must be a list of real numbers"):
            EstimatorConfig(**{name: value})
    assert getattr(EstimatorConfig(**{name: (0.2, 1, np.float64(9.0))}), name) == (0.2, 1, 9.0)


@pytest.mark.parametrize(
    "histories",
    [[], [History(Belief.uniform(2), np.array([3]), np.array([], dtype=np.int64))]],
    ids=["no-histories", "zero-length-histories"],
)
def test_fits_reject_a_dataset_without_decisions(histories, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("fitting started on a dataset without decisions")

    monkeypatch.setattr(estimator, "stage1_fit_theta2", no_work)
    monkeypatch.setattr(estimator, "filter_dataset", no_work)
    monkeypatch.setattr(sensitivity, "stage1_fit_theta2", no_work)
    with pytest.raises(InvalidParams):
        estimate(histories, EngineFamily())
    with pytest.raises(InvalidParams):
        fit_mdp_baseline(histories)
    with pytest.raises(InvalidParams):
        x0_sweep_estimate(histories, EngineFamily(), m_values=(1,))
