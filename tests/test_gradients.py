from __future__ import annotations

import numpy as np
import pytest

from spe import (
    Belief,
    BeliefGrid,
    History,
    PomdpModel,
    ccp,
    filter_dataset,
    grad_log_pi,
    grad_q,
    pseudo_log_likelihood,
    smoothness_constants,
    solve,
)
from spe.bellman import BellmanSolver
from spe.likelihood import ChoicePoints
from support import random_belief, random_model


def parametrized_reward(model: PomdpModel, theta: np.ndarray, basis: np.ndarray):
    """Linear family r(theta) = r0 + sum_p theta_p * basis_p for probing."""
    return model.reward + np.einsum("p,azsp->azs", theta, basis)


def with_reward(model: PomdpModel, reward: np.ndarray) -> PomdpModel:
    return PomdpModel(
        model.n_states, model.n_obs, model.n_actions, model.kernel, reward, model.discount
    )


def _probe(discount):
    model = random_model(seed=19, n_states=2, n_obs=3, n_actions=2, discount=discount)
    rng = np.random.default_rng(42)
    basis = rng.normal(size=(model.n_actions, model.n_obs, model.n_states, 3))
    grid = BeliefGrid.create(2, 31)
    theta0 = np.array([0.1, -0.4, 0.25])
    m0 = with_reward(model, parametrized_reward(model, theta0, basis))
    q0 = solve(m0, grid=grid, tol=1e-12).qtable
    g0 = grad_q(m0, basis, q0, tol=1e-11)
    return model, basis, grid, theta0, m0, q0, g0


@pytest.fixture(scope="module")
def probe_setup():
    return _probe(0.9)


def test_grad_q_matches_central_differences(probe_setup):
    # A solve to tol leaves Q off by up to about tol / (1 - beta), so at 0.99
    # the differences take a longer step between tighter solves.
    for (model, basis, grid, theta0, m0, q0, g0), h, tol in (
        (probe_setup, 1e-5, 1e-12),
        (_probe(0.99), 1e-4, 1e-13),
    ):
        for p in range(3):
            step = np.zeros(3)
            step[p] = h
            up = with_reward(model, parametrized_reward(model, theta0 + step, basis))
            dn = with_reward(model, parametrized_reward(model, theta0 - step, basis))
            qu = solve(up, grid=grid, tol=tol, q0=q0).qtable
            qd = solve(dn, grid=grid, tol=tol, q0=q0).qtable
            fd = (qu.values - qd.values) / (2.0 * h)
            np.testing.assert_allclose(g0.values[:, :, :, p], fd, atol=5e-7)


def test_grad_log_pi_matches_central_differences(probe_setup):
    # twenty random probes, relative error under 1e-4
    model, basis, grid, theta0, m0, q0, g0 = probe_setup
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        z = int(rng.integers(model.n_obs))
        a = int(rng.integers(model.n_actions))
        x = random_belief(rng, 2)
        analytic = grad_log_pi(g0, q0, z, x, a)
        fd = np.empty(3)
        for p in range(3):
            step = np.zeros(3)
            step[p] = h
            up = with_reward(model, parametrized_reward(model, theta0 + step, basis))
            dn = with_reward(model, parametrized_reward(model, theta0 - step, basis))
            qu = solve(up, grid=grid, tol=1e-12, q0=q0).qtable
            qd = solve(dn, grid=grid, tol=1e-12, q0=q0).qtable
            fd[p] = (
                np.log(ccp(qu, z, x)[a]) - np.log(ccp(qd, z, x)[a])
            ) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    assert worst <= 1e-4


def test_score_identity(probe_setup):
    # sum_a pi(a) grad log pi(a) = 0 pointwise
    model, basis, grid, theta0, m0, q0, g0 = probe_setup
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = int(rng.integers(model.n_obs))
        x = random_belief(rng, 2)
        pis = ccp(q0, z, x)
        acc = np.zeros(3)
        for a in range(model.n_actions):
            acc += pis[a] * grad_log_pi(g0, q0, z, x, a)
        assert float(np.max(np.abs(acc))) <= 1e-10


def test_score_rows_match_scalar_grad_log_pi(probe_setup):
    # row m of the score matrix is the scalar score at decision m, in
    # dataset order, and the value is the pseudo log likelihood
    model, basis, grid, theta0, m0, q0, g0 = probe_setup
    rng = np.random.default_rng(7)
    hs = [
        History(
            random_belief(rng, 2),
            rng.integers(m0.n_obs, size=6),
            rng.integers(m0.n_actions, size=5),
        )
        for _ in range(4)
    ]
    fps = filter_dataset(m0, hs)
    points = ChoicePoints.from_filtered(grid, hs, fps)
    value, scores = points.grad_sum_log_pi(q0.values, g0.values)
    want = [
        grad_log_pi(g0, q0, int(h.obs[t]), fp.beliefs[t], int(h.acts[t]))
        for h, fp in zip(hs, fps)
        for t in range(h.horizon)
    ]
    assert scores.shape == (20, 3)
    np.testing.assert_allclose(scores, np.stack(want), rtol=0.0, atol=1e-12)
    assert value == pytest.approx(pseudo_log_likelihood(q0, hs, fps), abs=1e-12)


def test_grad_fixed_point_contracts(probe_setup):
    model, basis, grid, theta0, m0, q0, g0 = probe_setup
    solver = BellmanSolver(m0, grid)
    pis = np.exp(q0.values - q0.values.max(axis=-1, keepdims=True))
    pis /= pis.sum(axis=-1, keepdims=True)
    rg_nodes = np.einsum("azsp,gs->zgap", basis, grid.nodes)

    def sweep(cur):
        avg = np.einsum("zga,zgap->zgp", pis, cur)
        return rg_nodes + solver.propagate_stack(avg.reshape(-1, 3))

    rng = np.random.default_rng(3)
    shape = g0.values.shape
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        num = float(np.max(np.abs(sweep(a) - sweep(b))))
        den = float(np.max(np.abs(a - b)))
        worst = max(worst, num / den)
    assert worst <= model.discount + 1e-9


def test_beta_zero_gradient_is_reward_gradient():
    model = random_model(seed=29, discount=0.0)
    rng = np.random.default_rng(5)
    basis = rng.normal(size=(model.n_actions, model.n_obs, model.n_states, 2))
    grid = BeliefGrid.create(model.n_states, 11)
    q = solve(model, grid=grid, tol=1e-12).qtable
    g = grad_q(model, basis, q, tol=1e-12)
    expect = np.einsum("azsp,gs->zgap", basis, grid.nodes)
    np.testing.assert_allclose(g.values, expect, atol=1e-12)


def test_single_action_gradient_telescopes():
    # with one action pi = 1, so grad Q solves g = grad r + beta * E g exactly,
    # and grad log pi must vanish identically
    model = random_model(seed=37, n_actions=1, discount=0.85)
    rng = np.random.default_rng(11)
    basis = rng.normal(size=(1, model.n_obs, model.n_states, 2))
    grid = BeliefGrid.create(model.n_states, 15)
    q = solve(model, grid=grid, tol=1e-12).qtable
    g = grad_q(model, basis, q, tol=1e-12)
    solver = BellmanSolver(model, grid)
    rg_nodes = np.einsum("azsp,gs->zgap", basis, grid.nodes)
    resid = g.values - (
        rg_nodes
        + solver.propagate_stack(g.values[:, :, 0, :].reshape(-1, 2)).reshape(g.values.shape)
    )
    assert float(np.max(np.abs(resid))) <= 1e-10
    x = random_belief(rng, model.n_states)
    np.testing.assert_allclose(grad_log_pi(g, q, 0, x, 0), 0.0, atol=1e-12)


def test_smoothness_constants_reference_values():
    c = smoothness_constants(1.0, 0.0, 0.95, 1)
    assert c.q_grad_bound == pytest.approx(20.0, abs=1e-9)
    assert c.q_hess_bound == pytest.approx(15_200.0, rel=1e-12)
    assert c.value_hess_bound == pytest.approx(16_000.0, rel=1e-12)
    assert c.grad_lipschitz == pytest.approx(31_200.0, rel=1e-12)
    scaled = smoothness_constants(1.0, 0.0, 0.95, 50_000)
    assert scaled.grad_lipschitz == pytest.approx(31_200.0 * 50_000, rel=1e-12)


def test_grad_q_bound(probe_setup):
    # |grad Q| <= max |grad r| / (1 - beta) at the solved point
    model, basis, grid, theta0, m0, q0, g0 = probe_setup
    bound = float(np.max(np.abs(basis))) / (1.0 - model.discount)
    assert float(np.max(np.abs(g0.values))) <= bound + 1e-9


@pytest.mark.parametrize("discount", [0.95, 0.99])
@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_grad_q_solves_the_policy_averaged_fixed_point(n_states, discount):
    # g = grad r + discount * W sum_a pi(a) g(a), checked by one sweep built
    # here from the softmax of Q, apart from the direct solve
    model = random_model(seed=n_states, n_states=n_states, discount=discount)
    rng = np.random.default_rng(n_states)
    basis = rng.normal(size=(*model.reward.shape, 2))
    grid = BeliefGrid.create(n_states, 9)
    q = solve(model, grid=grid, tol=1e-12).qtable
    g = grad_q(model, basis, q, tol=1e-10).values
    pis = np.exp(q.values - q.values.max(axis=-1, keepdims=True))
    pis /= pis.sum(axis=-1, keepdims=True)
    avg = np.einsum("zga,zgap->zgp", pis, g).reshape(-1, 2)
    fixed = np.einsum("azsp,gs->zgap", basis, grid.nodes) + BellmanSolver(model, grid).propagate_stack(avg)
    assert float(np.max(np.abs(g - fixed))) <= 1e-10
