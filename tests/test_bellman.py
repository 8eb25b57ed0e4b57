from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from spe import (
    EULER_GAMMA,
    Belief,
    BeliefGrid,
    InvalidParams,
    MaxIterExceeded,
    PomdpModel,
    QTable,
    build_engine_model,
    ccp,
    finite_horizon_solve,
    grad_q,
    lambda_update,
    load_qtable,
    save_qtable,
    sigma,
    soft_value,
    solve,
)
from spe.bellman import BellmanSolver, _logsumexp_actions, _softmax_actions, _successors_first
from spe.model import block_table
from spe.model import SIGMA_FLOOR
from support import qtable_bound, random_model, sparse_random_model


def flat_model(reward_value: float, discount: float, n_actions: int = 2) -> PomdpModel:
    """One observable, one hidden state: the solver reduces to a scalar map."""
    kernel = np.ones((n_actions, 1, 1, 1, 1))
    reward = np.full((n_actions, 1, 1), reward_value)
    return PomdpModel(1, 1, n_actions, kernel, reward, discount)


def test_soft_value_hand_numbers():
    grid = BeliefGrid.create(1, 2)
    q = QTable(np.zeros((1, 1, 2)), grid, "k")
    x = np.array([1.0])
    # two zero-value actions: expected max is euler_gamma + ln 2
    assert soft_value(q, 0, x) == pytest.approx(EULER_GAMMA + np.log(2.0), abs=1e-12)
    q2 = QTable(np.array([[[1000.0, 0.0]]]), grid, "k")
    # a dominant action pins the value near itself plus the shock mean
    assert soft_value(q2, 0, x) == pytest.approx(1000.0 + EULER_GAMMA, abs=1e-9)
    q3 = QTable(np.array([[[np.log(3.0), 0.0]]]), grid, "k")
    np.testing.assert_allclose(ccp(q3, 0, x), [0.75, 0.25], atol=1e-12)
    u = ccp(q, 0, x)
    np.testing.assert_allclose(u, [0.5, 0.5], atol=1e-12)
    # the sweep's log-sum-exp over the action axis, at the edge of exp's range
    # and on tied rows, against scipy
    rows = np.array(
        [[700.0, 699.5], [-700.0, -701.0], [-700.0, 700.0], [700.0, 700.0],
         [-700.0, -700.0], [3.0, 3.0], [0.0, 0.0], [1e-300, -1e-300]]
    )
    three_actions = np.stack([rows[:, 0], rows[:, 1], rows[:, 0]], axis=-1)
    for values in (rows, rows.reshape(2, 4, 2), three_actions):
        lse = _logsumexp_actions(values)
        np.testing.assert_allclose(lse, logsumexp(values, axis=-1), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(
            _softmax_actions(values), softmax(values, axis=-1), rtol=1e-13, atol=1e-13
        )


def test_ccp_ratio_identity():
    grid = BeliefGrid.create(2, 11)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(3, grid.n_nodes, 4))
    q = QTable(vals, grid, "k")
    x = Belief(np.array([0.4, 0.6]))
    row = q.interpolate_row(1, x)
    p = ccp(q, 1, x)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    for a in range(3):
        assert p[a] / p[a + 1] == pytest.approx(np.exp(row[a] - row[a + 1]), rel=1e-10)


def test_soft_value_gradient_is_ccp():
    # dVbar/dQ_a = pi_a, checked by central differences on the logsumexp
    grid = BeliefGrid.create(1, 2)
    vals = np.array([[[0.3, -0.2, 1.1]]])
    q = QTable(vals, grid, "k")
    x = np.array([1.0])
    p = ccp(q, 0, x)
    h = 1e-6
    for a in range(3):
        up = vals.copy()
        up[0, 0, a] += h
        dn = vals.copy()
        dn[0, 0, a] -= h
        fd = (
            soft_value(QTable(up, grid, "k"), 0, x)
            - soft_value(QTable(dn, grid, "k"), 0, x)
        ) / (2.0 * h)
        assert fd == pytest.approx(p[a], abs=1e-8)


def test_scalar_fixed_point_closed_form():
    # Q = r + beta * (gamma + ln n + Q) solves to (r + beta*(gamma + ln n)) / (1 - beta)
    for beta in (0.0, 0.5, 0.95):
        m = flat_model(1.0, beta, n_actions=2)
        res = solve(m, resolution=2, tol=1e-13)
        expect = (1.0 + beta * (EULER_GAMMA + np.log(2.0))) / (1.0 - beta)
        np.testing.assert_allclose(res.qtable.values, expect, atol=1e-10)
        assert res.residual <= 1e-13


def test_beta_zero_is_myopic():
    m = random_model(seed=7, discount=0.0)
    grid = BeliefGrid.create(m.n_states, 11)
    solver = BellmanSolver(m, grid)
    res = solve(m, grid=grid, tol=1e-12)
    np.testing.assert_allclose(res.qtable.values, solver.node_rewards, atol=1e-12)


def test_shift_identity():
    # H(Q + c) = HQ + beta * c because successor weights sum to one
    m = random_model(seed=12, discount=0.85)
    grid = BeliefGrid.create(m.n_states, 9)
    solver = BellmanSolver(m, grid)
    rng = np.random.default_rng(0)
    q = rng.normal(size=(m.n_obs, grid.n_nodes, m.n_actions))
    c = 3.7
    lhs = solver.apply(q + c)
    rhs = solver.apply(q) + m.discount * c
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_contraction_on_random_pairs():
    # sup-norm contraction with modulus beta over 100 random table pairs
    m = random_model(seed=3, n_states=2, n_obs=4, n_actions=2, discount=0.9)
    grid = BeliefGrid.create(2, 21)
    solver = BellmanSolver(m, grid)
    rng = np.random.default_rng(17)
    shape = (m.n_obs, grid.n_nodes, m.n_actions)
    worst = 0.0
    for _ in range(100):
        q1 = rng.normal(scale=5.0, size=shape)
        q2 = rng.normal(scale=5.0, size=shape)
        num = float(np.max(np.abs(solver.apply(q1) - solver.apply(q2))))
        den = float(np.max(np.abs(q1 - q2)))
        worst = max(worst, num / den)
    assert worst <= m.discount + 1e-9


def test_solve_matches_backward_induction():
    m = random_model(seed=9, n_states=2, n_obs=3, n_actions=2, discount=0.9)
    grid = BeliefGrid.create(2, 15)
    horizon = 200
    tables = finite_horizon_solve(m, grid, horizon)
    res = solve(m, grid=grid, tol=1e-12)
    gap = float(np.max(np.abs(tables[0].values - res.qtable.values)))
    assert gap <= m.discount**horizon * 2.0 * qtable_bound(m) + 1e-9


def test_finite_horizon_one_step():
    m = random_model(seed=2, discount=0.8)
    grid = BeliefGrid.create(m.n_states, 9)
    solver = BellmanSolver(m, grid)
    tables = finite_horizon_solve(m, grid, 1)
    assert len(tables) == 2
    np.testing.assert_allclose(tables[1].values, 0.0, atol=0)
    # one application on a zero terminal: rbar + beta * (gamma + ln |A|)
    expect = solver.node_rewards + m.discount * (EULER_GAMMA + np.log(m.n_actions))
    np.testing.assert_allclose(tables[0].values, expect, atol=1e-12)


def test_finite_horizon_stationary_terminal():
    m = random_model(seed=5, discount=0.9)
    grid = BeliefGrid.create(m.n_states, 9)
    res = solve(m, grid=grid, tol=1e-13)
    tables = finite_horizon_solve(m, grid, 3, terminal=res.qtable.values)
    for t in tables:
        np.testing.assert_allclose(t.values, res.qtable.values, atol=1e-10)


def test_solution_within_bound():
    m = random_model(seed=14, discount=0.9, reward_scale=3.0)
    res = solve(m, resolution=11, tol=1e-10)
    assert float(np.max(np.abs(res.qtable.values))) <= qtable_bound(m)


def test_max_iter_exceeded():
    m = random_model(seed=1, discount=0.99)
    with pytest.raises(MaxIterExceeded) as exc:
        solve(m, resolution=9, tol=1e-12, max_iter=3)
    assert exc.value.iterations == 3
    assert exc.value.residual > 0.0
    # the direct grad-Q solve refuses a result whose residual is above tol
    q = solve(m, resolution=9, tol=1e-12).qtable
    basis = np.random.default_rng(1).normal(size=(*m.reward.shape, 2))
    with pytest.raises(MaxIterExceeded, match="grad-Q") as exc:
        grad_q(m, basis, q, tol=1e-300)
    assert exc.value.residual > 1e-300


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_non_positive_tolerance_is_rejected(tol):
    m = random_model(seed=2, discount=0.9)
    q = solve(m, resolution=5).qtable
    basis = np.ones((*m.reward.shape, 1))
    with pytest.raises(InvalidParams, match="tol must be positive"):
        solve(m, resolution=5, tol=tol)
    with pytest.raises(InvalidParams, match="tol must be positive"):
        grad_q(m, basis, q, tol=tol)


def test_warm_start_accepted_fast():
    m = random_model(seed=8, discount=0.9)
    grid = BeliefGrid.create(m.n_states, 11)
    res = solve(m, grid=grid, tol=1e-10)
    warm = solve(m, grid=grid, tol=1e-10, q0=res.qtable)
    assert warm.iterations <= 3
    np.testing.assert_allclose(warm.qtable.values, res.qtable.values, atol=1e-8)


def test_span_correction_matches_plain_iteration():
    # the Newton solve must land on the same fixed point as brute force;
    # plain sweeps shrink the error by beta each, so 0.99 needs about 5x more.
    # The sparse models add unreachable kernel blocks and dead successor rows.
    cases = [(random_model(seed=23, discount=0.95), 900), (random_model(seed=23, discount=0.99), 4500)]
    cases += [(sparse_random_model(seed=n, n_states=n), 900) for n in (1, 2, 3)]
    for m, sweeps in cases:
        grid = BeliefGrid.create(m.n_states, 9)
        solver = BellmanSolver(m, grid)
        res = solve(m, grid=grid, tol=1e-11)
        q = np.zeros((m.n_obs, grid.n_nodes, m.n_actions))
        for _ in range(sweeps):
            q = solver.apply(q)
        np.testing.assert_allclose(res.qtable.values, q, atol=1e-8)


def test_cold_solve_costs_the_same_near_discount_one(ref_params):
    # Newton's iteration count barely grows with the discount, where the
    # sweeps of value iteration grow like 1 / (1 - beta)
    grid = BeliefGrid.create(2, 31)
    counts = {
        beta: BellmanSolver(build_engine_model(ref_params, beta), grid).solve()[1]
        for beta in (0.95, 0.99)
    }
    assert counts[0.99] <= counts[0.95] + 2


@pytest.mark.parametrize("reverse", [False, True])
def test_factor_order_puts_successors_first(ref_params, reverse):
    # only the moves into the replacement bin may point later in the factor
    # order, whichever way the mileage bins are labelled
    kernel = build_engine_model(ref_params).kernel
    if reverse:
        kernel = kernel[:, ::-1, :, ::-1, :]
    moves = (block_table(kernel)[0] > 0).any(axis=0)
    order = _successors_first(moves)
    np.testing.assert_array_equal(np.sort(order), np.arange(moves.shape[0]))
    pos = np.argsort(order)
    z, z2 = np.nonzero(moves)
    assert set(z2[pos[z2] > pos[z]]) == {order[-1]} == {moves.shape[0] - 1 if reverse else 0}


def test_solve_indifferent_to_observable_labels(ref_params):
    m = build_engine_model(ref_params)
    flipped = PomdpModel(
        m.n_states, m.n_obs, m.n_actions, m.kernel[:, ::-1, :, ::-1, :], m.reward[:, ::-1, :], m.discount
    )
    grid = BeliefGrid.create(2, 11)
    q = solve(m, grid=grid).qtable.values
    np.testing.assert_allclose(solve(flipped, grid=grid).qtable.values[::-1], q, rtol=0, atol=1e-9)


@pytest.mark.parametrize("max_iter", [None, 0, 2.5])
def test_max_iter_must_be_positive_integer(max_iter):
    with pytest.raises(InvalidParams, match="max_iter"):
        solve(random_model(seed=1), resolution=5, max_iter=max_iter)


def test_sparse_operator_matches_gather():
    # the sparse discount * W reproduces the padded gather over flat_idx/weights
    m = random_model(seed=31, discount=0.9)
    grid = BeliefGrid.create(m.n_states, 9)
    solver = BellmanSolver(m, grid)
    rng = np.random.default_rng(2)
    n_flat = m.n_obs * grid.n_nodes
    v = rng.normal(size=n_flat)
    gather = m.discount * (solver.weights * v[solver.flat_idx]).sum(axis=-1)
    np.testing.assert_allclose(solver.propagate(v), gather, rtol=0, atol=1e-13)
    stack = rng.normal(size=(n_flat, 3))
    out = solver.propagate_stack(stack)
    gather = m.discount * np.einsum("zgaw,zgawp->zgap", solver.weights, stack[solver.flat_idx])
    np.testing.assert_allclose(out, gather, rtol=0, atol=1e-13)
    for j in range(stack.shape[1]):
        np.testing.assert_array_equal(out[..., j], solver.propagate(stack[:, j]))


@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_solver_rows_match_scalar_bayes_update(n_states):
    # row (z, node, a) of W is sum_z' sigma(z' | z, node, a) times the
    # interpolation weights of lambda(z', z, node, a), on kernels with
    # unreachable blocks and blocks that only some nodes reach
    m = sparse_random_model(seed=n_states, n_states=n_states)
    n_reaching = (m.kernel.sum(axis=-1) > 0.0).sum(axis=2)     # (a, z, z')
    assert np.any(n_reaching == 0)
    assert n_states == 1 or np.any(n_reaching == 1)
    grid = BeliefGrid.create(n_states, 7)
    g = grid.n_nodes
    solver = BellmanSolver(m, grid)
    dense = solver.successors.toarray() / m.discount
    for z in range(m.n_obs):
        for node, x in enumerate(grid.nodes):
            for a in range(m.n_actions):
                expected = np.zeros(m.n_obs * g)
                for z2 in range(m.n_obs):
                    sig = sigma(m, z2, z, x, a)
                    if sig < SIGMA_FLOOR:
                        continue
                    idx, w = grid.interpolate(lambda_update(m, z2, z, x, a).probs)
                    np.add.at(expected, z2 * g + idx, sig * w)
                row = (z * g + node) * m.n_actions + a
                np.testing.assert_allclose(dense[row], expected, rtol=0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.95))
def test_solve_residual_contract(seed, discount):
    m = random_model(seed, discount=discount)
    res = solve(m, resolution=7, tol=1e-8)
    check = BellmanSolver(m, res.qtable.grid).apply(res.qtable.values)
    assert float(np.max(np.abs(check - res.qtable.values))) <= 1e-8 * (1.0 + 1e-6)


def test_qtable_round_trip(tmp_path):
    m = random_model(seed=4)
    res = solve(m, resolution=9, tol=1e-9)
    path = tmp_path / "q.json"
    save_qtable(res.qtable, path)
    back = load_qtable(path)
    np.testing.assert_array_equal(back.values, res.qtable.values)
    assert back.model_key == res.qtable.model_key
    assert back.grid.resolution == res.qtable.grid.resolution
    # the soft value's constant is fixed: a table solved with another one is refused
    payload = json.loads(path.read_text())
    assert payload["euler_gamma"] == EULER_GAMMA
    path.write_text(json.dumps({**payload, "euler_gamma": 0.5}))
    with pytest.raises(InvalidParams, match="euler_gamma"):
        load_qtable(path)


def test_qtable_shape_validation(tmp_path):
    grid = BeliefGrid.create(2, 5)
    with pytest.raises(Exception):
        QTable(np.zeros((2, grid.n_nodes + 1, 2)), grid, "k")
    # a qtable file needs a JSON object with integer sizes; int() would truncate 5.9 to 5
    path = tmp_path / "q.json"
    save_qtable(QTable(np.zeros((2, grid.n_nodes, 2)), grid, "k"), path)
    payload = json.loads(path.read_text())
    for key, value in [("n_states", 2.0), ("resolution", 5.9), ("resolution", True)]:
        path.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(InvalidParams, match=key):
            load_qtable(path)
    path.write_text(json.dumps([payload]))
    with pytest.raises(InvalidParams, match="JSON object"):
        load_qtable(path)


def test_qtable_file_values_need_numbers(tmp_path):
    # np.asarray(..., dtype=float64) would read "0.5" as 0.5 and true as 1.0
    grid = BeliefGrid.create(2, 5)
    path = tmp_path / "q.json"
    save_qtable(QTable(np.zeros((2, grid.n_nodes, 2)), grid, "k"), path)
    payload = json.loads(path.read_text())
    for leaf in ("0.5", True, None):
        values = [[[0.0, 0.0]] * grid.n_nodes, [[0.0, leaf]] + [[0.0, 0.0]] * (grid.n_nodes - 1)]
        path.write_text(json.dumps({**payload, "values": values}))
        with pytest.raises(InvalidParams, match="values must hold only numbers"):
            load_qtable(path)


def test_qtable_reads_trailing_axes():
    # grad Q is a QTable with a parameter axis, and a read of it is the reads
    # of its per-parameter slices
    m = random_model(seed=5, n_states=3)
    grid = BeliefGrid.create(3, 7)
    q = solve(m, grid).qtable
    gq = grad_q(m, np.random.default_rng(5).normal(size=(*m.reward.shape, 3)), q)
    assert isinstance(gq, QTable)
    assert gq.values.shape == (*q.values.shape, 3)
    rng = np.random.default_rng(6)
    for z in range(m.n_obs):
        x = rng.dirichlet(np.ones(3))
        slices = [QTable(gq.values[..., p], grid, gq.model_key).interpolate_row(z, x) for p in range(3)]
        np.testing.assert_allclose(
            gq.interpolate_row(z, x), np.stack(slices, axis=-1), rtol=1e-13, atol=1e-15
        )
