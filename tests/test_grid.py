from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe import BeliefGrid, InvalidParams
from support import call_sites


def test_node_count_two_states():
    g = BeliefGrid.create(2, 101)
    assert g.n_nodes == 101
    np.testing.assert_allclose(g.nodes.sum(axis=1), 1.0, atol=1e-12)


def test_node_count_three_states():
    # stars and bars: C(m + 2, 2) nodes at resolution m + 1
    g = BeliefGrid.create(3, 11)
    assert g.n_nodes == 66


def test_nodes_interpolate_to_themselves():
    g = BeliefGrid.create(3, 7)
    idx, w = g.interpolate_many(g.nodes)
    recon = np.einsum("bj,bjs->bs", w, g.nodes[idx])
    np.testing.assert_allclose(recon, g.nodes, atol=1e-12)
    # the carrying node gets all the weight
    assert np.all(w.max(axis=1) > 1.0 - 1e-9)


@pytest.mark.parametrize("n_states", [2, 3, 4])
def test_barycentric_reconstruction(n_states):
    g = BeliefGrid.create(n_states, 13)
    rng = np.random.default_rng(n_states)
    x = rng.dirichlet(np.ones(n_states), size=200)
    idx, w = g.interpolate_many(x)
    assert np.all(w >= -1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    recon = np.einsum("bj,bjs->bs", w, g.nodes[idx])
    np.testing.assert_allclose(recon, x, atol=1e-12)


def test_single_hidden_state_degenerates():
    g = BeliefGrid.create(1, 50)
    assert g.n_nodes == 1
    idx, w = g.interpolate(np.array([1.0]))
    assert idx.tolist() == [0]
    assert w.tolist() == [1.0]


def test_off_simplex_queries_are_clamped():
    g = BeliefGrid.create(2, 11)
    idx, w = g.interpolate(np.array([1.2, -0.2]))
    recon = w @ g.nodes[idx]
    np.testing.assert_allclose(recon, [1.0, 0.0], atol=1e-12)
    # small drift from filtering round-off must not break weights
    idx, w = g.interpolate(np.array([0.3 + 1e-13, 0.7 - 1e-13]))
    assert np.all(w >= -1e-12)


def test_validation():
    with pytest.raises(InvalidParams):
        BeliefGrid.create(0, 11)
    with pytest.raises(InvalidParams):
        BeliefGrid.create(2, 1)
    g = BeliefGrid.create(2, 11)
    with pytest.raises(InvalidParams):
        g.interpolate_many(np.ones((3, 3)) / 3.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 9))
def test_interpolation_invariants(seed, n_states, resolution):
    g = BeliefGrid.create(n_states, resolution)
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.full(n_states, 0.7), size=20)
    idx, w = g.interpolate_many(x)
    assert idx.shape == w.shape == (20, n_states)
    assert np.all(idx >= 0) and np.all(idx < g.n_nodes)
    assert np.all(w >= -1e-12)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)
    recon = np.einsum("bj,bjs->bs", w, g.nodes[idx])
    np.testing.assert_allclose(recon, x, atol=1e-9)


def test_lattice_tables_are_read_in_one_place():
    # every value table is placed on the lattice by BeliefGrid.locate and read
    # by grid.read, so no module flattens (observable, node) on its own
    assert call_sites(("interpolate_many",)) == [
        ("grid.py", "interpolate", "self.interpolate_many"),
        ("grid.py", "locate", "self.interpolate_many"),
    ]
