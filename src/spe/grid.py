"""Simplex lattice over hidden-state beliefs, with piecewise-linear interpolation.

Nodes are the rational points k / (resolution - 1) with k a nonnegative integer
vector summing to resolution - 1. Interpolation runs in cumulative coordinates
c_j = x_0 + ... + x_j: the unit cell containing a query is split into simplices
(Freudenthal style) by the descending order of the fractional parts, which
yields barycentric weights that are nonnegative, sum to one, and reproduce the
query point exactly.

Every value table on the lattice, action values or their gradient, has the
layout (observable, node, ...): BeliefGrid.locate places beliefs on its
flattened (observable, node) axis and read returns its rows there.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams


@dataclass(frozen=True, eq=False)
class BeliefGrid:
    """Regular lattice over the belief simplex."""

    n_states: int
    resolution: int
    nodes: np.ndarray          # (n_nodes, n_states), each row a belief
    _keys: np.ndarray          # sorted integer encodings of cumulative coords

    @classmethod
    def create(cls, n_states: int, resolution: int = 101) -> "BeliefGrid":
        if n_states < 1:
            raise InvalidParams("n_states must be positive")
        if n_states == 1:
            nodes = np.ones((1, 1))
            keys = np.zeros(1, dtype=np.int64)
            nodes.setflags(write=False)
            return cls(1, resolution, nodes, keys)
        if resolution < 2:
            raise InvalidParams("resolution must be at least 2")
        m = resolution - 1
        # Nodes are the nondecreasing cumulative coordinates in [0, m], in key order.
        cumulative = np.array(
            list(itertools.combinations_with_replacement(range(m + 1), n_states - 1)), dtype=np.int64
        )
        keys = _encode(cumulative, resolution)
        order = np.argsort(keys)
        keys = keys[order]
        nodes = np.diff(cumulative[order], axis=1, prepend=0, append=m).astype(np.float64) / m
        nodes.setflags(write=False)
        keys.setflags(write=False)
        return cls(n_states, resolution, nodes, keys)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def interpolate_many(self, queries: np.ndarray):
        """Barycentric interpolation data for a batch of beliefs.

        Returns (indices, weights), each (batch, n_states): weights are
        nonnegative, rows sum to 1, and sum_j w_j * nodes[idx_j] equals the
        query after clamping to the simplex.
        """
        x = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if x.shape[1] != self.n_states:
            raise InvalidParams(
                f"query dimension {x.shape[1]} != n_states {self.n_states}"
            )
        b = x.shape[0]
        n = self.n_states
        if n == 1:
            return np.zeros((b, 1), dtype=np.int64), np.ones((b, 1))
        # Clamp tiny drift off the simplex before interpolating.
        x = np.maximum(x, 0.0)
        x = x / x.sum(axis=1, keepdims=True)
        m = self.resolution - 1
        y = np.cumsum(x[:, :-1], axis=1) * m            # (b, n-1), in [0, m]
        base = np.minimum(np.floor(y).astype(np.int64), m - 1)
        base = np.maximum(base, 0)
        frac = y - base                                  # in [0, 1]
        order = np.argsort(-frac, axis=1, kind="stable")
        fs = np.take_along_axis(frac, order, axis=1)     # descending fractions
        weights = np.empty((b, n))
        weights[:, 0] = 1.0 - fs[:, 0]
        weights[:, 1:-1] = fs[:, :-1] - fs[:, 1:]
        weights[:, -1] = fs[:, -1]
        # Vertex j adds e_{order[j-1]} to the previous vertex in cumulative coords.
        verts = np.empty((b, n, n - 1), dtype=np.int64)
        verts[:, 0, :] = base
        cur = base.copy()
        rows = np.arange(b)
        for j in range(1, n):
            cur[rows, order[:, j - 1]] += 1
            verts[:, j, :] = cur
        # Guard: cumulative coords must stay nondecreasing and within [0, m].
        verts = np.maximum.accumulate(np.clip(verts, 0, m), axis=2)
        idx = np.searchsorted(self._keys, _encode(verts.reshape(b * n, n - 1), self.resolution))
        return idx.reshape(b, n), weights

    def interpolate(self, query) -> tuple[np.ndarray, np.ndarray]:
        """Single-query version of interpolate_many."""
        idx, w = self.interpolate_many(np.asarray(query, dtype=np.float64)[None, :])
        return idx[0], w[0]

    def locate(self, z, beliefs) -> tuple[np.ndarray, np.ndarray]:
        """Beliefs at observables z, placed on a table's flattened (observable, node) axis.

        Returns (flat, weights), each (batch, n_states): the indices there of
        interpolate_many's nodes, and its weights.
        """
        idx, w = self.interpolate_many(beliefs)
        return np.asarray(z)[..., None] * self.n_nodes + idx, w


def read(values: np.ndarray, flat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows of a table on (observable, node, ...) at located beliefs, shape (batch, ...)."""
    return np.einsum("mn,mn...->m...", weights, values.reshape(-1, *values.shape[2:])[flat])


def _encode(cumulative: np.ndarray, resolution: int) -> np.ndarray:
    powers = resolution ** np.arange(cumulative.shape[1], dtype=np.int64)
    return cumulative @ powers
