"""Integration tests: distributed outer product on the (default serial) engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.tensor_product import distributed_outer_product
from repro.workloads.vectors import dense_outer_product, generate_block_vector


class TestDistributedOuterProduct:
    @pytest.mark.parametrize("profile", ["uniform", "zipf"])
    def test_matches_dense_computation(self, profile):
        u = generate_block_vector("u", 5, 30, profile=profile, seed=31)
        v = generate_block_vector("v", 4, 30, profile=profile, seed=32)
        run = distributed_outer_product(u, v, q=30)
        assert np.allclose(run.dense(), dense_outer_product(u, v))

    def test_every_entry_exactly_once(self):
        u = generate_block_vector("u", 4, 24, seed=33)
        v = generate_block_vector("v", 4, 24, seed=34)
        run = distributed_outer_product(u, v, q=24)
        coordinates = [(r, c) for r, c, _ in run.entries]
        assert len(coordinates) == len(set(coordinates))
        assert len(coordinates) == u.dimension * v.dimension

    def test_capacity_respected(self):
        u = generate_block_vector("u", 6, 20, seed=35)
        v = generate_block_vector("v", 6, 20, seed=36)
        run = distributed_outer_product(u, v, q=20)
        assert run.metrics.max_reducer_load <= 20
        assert run.metrics.capacity_violations == ()

    def test_schema_valid(self):
        u = generate_block_vector("u", 3, 20, seed=37)
        v = generate_block_vector("v", 3, 20, seed=38)
        run = distributed_outer_product(u, v, q=20)
        assert run.schema.verify().valid

    def test_named_method(self):
        u = generate_block_vector("u", 3, 20, seed=39)
        v = generate_block_vector("v", 3, 20, seed=40)
        run = distributed_outer_product(u, v, q=20, method="greedy")
        assert np.allclose(run.dense(), dense_outer_product(u, v))

    def test_single_blocks(self):
        u = generate_block_vector("u", 1, 10, seed=41)
        v = generate_block_vector("v", 1, 10, seed=42)
        run = distributed_outer_product(u, v, q=10)
        assert run.metrics.num_reducers == 1
        assert np.allclose(run.dense(), dense_outer_product(u, v))
