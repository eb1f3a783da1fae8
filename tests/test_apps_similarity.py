"""Integration tests: similarity join on the (default serial) engine."""

from __future__ import annotations

import pytest

from repro.engine.routing import a2a_memberships, canonical_meeting
from repro.exceptions import InvalidSchemaError
from repro.apps.similarity_join import run_broadcast_baseline, run_similarity_join
from repro.core.instance import A2AInstance
from repro.core.schema import A2ASchema
from repro.core.selector import solve_a2a
from repro.workloads.documents import all_pairs_above, generate_documents


class TestCommonHelpers:
    def test_memberships_roundtrip(self):
        instance = A2AInstance([1, 1, 1], 4)
        schema = A2ASchema.from_lists(instance, [[0, 1], [0, 2], [1, 2]])
        members = a2a_memberships(schema)
        assert members == [[0, 1], [0, 2], [1, 2]]

    def test_canonical_meeting_is_min_common(self):
        assert canonical_meeting([0, 2, 5], [2, 5, 9]) == 2

    def test_canonical_meeting_requires_overlap(self):
        with pytest.raises(InvalidSchemaError):
            canonical_meeting([0], [1])


class TestSimilarityJoin:
    @pytest.mark.parametrize("profile", ["uniform", "zipf", "bimodal"])
    def test_matches_ground_truth(self, profile):
        docs = generate_documents(25, 50, profile=profile, seed=11)
        run = run_similarity_join(docs, q=50, threshold=0.15)
        assert run.pair_set() == all_pairs_above(docs, 0.15)

    def test_exactly_once_despite_replication(self):
        docs = generate_documents(20, 40, seed=12)
        run = run_similarity_join(docs, q=40, threshold=0.0)
        # Threshold 0 emits every pair; each must appear exactly once.
        assert len(run.pairs) == len(run.pair_set()) == 20 * 19 // 2

    def test_capacity_respected(self):
        docs = generate_documents(30, 60, seed=13)
        run = run_similarity_join(docs, q=60, threshold=0.5)
        assert run.metrics.max_reducer_load <= 60
        assert run.metrics.capacity_violations == ()

    def test_schema_is_valid(self):
        docs = generate_documents(15, 40, seed=14)
        run = run_similarity_join(docs, q=40, threshold=0.3)
        assert run.schema.verify().valid

    def test_named_method(self):
        docs = generate_documents(12, 40, seed=15)
        run = run_similarity_join(docs, q=40, threshold=0.1, method="greedy")
        assert run.pair_set() == all_pairs_above(docs, 0.1)

    def test_reducer_count_matches_schema(self):
        docs = generate_documents(18, 50, seed=16)
        run = run_similarity_join(docs, q=50, threshold=0.1)
        # Every schema reducer with >= 2 docs received data; reducers in the
        # job equal reducers that got at least one doc.
        assert run.metrics.num_reducers <= run.schema.num_reducers

    def test_communication_cost_equals_schema_cost(self):
        docs = generate_documents(18, 50, seed=17)
        run = run_similarity_join(docs, q=50, threshold=0.1)
        assert run.metrics.communication_cost == run.schema.communication_cost


class TestBroadcastBaseline:
    def test_same_answers_as_schema_join(self):
        docs = generate_documents(15, 40, seed=18)
        schema_run = run_similarity_join(docs, q=40, threshold=0.2)
        naive_run = run_broadcast_baseline(docs, q=40, threshold=0.2)
        assert naive_run.pair_set() == schema_run.pair_set()

    def test_overflows_capacity_measurably(self):
        docs = generate_documents(30, 40, seed=19)
        naive_run = run_broadcast_baseline(docs, q=40, threshold=0.2)
        total = sum(d.size for d in docs)
        assert naive_run.metrics.max_reducer_load == total
        assert len(naive_run.metrics.capacity_violations) == 1

    def test_ships_each_doc_once(self):
        docs = generate_documents(10, 40, seed=20)
        naive_run = run_broadcast_baseline(docs, q=40, threshold=0.2)
        assert naive_run.metrics.communication_cost == sum(d.size for d in docs)
