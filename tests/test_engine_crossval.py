"""Cross-validation: the engine must agree with the reference simulator.

This is the acceptance gate for the engine subsystem — the serial backend
has to be byte-identical to :class:`repro.mapreduce.job.MapReduceJob` in
outputs *and* metrics before the parallel backends mean anything.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.apps.similarity_join import _similarity_reduce, run_similarity_join
from repro.apps.skew_join import naive_join, schema_skew_join
from repro.core.selector import solve_a2a, solve_x2y
from repro.engine.crossval import (
    CrossValidationReport,
    compare_results,
    validate_against_simulator,
)
from repro.engine.routing import a2a_meeting_table
from repro.workloads.documents import generate_documents
from repro.workloads.relations import generate_join_workload


def tally_reduce(key, values):
    """Deterministic reducer: reducer id plus the sorted input indices."""
    yield key, tuple(sorted(v[:-1] if len(v) == 3 else (v[0],) for v in values))


class TestSchemaCrossValidation:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_a2a_engine_equals_simulator(self, small_a2a, backend):
        schema = solve_a2a(small_a2a).require_valid()
        records = [f"rec{i}" for i in range(schema.instance.m)]
        engine_result, job_result, report = validate_against_simulator(
            schema, records, tally_reduce, backend=backend, num_workers=2
        )
        assert report.ok, report.summary()
        assert engine_result.outputs == job_result.outputs
        assert engine_result.metrics == job_result.metrics

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_x2y_engine_equals_simulator(self, small_x2y, backend):
        schema = solve_x2y(small_x2y).require_valid()
        x_records = [f"x{i}" for i in range(schema.instance.m)]
        y_records = [f"y{j}" for j in range(schema.instance.n)]
        _, _, report = validate_against_simulator(
            schema, (x_records, y_records), tally_reduce, backend=backend
        )
        assert report.ok, report.summary()

    def test_report_flags_mismatches(self, small_a2a):
        schema = solve_a2a(small_a2a).require_valid()
        records = [f"rec{i}" for i in range(schema.instance.m)]
        engine_result, job_result, _ = validate_against_simulator(
            schema, records, tally_reduce
        )
        # Tamper with the engine outputs to prove the diff catches it.
        broken = type(engine_result)(
            outputs=engine_result.outputs[:-1],
            metrics=engine_result.metrics,
            engine=engine_result.engine,
        )
        report = compare_results(broken, job_result)
        assert not report.ok
        assert not report.outputs_match
        assert "outputs differ" in report.summary()

    def test_report_summary_when_ok(self):
        report = CrossValidationReport(outputs_match=True, metrics_match=True)
        assert "identical" in report.summary()


class TestApplicationCrossValidation:
    """Outputs *and* JobMetrics must match the simulator on every backend,
    not just serial — partitioning may batch keys differently, but nothing
    observable may change.  The similarity join is diffed against the
    simulator through the schema router; the skew join (a composite
    light/heavy job no single schema routes) against its default serial
    run, which itself must equal the centrally-computed ground truth."""

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_similarity_join_engine_is_byte_identical(self, backend):
        documents = generate_documents(24, 50, seed=11)
        run = run_similarity_join(documents, 50, 0.2, backend=backend)
        reduce_fn = partial(
            _similarity_reduce,
            owners=a2a_meeting_table(run.schema),
            threshold=0.2,
        )
        engine_result, _, report = validate_against_simulator(
            run.schema, documents, reduce_fn, backend=backend
        )
        assert report.ok, report.summary()
        assert run.pairs == tuple(engine_result.outputs)
        assert run.metrics == engine_result.metrics
        assert run.engine is not None and run.engine.backend == backend

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_skew_join_engine_is_byte_identical(self, backend):
        x, y = generate_join_workload(240, 240, 8, 1.3, seed=5)
        serial = schema_skew_join(x, y, 70)
        engine = schema_skew_join(x, y, 70, backend=backend)
        assert serial.engine is not None and serial.engine.backend == "serial"
        truth = naive_join(x, y)
        assert len(serial.triples) == len(serial.triple_set()) == len(truth)
        assert serial.triple_set() == truth
        assert engine.triples == serial.triples
        assert engine.metrics == serial.metrics
        assert engine.heavy_keys == serial.heavy_keys
        assert engine.engine is not None and engine.engine.backend == backend
