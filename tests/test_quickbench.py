"""Unit tests for the quick-bench harness behind ``repro bench``."""

from __future__ import annotations

from repro.engine.quickbench import (
    SCENARIOS,
    check_codec,
    check_regression,
    run_codec_bench,
    run_scenario,
    run_scenarios,
)


def rows_for(scenario_walls: dict[str, dict[str, float]]) -> list[dict[str, object]]:
    return [
        {"scenario": scenario, "backend": backend, "wall_s": wall}
        for scenario, walls in scenario_walls.items()
        for backend, wall in walls.items()
    ]


class TestCheckRegression:
    def test_passes_when_threads_close_to_serial(self):
        rows = rows_for({"a": {"serial": 0.20, "threads": 0.24}})
        assert check_regression(rows) == []

    def test_fails_on_gross_threads_slowdown(self):
        rows = rows_for({"a": {"serial": 0.20, "threads": 0.30}})
        failures = check_regression(rows)
        assert len(failures) == 1 and "a: threads" in failures[0]

    def test_sub_floor_scenarios_are_ignored(self):
        # 3ms vs 4ms is rounding noise, not a regression signal...
        rows = rows_for(
            {
                "noise": {"serial": 0.003, "threads": 0.004},
                "real": {"serial": 0.20, "threads": 0.21},
            }
        )
        assert check_regression(rows) == []

    def test_nothing_compared_is_a_failure(self):
        # ...but a run with *only* sub-floor or baseline-less scenarios
        # must fail rather than pass vacuously.
        for rows in (
            [],
            rows_for({"noise": {"serial": 0.003, "threads": 0.004}}),
            rows_for({"a": {"threads": 0.5}}),
            rows_for({"a": {"serial": 0.5}}),
        ):
            failures = check_regression(rows)
            assert failures and "compared nothing" in failures[0]


class TestCodecBench:
    def test_small_run_passes_its_own_gate(self):
        rows = run_codec_bench(
            items=200, repeat=1, block_items=(64,), include_transport=False
        )
        assert check_codec(rows) == []
        codec_rows = [r for r in rows if r["scenario"] == "codec"]
        kinds = {r["kind"] for r in codec_rows}
        assert kinds == {"int", "str", "bytes", "tuple"}
        # One block format for every key kind: no per-kind codec column.
        assert not any("codec" in r for r in codec_rows)

    def test_gate_catches_failed_roundtrip(self):
        rows = run_codec_bench(
            items=50, repeat=1, block_items=(16,), include_transport=False
        )
        rows[0]["ok"] = False
        failures = check_codec(rows)
        assert failures and "round-trip failed" in failures[0]

    def test_gate_catches_missing_key_kind(self):
        rows = run_codec_bench(
            items=50, repeat=1, block_items=(16,), include_transport=False
        )
        rows = [r for r in rows if r["kind"] != "tuple"]
        assert any("only 3 codec rows" in f for f in check_codec(rows))


class TestScenarios:
    def test_scenario_registry_runs_everywhere_serial(self):
        for name in SCENARIOS:
            result, wall = run_scenario(name, "serial", scale=0.02)
            assert result.outputs, name
            assert wall >= 0

    def test_rows_carry_speedup_against_serial_baseline(self):
        rows = run_scenarios(
            scenarios=["shuffle_heavy"],
            backends=["threads", "serial"],  # serial is reordered first
            scale=0.02,
        )
        assert [r["backend"] for r in rows] == ["serial", "threads"]
        assert rows[0]["speedup_vs_serial"] == 1.0
        assert rows[1]["speedup_vs_serial"] != ""
