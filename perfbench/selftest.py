"""Self-test of the benchmark at tiny scale.  Asserts counts, never times.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, in both the timed (``--trace 0``) and the traced
(``--trace 1``) mode, it runs the benchmark twice on the development
seed and once on the held-out seed, each with a fixed job count, and
checks that:

* every metric ``BENCHMARK.json`` names is printed, with its unit;
* every job matched its reference (``failed == 0``, so error rate 0);
* ``comm_cost``, ``reducers`` and the per-layer counts repeat exactly
  across the two runs of one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import HELD_OUT_SEED, WORKLOADS  # noqa: E402

DEV_SEED = 1
JOBS = 3

#: Counts that depend on how the service's two slots interleave: two
#: concurrent jobs with the same spec can both miss the plan cache.
SCHEDULE_DEPENDENT = {
    "service_mix": {
        "planner.candidates",
        "service.cache_evictions",
        "service.cache_hit_rate",
    },
}

#: Units of metrics that count work rather than time it.
COUNT_UNITS = {"count", "B", "size", "ratio"}


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
            "--jobs", str(JOBS),
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, declared: list[dict]) -> list[str]:
    problems = []
    first = run(workload, DEV_SEED, trace)
    second = run(workload, DEV_SEED, trace)
    held_out = run(workload, HELD_OUT_SEED, trace)
    for label, result in (("dev", first), ("dev again", second), ("held-out", held_out)):
        if not result["correct"] or result["failed"] != 0:
            problems.append(
                f"{label}: {result['failed']} of {result['attempted']} jobs failed"
            )
        for metric in declared:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{label}: {metric['name']} missing or wrong unit")
    exempt = SCHEDULE_DEPENDENT.get(workload, set())
    for metric in declared:
        name = metric["name"]
        if metric["unit"] not in COUNT_UNITS or name in exempt:
            continue
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs between runs of one seed: {a} != {b}")
    return problems


def main() -> int:
    declared = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, declared[kind])
            status = "ok" if not problems else "FAILED"
            print(f"{workload:<16} trace={trace}  {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
