"""One benchmark process: ``reference``, ``setup``, ``measure`` or ``trace``.

``run.py`` starts each mode in a fresh interpreter so that RSS and CPU
belong to one workload and one purpose:

* ``reference`` computes the workload's reference outputs (never timed);
* ``setup`` times imports, input generation and service construction;
* ``measure`` runs the timed jobs with no instrumentation;
* ``trace`` runs jobs untraced, then traced (:mod:`layers`), then the
  yardstick and serial reference lines, and reports per-layer numbers.

Each mode prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import time

# Taken before any repro import: setup time includes the imports.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Any  # noqa: E402

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """This process's CPU plus that of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def mean(values: Any) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values: Any) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (the largest sample for small counts)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


class Runner:
    """Runs a workload's jobs and checks every one against the reference."""

    def __init__(self, workload: Any, ref: dict[str, Any], recorder: Any = None):
        self.workload = workload
        self.ref = ref
        self.recorder = recorder
        #: First good join job's (comm, reducers); every later job must match.
        self.expected: tuple[int, int] | None = None
        #: Per traced job: seconds from the last engine return to app return.
        self.post_engine: list[float] = []

    def run(self, seconds: float, jobs: int | None) -> tuple[list[Any], float]:
        """Jobs for *seconds* of job time (or exactly *jobs* jobs).

        Returns the outcomes and the window they ran in: summed job walls
        for one-after-another jobs, elapsed wall for the client loop.
        """
        if self.workload.concurrent:
            return self._closed_loop(seconds, jobs)
        return self._sequential(seconds, jobs)

    def _sequential(self, seconds: float, jobs: int | None) -> tuple[list[Any], float]:
        outcomes: list[Any] = []
        busy = 0.0
        while (len(outcomes) < jobs) if jobs is not None else (busy < seconds):
            if self.recorder is not None:
                self.recorder.set_job(f"job-{len(outcomes)}")
            cpu0 = cpu_seconds()
            started = time.perf_counter()
            try:
                run = self.workload.call()
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                wall = time.perf_counter() - started
                outcomes.append(
                    workloads.Outcome(wall=wall, ok=False, error=_describe(exc))
                )
                busy += wall
                continue
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu0
            busy += wall
            if self.recorder is not None:
                engine_end = self.recorder.last_engine_end()
                if engine_end is not None:
                    self.post_engine.append(started + wall - engine_end)
            outcome = self.workload.check(run, self.ref)
            del run
            outcome.wall = wall
            outcome.cpu = cpu
            if outcome.ok:
                seen = (outcome.comm, outcome.reducers)
                if self.expected is None:
                    self.expected = seen
                elif seen != self.expected:
                    outcome.ok = False
                    outcome.error = f"comm/reducers {seen} != {self.expected}"
            elif not outcome.error:
                outcome.error = "output digest differs from the reference"
            outcomes.append(outcome)
        return outcomes, busy

    def _closed_loop(self, seconds: float, jobs: int | None) -> tuple[list[Any], float]:
        outcomes: list[Any] = []
        lock = threading.Lock()
        taken = [0]
        started = time.perf_counter()
        deadline = started + seconds

        def client() -> None:
            while True:
                with lock:
                    if jobs is not None:
                        if taken[0] >= jobs:
                            return
                    elif time.perf_counter() >= deadline:
                        return
                    taken[0] += 1
                index = self.workload.take()
                if index is None:
                    return
                submitted = time.perf_counter()
                try:
                    outcome = self.workload.submit(index, self.ref)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    outcome = workloads.Outcome(
                        wall=time.perf_counter() - submitted,
                        ok=False,
                        error=_describe(exc),
                    )
                if not outcome.ok and not outcome.error:
                    outcome.error = "output differs from the reference"
                with lock:
                    outcomes.append(outcome)

        clients = [
            threading.Thread(target=client, name=f"perfbench-client-{i}")
            for i in range(workloads.SERVICE_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return outcomes, time.perf_counter() - started


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


def _failures(outcomes: list[Any]) -> list[str]:
    return [o.error for o in outcomes if not o.ok][:5]


def _load_workload(args: argparse.Namespace) -> Any:
    return workloads.make(args.workload, args.seed, args.scale, args.tmp)


def _warm_up(runner: Runner) -> list[Any]:
    """Untimed jobs first: lazy set-up finishes and the plan cache fills."""
    outcomes, _ = runner.run(0.0, getattr(runner.workload, "warmup", 1))
    return outcomes


def mode_reference(args: argparse.Namespace) -> dict[str, Any]:
    workload = _load_workload(args)
    ref = workload.reference()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(ref, handle)
    return {"ok": True}


def mode_setup(args: argparse.Namespace) -> dict[str, Any]:
    workload = _load_workload(args)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    workload.close()
    return {"setup_s": setup_s, "gen_s": workload.gen_s}


def _read_ref(args: argparse.Namespace) -> dict[str, Any]:
    with open(args.ref, encoding="utf-8") as handle:
        return json.load(handle)


def mode_measure(args: argparse.Namespace) -> dict[str, Any]:
    workload = _load_workload(args)
    workload.setup()
    ref = _read_ref(args)
    try:
        runner = Runner(workload, ref)
        warm = _warm_up(runner)
        cpu0 = cpu_seconds()
        timed, window = runner.run(args.seconds, args.jobs)
        window_cpu = cpu_seconds() - cpu0
    finally:
        workload.close()
    good = [o for o in timed if o.ok]
    walls = [o.wall for o in good] or [0.0]
    if workload.concurrent:
        cpu_per_job = window_cpu / max(1, len(timed))
        comm = sum(job["comm"] for job in ref["jobs"])
        reducers = sum(job["reducers"] for job in ref["jobs"])
    else:
        cpu_per_job = sum(o.cpu for o in good) / max(1, len(good))
        comm, reducers = runner.expected or (0, 0)
    parent_rss = peak_rss_mb(resource.RUSAGE_SELF)
    metrics = {
        "job_s": median(walls),
        "job_s_p99": percentile(walls, 0.99),
        "jobs_per_s": len(good) / window if window > 0 else 0.0,
        "cpu_s_per_job": cpu_per_job,
        "peak_rss_mb": parent_rss,
        # In-process backends run tasks in the parent itself.
        "worker_peak_rss_mb": (
            peak_rss_mb(resource.RUSAGE_CHILDREN)
            if workload.uses_processes
            else parent_rss
        ),
        "comm_cost": comm,
        "reducers": reducers,
    }
    attempted = warm + timed
    return {
        "metrics": metrics,
        "attempted": len(attempted),
        "failed": sum(1 for o in attempted if not o.ok),
        "samples": len(good),
        "errors": _failures(attempted),
    }


def mode_trace(args: argparse.Namespace) -> dict[str, Any]:
    from layers import Recorder

    workload = _load_workload(args)
    workload.setup()
    ref = _read_ref(args)
    recorder = Recorder(workloads)
    service = getattr(workload, "service", None)
    try:
        runner = Runner(workload, ref)
        warm = _warm_up(runner)
        untraced, _ = runner.run(args.seconds / 2, args.jobs)
        evictions0 = service.plan_cache.evictions if service else 0
        traced_runner = Runner(workload, ref, recorder)
        traced_runner.expected = runner.expected
        with recorder:
            traced, _ = traced_runner.run(args.seconds / 2, args.jobs)
        evictions = (service.plan_cache.evictions - evictions0) if service else 0
    finally:
        workload.close()
    yardstick_s = workload.yardstick()
    serial_job_s = workload.serial_job()

    n = max(1, len(traced))
    per_job = lambda total: total / n  # noqa: E731
    seconds, calls, counts = recorder.seconds, recorder.calls, recorder.counts
    engines = [engine for engine, _ in recorder.engine_runs]
    jobs_metrics = [job for _, job in recorder.engine_runs]
    plan_s = per_job(seconds["planner"])
    table_s = per_job(seconds["routing"])
    run_s = per_job(seconds["engine"])
    phases = [
        per_job(sum(getattr(e.timings, f"{phase}_seconds") for e in engines))
        for phase in ("map", "shuffle", "reduce")
    ]
    skews = [
        max(e.task_loads) / mean(e.task_loads)
        for e in engines
        if sum(e.task_loads)
    ]
    job_wall = mean(o.wall for o in traced)
    untraced_median = median(o.wall for o in untraced if o.ok)
    # The service loop has no app layer; the joins have no service layer.
    service_jobs = traced if workload.concurrent else []
    queue_mean = mean(o.queue for o in service_jobs)
    assemble_s = 0.0
    if not workload.concurrent:
        assemble_s = per_job(seconds["apps"]) - plan_s - table_s - run_s
    metrics = {
        "workloads.gen_s": workload.gen_s,
        "planner.plan_s": plan_s,
        "planner.plan_calls": per_job(calls["planner"]),
        "planner.solve_s": per_job(seconds["planner.solve"]),
        "planner.candidates": per_job(counts["planner.candidates"]),
        "routing.table_s": table_s,
        "routing.table_entries": per_job(counts["routing.table_entries"]),
        "backends.task_fn_bytes": per_job(counts["backends.task_fn_bytes"]),
        "backends.pool_s": per_job(seconds["backends.pool"]),
        "engine.run_s": run_s,
        "engine.map_s": phases[0],
        "engine.shuffle_s": phases[1],
        "engine.reduce_s": phases[2],
        "engine.unphased_s": run_s - sum(phases),
        "engine.map_tasks": per_job(sum(e.num_map_tasks for e in engines)),
        "engine.reduce_tasks": per_job(sum(e.num_reduce_tasks for e in engines)),
        "engine.task_skew": mean(skews),
        "engine.task_retries": per_job(sum(e.task_retries for e in engines)),
        "engine.pool_rebuilds": per_job(sum(e.pool_rebuilds for e in engines)),
        "codec.encoded_bytes": per_job(sum(e.encoded_bytes for e in engines)),
        "codec.encode_s": per_job(sum(e.encode_seconds for e in engines)),
        "codec.decode_s": per_job(sum(e.decode_seconds for e in engines)),
        "shm.segments": per_job(sum(e.shm_segments for e in engines)),
        "spill.bytes": per_job(sum(j.spilled_bytes for j in jobs_metrics)),
        "spill.runs": per_job(sum(j.spill_runs for j in jobs_metrics)),
        "spill.peak_buffered_pairs": max(
            (j.peak_buffered_pairs for j in jobs_metrics), default=0
        ),
        "apps.assemble_s": assemble_s,
        "apps.post_engine_s": mean(traced_runner.post_engine),
        "apps.output_rows": mean(o.rows for o in traced),
        "service.queue_s": median(o.queue for o in service_jobs),
        "service.exec_s": median(o.exec_wall for o in service_jobs),
        "service.cache_hit_rate": mean(o.cache_hit for o in service_jobs),
        "service.cache_evictions": evictions,
        "trace.job_s": job_wall,
        "trace.overhead": (
            median(o.wall for o in traced if o.ok) / untraced_median
            if untraced_median
            else 0.0
        ),
        "unattributed_s": job_wall
        - (plan_s + table_s + run_s + assemble_s + queue_mean),
        "ref.yardstick_s": yardstick_s,
        "ref.serial_job_s": serial_job_s,
    }
    recorder.write_chrome_trace(args.spans)
    attempted = warm + untraced + traced
    return {
        "metrics": metrics,
        "attempted": len(attempted),
        "failed": sum(1 for o in attempted if not o.ok),
        "samples": len(traced),
        "errors": _failures(attempted),
    }


MODES = {
    "reference": mode_reference,
    "setup": mode_setup,
    "measure": mode_measure,
    "trace": mode_trace,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--ref")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = MODES[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
