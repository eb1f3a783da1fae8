"""Traced-run instrumentation: wrap each layer's public calls at their call sites.

The program is not changed.  :meth:`Recorder.install` replaces, for the
length of the traced run, the names through which one layer calls the
next (``repro.apps.skew_join.x2y_meeting_table``, ``repro.planner.plan``,
``ExecutionEngine.run``, the ``Backend`` pool lifecycle, ...) with timing
wrappers, and :meth:`Recorder.restore` puts the originals back.

Each wrapped call becomes a span (name, layer, start, end, parent span,
thread, job) kept in memory and written out once, at the end.  A layer's
time counts only its outermost call on a thread, so a solver called from
``build_schema`` called from ``plan`` is one planner interval, not three.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from typing import Any, Callable

import repro.apps.similarity_join as similarity_app
import repro.apps.skew_join as skew_app
import repro.engine.backends as backends
import repro.engine.engine as engine_module
import repro.engine.routing as routing
import repro.planner as planner_pkg
import repro.planner.fastpath as fastpath
import repro.planner.planner as planner_module
import repro.service.service as service_module
from repro.core.selector import A2A_METHODS, X2Y_METHODS

#: Solver entry points the fast path calls by module-level name.
_FAST_PATH_SOLVERS = (
    "big_small",
    "equal_sized_grouping",
    "ffd_pairing",
    "grouped_covering",
    "best_split_grid",
    "big_small_x2y",
    "equal_sized_grid",
    "multiway_bin_combining",
)


def _membership_entries(result: Any) -> int:
    if isinstance(result, tuple):  # x2y: (x_memberships, y_memberships)
        return sum(len(m) for side in result for m in side)
    return sum(len(m) for m in result)


class _PickleCounter:
    """Stands in for the ``pickle`` module inside ``repro.engine.backends``.

    Counts the bytes of every task-function blob the backend pickles for
    shipping; everything else is the real module.
    """

    def __init__(self, real: Any, recorder: "Recorder"):
        self._real = real
        self._recorder = recorder

    def dumps(self, obj: Any, *args: Any, **kwargs: Any) -> bytes:
        blob = self._real.dumps(obj, *args, **kwargs)
        self._recorder.add("backends.task_fn_bytes", len(blob))
        return blob

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class Recorder:
    """Spans and per-layer totals of one traced run."""

    def __init__(self, apps: Any) -> None:
        #: The module whose app entry points the benchmark calls; wrapping
        #: them there times the app wall around every other layer.
        self._apps = apps
        self.spans: list[dict[str, Any]] = []
        #: Seconds in each layer's outermost calls, and their count.
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Named counters (entries, bytes, engine facts).
        self.counts: dict[str, float] = defaultdict(float)
        #: One record per ``ExecutionEngine.run`` that returned.
        self.engine_runs: list[Any] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._originals: list[tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def set_job(self, job: str | None) -> None:
        """Tag spans opened on this thread with a job id."""
        self._local.job = job

    def last_engine_end(self) -> float | None:
        """When this thread's last ``ExecutionEngine.run`` returned."""
        return getattr(self._local, "engine_end", None)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        recorder = self
        name = getattr(fn, "__qualname__", repr(fn))

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local = recorder._local
            depths = local.__dict__.setdefault("depths", defaultdict(int))
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            outermost = depths[layer] == 0
            depths[layer] += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                depths[layer] -= 1
                recorder.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "layer": layer,
                        "start": start - recorder._epoch,
                        "end": end - recorder._epoch,
                        "thread": threading.current_thread().name,
                        "job": getattr(local, "job", None),
                    }
                )
                if outermost:
                    with recorder._lock:
                        recorder.seconds[layer] += end - start
                        recorder.calls[layer] += 1
            if layer == "engine":
                local.engine_end = end
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = self.wrap(layer, original, on_result)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._originals.append((owner, attr, original))

    def _count_entries(self, result: Any) -> None:
        self.add("routing.table_entries", _membership_entries(result))

    def _count_table(self, result: Any) -> None:
        self.add("routing.table_entries", len(result))

    def _count_solve(self, result: Any) -> None:
        self.add("planner.candidates", 1)

    def _engine_result(self, result: Any) -> None:
        with self._lock:
            self.engine_runs.append((result.engine, result.metrics))

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark measures."""
        self._patch(self._apps, "schema_skew_join", "apps")
        self._patch(self._apps, "run_similarity_join", "apps")
        # planner: the entry points apps and the service call, plus the
        # single schema rebuild point.
        self._patch(planner_pkg, "plan", "planner")
        self._patch(service_module, "plan_cached", "planner")
        self._patch(planner_module, "build_schema", "planner")
        # planner.solve: every solver the planner can run.
        for name in _FAST_PATH_SOLVERS:
            self._patch(fastpath, name, "planner.solve", self._count_solve)
        for registry in (
            A2A_METHODS,
            X2Y_METHODS,
            planner_module.MULTIWAY_METHODS,
        ):
            for name in list(registry):
                self._patch(registry, name, "planner.solve", self._count_solve)
        # routing: meeting tables and memberships the apps build, and the
        # schema router the engine entry point calls.
        self._patch(skew_app, "x2y_memberships", "routing", self._count_entries)
        self._patch(skew_app, "x2y_meeting_table", "routing", self._count_table)
        self._patch(
            similarity_app, "a2a_meeting_table", "routing", self._count_table
        )
        self._patch(engine_module, "build_schema_plan", "routing")
        self._patch(routing, "a2a_memberships", "routing", self._count_entries)
        self._patch(routing, "x2y_memberships", "routing", self._count_entries)
        # engine: one run end to end (phases come from EngineMetrics).
        self._patch(
            engine_module.ExecutionEngine, "run", "engine", self._engine_result
        )
        # backends: pool construction and teardown, and shipped blobs.
        self._patch(backends.Backend, "__enter__", "backends.pool")
        self._patch(backends.Backend, "close", "backends.pool")
        self._patch(backends.ProcessBackend, "close", "backends.pool")
        real_pickle = backends.pickle
        backends.pickle = _PickleCounter(real_pickle, self)
        self._originals.append((backends, "pickle", real_pickle))

    def restore(self) -> None:
        """Put every wrapped name back (reverse order of installation)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- output ------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        events = [
            {
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": span["thread"],
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "job": span["job"],
                },
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
