"""Common-friends computation on the MapReduce execution engine.

The paper's social-network A2A example: for every pair of users, compute
the friends they share.  Friend lists are the different-sized inputs; the
mapping schema decides which reducers each user's list travels to, and
each reducer emits results only for the pairs it canonically owns.

Like the other applications, this is a thin spec builder over the
planner: :func:`common_friends_spec` states the problem, the planner
picks the schema, and the job runs on the engine through
:func:`repro.planner.run` (serial backend unless told otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro import planner
from repro.core.schema import A2ASchema
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import a2a_meeting_table
from repro.mapreduce.metrics import JobMetrics
from repro.planner import JobSpec, Plan
from repro.workloads.social import User, common_friends


@dataclass(frozen=True)
class CommonFriendsRun:
    """Result of a distributed common-friends computation.

    Attributes:
        pairs: ``(user_a, user_b, shared)`` for every user pair, exactly
            once, including pairs with no shared friends (the consumer
            decides what to drop — mirroring the problem statement where
            *every* pair corresponds to one output).
        schema: the mapping schema used.
        metrics: the paper's analytical job metrics.
        engine: physical execution metrics of the run (backend, phase
            timings, task counts).
        plan: the planner's full decision record for this run.
    """

    pairs: tuple[tuple[int, int, frozenset[int]], ...]
    schema: A2ASchema
    metrics: JobMetrics
    engine: EngineMetrics | None = None
    plan: Plan | None = None

    def as_dict(self) -> dict[tuple[int, int], frozenset[int]]:
        """The output keyed by user-id pair, for ground-truth comparison."""
        return {(a, b): shared for a, b, shared in self.pairs}


def common_friends_spec(
    users: list[User],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """The common-friends problem as a declarative A2A spec."""
    return JobSpec.a2a(
        users,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def _common_friends_reduce(
    key,
    values: list[tuple[int, User]],
    *,
    owners: dict[tuple[int, int], int],
) -> Iterator[tuple[int, int, frozenset[int]]]:
    """The job's reducer: emit canonically-owned pairs' shared friends.

    Values arrive as ``(input_index, user)``; module-level (data bound via
    :func:`functools.partial`) so the ``processes`` backend can pickle it.
    """
    by_position = sorted(values, key=lambda item: item[0])
    for a_pos, (i, user_a) in enumerate(by_position):
        for j, user_b in by_position[a_pos + 1 :]:
            if owners[(i, j)] != key:
                continue
            yield (user_a.user_id, user_b.user_id, common_friends(user_a, user_b))


def run_common_friends(
    users: list[User],
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
) -> CommonFriendsRun:
    """Run the schema-driven common-friends job end to end.

    Users are indexed by list position; capacity is enforced strictly
    (a correct schema cannot overflow).  The job runs on the engine:
    with neither ``backend=`` nor ``config=`` on the serial backend
    (``ExecutionConfig()``); naming a backend or passing an
    :class:`~repro.engine.config.ExecutionConfig` picks another, with
    identical outputs.  ``method="planned"`` enables full cost-based
    planning under *objective* and defaults to the plan's resolved
    execution configuration.
    """
    spec = common_friends_spec(users, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    owners = a2a_meeting_table(schema)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None:
        execution = planned.execution if method == "planned" else ExecutionConfig()
    result = planner.run(
        planned,
        users,
        partial(_common_friends_reduce, owners=owners),
        config=execution,
    )
    return CommonFriendsRun(
        pairs=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        engine=result.engine,
        plan=planned,
    )
