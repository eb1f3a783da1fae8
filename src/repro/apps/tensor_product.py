"""Distributed outer (tensor) product on the MapReduce execution engine.

The paper's third X2Y example: for block-partitioned vectors ``u`` and
``v``, every (u-block, v-block) pair must meet to produce its tile of the
outer-product matrix ``u v^T``.  Blocks of different sizes are exactly the
different-sized inputs the schema machinery handles.

A thin spec builder over the planner: :func:`outer_product_spec` states
the problem, the planner picks the schema, and the job runs on the engine
through :func:`repro.planner.run` (serial backend unless told otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro import planner
from repro.core.schema import X2YSchema
from repro.engine.config import ExecutionConfig, resolve_execution
from repro.engine.metrics import EngineMetrics
from repro.engine.routing import x2y_meeting_table
from repro.mapreduce.metrics import JobMetrics
from repro.planner import JobSpec, Plan
from repro.workloads.vectors import BlockVector, VectorBlock


@dataclass(frozen=True)
class OuterProductRun:
    """Result of a distributed outer product.

    Attributes:
        entries: ``(row, col, value)`` triples covering the whole matrix,
            each exactly once.
        schema: the X2Y mapping schema used.
        metrics: the paper's analytical job metrics.
        shape: ``(len(u), len(v))`` of the full matrix.
        engine: physical execution metrics of the run (backend, phase
            timings, task counts).
        plan: the planner's full decision record for this run.
    """

    entries: tuple[tuple[int, int, float], ...]
    schema: X2YSchema
    metrics: JobMetrics
    shape: tuple[int, int]
    engine: EngineMetrics | None = None
    plan: Plan | None = None

    def dense(self) -> list[list[float]]:
        """Assemble the dense matrix from the emitted entries."""
        rows, cols = self.shape
        matrix = [[0.0] * cols for _ in range(rows)]
        for r, c, v in self.entries:
            matrix[r][c] = v
        return matrix


def outer_product_spec(
    u: BlockVector,
    v: BlockVector,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
) -> JobSpec:
    """The outer product as a declarative X2Y spec (block sizes per side)."""
    return JobSpec.x2y(
        u.blocks,
        v.blocks,
        q,
        method=None if method == "planned" else method,
        objective=objective,
    )


def _outer_product_reduce(
    key,
    values: list[tuple[str, int, VectorBlock]],
    *,
    owners: dict[tuple[int, int], int],
) -> Iterator[tuple[int, int, float]]:
    """The job's reducer: emit tiles of canonically-owned block pairs.

    Values arrive as ``(side, input_index, block)`` with side ``"x"`` for
    u-blocks and ``"y"`` for v-blocks; module-level so the ``processes``
    backend can pickle it.
    """
    u_blocks = [block for side, _, block in values if side == "x"]
    v_blocks = [block for side, _, block in values if side == "y"]
    for ub in u_blocks:
        for vb in v_blocks:
            if owners[(ub.block_id, vb.block_id)] != key:
                continue
            for a, u_val in enumerate(ub.values):
                for b, v_val in enumerate(vb.values):
                    yield (ub.offset + a, vb.offset + b, u_val * v_val)


def distributed_outer_product(
    u: BlockVector,
    v: BlockVector,
    q: int,
    *,
    method: str = "auto",
    objective: str = "min-reducers",
    backend: str | None = None,
    num_workers: int | None = None,
    config: ExecutionConfig | None = None,
) -> OuterProductRun:
    """Compute ``u v^T`` with an X2Y mapping schema.

    Block sizes define the instance; each reducer computes the tiles of the
    (u-block, v-block) pairs it canonically owns.  Capacity is strict — a
    correct schema cannot overflow.  The job runs on the engine: with
    neither ``backend=`` nor ``config=`` on the serial backend
    (``ExecutionConfig()``); naming a backend or passing an
    :class:`~repro.engine.config.ExecutionConfig` picks another, with
    identical entries.  ``method="planned"`` enables full cost-based
    planning under *objective* and defaults to the plan's resolved
    execution configuration.
    """
    spec = outer_product_spec(u, v, q, method=method, objective=objective)
    planned = planner.plan(spec)
    schema = planned.schema()
    owners = x2y_meeting_table(schema)

    execution = resolve_execution(config, backend, num_workers)
    if execution is None:
        execution = planned.execution if method == "planned" else ExecutionConfig()
    result = planner.run(
        planned,
        (u.blocks, v.blocks),
        partial(_outer_product_reduce, owners=owners),
        config=execution,
    )
    return OuterProductRun(
        entries=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        shape=(u.dimension, v.dimension),
        engine=result.engine,
        plan=planned,
    )
