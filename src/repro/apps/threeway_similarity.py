"""Three-way similarity on the MapReduce execution engine (multiway extension).

Exercises the r > 2 generalization end to end: for every *triple* of
documents, compute the Jaccard similarity of the triple's token sets
(|A ∩ B ∩ C| / |A ∪ B ∪ C|) and report the triples above a threshold.
The mapping schema must bring every triple together at some reducer —
the :mod:`repro.core.multiway` bin-combining scheme provides exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro import planner
from repro.core.multiway import MultiwaySchema
from repro.engine.engine import ExecutionEngine
from repro.mapreduce.metrics import JobMetrics
from repro.planner import JobSpec, Plan
from repro.workloads.documents import Document


def triple_jaccard(a: Document, b: Document, c: Document) -> float:
    """Jaccard similarity of three token sets: |∩| / |∪|."""
    sets = [set(a.tokens), set(b.tokens), set(c.tokens)]
    union = sets[0] | sets[1] | sets[2]
    if not union:
        return 1.0
    return len(sets[0] & sets[1] & sets[2]) / len(union)


def all_triples_above(documents: list[Document], threshold: float) -> set[tuple[int, int, int]]:
    """Ground truth: brute-force over all C(m, 3) triples."""
    results = set()
    for i, j, k in combinations(range(len(documents)), 3):
        if triple_jaccard(documents[i], documents[j], documents[k]) >= threshold:
            results.add(
                (documents[i].doc_id, documents[j].doc_id, documents[k].doc_id)
            )
    return results


@dataclass(frozen=True)
class ThreeWayRun:
    """Result of a distributed three-way similarity computation."""

    triples: tuple[tuple[int, int, int, float], ...]
    schema: MultiwaySchema
    metrics: JobMetrics
    plan: Plan | None = None

    def triple_set(self) -> set[tuple[int, int, int]]:
        """Just the id triples, for ground-truth comparison."""
        return {(a, b, c) for a, b, c, _ in self.triples}


def threeway_spec(
    documents: list[Document],
    q: int,
    *,
    objective: str = "min-reducers",
) -> JobSpec:
    """Three-way similarity as a declarative multiway (r=3) spec."""
    return JobSpec.multiway(documents, q, 3, objective=objective)


def run_threeway_similarity(
    documents: list[Document],
    q: int,
    threshold: float,
) -> ThreeWayRun:
    """Run the schema-driven three-way similarity job end to end.

    Each reducer evaluates only the triples whose *canonical* reducer it is
    (the smallest reducer index containing all three documents), so every
    triple is emitted exactly once despite replication.  The engine's
    schema router executes only pairwise schemas, so the job is built
    from ``plan.schema()`` here and runs on the serial
    :class:`~repro.engine.engine.ExecutionEngine`.
    """
    planned = planner.plan(threeway_spec(documents, q))
    schema = planned.schema()
    memberships: list[list[int]] = [[] for _ in documents]
    for r, members in enumerate(schema.reducers):
        for i in members:
            memberships[i].append(r)
    position = {id(doc): i for i, doc in enumerate(documents)}

    def canonical(i: int, j: int, k: int) -> int:
        common = set(memberships[i]) & set(memberships[j]) & set(memberships[k])
        if not common:
            raise ValueError("triple shares no reducer; schema invalid")
        return min(common)

    def map_fn(doc: Document):
        for r in memberships[position[id(doc)]]:
            yield r, doc

    def reduce_fn(key, docs: list[Document]):
        ordered = sorted(docs, key=lambda d: position[id(d)])
        for a_pos in range(len(ordered)):
            i = position[id(ordered[a_pos])]
            for b_pos in range(a_pos + 1, len(ordered)):
                j = position[id(ordered[b_pos])]
                for c_pos in range(b_pos + 1, len(ordered)):
                    k = position[id(ordered[c_pos])]
                    if canonical(i, j, k) != key:
                        continue
                    similarity = triple_jaccard(
                        ordered[a_pos], ordered[b_pos], ordered[c_pos]
                    )
                    if similarity >= threshold:
                        yield (
                            ordered[a_pos].doc_id,
                            ordered[b_pos].doc_id,
                            ordered[c_pos].doc_id,
                            similarity,
                        )

    engine = ExecutionEngine(
        map_fn=map_fn,
        reduce_fn=reduce_fn,
        reducer_capacity=q,
        strict_capacity=True,
    )
    result = engine.run(documents)
    return ThreeWayRun(
        triples=tuple(result.outputs),
        schema=schema,
        metrics=result.metrics,
        plan=planned,
    )
