"""The benchmark's four workloads: seeded inputs, references, one checked job.

Each workload owns its inputs (generated from the seed through
``repro.workloads``), the reference its outputs are checked against, and
the call that counts as one job.  The program under test only ever sees
the generated inputs; the references are computed independently of it
(a plain dict join, a brute-force all-pairs Jaccard, a one-shot serial
plan-and-run per distinct service spec).

Scales: ``full`` is the measured size; ``tiny`` keeps heavy keys and
spill runs at a size the self-test can run in seconds.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import planner
from repro.apps.similarity_join import run_similarity_join
from repro.apps.skew_join import naive_join, schema_skew_join
from repro.engine.config import ExecutionConfig
from repro.planner import JobSpec
from repro.service import JobService, collect_reduce, spec_records
from repro.workloads import (
    Document,
    bimodal_sizes,
    generate_join_workload,
    sample_sizes,
)

#: Input sizes per scale.  ``full`` is the size every metric is reported
#: at; ``tiny`` is only for the self-test.
SCALES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "skew": dict(tuples=20000, keys=4000, zipf=0.8, jitter=2, q=400),
        "spill": dict(map_chunk_size=10000, memory_budget=2000),
        "similarity": dict(m=800, vocabulary=2000, q=600, threshold=0.05),
        "service": dict(
            working_set=200, min_inputs=40, max_inputs=160, q=200, warmup=200
        ),
    },
    "tiny": {
        "skew": dict(tuples=1500, keys=300, zipf=0.8, jitter=2, q=60),
        "spill": dict(map_chunk_size=1000, memory_budget=150),
        "similarity": dict(m=60, vocabulary=300, q=600, threshold=0.05),
        "service": dict(
            working_set=12, min_inputs=10, max_inputs=30, q=200, warmup=6
        ),
    },
}

#: Workers for the processes-backend joins and slots/clients for the
#: service loop.  Two keeps each workload within a 2-core machine.
WORKERS = 2
SERVICE_SLOTS = 2
SERVICE_CLIENTS = 2
#: Seconds a service client waits for one job before counting it failed.
RESULT_TIMEOUT = 60.0

_MASK = (1 << 64) - 1


def multiset_digest(rows: Any) -> list[int]:
    """Order-independent digest of numeric tuples: ``[count, hash sum]``.

    ``hash`` of a tuple of ints and floats is the same in every process
    (only str/bytes hashing is salted), so a reference computed in one
    process checks a job run in another.
    """
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return [count, total & _MASK]


def repr_digest(outputs: Any) -> str:
    """Order-sensitive digest of outputs that may hold strings."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """One attempted job: its wall time and what the check found."""

    wall: float
    ok: bool
    comm: int = 0
    reducers: int = 0
    rows: int = 0
    error: str = ""
    cpu: float = 0.0
    queue: float = 0.0
    exec_wall: float = 0.0
    cache_hit: bool = False


def make(name: str, seed: int, scale: str, tmp_dir: str) -> "Workload":
    """Build workload *name*, generating its inputs from *seed*."""
    sizes = SCALES[scale]
    if name in ("skew_join", "skew_join_spill"):
        return SkewJoin(name, seed, sizes, tmp_dir)
    if name == "similarity_join":
        return SimilarityJoin(seed, sizes)
    if name == "service_mix":
        return ServiceMix(seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


class Workload:
    """Shared shape: inputs made in ``__init__``, timed in ``gen_s``."""

    gen_s: float
    #: Whether jobs come from concurrent clients (the service loop) or
    #: run one after another.
    concurrent = False
    #: Whether task work happens in worker processes.
    uses_processes = False

    def setup(self) -> None:
        """Build long-lived objects (the service); nothing for the joins."""

    def close(self) -> None:
        """Release what :meth:`setup` built."""

    def reference(self) -> dict[str, Any]:
        raise NotImplementedError

    def yardstick(self) -> float:
        """Seconds per job of the irreducible work on the same data."""
        raise NotImplementedError

    def serial_job(self) -> float:
        """Seconds per job on the in-memory serial backend."""
        raise NotImplementedError


class SkewJoin(Workload):
    """X2Y skew join via ``schema_skew_join``.

    ``skew_join`` runs on the processes backend with a pool per job;
    ``skew_join_spill`` runs the same inputs on serial with a memory
    budget below one map task's pairs, so every map task spills.
    """

    def __init__(self, name: str, seed: int, sizes: dict, tmp_dir: str):
        p = sizes["skew"]
        self.q = p["q"]
        started = time.perf_counter()
        self.x, self.y = generate_join_workload(
            p["tuples"],
            p["tuples"],
            p["keys"],
            p["zipf"],
            size_jitter=p["jitter"],
            seed=seed,
        )
        self.gen_s = time.perf_counter() - started
        if name == "skew_join":
            self.uses_processes = True
            self.config = ExecutionConfig(backend="processes", num_workers=WORKERS)
        else:
            self.config = ExecutionConfig(
                backend="serial", spill_dir=tmp_dir, **sizes["spill"]
            )

    def reference(self) -> dict[str, Any]:
        return {"digest": multiset_digest(naive_join(self.x, self.y))}

    def call(self) -> Any:
        return schema_skew_join(self.x, self.y, self.q, config=self.config)

    def check(self, run: Any, ref: dict[str, Any]) -> Outcome:
        return Outcome(
            wall=0.0,
            ok=multiset_digest(run.triples) == ref["digest"],
            comm=run.metrics.communication_cost,
            reducers=run.metrics.num_reducers,
            rows=len(run.triples),
        )

    def yardstick(self) -> float:
        """A plain dict join (``naive_join``)."""
        return _timed(naive_join, self.x, self.y)

    def serial_job(self) -> float:
        return _timed(schema_skew_join, self.x, self.y, self.q, backend="serial")


#: Share of big documents, as in the ``bimodal`` size profile.
BIG_SHARE = 0.1


def bimodal_documents(
    m: int, q: int, vocabulary_size: int, seed: int
) -> list[Document]:
    """``generate_documents(profile="bimodal")`` with an exact big share.

    The profile draws each document's mode independently, so the number
    of big documents is Binomial(m, 0.1) and the reducer count, which
    grows with its square, moved by about a fifth from seed to seed.
    Here exactly ``BIG_SHARE * m`` documents are big; the seed draws
    which ones, every size, and every token.
    """
    rng = np.random.default_rng(seed)
    big = round(BIG_SHARE * m)
    shape = dict(small_mean=q / 16, big_mean=0.45 * q, stdev=q / 64, seed=rng)
    sizes = bimodal_sizes(big, big_fraction=1.0, **shape) + bimodal_sizes(
        m - big, big_fraction=0.0, **shape
    )
    vocabulary = [f"tok{v}" for v in range(vocabulary_size)]
    documents = []
    for doc_id, index in enumerate(rng.permutation(m)):
        token_ids = rng.integers(0, vocabulary_size, size=min(sizes[index], q))
        documents.append(
            Document(doc_id=doc_id, tokens=tuple(vocabulary[t] for t in token_ids))
        )
    return documents


def jaccard_pairs(tokens: list[frozenset], ids: list[int], threshold: float):
    """Brute-force all-pairs Jaccard: ``(id_a, id_b, similarity)`` rows."""
    for i, set_a in enumerate(tokens):
        for j in range(i + 1, len(tokens)):
            set_b = tokens[j]
            similarity = len(set_a & set_b) / len(set_a | set_b)
            if similarity >= threshold:
                yield (ids[i], ids[j], similarity)


class SimilarityJoin(Workload):
    """A2A similarity join via ``run_similarity_join`` on processes."""

    uses_processes = True

    def __init__(self, seed: int, sizes: dict):
        p = sizes["similarity"]
        self.q = p["q"]
        self.threshold = p["threshold"]
        started = time.perf_counter()
        self.documents = bimodal_documents(
            p["m"], p["q"], p["vocabulary"], seed
        )
        self.gen_s = time.perf_counter() - started

    def _brute_force(self) -> list[int]:
        tokens = [frozenset(d.tokens) for d in self.documents]
        ids = [d.doc_id for d in self.documents]
        return multiset_digest(jaccard_pairs(tokens, ids, self.threshold))

    def reference(self) -> dict[str, Any]:
        return {"digest": self._brute_force()}

    def call(self) -> Any:
        return run_similarity_join(
            self.documents,
            self.q,
            self.threshold,
            backend="processes",
            num_workers=WORKERS,
        )

    def check(self, run: Any, ref: dict[str, Any]) -> Outcome:
        return Outcome(
            wall=0.0,
            ok=multiset_digest(run.pairs) == ref["digest"],
            comm=run.metrics.communication_cost,
            reducers=run.metrics.num_reducers,
            rows=len(run.pairs),
        )

    def yardstick(self) -> float:
        """The brute-force all-pairs Jaccard the reference uses."""
        return _timed(self._brute_force)

    def serial_job(self) -> float:
        return _timed(
            run_similarity_join,
            self.documents,
            self.q,
            self.threshold,
            backend="serial",
        )


class ServiceMix(Workload):
    """Closed loop of clients submitting bare specs to one ``JobService``.

    The working set is about 1.5 times the service's default 128-entry
    plan cache, so hits, misses and evictions all take a real share.
    Specs use full cost-based planning (``method=None``).
    """

    concurrent = True

    def __init__(self, seed: int, sizes: dict):
        p = sizes["service"]
        self.warmup = p["warmup"]
        started = time.perf_counter()
        rng = np.random.default_rng(seed)
        profiles = ("zipf", "bimodal", "uniform")
        count = p["working_set"]
        span = p["max_inputs"] - p["min_inputs"]
        self.specs: list[JobSpec] = []
        # The mix is fixed: input counts step evenly across the range and
        # every (kind, profile) class gets every sixth step, so the seed
        # draws the sizes and the job stream but not the working set's
        # shape, which would otherwise move the figures from seed to seed.
        for index in range(count):
            profile = profiles[(index // 2) % len(profiles)]
            inputs = p["min_inputs"] + index * span // max(1, count - 1)
            if index % 2 == 0:
                spec = JobSpec.a2a(
                    sample_sizes(profile, inputs, p["q"], seed=rng),
                    p["q"],
                    method=None,
                )
            else:
                half = inputs // 2
                spec = JobSpec.x2y(
                    sample_sizes(profile, half, p["q"], seed=rng),
                    sample_sizes(profile, inputs - half, p["q"], seed=rng),
                    p["q"],
                    method=None,
                )
            self.specs.append(spec)
        # Uniform draws over the working set; far more than one run uses.
        self.sequence = [
            int(i) for i in rng.integers(0, len(self.specs), size=100_000)
        ]
        self.gen_s = time.perf_counter() - started
        self.service: JobService | None = None
        self._next = 0
        self._lock = threading.Lock()

    def setup(self) -> None:
        self.service = JobService(slots=SERVICE_SLOTS)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def _one_shot(self, spec: JobSpec) -> Any:
        planned = planner.plan(spec)
        return planner.run(
            planned,
            spec_records(spec),
            collect_reduce,
            config=ExecutionConfig(backend="serial"),
        )

    def reference(self) -> dict[str, Any]:
        jobs = []
        for spec in self.specs:
            result = self._one_shot(spec)
            jobs.append(
                {
                    "digest": repr_digest(result.outputs),
                    "comm": result.metrics.communication_cost,
                    "reducers": result.metrics.num_reducers,
                }
            )
        return {"jobs": jobs}

    def take(self) -> int | None:
        """The next spec index of the job stream (shared by all clients)."""
        with self._lock:
            if self._next >= len(self.sequence):
                return None
            index = self.sequence[self._next]
            self._next += 1
            return index

    def submit(self, index: int, ref: dict[str, Any]) -> Outcome:
        """Submit one job, wait for it, and check it against its reference."""
        started = time.perf_counter()
        handle = self.service.submit_spec(self.specs[index])
        result = handle.result(timeout=RESULT_TIMEOUT)
        wall = time.perf_counter() - started
        expected = ref["jobs"][index]
        status = handle.status()
        return Outcome(
            wall=wall,
            ok=(
                repr_digest(result.outputs) == expected["digest"]
                and result.metrics.communication_cost == expected["comm"]
                and result.metrics.num_reducers == expected["reducers"]
            ),
            comm=result.metrics.communication_cost,
            reducers=result.metrics.num_reducers,
            rows=len(result.outputs),
            queue=status.queue_seconds or 0.0,
            exec_wall=status.wall_seconds or 0.0,
            cache_hit=bool(result.cache_hit),
        )

    def yardstick(self) -> float:
        """Engine work alone: run every working-set spec from a ready plan."""
        plans = [planner.plan(spec) for spec in self.specs]
        started = time.perf_counter()
        for spec, planned in zip(self.specs, plans):
            planner.run(
                planned,
                spec_records(spec),
                collect_reduce,
                config=ExecutionConfig(backend="serial"),
            )
        return (time.perf_counter() - started) / len(self.specs)

    def serial_job(self) -> float:
        """One-shot serial plan-and-run, mean over the working set."""
        started = time.perf_counter()
        for spec in self.specs:
            self._one_shot(spec)
        return (time.perf_counter() - started) / len(self.specs)


def _timed(fn: Any, *args: Any, **kwargs: Any) -> float:
    started = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - started
