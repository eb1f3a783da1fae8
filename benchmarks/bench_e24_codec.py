"""E24 (new): block-codec data plane — round-trips, block size, transport.

The batched data plane replaced per-object pickling with framed blocks
(:mod:`repro.engine.codec`) shipped, on the ``processes`` backend, either
inline through the result pipe or zero-copy via shared-memory segments
(:mod:`repro.engine.shm`).  E24 measures the three knobs of that design:

* per-key-kind block encode/decode time against a plain whole-dict
  pickle round-trip of the same bucket (the old wire format), with every
  row round-trip-verified before it reports a number;
* a block-size sweep over the spill path's granularity — small blocks
  pay per-block framing, huge blocks defeat streaming decode;
* the shuffle-heavy scenario on ``processes`` with the shared-memory
  transport forced on vs off, outputs asserted identical (the transport
  rows double as a correctness proof of both paths).

Expected shape: every key kind round-trips; transport rows encode
identical byte counts with ``shm_segments`` nonzero only on the shm
variant.  Wall-clock deltas
between shm and pipe are hardware-dependent (pipe wins on tiny payloads,
shm on wide reduce fan-in) — the gate checks identity and engagement,
not a speed ratio.
"""

from __future__ import annotations

import pytest

from benchmarks.harness import emit, run_once
from repro.engine.backends import available_workers
from repro.engine.quickbench import check_codec, run_codec_bench
from repro.utils.tables import format_table

ITEMS = 20000
REPEAT = 3
BLOCK_ITEMS = (128, 512, 2048)


def compute_rows() -> list[dict[str, object]]:
    return run_codec_bench(
        items=ITEMS, repeat=REPEAT, block_items=BLOCK_ITEMS
    )


@pytest.mark.benchmark(group="E24")
def test_e24_codec(benchmark):
    rows = run_once(benchmark, compute_rows)
    emit(
        "E24",
        format_table(
            rows,
            title=(
                f"E24: block codec round-trips and transport "
                f"({ITEMS} items, best of {REPEAT}, "
                f"{available_workers()} workers)"
            ),
        ),
        rows=rows,
    )

    assert check_codec(rows) == []
    codec_rows = [r for r in rows if r["scenario"] == "codec"]
    sweep_rows = [r for r in rows if r["scenario"] == "block_sweep"]
    transport_rows = [r for r in rows if r["kind"] == "transport"]
    assert len(codec_rows) == 4
    assert len(sweep_rows) == len(BLOCK_ITEMS)
    assert len(transport_rows) >= 1  # pipe always; shm when available
    for row in transport_rows:
        assert int(row["encoded_bytes"]) > 0
        if row["backend"] == "processes[pipe]":
            assert int(row["shm_segments"]) == 0
        else:
            assert int(row["shm_segments"]) > 0
