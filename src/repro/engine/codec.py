"""Framed block format for the batched data plane.

The engine's shuffle and spill paths move grouped ``(key, values)`` items
as **blocks**: a whole bucket (or spill-run slice) encoded as one
contiguous buffer, so pickling is paid once per block instead of once per
pair.

Wire format (all integers little-endian)::

    offset  size  field
    0       1     magic (0xB5)
    1       4     item count  (uint32)
    5       4     key-section length in bytes  (uint32)
    9       4     value-section length in bytes  (uint32)
    13      ...   key section:   pickle.dumps(keys, protocol=5)
    ...     ...   value section: pickle.dumps(value_lists, protocol=5)

Pickle preserves exact key types (``True`` never comes back as ``1``) and
item order, which the shuffle relies on for byte-identical reduces.  Keys
and values are pickled separately because one pickle of both pushes the
objects repeated inside the values (e.g. a join's side tags) past the
first 256 memo slots: every later reference then costs a 5-byte
``LONG_BINGET`` instead of a 2-byte ``BINGET``, which made tuple-keyed
skew-join blocks 14–21% larger.

Decoding accepts ``bytes`` or any ``memoryview``-compatible buffer; the
shared-memory transport hands in a view of the segment and decodes it in
place (the decoded objects are fresh copies, so the segment can be
unmapped immediately after).  Every decode failure — truncation, bad
magic, lengths that disagree with the header, a corrupt section, or one
that does not hold ``count`` entries — raises
:class:`~repro.exceptions.CodecError`, never a bare ``struct.error`` or
``EOFError``.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Hashable

from repro.exceptions import CodecError

#: First byte of every block; a cheap guard against decoding garbage.
_MAGIC = 0xB5

#: magic, item count, key-section length, value-section length.
_HEADER = struct.Struct("<BIII")


def encode_items(items: list[tuple[Hashable, list[Any]]]) -> bytes:
    """Encode grouped ``(key, values)`` items as one framed block.

    Item order is preserved exactly; the shuffle relies on that to keep
    insertion-order reduces byte-identical.
    """
    try:
        key_blob = pickle.dumps([key for key, _ in items], protocol=5)
        value_blob = pickle.dumps(
            [values for _, values in items], protocol=5
        )
    except Exception as exc:
        raise CodecError(f"block items are not picklable: {exc}") from exc
    header = _HEADER.pack(_MAGIC, len(items), len(key_blob), len(value_blob))
    return header + key_blob + value_blob


def encode_groups(groups: dict[Hashable, list[Any]]) -> bytes:
    """Encode one bucket dict as a block, preserving insertion order."""
    return encode_items(list(groups.items()))


def _load_section(view: memoryview, name: str, count: int) -> list[Any]:
    """Unpickle one section, which must hold a list of *count* entries."""
    try:
        entries = pickle.loads(view)
    except Exception as exc:
        raise CodecError(f"corrupt block {name} section: {exc}") from exc
    if not isinstance(entries, list) or len(entries) != count:
        raise CodecError(
            f"block {name} section does not hold the declared {count} "
            "entries"
        )
    return entries


def decode_block(buf: Any) -> list[tuple[Hashable, list[Any]]]:
    """Decode one block back into its ``(key, values)`` items, in order.

    *buf* may be ``bytes`` or any buffer (the shm transport passes a
    ``memoryview`` into the segment); decoding reads it in place and
    returns fresh objects, holding no reference to *buf* afterwards.
    Every malformed input raises :class:`~repro.exceptions.CodecError`.
    """
    view = memoryview(buf)
    try:
        if len(view) < _HEADER.size:
            raise CodecError(
                f"truncated block: {len(view)} bytes < "
                f"{_HEADER.size}-byte header"
            )
        magic, count, key_len, value_len = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise CodecError(f"bad block magic {magic:#x}")
        if len(view) != _HEADER.size + key_len + value_len:
            raise CodecError(
                f"block length {len(view)} does not match header "
                f"({_HEADER.size} + {key_len} + {value_len})"
            )
        key_end = _HEADER.size + key_len
        keys = _load_section(view[_HEADER.size : key_end], "key", count)
        value_lists = _load_section(view[key_end:], "value", count)
        return list(zip(keys, value_lists))
    finally:
        view.release()


def decode_block_groups(buf: Any) -> dict[Hashable, list[Any]]:
    """Decode one block into a bucket dict, preserving item order.

    Keys within one encoded bucket are unique by construction (they came
    out of a dict), so rebuilding a dict cannot merge entries.
    """
    return dict(decode_block(buf))
