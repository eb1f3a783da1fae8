"""Property-style tests for the block codec layer.

The codec is the foundation of the batched data plane: every shuffle
block and spill run round-trips through it, so the contract is strict —
exact-type key preservation (``True`` must never come back as ``1``),
insertion-order preservation, and ``CodecError`` (never ``struct.error``
/ ``EOFError`` / ``UnpicklingError``) on every malformed input.
"""

from __future__ import annotations

import pickle

import pytest

from repro.engine.codec import (
    _HEADER,
    _MAGIC,
    decode_block,
    decode_block_groups,
    encode_groups,
    encode_items,
)
from repro.exceptions import CodecError, ReproError

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


class MyInt(int):
    pass


def roundtrip(items):
    return decode_block(encode_items(items))


def frame(key_blob: bytes, value_blob: bytes, count: int) -> bytes:
    """Hand-build a block around arbitrary key and value sections."""
    header = _HEADER.pack(_MAGIC, count, len(key_blob), len(value_blob))
    return header + key_blob + value_blob


class TestRoundTrip:
    @pytest.mark.parametrize(
        "keys",
        [
            [0, 1, -17, 10**12, INT64_MAX, INT64_MIN],
            ["", "word", "unicode-é中", "emoji-🎉", "a" * 5000],
            [b"", b"raw", b"\xff\xfe\x00\x80", bytes(range(256))],
            [("light", 7), ("hh", 3, 12), (), None, 3.25, frozenset({1})],
            pytest.param([True, False, 1, 0], id="bool-vs-int"),
            pytest.param([MyInt(3), 3], id="int-subclass"),
            pytest.param(
                [INT64_MAX + 1, INT64_MIN - 1, 10**40], id="beyond-int64"
            ),
            pytest.param(
                ["\ud800", "ok\udfff-tail", "😀"], id="lone-surrogates"
            ),
            pytest.param([b"\x80", b"\xc3\x28", b"\xff"], id="non-utf8-bytes"),
        ],
    )
    def test_keys_round_trip_with_exact_types(self, keys):
        items = [(key, [index, "v"]) for index, key in enumerate(keys)]
        decoded = roundtrip(items)
        assert decoded == items
        # Equality alone would accept True == 1; the types must match too.
        assert [type(key) for key, _ in decoded] == [type(key) for key in keys]

    def test_empty_block(self):
        assert decode_block(encode_items([])) == []
        assert decode_block_groups(encode_groups({})) == {}

    def test_insertion_order_preserved(self):
        groups = {f"k{i}": [i] for i in (7, 2, 9, 0, 5)}
        decoded = decode_block_groups(encode_groups(groups))
        assert list(decoded) == list(groups)
        assert decoded == groups

    def test_values_can_be_arbitrary_objects(self):
        items = [
            (1, [("tuple", 2), {"nested": [1, 2]}, None]),
            (2, [b"\x00\xff", frozenset({3})]),
        ]
        assert roundtrip(items) == items

    def test_decode_accepts_memoryview(self):
        items = [(5, [1]), (6, [2])]
        block = encode_items(items)
        view = memoryview(block)
        assert decode_block(view) == items
        # decode released its internal views; the caller's is untouched.
        assert view.obj is block

    def test_unpicklable_values_raise_codec_error(self):
        with pytest.raises(CodecError, match="not picklable"):
            encode_items([(1, [lambda: None])])


class TestMalformedInput:
    """Every corruption mode must surface as CodecError — a repro type —
    never as a bare struct/pickle exception."""

    def test_codec_error_is_a_repro_error(self):
        assert issubclass(CodecError, ReproError)

    @pytest.mark.parametrize(
        "buf",
        [
            b"",
            b"\xb5",
            b"\xb5\x01\x00\x00\x00\x00",
            bytes(_HEADER.size - 1),
        ],
    )
    def test_truncated_header(self, buf):
        with pytest.raises(CodecError, match="truncated block"):
            decode_block(buf)

    def test_bad_magic(self):
        block = bytearray(encode_items([(1, [2])]))
        block[0] = 0x00
        with pytest.raises(CodecError, match="bad block magic"):
            decode_block(bytes(block))

    def test_truncated_body(self):
        block = encode_items([(1, [2]), (2, [3])])
        with pytest.raises(CodecError, match="does not match header"):
            decode_block(block[:-3])

    def test_trailing_garbage(self):
        block = encode_items([(1, [2])])
        with pytest.raises(CodecError, match="does not match header"):
            decode_block(block + b"extra")

    @pytest.mark.parametrize("section", ["key", "value"])
    def test_corrupt_section(self, section):
        good, bad = pickle.dumps([1]), b"\x80\x05 not a pickle stream"
        sections = (bad, good) if section == "key" else (good, bad)
        with pytest.raises(CodecError, match=f"corrupt block {section}"):
            decode_block(frame(*sections, 1))

    @pytest.mark.parametrize(
        "keys, value_lists, section",
        [
            pytest.param([1, 2, 3], [[1], [2]], "key", id="more-keys"),
            pytest.param([1], [[1], [2]], "key", id="fewer-keys"),
            pytest.param([1, 2], [[1], [2], [3]], "value", id="more-values"),
            pytest.param([1, 2], [[1]], "value", id="fewer-values"),
        ],
    )
    def test_section_wrong_count(self, keys, value_lists, section):
        block = frame(pickle.dumps(keys), pickle.dumps(value_lists), 2)
        with pytest.raises(CodecError, match=f"{section} section does not"):
            decode_block(block)

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param((1,), id="tuple"),
            pytest.param({1: [1]}, id="dict"),
            pytest.param("x", id="str"),
            pytest.param(None, id="none"),
        ],
    )
    @pytest.mark.parametrize("section", ["key", "value"])
    def test_section_wrong_shape(self, payload, section):
        good, bad = pickle.dumps([1]), pickle.dumps(payload)
        sections = (bad, good) if section == "key" else (good, bad)
        with pytest.raises(CodecError, match=f"{section} section does not"):
            decode_block(frame(*sections, 1))

    def test_random_garbage_never_leaks_builtin_errors(self):
        payloads = [
            bytes([_MAGIC]) + bytes(16),
            frame(b"\xff" * 20, b"\xff" * 20, 1),
            encode_items([(1, [1])])[::-1],
            b"\x00" * 64,
        ]
        for payload in payloads:
            with pytest.raises(CodecError):
                decode_block(payload)


class TestLintScope:
    """The codec and shm modules sit inside the engine package, so the
    determinism and pickle-safety rules must cover them automatically."""

    def test_data_plane_modules_are_in_rule_scopes(self):
        from pathlib import Path

        from repro.analysis.lint import load_module
        from repro.analysis.lint.rules import (
            DeterminismRule,
            PickleSafetyRule,
        )

        src = Path(__file__).parent.parent / "src"
        for name in ("codec", "shm"):
            info = load_module(src / "repro" / "engine" / f"{name}.py", root=src)
            assert info.module == f"repro.engine.{name}"
            assert info.in_package(DeterminismRule.scopes)
            assert info.in_package(PickleSafetyRule.scopes)
