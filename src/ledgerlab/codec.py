"""Canonical binary encoding used for hashing, signing and size accounting.

Every structure in the ledger is measured and identified through this one
encoding, so the rules are deliberately rigid:

* unsigned integers: fixed 8-byte big-endian
* floats (timestamps, expected-hash-count difficulty): IEEE-754 binary64, big-endian
* digests: raw 32 bytes
* UTF-8 text: 4-byte big-endian byte count, then the bytes
* lists: 4-byte big-endian element count, then each element
* enums: 1-byte discriminant, then the variant payload

decode(encode(v)) == v for every supported value; anything else raises CodecError.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, TypeVar

from .errors import LedgerError

T = TypeVar("T")

U64_MAX = (1 << 64) - 1

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


class CodecError(LedgerError):
    """Value outside the encodable domain, or malformed bytes on decode."""


# The encoders run once per field of every message, so each accepts only
# the exact type it expects: a bool, an int subclass or a bytearray is
# refused rather than converted.

def enc_u8(value: int) -> bytes:
    if type(value) is not int or not 0 <= value <= 0xFF:
        raise CodecError(f"u8 out of range: {value!r}")
    return value.to_bytes(1, "big")


def enc_u64(value: int) -> bytes:
    if type(value) is not int or not 0 <= value <= U64_MAX:
        raise CodecError(f"u64 out of range: {value!r}")
    return _U64.pack(value)


def enc_f64(value: float) -> bytes:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CodecError(f"not a float: {value!r}")
    return struct.pack(">d", float(value))


def enc_digest(value: bytes) -> bytes:
    if type(value) is not bytes or len(value) != 32:
        raise CodecError(f"digest must be exactly 32 bytes, got {value!r}")
    return value


def enc_str(value: str) -> bytes:
    if not isinstance(value, str):
        raise CodecError(f"not a string: {value!r}")
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CodecError("string not encodable as utf-8") from exc
    if len(raw) > 0xFFFFFFFF:
        raise CodecError("byte string too long")
    return _U32.pack(len(raw)) + raw


def enc_list(items: Iterable[T], enc_item: Callable[[T], bytes]) -> bytes:
    parts = [enc_item(item) for item in items]
    if len(parts) > 0xFFFFFFFF:
        raise CodecError("list too long")
    return len(parts).to_bytes(4, "big") + b"".join(parts)


class Reader:
    """Cursor over an encoded buffer. Raises CodecError on any malformation.

    `pos` and `since` expose the span a decoder consumed, so a wire type can
    hash the exact bytes it was read from instead of re-encoding itself.
    Every read checks its bounds once, inline: decoding is the hottest code
    in a run, and a shared helper would add a call per field.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes consumed from `start` up to the cursor."""
        return self._data[start : self._pos]

    def _count(self) -> int:
        pos = self._pos
        if pos + 4 > len(self._data):
            raise CodecError("buffer underrun")
        self._pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def u8(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            raise CodecError("buffer underrun")
        self._pos = pos + 1
        return self._data[pos]

    def u64(self) -> int:
        pos = self._pos
        if pos + 8 > len(self._data):
            raise CodecError("buffer underrun")
        self._pos = pos + 8
        return _U64.unpack_from(self._data, pos)[0]

    def f64(self) -> float:
        pos = self._pos
        if pos + 8 > len(self._data):
            raise CodecError("buffer underrun")
        self._pos = pos + 8
        return _F64.unpack_from(self._data, pos)[0]

    def fixed(self, layout: struct.Struct) -> tuple:
        """A fixed-width run of fields, read with one bounds check."""
        pos = self._pos
        end = pos + layout.size
        if end > len(self._data):
            raise CodecError("buffer underrun")
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def digest(self) -> bytes:
        pos = self._pos
        end = pos + 32
        if end > len(self._data):
            raise CodecError("buffer underrun")
        self._pos = end
        return self._data[pos:end]

    def str_(self) -> str:
        data, pos = self._data, self._pos
        if pos + 4 > len(data):
            raise CodecError("buffer underrun")
        start = pos + 4
        end = start + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise CodecError("buffer underrun")
        self._pos = end
        try:
            return data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc

    def list_(self, dec_item: Callable[["Reader"], T]) -> list[T]:
        return [dec_item(self) for _ in range(self._count())]

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{len(self._data) - self._pos} trailing bytes")
