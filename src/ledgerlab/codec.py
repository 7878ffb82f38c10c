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

The wire types (the lattice's blocks and votes, the chain's transactions,
headers and blocks, and signatures) code themselves as kernels, because
their codecs run on every delivery and forward; a call per field would cost
more than the field. A kernel encoder checks its fields as the `enc_*`
helpers below do (`utf8` for text) and packs each fixed run of fields with
one precompiled `struct.Struct`. A kernel decoder works out the offsets over
`Reader.data` from `Reader.pos`, reading only length prefixes and
discriminants; it checks the bounds once per fixed run (a string's with the
run after it), slices each string by its length prefix, and moves
`Reader.pos` once, past the span it consumed and hashes. A held lattice
block or a pooled transaction is found by that digest and returned before
any other field is unpacked; a stored vote is found by its fields, and a
fresh object's fixed runs are unpacked with one `unpack_from` each.
The errors are the helpers': a CodecError on an underrun, invalid UTF-8 or
an unknown discriminant.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, TypeVar

from .errors import LedgerError

T = TypeVar("T")

U64_MAX = (1 << 64) - 1

U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")


class CodecError(LedgerError):
    """Value outside the encodable domain, or malformed bytes on decode."""


# Every encoder, helper or kernel, accepts only the exact type it expects:
# a bool, an int subclass, a str subclass or a bytearray is refused rather
# than converted.

def enc_u8(value: int) -> bytes:
    if type(value) is not int or not 0 <= value <= 0xFF:
        raise CodecError(f"u8 out of range: {value!r}")
    return value.to_bytes(1, "big")


def u64_error(value: object) -> CodecError:
    return CodecError(f"u64 out of range: {value!r}")


def digest_error(value: object) -> CodecError:
    return CodecError(f"digest must be exactly 32 bytes, got {value!r}")


def enc_u64(value: int) -> bytes:
    if type(value) is not int or not 0 <= value <= U64_MAX:
        raise u64_error(value)
    return U64.pack(value)


def enc_digest(value: bytes) -> bytes:
    if type(value) is not bytes or len(value) != 32:
        raise digest_error(value)
    return value


def utf8(value: str) -> bytes:
    """The UTF-8 bytes of `value`, for a kernel that packs their length."""
    if type(value) is not str:
        raise CodecError(f"not a string: {value!r}")
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CodecError("string not encodable as utf-8") from exc
    if len(raw) > 0xFFFFFFFF:
        raise CodecError("byte string too long")
    return raw


def enc_str(value: str) -> bytes:
    raw = utf8(value)
    return U32.pack(len(raw)) + raw


def enc_list(items: Iterable[T], enc_item: Callable[[T], bytes]) -> bytes:
    parts = [enc_item(item) for item in items]
    if len(parts) > 0xFFFFFFFF:
        raise CodecError("list too long")
    return len(parts).to_bytes(4, "big") + b"".join(parts)


class Reader:
    """Cursor over an encoded buffer: `data`, read up to `pos`.

    A wire type's decoder is a kernel over `data` (see the module
    docstring): it reads from `pos`, checks the bounds once per fixed run,
    and sets `pos` once, past the bytes it consumed, so the span it hashes
    is `data[start:pos]`. The methods serve message framing: `fixed`
    reads one fixed-width run of fields with one bounds check, and
    `expect_end` refuses trailing bytes.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = bytes(data)
        self.pos = 0

    def fixed(self, layout: struct.Struct) -> tuple:
        """A fixed-width run of fields, read with one bounds check."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.data):
            raise CodecError("buffer underrun")
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise CodecError(f"{len(self.data) - self.pos} trailing bytes")
