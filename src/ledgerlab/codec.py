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
headers and blocks, and signatures) and the chain's state records (account
changes, state deltas and the state-root leaf) code themselves as kernels,
because they run on every delivery, forward, root and audit; a call per
field would cost more than the field. A kernel encoder checks its fields as
the `enc_*` helpers below do (`utf8` for text) and packs each fixed run of
fields with one precompiled `struct.Struct`.

A kernel decoder runs in two steps. The scan (a `primitives.WireScan`) is
node-neutral: it works out the offsets over `Reader.data` from
`Reader.pos`, reading only length prefixes and discriminants, checks the
bounds once per fixed run (a string's with the run after it), checks the
kind and the UTF-8, reads the fields and hashes the span it consumed; the
signing digest is hashed when a step first asks for it. The step then
turns the scan into the reading node's object: a held lattice block or a
pooled transaction is found by the span digest, a stored vote by its
fields, and a fresh object takes its names and digest objects from what the
node holds. `Reader.scan` runs the scan, or takes the one that an earlier
receiver of the same `Broadcast` left, and moves `Reader.pos` past the
object. The errors are the helpers': a CodecError on an underrun, invalid
UTF-8 or an unknown discriminant.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Optional, TypeVar

from .errors import LedgerError

T = TypeVar("T")
S = TypeVar("S")  # a scan: anything with an `end` offset

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


class Broadcast(bytes):
    """A payload that one broadcast hands to every receiver, as one object.

    The first receiver that reads it whole leaves its scans in `body` (see
    `Reader.expect_end`), and the receivers after it take them from there,
    so the bytes are scanned once; each receiver still builds its own
    objects from the scans. The body lives as long as the message.
    """

    body: Optional[dict] = None  # start offset -> scan, once read whole


class Reader:
    """Cursor over an encoded buffer: `data`, read up to `pos`.

    A wire type's decoder takes the scan of the object at `pos` from `scan`
    (see the module docstring), which leaves `pos` past the object. The
    methods serve message framing: `fixed` reads one fixed-width run of
    fields with one bounds check, and `expect_end` refuses trailing bytes.
    """

    __slots__ = ("data", "pos", "scans")

    def __init__(self, data: bytes):
        self.data = data if isinstance(data, bytes) else bytes(data)
        self.pos = 0
        body = data.body if type(data) is Broadcast else None
        self.scans = {} if body is None else body

    def scan(self, scanner: Callable[[bytes, int], S]) -> S:
        """The scan of the object at `pos`, and `pos` moved past it.

        It is the one this reader's broadcast carries, if an earlier
        receiver read it whole, else `scanner(data, pos)`.
        """
        pos, scans = self.pos, self.scans
        s = scans.get(pos)
        if s is None:
            s = scans[pos] = scanner(self.data, pos)
        self.pos = s.end
        return s

    def fixed(self, layout: struct.Struct) -> tuple:
        """A fixed-width run of fields, read with one bounds check."""
        pos = self.pos
        end = pos + layout.size
        if end > len(self.data):
            raise CodecError("buffer underrun")
        self.pos = end
        return layout.unpack_from(self.data, pos)

    def expect_end(self) -> None:
        """Refuse trailing bytes; a broadcast read whole keeps its scans."""
        data = self.data
        if self.pos != len(data):
            raise CodecError(f"{len(data) - self.pos} trailing bytes")
        if type(data) is Broadcast and data.body is None:
            data.body = self.scans
