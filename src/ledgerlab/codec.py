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
because they run on every delivery, forward and root; a call per field would
cost more than the field. A kernel encoder checks its fields as the `enc_*`
helpers below do and packs each fixed run of fields with one precompiled
`struct.Struct`. A name is a whole length-prefixed field taken from
`enc_str`, the memo; only the chain header, whose producer's length sits
inside its one fixed run, packs the raw bytes of `utf8`.

No audit encodes. Each stored type has a field rule beside its `encode()`
that gives the encoding's length from the fields alone, and the byte
recounts call only those. So no run encodes a state delta, an account change
or a pending send; their encoders are what the tests check the field rules
against.

A message is a head (`HEAD`: a 1-byte tag, the sender's node id), then the
objects its tag's framing lists, and `scan_message` scans it whole, once. A
scan (a `primitives.WireScan`) is node-neutral: it reads an object's length
prefixes and discriminants, checks the bounds once per fixed run, the kind
and the UTF-8, reads the fields and hashes the span it consumed. A wire
type's `decode` turns a scan and the buffer into the reading node's object:
the held lattice block or pooled transaction with the span's digest, the
stored vote with its fields, or a fresh object whose names and digests are
the node's own. An underrun, trailing bytes, invalid UTF-8 or an unknown tag
or discriminant is a CodecError.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Mapping, Optional, TypeVar

from .errors import LedgerError

T = TypeVar("T")

U64_MAX = (1 << 64) - 1

U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
HEAD = struct.Struct(">BQ")  # every message opens with its tag and sender


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
    """The UTF-8 bytes of `value`, for a kernel that packs their length
    itself; unmemoised, unlike `enc_str`."""
    if type(value) is not str:
        raise CodecError(f"not a string: {value!r}")
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CodecError("string not encodable as utf-8") from exc
    if len(raw) > 0xFFFFFFFF:
        raise CodecError("byte string too long")
    return raw


# an exact str -> its length-prefixed UTF-8 field; see `enc_str`
NAME_FIELDS: dict[str, bytes] = {}


def enc_str(value: str) -> bytes:
    """The length-prefixed UTF-8 field of `value`, memoised in `NAME_FIELDS`.

    The kernels write every name through here, and a run writes the few
    names of its config many times over, so each is encoded once per
    process. A field is immutable bytes and a pure function of the string,
    so sharing it between nodes shares no node's state. Only an exact `str`
    is looked up, so a subclass or an unhashable value falls through to
    `utf8`, which refuses it; a refused value is never stored.
    """
    if type(value) is str:
        field = NAME_FIELDS.get(value)
        if field is not None:
            return field
    raw = utf8(value)
    field = NAME_FIELDS[value] = U32.pack(len(raw)) + raw
    return field


def enc_list(items: Iterable[T], enc_item: Callable[[T], bytes]) -> bytes:
    parts = [enc_item(item) for item in items]
    if len(parts) > 0xFFFFFFFF:
        raise CodecError("list too long")
    return len(parts).to_bytes(4, "big") + b"".join(parts)


class DigestScan:
    """A raw 32-byte digest in a message's framing."""

    __slots__ = ("digest", "end")

    def __init__(self, data: bytes, start: int):
        self.digest, self.end = data[start:start + 32], start + 32
        if self.end > len(data):
            raise CodecError("buffer underrun")


def scan_frame(data: bytes, framing: tuple, pos: int = 0) -> list:
    """The scans of `framing`'s steps over `data` from `pos` to its end.

    A step is a scanner: it scans the object at an offset into a scan whose
    `end` is past it. A one-item list `[scanner]` is a u32 count, then that
    many such objects.
    """
    size, scans = len(data), []
    for step in framing:
        if type(step) is list:
            if pos + 4 > size:
                raise CodecError("buffer underrun")
            count, pos, items = U32.unpack_from(data, pos)[0], pos + 4, []
            for _ in range(count):
                items.append(step[0](data, pos))
                pos = items[-1].end
            scans.append(items)
        else:
            scans.append(step(data, pos))
            pos = scans[-1].end
    if pos != size:
        raise CodecError(f"{size - pos} trailing bytes")
    return scans


class Broadcast(bytes):
    """A payload that one broadcast hands to every receiver, as one object:
    the first receiver leaves its `scan_message` result in `scanned` for the
    others, so the bytes are scanned once. A failed scan leaves nothing.

    A sender may fill `scanned` itself, with the scans the bytes would
    give: a lattice node relays a block it received in the same place of a
    new message, so it passes the block's scan on and scans only the votes,
    or, when the votes too are those it received, passes every scan on
    (`nodes.LatticeNode._forward`)."""

    scanned: Optional[tuple] = None


def scan_message(data: bytes, framings: Mapping[int, tuple]) -> tuple:
    """(tag, sender, scans) of a whole message, by `scan_frame` with the tag's
    framing in `framings`; a `Broadcast` scanned before returns what it kept."""
    broadcast = type(data) is Broadcast
    if broadcast and data.scanned is not None:
        return data.scanned
    if len(data) < HEAD.size:
        raise CodecError("buffer underrun")
    tag, sender = HEAD.unpack_from(data)
    framing = framings.get(tag)
    if framing is None:
        raise CodecError(f"unknown message tag {tag}")
    scanned = (tag, sender, scan_frame(data, framing, HEAD.size))
    if broadcast:
        data.scanned = scanned
    return scanned
