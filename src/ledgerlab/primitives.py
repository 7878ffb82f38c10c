"""Hashing, Merkle commitments, the wire-object digest cache, the base of
the wire scans, the gap buffer both ledgers park blocks in, and simulated
identities/signatures.

The digest algorithm is pinned to SHA-256 and its name is written into every
scenario report header. Signatures are keyed-digest authenticators, not real
asymmetric crypto: a secret is derived per identity, the tag is
digest(secret || payload-digest), and verification recomputes the tag. That is
enough to make forgery detectable in-protocol, which is all the simulation needs.
`sign` and `verify` share one bounded memo of expected tags, so the nodes
that check a signed object soon after it is signed reuse its tag instead of
hashing it again.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from . import codec

DIGEST_ALGORITHM = "sha256"
DIGEST_LEN = 32

ZERO_DIGEST = b"\x00" * DIGEST_LEN


def digest(payload: bytes) -> bytes:
    """256-bit digest of a byte payload."""
    return hashlib.sha256(payload).digest()


EMPTY_ROOT = digest(b"")


def leading_zero_bits(d: bytes) -> int:
    """Number of leading zero bits in a 32-byte digest."""
    value = int.from_bytes(d, "big")
    if value == 0:
        return 256
    return 256 - value.bit_length()


# ---------------------------------------------------------------------------
# Merkle commitment

# the most recent distinct leaf lists whose roots `merkle_root` keeps
MERKLE_ROOTS = 16


def merkle_root(leaves: list[bytes]) -> bytes:
    """Root of a binary Merkle tree over 32-byte leaf digests.

    Empty list commits to digest(b""). A single leaf commits to digest(leaf).
    At every level adjacent nodes are paired left-to-right; an odd trailing
    node is promoted to the next level unchanged, not duplicated.

    A leaf that is not an exact 32-byte `bytes` is a ValueError. The root is
    a pure function of the leaves, so it is memoised on their exact tuple for
    the last MERKLE_ROOTS lists: the producer and every validator of a block
    commit to the same leaves, and only the first of them hashes the tree.
    The memo holds digests, never a verdict; each caller compares the root
    with its header itself.
    """
    for leaf in leaves:
        if type(leaf) is not bytes or len(leaf) != DIGEST_LEN:
            raise ValueError("merkle leaves must be 32-byte digests")
    return _tree_root(tuple(leaves))


@functools.lru_cache(maxsize=MERKLE_ROOTS)
def _tree_root(leaves: tuple[bytes, ...]) -> bytes:
    """`merkle_root` of leaves it has checked."""
    if not leaves:
        return EMPTY_ROOT
    if len(leaves) == 1:
        return digest(leaves[0])
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(digest(level[i] + level[i + 1]))
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# ---------------------------------------------------------------------------
# Wire objects

@dataclass(slots=True)
class WireObject:
    """Base of the ledger's wire types: each digest and length computed once.

    A subclass defines `encode()` and, if it is signed, `signing_payload()`
    and a `signature` field. The caches fill on first use (the encoding a
    digest is taken over also gives the length); a subclass's
    `decode` may fill them from the bytes it consumed, and
    `dataclasses.replace` starts a copy empty.

    Wire objects are plain slotted records, so a field or cache write is a
    plain store, but they are write-once: no code assigns a field after
    construction, and a cache is written only while it is `None`.
    `tests/test_codec.py` runs the codec and short runs of both paradigms
    under a guard that enforces this.
    """

    _sd: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)
    _size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def signing_digest(self) -> bytes:
        sd = self._sd
        if sd is None:
            sd = digest(self.signing_payload())
            self._sd = sd
        return sd

    def digest(self) -> bytes:
        d = self._digest
        if d is None:
            self.encode_and_cache()
            d = self._digest
        return d

    def encode_and_cache(self) -> bytes:
        """`encode()`, filling whichever of the digest and length caches is
        still empty from those same bytes."""
        encoded = self.encode()
        if self._digest is None:
            self._digest = digest(encoded)
        if self._size is None:  # encoded_len() may have filled it
            self._size = len(encoded)
        return encoded

    def encoded_len(self) -> int:
        """len(self.encode()), without re-encoding a decoded object."""
        n = self._size
        if n is None:
            n = len(self.encode())
            self._size = n
        return n


class WireScan:
    """The node-neutral part of decoding one wire object: what its bytes say.

    A subclass's constructor takes the buffer and the object's offset in it,
    checks the bounds, the discriminants and the UTF-8, reads the fields,
    and sets `end` past the object. Nothing in a scan comes from a node, so
    the receivers of one broadcast share it (see `codec.scan_message`), and
    each builds its own object from it. The signing digest is hashed on
    first use, over `start:signed_end` of the buffer passed in: a scan that
    kept the broadcast that keeps it would be a reference cycle.
    """

    __slots__ = ("start", "signed_end", "end", "payload_digest", "tag", "sd")

    def signing_digest(self, data: bytes) -> bytes:
        sd = self.sd
        if sd is None:
            sd = self.sd = digest(data[self.start:self.signed_end])
        return sd

    def signature(self, signer: str, sd: bytes) -> "Signature":
        """A new signature over these digests, naming `signer`; its payload
        digest is the signing digest `sd` itself when the two are equal."""
        payload_digest = self.payload_digest
        return Signature(signer, sd if payload_digest == sd else payload_digest,
                         self.tag)


# ---------------------------------------------------------------------------
# Gap buffer

class GapBuffer:
    """Blocks waiting on a digest that has not arrived, at most `limit` held.

    A chain block waits on its parent, a lattice block on its predecessor or
    the send it receives. Past the limit the oldest block is dropped.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.held: OrderedDict[bytes, tuple[object, bytes]] = OrderedDict()
        self.waiting: dict[bytes, list[bytes]] = {}  # missing -> held digests

    def park(self, d: bytes, block: object, missing: bytes) -> None:
        """Hold `block` (digest `d`) until `missing` arrives; a held digest
        is ignored."""
        if d in self.held:
            return
        self.held[d] = (block, missing)
        self.waiting.setdefault(missing, []).append(d)
        while len(self.held) > self.limit:
            oldest, (_, its_missing) = self.held.popitem(last=False)
            bucket = self.waiting[its_missing]
            bucket.remove(oldest)
            if not bucket:
                del self.waiting[its_missing]

    def release(self, arrived: bytes) -> list:
        """The blocks that waited on `arrived`, in the order they were parked."""
        waiting = self.waiting.pop(arrived, None)
        if waiting is None:  # nothing waits on it: the usual case
            return []
        held = self.held
        return [held.pop(d)[0] for d in waiting]


# ---------------------------------------------------------------------------
# Identities and signatures

_SECRET_TAG = b"ledgerlab/identity-secret/v1:"


@dataclass(frozen=True, slots=True)
class Identity:
    """A participant: stable id plus derived signing secret."""

    id: str
    secret: bytes


@functools.cache
def identity_for(identity_id: str) -> Identity:
    """Deterministic identity for an id. One id, one secret, everywhere.

    The secret is a pure function of the id and Identity is frozen, so each
    id is derived once per process and every caller shares the result.
    """
    return Identity(id=identity_id, secret=digest(_SECRET_TAG + identity_id.encode("utf-8")))


# the fixed tail of every signature: payload digest, tag
SIGNATURE_DIGESTS = struct.Struct(">32s32s")


@dataclass(slots=True)
class Signature:
    signer: str
    payload_digest: bytes
    tag: bytes

    def encode(self) -> bytes:
        """A kernel (see `codec`); a signed type's decoder reads it inline."""
        signer = codec.enc_str(self.signer)
        payload_digest, tag = self.payload_digest, self.tag
        if type(payload_digest) is not bytes or len(payload_digest) != 32:
            raise codec.digest_error(payload_digest)
        if type(tag) is not bytes or len(tag) != 32:
            raise codec.digest_error(tag)
        return signer + SIGNATURE_DIGESTS.pack(payload_digest, tag)


# the most recent (signer, payload digest) pairs whose tags `_expected_tag` keeps
SIGNATURE_TAGS = 512


@functools.lru_cache(maxsize=SIGNATURE_TAGS)
def _expected_tag(secret: bytes, payload_digest: bytes) -> bytes:
    """digest(secret || payload digest): the tag that the signer holding
    `secret` puts on `payload_digest`.

    One secret is one signer's, so the memo is keyed by (signer, payload
    digest). A block, vote or transaction is signed once and checked by
    every node it reaches, within a few link latencies, so the last
    SIGNATURE_TAGS pairs are kept and only the signer hashes the tag. The
    memo holds the expected tag, never a verdict; each caller compares it
    with the tag it was given.
    """
    return digest(secret + payload_digest)


def sign(identity: Identity, payload_digest: bytes) -> Signature:
    return Signature(identity.id, payload_digest,
                     _expected_tag(identity.secret, payload_digest))


def verify(signature: Signature, signer: str, payload_digest: bytes) -> bool:
    """True iff the tag was produced with `signer`'s secret over this digest."""
    if signature.signer != signer or signature.payload_digest != payload_digest:
        return False
    return signature.tag == _expected_tag(identity_for(signer).secret, payload_digest)
