"""One wire object decoded on its own, as the tests need it.

A node decodes the objects of a whole message (`codec.scan_message`); a
test often has the bytes of one object. `decode_whole` scans them with the
object's framing, which must fill them, and decodes the scan against the
context given, or against one that holds nothing: an empty ledger, an
empty pool, and for a vote a block that no vote names.

It also holds the oracles of the chain's commitments, written against
`hashlib` and `str.encode`, so they read no memo of the package.
"""

import hashlib
import re

from ledgerlab import codec
from ledgerlab.blockchain import Block, BlockHeader, ChainTransaction, HeaderScan, TxScan
from ledgerlab.codec import CodecError
from ledgerlab.lattice import (
    BlockKind,
    BlockScan,
    LatticeBlock,
    LatticeLedger,
    VoteRecord,
    VoteScan,
    build_block,
)
from ledgerlab.primitives import identity_for

FRAMING = {LatticeBlock: (BlockScan,), VoteRecord: (VoteScan,),
           ChainTransaction: (TxScan,), BlockHeader: (HeaderScan,),
           Block: Block.FRAMING}

# a send on a chain of its own, so its predecessor and digest are fresh
UNNAMED_BLOCK = build_block(identity_for("nobody"), b"\x01" * 32, BlockKind.SEND,
                            amount=1, counterparty="nobody")


def empty_context(cls) -> tuple:
    """The decode context of `cls` that holds nothing."""
    if cls is BlockHeader:
        return ()
    if cls in (ChainTransaction, Block):
        return ({},)
    ledger = LatticeLedger({})
    return (ledger,) if cls is LatticeBlock else (ledger, UNNAMED_BLOCK)


def decode_scans(cls, scans: list, raw: bytes, *context):
    """`cls`'s object from the scans of its framing over `raw`."""
    context = context or empty_context(cls)
    if cls is Block:
        return Block.decode(scans, raw, *context)
    if cls is BlockHeader:
        return BlockHeader.decode(scans[0])
    return cls.decode(scans[0], raw, *context)


def decode_whole(cls, raw: bytes, *context):
    """The one `cls` object that `raw` holds; anything else is a CodecError."""
    return decode_scans(cls, codec.scan_frame(raw, FRAMING[cls]), raw, *context)


def decode_prefix(cls, raw: bytes, *context):
    """The `cls` object at the start of `raw`, and the offset past it."""
    try:
        return decode_whole(cls, raw, *context), len(raw)
    except CodecError as exc:
        trailing = re.fullmatch(r"(\d+) trailing bytes", str(exc))
        if trailing is None:
            raise
    end = len(raw) - int(trailing[1])
    return decode_whole(cls, raw[:end], *context), end


def merkle_by_levels(leaves) -> bytes:
    """The Merkle root of `leaves`, level by level: adjacent nodes pair left
    to right and an odd trailing node rides up unchanged."""
    h = lambda b: hashlib.sha256(b).digest()
    if not leaves:
        return h(b"")
    if len(leaves) == 1:
        return h(leaves[0])
    level = list(leaves)
    while len(level) > 1:
        nxt = [h(level[i] + level[i + 1])
               for i in range(0, len(level) // 2 * 2, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def leaf_by_fields(account: str, balance: int, sequence: int) -> bytes:
    """A state-root leaf's preimage: the name's length-prefixed UTF-8, then
    the balance and the sequence as u64s."""
    raw = account.encode("utf-8")
    return (len(raw).to_bytes(4, "big") + raw + balance.to_bytes(8, "big")
            + sequence.to_bytes(8, "big"))


def root_by_fields(state) -> bytes:
    """A `ChainState`'s root from its leaves encoded field by field; an
    account with no sequence reads as 0."""
    return merkle_by_levels([
        hashlib.sha256(leaf_by_fields(a, b, state.sequences.get(a, 0))).digest()
        for a, b in sorted(state.balances.items())])
