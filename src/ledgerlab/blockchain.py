"""Account-balance blockchain with longest-chain adoption.

One global chain of blocks, each holding signed transactions. Design points:

* account/balance model with per-sender strictly increasing sequence numbers
  (replay protection); no UTXO set
* block capacity in abstract weight units: assembly packs to it, validation
  rejects a block over it
* one transaction rule, `ChainState.apply_tx`, shared by assembly and
  validation
* two Merkle commitments per header: transaction root and state root
* per-block state deltas so state at any recent block can be reached by
  reversing/applying deltas from the materialized head state; a delta, its
  account changes and an adoption report are plain slotted records, set
  once like the wire types (see `primitives.WireObject`)
* longest chain wins; equal length keeps the first-seen branch
* pruning drops bodies and deltas below a recency window, headers stay
* fast sync = all headers + state snapshot at a pivot + replay from the pivot

Proof checking is pluggable (grind PoW, lottery, or stake-based slots) so the
same store serves every consensus flavor.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional

from . import codec
from .codec import U32, U64_MAX, CodecError
from .errors import ConfigError, InvariantViolation, LedgerError, NotFoundError
from .leader_election import DifficultySchedule, check_pow, pos_select, retarget
from .primitives import (
    SIGNATURE_DIGESTS,
    ZERO_DIGEST,
    Identity,
    Signature,
    WireObject,
    WireScan,
    digest,
    merkle_root,
    sign,
    verify,
)

GENESIS_PRODUCER = "genesis"

DEFAULT_FASTSYNC_PIVOT_OFFSET = 1024


class OrphanParentError(LedgerError):
    """Assembly was asked to build on a parent the store does not hold."""


class HistoryPrunedError(LedgerError):
    """The requested state/body lies below the pruned horizon."""


class SyncError(LedgerError):
    """Fast sync could not reproduce the source chain's state."""


# ---------------------------------------------------------------------------
# Transactions

# the fixed runs of the kernels (see `codec`)
_TX_NUMBERS = struct.Struct(">QQQ")  # amount, sequence, weight


class TxScan(WireScan):
    """What an encoded transaction says, read once for all receivers."""

    __slots__ = ("digest", "sender", "recipient", "amount", "sequence", "weight",
                 "signer")

    def __init__(self, data: bytes, start: int):
        # The offsets first: sender at a:b, recipient at c:d, the numbers at
        # d, signer at e:f, the signature digests at f. A string's bounds are
        # checked with the fixed run after it.
        size = len(data)
        a = start + 4
        if a > size:
            raise CodecError("buffer underrun")
        b = a + U32.unpack_from(data, start)[0]
        c = b + 4
        if c > size:
            raise CodecError("buffer underrun")
        d = c + U32.unpack_from(data, b)[0]
        e = d + 28
        if e > size:
            raise CodecError("buffer underrun")
        f = e + U32.unpack_from(data, d + 24)[0]
        end = f + 64
        if end > size:
            raise CodecError("buffer underrun")
        try:
            self.sender, self.recipient, self.signer = (
                data[a:b].decode(), data[c:d].decode(), data[e:f].decode())
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc
        self.amount, self.sequence, self.weight = _TX_NUMBERS.unpack_from(data, d)
        self.payload_digest, self.tag = SIGNATURE_DIGESTS.unpack_from(data, f)
        self.start, self.signed_end, self.end = start, d + 24, end
        self.digest = digest(data[start:end])
        self.sd = None


def _tx_payload(sender: str, recipient: str, amount: int, sequence: int,
                weight: int) -> bytes:
    """A transaction's signing payload from its fields: the kernel behind
    `ChainTransaction.signing_payload`, which `make_transaction` hashes
    before the transaction exists."""
    sender, recipient = codec.enc_str(sender), codec.enc_str(recipient)
    if not (type(amount) is int and type(sequence) is int and type(weight) is int
            and 0 <= amount <= U64_MAX and 0 <= sequence <= U64_MAX
            and 0 <= weight <= U64_MAX):
        raise codec.u64_error((amount, sequence, weight))
    return sender + recipient + _TX_NUMBERS.pack(amount, sequence, weight)


@dataclass(slots=True)
class ChainTransaction(WireObject):
    sender: str
    recipient: str
    amount: int
    sequence: int
    weight: int
    signature: Signature
    # the signature check's verdict, cached like the digest: an object is
    # checked once, and a node never shares its objects with another node
    _verified: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

    def signing_payload(self) -> bytes:
        return _tx_payload(self.sender, self.recipient, self.amount, self.sequence,
                           self.weight)

    def encode(self) -> bytes:
        return self.signing_payload() + self.signature.encode()

    def field_len(self) -> int:
        """len(self.encode()), from the fields alone: the three names' fields,
        then 88 fixed bytes (amount, sequence, weight, signature digests)."""
        return 88 + (len(codec.enc_str(self.sender)) + len(codec.enc_str(self.recipient))
                     + len(codec.enc_str(self.signature.signer)))

    @classmethod
    def decode(cls, s: TxScan, data: bytes,
               pool: Mapping[bytes, "ChainTransaction"]) -> "ChainTransaction":
        """The transaction scanned in `s`; if `pool` holds its digest, that one.

        The digest is taken over the bytes scanned, so a pooled object is
        returned only for byte-identical input, signature included. A fresh
        transaction is a new object for the node that decodes it, with its
        own signature verdict; its payload digest is its signing digest (over
        `data`) when the two are equal.
        """
        pooled = pool.get(s.digest)
        if pooled is not None:
            return pooled  # its bytes are these, so the rest is valid
        sd = s.signing_digest(data)
        tx = cls(s.sender, s.recipient, s.amount, s.sequence, s.weight,
                 s.signature(s.signer, sd))
        tx._sd = sd
        tx._digest = s.digest
        tx._size = s.end - s.start
        return tx

    def verify_signature(self) -> bool:
        ok = self._verified
        if ok is None:
            ok = verify(self.signature, self.sender, self.signing_digest())
            self._verified = ok
        return ok


def make_transaction(sender: Identity, recipient: str, amount: int,
                     sequence: int, weight: int) -> ChainTransaction:
    if amount <= 0:
        raise ValueError("transaction amount must be positive")
    if weight <= 0:
        raise ValueError("transaction weight must be positive")
    sd = digest(_tx_payload(sender.id, recipient, amount, sequence, weight))
    tx = ChainTransaction(sender.id, recipient, amount, sequence, weight, sign(sender, sd))
    tx._sd = sd
    return tx


def _body_len(transactions: tuple[ChainTransaction, ...]) -> int:
    """len(codec.enc_list(transactions, ...)): a 4-byte count, then each body."""
    return 4 + sum(t.encoded_len() for t in transactions)


# ---------------------------------------------------------------------------
# Blocks

_HEADER_FIELDS = struct.Struct(">32s32s32sQdQI")
# predecessor, tx and state roots, height, timestamp, nonce, producer length


class HeaderScan:
    """What an encoded block header says, read once for all receivers."""

    __slots__ = ("fields", "producer", "digest", "start", "end")

    def __init__(self, data: bytes, start: int):
        p = start + _HEADER_FIELDS.size
        if p > len(data):
            raise CodecError("buffer underrun")
        *self.fields, n = _HEADER_FIELDS.unpack_from(data, start)
        end = p + n
        if end > len(data):
            raise CodecError("buffer underrun")
        try:
            self.producer = data[p:end].decode()
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc
        self.digest = digest(data[start:end])
        self.start, self.end = start, end


@dataclass(slots=True)
class BlockHeader(WireObject):
    predecessor: bytes  # zero digest marks genesis
    tx_root: bytes
    state_root: bytes
    height: int
    timestamp: float
    nonce: int
    producer: str

    def encode(self) -> bytes:
        producer = codec.utf8(self.producer)
        predecessor, tx_root, state_root = self.predecessor, self.tx_root, self.state_root
        if not (type(predecessor) is bytes and type(tx_root) is bytes
                and type(state_root) is bytes and len(predecessor) == len(tx_root)
                == len(state_root) == 32):
            raise codec.digest_error((predecessor, tx_root, state_root))
        height, timestamp, nonce = self.height, self.timestamp, self.nonce
        if not (type(height) is int and type(nonce) is int
                and 0 <= height <= U64_MAX and 0 <= nonce <= U64_MAX):
            raise codec.u64_error((height, nonce))
        if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
            raise CodecError(f"not a float: {timestamp!r}")
        return _HEADER_FIELDS.pack(predecessor, tx_root, state_root, height,
                                   float(timestamp), nonce, len(producer)) + producer

    def field_len(self) -> int:
        """len(self.encode()), from the fields alone: the fixed run, then
        the producer's UTF-8 bytes."""
        return _HEADER_FIELDS.size + len(codec.utf8(self.producer))

    @classmethod
    def decode(cls, s: HeaderScan) -> "BlockHeader":
        """The header scanned in `s`, as a new object for the decoding node."""
        header = cls(*s.fields, s.producer)
        header._digest = s.digest
        header._size = s.end - s.start
        return header

    def work_digest(self) -> bytes:
        # the grind puzzle runs over the header with its nonce field zeroed
        return digest(replace(self, nonce=0).encode())


@dataclass(slots=True)
class Block:
    header: BlockHeader
    transactions: tuple[ChainTransaction, ...]
    FRAMING = (HeaderScan, [TxScan])  # its scan steps (see `codec.scan_frame`)

    def encode(self) -> bytes:
        return self.header.encode() + codec.enc_list(
            self.transactions, ChainTransaction.encode)

    @classmethod
    def decode(cls, scans: list, data: bytes,
               pool: Mapping[bytes, ChainTransaction]) -> "Block":
        """The block whose `FRAMING` scans are `scans`, reusing pooled transactions."""
        header, txs = scans
        return cls(BlockHeader.decode(header),
                   tuple([ChainTransaction.decode(s, data, pool) for s in txs]))

    def digest(self) -> bytes:
        return self.header.digest()


# ---------------------------------------------------------------------------
# State and deltas

_CHANGE = struct.Struct(">QQQQB")  # balances and sequences before and after, existed
_LEAF_NUMBERS = struct.Struct(">QQ")  # a state-root leaf's balance and sequence

# account -> (balance, sequence, leaf) of the leaf last hashed for it, shared
# by every state root in the process; bounded, like `codec.NAME_FIELDS`, by
# the account names the process has seen
STATE_LEAVES: dict[str, tuple[int, int, bytes]] = {}


def _by_name(named: dict) -> list:
    """The items of `named` in name order; names of mixed types are a `CodecError`."""
    try:
        return sorted(named.items())
    except TypeError as exc:
        raise CodecError("account names are not all strings") from exc


class Verdict(enum.Enum):
    ACCEPT = "accept"
    BAD_PROOF = "bad-proof"
    UNKNOWN_PARENT = "unknown-parent"
    WRONG_HEIGHT = "wrong-height"
    BAD_ROOT = "bad-root"
    DOUBLE_SPEND = "double-spend"
    BAD_SIGNATURE = "bad-signature"
    BAD_SEQUENCE = "bad-sequence"
    OVER_CAPACITY = "over-capacity"


@dataclass
class ChainState:
    """Balances plus per-account last-used sequence numbers."""

    balances: dict[str, int] = field(default_factory=dict)
    sequences: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "ChainState":
        return ChainState(balances=dict(self.balances), sequences=dict(self.sequences))

    def root(self) -> bytes:
        """Merkle root over one leaf per account, in account order.

        A leaf is a pure function of (account, balance, sequence), so every
        store shares one memo of them, `STATE_LEAVES`: a leaf whose account
        holds the balance and sequence it was last hashed at is reused, and
        every leaf hashed here is written back. The types and bounds are
        checked before the lookup, so a value a cold root refuses is refused
        warm too. The memo holds digests, never a verdict: each store builds
        its own leaf list from its own state and compares the root itself.
        """
        sequences, memo = self.sequences, STATE_LEAVES
        leaves = []
        for a, balance in _by_name(self.balances):
            sequence = sequences.get(a, 0)
            if type(a) is not str:
                raise CodecError(f"not a string: {a!r}")
            if not (type(balance) is int and type(sequence) is int
                    and 0 <= balance <= U64_MAX and 0 <= sequence <= U64_MAX):
                raise codec.u64_error((balance, sequence))
            known = memo.get(a)
            if known is not None and known[0] == balance and known[1] == sequence:
                leaves.append(known[2])
                continue
            leaf = digest(codec.enc_str(a) + _LEAF_NUMBERS.pack(balance, sequence))
            memo[a] = (balance, sequence, leaf)
            leaves.append(leaf)
        return merkle_root(leaves)

    def balance(self, account: str) -> int:
        return self.balances.get(account, 0)

    def apply_tx(self, tx: ChainTransaction) -> Optional[tuple[Verdict, str]]:
        """The transaction rule: apply `tx`, or return why it is refused.

        A transaction needs a positive amount and weight, a sequence above
        its sender's last, and a balance that covers the amount.
        """
        sender, amount, sequence = tx.sender, tx.amount, tx.sequence
        if amount <= 0:
            return Verdict.DOUBLE_SPEND, "non-positive amount"
        if tx.weight <= 0:
            return Verdict.OVER_CAPACITY, "non-positive weight"
        balances, sequences = self.balances, self.sequences
        if sequence <= sequences.get(sender, 0):
            return Verdict.BAD_SEQUENCE, f"{sender} reused sequence {sequence}"
        balance = balances.get(sender, 0)
        if balance < amount:
            return Verdict.DOUBLE_SPEND, f"{sender} overspends by {amount - balance}"
        balances[sender] = balance - amount
        balances[tx.recipient] = balances.get(tx.recipient, 0) + amount
        sequences[sender] = sequence
        return None


@dataclass(slots=True)
class AccountChange:
    balance_before: int
    balance_after: int
    sequence_before: int
    sequence_after: int
    existed_before: bool = True  # reverting a block must drop accounts it created

    def encode(self) -> bytes:
        """A kernel (see `codec`): four u64s and a u8."""
        a, b = self.balance_before, self.balance_after
        c, d = self.sequence_before, self.sequence_after
        if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int
                and 0 <= a <= U64_MAX and 0 <= b <= U64_MAX
                and 0 <= c <= U64_MAX and 0 <= d <= U64_MAX):
            raise codec.u64_error((a, b, c, d))
        return _CHANGE.pack(a, b, c, d, 1 if self.existed_before else 0)


@dataclass(slots=True)
class StateDelta:
    """Balance/sequence movement one block causes, keyed by its digest."""

    block: bytes
    changes: dict[str, AccountChange]

    def encode(self) -> bytes:
        """A kernel (see `codec`): the digest, then a list of (name, change)
        in name order."""
        block, changes = self.block, self.changes
        if type(block) is not bytes or len(block) != 32:
            raise codec.digest_error(block)
        parts = [block, U32.pack(len(changes))]
        for account, change in _by_name(changes):
            parts.append(codec.enc_str(account) + change.encode())
        return b"".join(parts)

    def encoded_len(self) -> int:
        """len(self.encode()), from the account names alone."""
        # a digest and a list count, then per account a length-prefixed
        # name and a 33-byte AccountChange
        return 36 + sum(33 + len(codec.enc_str(name)) for name in self.changes)

    def apply(self, state: ChainState) -> None:
        for account, ch in self.changes.items():
            state.balances[account] = ch.balance_after
            state.sequences[account] = ch.sequence_after

    def revert(self, state: ChainState) -> None:
        for account, ch in self.changes.items():
            if ch.existed_before:
                state.balances[account] = ch.balance_before
                state.sequences[account] = ch.sequence_before
            else:
                state.balances.pop(account, None)
                state.sequences.pop(account, None)


# ---------------------------------------------------------------------------
# Validation

@dataclass(slots=True)
class ValidationResult:
    verdict: Verdict
    detail: str = ""
    delta: Optional[StateDelta] = None

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.ACCEPT


class ProofRule:
    """Consensus-specific check that a header was legitimately produced."""

    def check(self, store: "ChainStore", block: Block) -> tuple[bool, str]:
        raise NotImplementedError


class LotteryProof(ProofRule):
    """Lottery mode: production was already gated by the hashpower draw."""

    def check(self, store: "ChainStore", block: Block) -> tuple[bool, str]:
        return True, ""


class GrindProof(ProofRule):
    """Literal PoW: nonce must clear the parent schedule's difficulty bits."""

    def check(self, store: "ChainStore", block: Block) -> tuple[bool, str]:
        parent = store.blocks[block.header.predecessor]
        bits = parent.schedule.difficulty_bits
        if check_pow(block.header.work_digest(), block.header.nonce, bits):
            return True, ""
        return False, f"nonce misses {bits} leading zero bits"


class PosProof(ProofRule):
    """Slot-based stake selection: producer must match the slot's draw."""

    def __init__(self, registry, run_seed: int, slot_interval_s: float):
        self.registry = registry
        self.run_seed = run_seed
        self.slot_interval_s = slot_interval_s

    def leader(self, slot: int) -> str:
        """The validator drawn to produce the block of this slot."""
        return pos_select(self.registry, self.run_seed, slot)

    def check(self, store: "ChainStore", block: Block) -> tuple[bool, str]:
        ts = block.header.timestamp
        slot = round(ts / self.slot_interval_s)
        if abs(slot * self.slot_interval_s - ts) > 1e-9:
            return False, "timestamp off the slot grid"
        expected = self.leader(slot)
        if block.header.producer != expected:
            return False, f"slot {slot} belongs to {expected}"
        return True, ""


# ---------------------------------------------------------------------------
# The store

@dataclass(slots=True)
class StoredBlock:
    header: BlockHeader
    transactions: Optional[tuple[ChainTransaction, ...]]
    schedule: DifficultySchedule  # difficulty applying to this block's children

    @property
    def height(self) -> int:
        return self.header.height


@dataclass(slots=True)
class AdoptionReport:
    old_height: int
    new_height: int
    orphaned: tuple[bytes, ...]          # digests leaving the adopted branch
    reorged_in: tuple[bytes, ...]        # digests joining it (ancestor -> head order)

    @property
    def head_moved(self) -> bool:
        return bool(self.reorged_in)


class ChainStore:
    """All blocks a node holds, plus the adopted branch and its state."""

    def __init__(self, genesis_allocation: dict[str, int], block_reward: int,
                 capacity: int, proof_rule: ProofRule,
                 schedule: DifficultySchedule, reorg_safety: int):
        self.block_reward = block_reward
        self.capacity = capacity  # most transaction weight one block may hold
        self.proof_rule = proof_rule
        self.reorg_safety = reorg_safety  # fewest recent blocks a prune keeps
        self.genesis_allocation = dict(genesis_allocation)
        self.genesis_supply = sum(genesis_allocation.values())

        genesis_state = ChainState(
            balances=dict(sorted(genesis_allocation.items())),
            sequences={a: 0 for a in sorted(genesis_allocation)},
        )
        header = BlockHeader(
            predecessor=ZERO_DIGEST, tx_root=merkle_root([]),
            state_root=genesis_state.root(), height=0, timestamp=0.0,
            nonce=0, producer=GENESIS_PRODUCER,
        )
        self.genesis_digest = header.digest()

        self.blocks: dict[bytes, StoredBlock] = {}
        self.deltas: dict[bytes, StateDelta] = {}
        self._bytes = {"chain_headers": 0, "chain_bodies": 0, "chain_deltas": 0}
        self._insert(self.genesis_digest, header, (), schedule, None)
        # digest -> height of each block on the adopted branch, genesis first
        self.adopted: dict[bytes, int] = {self.genesis_digest: 0}
        self.head_state = genesis_state.copy()
        self.first_full_block_height = 0

    # -- basic queries ------------------------------------------------------

    @property
    def adopted_head(self) -> bytes:
        """The last entry of the adopted branch."""
        return next(reversed(self.adopted))

    @property
    def head_height(self) -> int:
        return self.adopted[self.adopted_head]

    def adopted_chain(self) -> list[bytes]:
        """Digests of the adopted branch, genesis first."""
        return list(self.adopted)

    def reconstruct_block(self, block_digest: bytes) -> Block:
        sb = self.blocks[block_digest]
        if sb.transactions is None:
            raise HistoryPrunedError(f"body pruned at height {sb.height}")
        return Block(header=sb.header, transactions=sb.transactions)

    def ancestor_at(self, block_digest: bytes, height: int) -> bytes:
        d = block_digest
        while self.blocks[d].height > height:
            d = self.blocks[d].header.predecessor
        if self.blocks[d].height != height:
            raise NotFoundError("no ancestor at that height")
        return d

    # -- state reconstruction ----------------------------------------------

    def state_at(self, block_digest: bytes) -> ChainState:
        """Materialize state as of a block by walking deltas from the head."""
        if block_digest not in self.blocks:
            raise NotFoundError("unknown block")
        state = self.head_state.copy()
        self._walk(state, block_digest)
        return state

    def _walk(self, state: ChainState, target: bytes) -> tuple[list[bytes], list[bytes]]:
        """Turn `state`, the head's state, into `target`'s by reverting and
        applying deltas; returns the blocks that leave the adopted branch
        (head first) and the blocks that join it (ancestor first)."""
        joining: list[bytes] = []
        d = target
        while d not in self.adopted:
            joining.append(d)
            d = self.blocks[d].header.predecessor
        joining.reverse()
        leaving: list[bytes] = []
        for a in reversed(self.adopted):
            if a == d:
                break
            leaving.append(a)
        # every delta is looked up first, so a pruned one leaves `state` whole
        try:
            reverts = [self.deltas[b] for b in leaving]
            applies = [self.deltas[b] for b in joining]
        except KeyError:
            raise HistoryPrunedError("state below the pruned horizon") from None
        for delta in reverts:
            delta.revert(state)
        for delta in applies:
            delta.apply(state)
        return leaving, joining

    # -- validation ---------------------------------------------------------

    def validate_block(self, block: Block) -> ValidationResult:
        header = block.header
        parent = self.blocks.get(header.predecessor)
        if parent is None:
            return ValidationResult(Verdict.UNKNOWN_PARENT, "parent not held")
        if header.height != parent.height + 1:
            return ValidationResult(
                Verdict.WRONG_HEIGHT,
                f"height {header.height} does not follow parent at {parent.height}")

        ok, why = self.proof_rule.check(self, block)
        if not ok:
            return ValidationResult(Verdict.BAD_PROOF, why)

        tx_digests = [t.digest() for t in block.transactions]
        if merkle_root(tx_digests) != header.tx_root:
            return ValidationResult(Verdict.BAD_ROOT, "transaction root mismatch")

        weight = sum(t.weight for t in block.transactions)
        if weight > self.capacity:
            return ValidationResult(
                Verdict.OVER_CAPACITY, f"weight {weight} over capacity {self.capacity}")

        for tx in block.transactions:
            if not tx.verify_signature():
                return ValidationResult(
                    Verdict.BAD_SIGNATURE, f"bad signature from {tx.sender}")

        state = self.state_at(header.predecessor)
        balances, sequences = state.balances, state.sequences
        touched = [account for tx in block.transactions
                   for account in (tx.sender, tx.recipient)]
        if self.block_reward:
            touched.append(header.producer)
        # (balance, sequence, existed) of each touched account before the block
        before = {account: (balances.get(account, 0), sequences.get(account, 0),
                            account in balances) for account in touched}
        for tx in block.transactions:
            refused = state.apply_tx(tx)
            if refused is not None:
                return ValidationResult(*refused)
        if self.block_reward:
            producer = header.producer
            balances[producer] = balances.get(producer, 0) + self.block_reward

        # every touched account holds a balance now, not always a sequence
        changes = {
            account: AccountChange(balance, balances[account],
                                   sequence, sequences.get(account, 0), existed)
            for account, (balance, sequence, existed) in before.items()}

        if state.root() != header.state_root:
            return ValidationResult(Verdict.BAD_ROOT, "state root mismatch")

        return ValidationResult(
            Verdict.ACCEPT, delta=StateDelta(block=header.digest(), changes=changes))

    # -- adoption -----------------------------------------------------------

    def _insert(self, d: bytes, header: BlockHeader,
                transactions: Optional[tuple[ChainTransaction, ...]],
                schedule: DifficultySchedule,
                delta: Optional[StateDelta]) -> StoredBlock:
        """Store one block and count its bytes; None marks a header-only entry."""
        sb = StoredBlock(header, transactions, schedule)
        self.blocks[d] = sb
        self._bytes["chain_headers"] += header.encoded_len()
        if delta is not None:
            self.deltas[d] = delta
            self._bytes["chain_deltas"] += delta.encoded_len()
        if transactions is not None:
            self._bytes["chain_bodies"] += _body_len(transactions)
        return sb

    def _child_schedule(self, block: Block) -> DifficultySchedule:
        sched = self.blocks[block.header.predecessor].schedule
        h = block.header.height
        if h > 0 and h % sched.retarget_window == 0 and h >= sched.retarget_window:
            window_start = self.ancestor_at(
                block.header.predecessor, h - sched.retarget_window)
            observed = block.header.timestamp - self.blocks[window_start].header.timestamp
            observed = max(observed, 1e-9)
            sched = retarget(sched, observed)
        return sched

    def adopt(self, block: Block, result: ValidationResult) -> AdoptionReport:
        """Store a validated block not held yet and move the head if its
        branch is longer; a head move checks the supply."""
        d = block.digest()
        if d in self.blocks or not result.ok or result.delta is None:
            raise ValueError("adopt requires a passing validation result "
                             "for a block not held yet")
        old_height = self.head_height

        sb = self._insert(d, block.header, block.transactions,
                          self._child_schedule(block), result.delta)
        if sb.height <= old_height:
            # side branch no longer than the adopted one: first seen stays
            return AdoptionReport(old_height, old_height, (), ())

        # reorganize onto the longer branch
        orphaned, incoming = self._walk(self.head_state, d)
        for od in orphaned:
            del self.adopted[od]
        for nd in incoming:
            self.adopted[nd] = self.blocks[nd].height
        self.check_conservation()
        return AdoptionReport(old_height, sb.height, tuple(orphaned), tuple(incoming))

    # -- conservation and audit ---------------------------------------------

    def total_supply(self) -> int:
        return sum(self.head_state.balances.values())

    def expected_supply(self) -> int:
        return self.genesis_supply + self.block_reward * self.head_height

    def check_conservation(self) -> None:
        if self.total_supply() != self.expected_supply():
            raise InvariantViolation(
                "chain balance conservation",
                f"supply {self.total_supply()} != "
                f"genesis+rewards {self.expected_supply()}")

    def audit(self) -> None:
        """End-of-run sweep: the supply, and the byte counters against a recount."""
        self.check_conservation()
        recount = self.recount_bytes()
        if recount != self._bytes:
            raise InvariantViolation(
                "ledger size accounting", f"recount {recount} != {self._bytes}")

    # -- size accounting ----------------------------------------------------

    def ledger_bytes(self) -> dict[str, int]:
        return dict(self._bytes)

    def recount_bytes(self) -> dict[str, int]:
        """Full recomputation; audits the incremental counters.

        A counter takes a header or transaction from the bytes it was
        scanned from or encoded to, and the recount each size from the
        stored fields (`field_len`), never from a cache or an encoding. A
        delta is counted and recounted by its field rule, so for deltas the
        audit checks the bookkeeping of insert and prune."""
        headers = sum(sb.header.field_len() for sb in self.blocks.values())
        bodies = sum(
            4 + sum(t.field_len() for t in sb.transactions)
            for sb in self.blocks.values() if sb.transactions is not None)
        deltas = sum(d.encoded_len() for d in self.deltas.values())
        return {"chain_headers": headers, "chain_bodies": bodies,
                "chain_deltas": deltas}

    # -- pruning ------------------------------------------------------------

    def prune(self, keep_recent: int) -> None:
        """Drop bodies and deltas below head height - keep_recent."""
        if keep_recent < self.reorg_safety:
            raise ConfigError(
                f"keep_recent {keep_recent} below reorg safety window {self.reorg_safety}")
        cutoff = self.head_height - keep_recent
        if cutoff > 0:
            for d, sb in self.blocks.items():
                if sb.height >= cutoff:
                    continue
                if sb.transactions is not None:
                    self._bytes["chain_bodies"] -= _body_len(sb.transactions)
                    sb.transactions = None
                delta = self.deltas.pop(d, None)
                if delta is not None:
                    self._bytes["chain_deltas"] -= delta.encoded_len()
            self.first_full_block_height = max(self.first_full_block_height, cutoff)


# ---------------------------------------------------------------------------
# Assembly

def assemble_block(store: ChainStore, parent_digest: bytes,
                   mempool: Iterable[ChainTransaction],
                   producer: str, timestamp: float) -> Block:
    """Greedy packing in mempool order until the store's capacity is used.

    Transactions that do not fit, or that the transaction rule refuses
    against the evolving block state, are skipped; later ones are still
    considered until the block is full. The produced header carries nonce
    0; grind mining fills it in afterwards.
    """
    parent = store.blocks.get(parent_digest)
    if parent is None:
        raise OrphanParentError("cannot assemble on an unknown parent")
    state = store.state_at(parent_digest)
    chosen: list[ChainTransaction] = []
    room = store.capacity
    for tx in mempool:
        if tx.weight > room or state.apply_tx(tx) is not None:
            continue
        chosen.append(tx)
        room -= tx.weight
        if not room:
            break  # no positive weight fits, and the rule refuses the rest
    if store.block_reward:
        state.balances[producer] = state.balance(producer) + store.block_reward
    header = BlockHeader(
        predecessor=parent_digest,
        tx_root=merkle_root([t.digest() for t in chosen]),
        state_root=state.root(),
        height=parent.height + 1,
        timestamp=timestamp,
        nonce=0,
        producer=producer,
    )
    return Block(header=header, transactions=tuple(chosen))


# ---------------------------------------------------------------------------
# Fast sync

def fast_sync(source: ChainStore,
              pivot_offset: int = DEFAULT_FASTSYNC_PIVOT_OFFSET) -> ChainStore:
    """Bootstrap a new store from a source node.

    Headers come over for the whole adopted chain; state is materialized at
    pivot = head - pivot_offset and blocks from there on are fully replayed.
    A source no longer than the offset has its pivot at genesis, so every
    block is replayed. The resulting head state root must equal the
    source's, else SyncError.
    """
    chain = source.adopted_chain()
    pivot_height = max(source.head_height - pivot_offset, 0)

    fresh = ChainStore(
        genesis_allocation=source.genesis_allocation,
        block_reward=source.block_reward,
        capacity=source.capacity,
        proof_rule=source.proof_rule,
        schedule=source.blocks[source.genesis_digest].schedule,
        reorg_safety=source.reorg_safety,
    )
    if fresh.genesis_digest != source.genesis_digest:
        raise SyncError("genesis reconstruction mismatch")
    if source.first_full_block_height > pivot_height:
        raise SyncError("source pruned above the pivot")

    if pivot_height > 0:
        # install headers up to the pivot without bodies or deltas
        for d in chain[1:pivot_height + 1]:
            src = source.blocks[d]
            fresh._insert(d, src.header, None, src.schedule, None)
            fresh.adopted[d] = src.height
        fresh.head_state = source.state_at(chain[pivot_height])
        fresh.first_full_block_height = pivot_height

    for d in chain[pivot_height + 1:]:
        # over the wire, so the new store checks objects of its own
        raw = source.reconstruct_block(d).encode()
        block = Block.decode(codec.scan_frame(raw, Block.FRAMING), raw, {})
        res = fresh.validate_block(block)
        if not res.ok:
            raise SyncError(f"replayed block failed: {res.verdict.value} {res.detail}")
        fresh.adopt(block, res)

    if fresh.adopted_head != source.adopted_head:
        raise SyncError("synced head diverges from source")
    if fresh.head_state.root() != source.head_state.root():
        raise SyncError("synced state root diverges from source")
    return fresh
