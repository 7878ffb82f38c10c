"""Block-lattice ledger: one chain per account, settlement in two halves.

A transfer is a send block on the sender's chain (funds leave immediately)
plus a receive block on the recipient's chain (funds arrive when the
recipient signs them in). Until the receive lands the amount sits in the
pending set, owned by nobody's spendable balance.

Conflicts are two blocks claiming the same predecessor slot of one account.
They are settled by representative vote: each account delegates its settled
balance to a representative, representatives vote for the first valid
candidate they see, and a candidate wins when its summed vote weight is
strictly greatest and clears the quorum fraction of all delegated weight.
Losing blocks and everything built on them are rolled back.

Blocks that reference an unknown predecessor (or an unseen send) are parked
in a bounded FIFO gap buffer and replayed when the missing piece arrives.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import codec
from .codec import U32, U64, U64_MAX, CodecError
from .errors import InvariantViolation, LedgerError, NotFoundError
from .leader_election import WorkCounter, antispam_pow, check_pow
from .primitives import (
    SIGNATURE_DIGESTS,
    ZERO_DIGEST,
    GapBuffer,
    Identity,
    Signature,
    WireObject,
    WireScan,
    digest,
    identity_for,
    sign,
    verify,
)

DEFAULT_QUORUM_FRACTION = 0.5
DEFAULT_GAP_BUFFER = 10_000


class InvalidAmountError(LedgerError):
    """Send amount must be strictly positive."""


class InsufficientBalanceError(LedgerError):
    """Send amount exceeds the account's settled balance."""


class DuplicateReceiveError(LedgerError):
    """The named send was already received."""


class BlockKind(enum.Enum):
    GENESIS = 0
    SEND = 1
    RECEIVE = 2
    REP_CHANGE = 3


_KIND_OF = {k.value: k for k in BlockKind}
# enum members read off the class cost an attribute lookup on every access
_GENESIS, _SEND, _RECEIVE = BlockKind.GENESIS, BlockKind.SEND, BlockKind.RECEIVE
_REP_CHANGE = BlockKind.REP_CHANGE

# the fixed runs of the wire kernels (see `codec`)
_PREDECESSOR_KIND = struct.Struct(">32sB")  # predecessor, kind
_RECEIVE_FIELDS = struct.Struct(">Q32s")  # amount, matched send
_VOTE_FIELDS = struct.Struct(">32s32sQ")  # subject, choice, weight
_VOTE_FIELDS_SIGNER = struct.Struct(">32s32sQI")  # and the signer's length


class BlockScan(WireScan):
    """What an encoded lattice block says, read once for all receivers."""

    __slots__ = ("digest", "account", "predecessor", "kind", "amount",
                 "counterparty", "new_representative", "nonce", "signer")

    def __init__(self, data: bytes, start: int):
        # The offsets first: account at a:b, then predecessor and kind, the
        # kind's fields from c (a text at t:signed_end among them), nonce,
        # signer at s:e, and the signature digests. A string's bounds are
        # checked with the fixed run after it.
        size = len(data)
        a = start + 4
        if a > size:
            raise CodecError("buffer underrun")
        b = a + U32.unpack_from(data, start)[0]
        if b + 33 > size:
            raise CodecError("buffer underrun")
        kind = _KIND_OF.get(data[b + 32])
        if kind is None:
            raise CodecError("unknown lattice block kind")
        c = b + 33
        if kind is _RECEIVE:
            t = signed_end = c + 40  # amount, matched send: no text
        else:
            t = c + 4 if kind is _REP_CHANGE else c + 12  # after the amount
            if t > size:
                raise CodecError("buffer underrun")
            signed_end = t + U32.unpack_from(data, t - 4)[0]
        s = signed_end + 12
        if s > size:
            raise CodecError("buffer underrun")
        e = s + U32.unpack_from(data, s - 4)[0]
        end = e + 64
        if end > size:
            raise CodecError("buffer underrun")
        try:
            self.account = data[a:b].decode()
            self.signer = data[s:e].decode()
            text = None if kind is _RECEIVE else data[t:signed_end].decode()
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc
        self.new_representative = None
        if kind is _RECEIVE:
            self.amount, self.counterparty = _RECEIVE_FIELDS.unpack_from(data, c)
        else:
            self.amount = 0 if kind is _REP_CHANGE else U64.unpack_from(data, c)[0]
            if kind is _SEND:
                self.counterparty = text
            else:
                self.counterparty, self.new_representative = None, text
        self.predecessor = data[b:b + 32]
        self.kind = kind
        (self.nonce,) = U64.unpack_from(data, signed_end)
        self.payload_digest, self.tag = SIGNATURE_DIGESTS.unpack_from(data, e)
        self.start, self.signed_end, self.end = start, signed_end, end
        self.digest = digest(data[start:end])
        self.sd = None


def _block_payload(account: str, predecessor: bytes, kind: BlockKind, amount: int,
                   counterparty: object, new_representative: Optional[str]) -> bytes:
    """A block's signing payload from its fields: the kernel behind
    `LatticeBlock.signing_payload`, which `build_block` hashes before the
    block exists."""
    account = codec.enc_str(account)
    if type(predecessor) is not bytes or len(predecessor) != 32:
        raise codec.digest_error(predecessor)
    head = account + _PREDECESSOR_KIND.pack(predecessor, kind.value)
    if kind is _REP_CHANGE:
        return head + codec.enc_str(new_representative)
    if type(amount) is not int or not 0 <= amount <= U64_MAX:
        raise codec.u64_error(amount)
    if kind is _RECEIVE:
        if type(counterparty) is not bytes or len(counterparty) != 32:
            raise codec.digest_error(counterparty)
        return head + _RECEIVE_FIELDS.pack(amount, counterparty)
    text = codec.enc_str(counterparty if kind is _SEND else new_representative)
    return head + U64.pack(amount) + text


@dataclass(slots=True)
class LatticeBlock(WireObject):
    """One block on one account's chain.

    counterparty is the recipient account id for sends and the matched send's
    digest for receives. new_representative is set by genesis and
    representative-change blocks. The antispam nonce is a small PoW attached
    to every block; it is not covered by the signature.
    """

    account: str
    predecessor: bytes  # zero digest on the first block of a chain
    kind: BlockKind
    amount: int
    counterparty: object  # str (send) | bytes (receive) | None
    new_representative: Optional[str]
    antispam_nonce: int
    signature: Signature

    def signing_payload(self) -> bytes:
        return _block_payload(self.account, self.predecessor, self.kind, self.amount,
                              self.counterparty, self.new_representative)

    def encode(self) -> bytes:
        nonce = self.antispam_nonce
        if type(nonce) is not int or not 0 <= nonce <= U64_MAX:
            raise codec.u64_error(nonce)
        return self.signing_payload() + U64.pack(nonce) + self.signature.encode()

    def field_len(self) -> int:
        """len(self.encode()), from the fields alone: account, predecessor
        and kind, the kind's fields, nonce, signer, signature digests."""
        kind = self.kind
        if kind is _RECEIVE:
            body = 40  # amount, matched send
        elif kind is _REP_CHANGE:
            body = len(codec.enc_str(self.new_representative))
        else:  # an amount, then the recipient or the genesis representative
            body = 8 + len(codec.enc_str(
                self.counterparty if kind is _SEND else self.new_representative))
        # 105: predecessor and kind (33), nonce (8), signature digests (64)
        return 105 + body + (len(codec.enc_str(self.account))
                             + len(codec.enc_str(self.signature.signer)))

    @classmethod
    def decode(cls, s: BlockScan, data: bytes,
               ledger: "LatticeLedger") -> "LatticeBlock":
        """The block scanned in `s`; if `ledger` holds its digest, the held block.

        The digest is taken over the bytes scanned, so a held block is
        returned only for byte-identical input, signature included. A fresh
        block takes its names from the ledger (`LatticeLedger.name`), and its
        digests from the objects the ledger holds for equal values: a held
        predecessor's digest, a pending send's. Its signature's payload digest
        is its signing digest (over `data`) when the two are equal.
        """
        account, predecessor, kind = s.account, s.predecessor, s.kind
        counterparty, text, signer = s.counterparty, s.new_representative, s.signer
        chain = ledger.accounts.get(account)
        if chain is not None:
            held = chain.blocks.get(s.digest)
            if held is not None:
                return held  # its bytes are these, so the rest is valid
            account = chain.account
            prior = chain.blocks.get(predecessor)
            if prior is not None:
                predecessor = prior.digest()
        signer = ledger.name(signer)
        if kind is _SEND:
            counterparty = ledger.name(counterparty)
        elif kind is _RECEIVE:
            pend = ledger.pending.get(counterparty)
            if pend is not None:
                counterparty = pend.send_digest
        if text is not None:
            text = ledger.name(text)
        sd = s.signing_digest(data)
        block = cls(account, predecessor, kind, s.amount, counterparty, text,
                    s.nonce, s.signature(signer, sd))
        block._sd = sd
        block._digest = s.digest
        block._size = s.end - s.start
        return block

    def verify_signature(self) -> bool:
        return verify(self.signature, self.account, self.signing_digest())


def build_block(identity: Identity, predecessor: bytes, kind: BlockKind,
                amount: int = 0, counterparty: object = None,
                new_representative: Optional[str] = None, spam_bits: int = 0,
                counter: WorkCounter | None = None) -> LatticeBlock:
    """Sign and spam-stamp a block for the given identity, hashing its
    signing payload from the fields, before the one block is built."""
    sd = digest(_block_payload(identity.id, predecessor, kind, amount,
                               counterparty, new_representative))
    nonce = antispam_pow(sd, spam_bits, counter) if spam_bits > 0 else 0
    return _signed_block(identity.id, predecessor, kind, amount, counterparty,
                         new_representative, nonce, sign(identity, sd))


def _signed_block(account: str, predecessor: bytes, kind: BlockKind,
                  amount: int, counterparty: object,
                  new_representative: Optional[str], nonce: int,
                  signature: Signature, d: Optional[bytes] = None,
                  size: Optional[int] = None) -> LatticeBlock:
    """A new block, not a decoded one, with the signing digest it was signed
    over cached, and its digest and encoded length when they are known."""
    block = LatticeBlock(account, predecessor, kind, amount, counterparty,
                         new_representative, nonce, signature)
    block._sd, block._digest, block._size = signature.payload_digest, d, size
    return block


# (account, amount, representative, spam bits) -> (signing digest, nonce,
# tag, digest, size) of that genesis block; bounded, like `codec.NAME_FIELDS`,
# by the genesis allocations the process has seen
GENESIS_VALUES: dict[tuple[str, int, str, int], tuple[bytes, int, bytes, bytes, int]] = {}


def genesis_block(identity: Identity, amount: int, representative: str,
                  spam_bits: int) -> LatticeBlock:
    """The genesis block that opens `identity`'s chain, a new object.

    Every ledger of a run opens the same chains, so the block's values are
    signed, stamped and hashed once per process (`GENESIS_VALUES`), and
    each later ledger builds its own block and signature around them.
    """
    key = (identity.id, amount, representative, spam_bits)
    values = GENESIS_VALUES.get(key)
    if values is None:
        block = build_block(identity, ZERO_DIGEST, _GENESIS, amount=amount,
                            new_representative=representative, spam_bits=spam_bits)
        GENESIS_VALUES[key] = (block._sd, block.antispam_nonce, block.signature.tag,
                               block.digest(), block.encoded_len())
        return block
    sd, nonce, tag, d, size = values
    return _signed_block(identity.id, ZERO_DIGEST, _GENESIS, amount, None,
                         representative, nonce, Signature(identity.id, sd, tag),
                         d, size)


@dataclass(slots=True)
class PendingSend:
    """A settled send waiting for its receive: a plain slotted record,
    write-once like the wire types (`primitives.WireObject`)."""

    send_digest: bytes
    recipient: str
    amount: int

    def encode(self) -> bytes:
        return (codec.enc_digest(self.send_digest) + codec.enc_str(self.recipient)
                + codec.enc_u64(self.amount))

    def encoded_len(self) -> int:
        """len(self.encode()), from the recipient's name alone."""
        # a digest, a length-prefixed name and an amount
        return 40 + len(codec.enc_str(self.recipient))


class VoteScan(WireScan):
    """What an encoded vote says, read once for all receivers."""

    __slots__ = ("representative", "subject", "choice", "weight", "signer")

    def __init__(self, data: bytes, start: int):
        # representative, the fixed fields with the signer's length, signer,
        # signature digests
        size = len(data)
        p = start + 4
        if p > size:
            raise CodecError("buffer underrun")
        q = p + U32.unpack_from(data, start)[0]
        if q + 76 > size:
            raise CodecError("buffer underrun")
        self.subject, self.choice, self.weight, n = _VOTE_FIELDS_SIGNER.unpack_from(data, q)
        at = q + 76
        stop = at + n
        end = stop + 64
        if end > size:
            raise CodecError("buffer underrun")
        try:
            self.representative, self.signer = data[p:q].decode(), data[at:stop].decode()
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc
        self.payload_digest, self.tag = SIGNATURE_DIGESTS.unpack_from(data, stop)
        self.start, self.signed_end, self.end = start, q + 72, end
        self.sd = None


def _vote_payload(representative: str, subject: bytes, choice: bytes,
                  weight: int) -> bytes:
    """A vote's signing payload from its fields: the kernel behind
    `VoteRecord.signing_payload`, which `make_vote` hashes before the vote
    exists."""
    representative = codec.enc_str(representative)
    if type(subject) is not bytes or len(subject) != 32:
        raise codec.digest_error(subject)
    if type(choice) is not bytes or len(choice) != 32:
        raise codec.digest_error(choice)
    if type(weight) is not int or not 0 <= weight <= U64_MAX:
        raise codec.u64_error(weight)
    return representative + _VOTE_FIELDS.pack(subject, choice, weight)


@dataclass(slots=True)
class VoteRecord(WireObject):
    """A representative's endorsement of one successor for a disputed slot."""

    representative: str
    subject: bytes  # the disputed predecessor digest
    choice: bytes   # the endorsed successor block digest
    weight: int     # voter's delegated weight at emission time
    signature: Signature

    def signing_payload(self) -> bytes:
        return _vote_payload(self.representative, self.subject, self.choice, self.weight)

    def encode(self) -> bytes:
        return self.signing_payload() + self.signature.encode()

    @classmethod
    def decode(cls, s: VoteScan, data: bytes, ledger: "LatticeLedger",
               block: LatticeBlock) -> "VoteRecord":
        """The vote scanned in `s`, a new object.

        It takes its names from the ledger (`LatticeLedger.name`), and its
        subject and choice from `block`, the block the vote arrived with,
        where they equal its predecessor and digest. Its signing digest is
        hashed over `data`, and its signature's payload digest is its
        signing digest when the two are equal.
        """
        representative, subject, choice = s.representative, s.subject, s.choice
        if subject == block.predecessor:
            subject = block.predecessor
        if choice == block.digest():
            choice = block.digest()
        representative, signer = ledger.name(representative), ledger.name(s.signer)
        sd = s.signing_digest(data)
        vote = cls(representative, subject, choice, s.weight, s.signature(signer, sd))
        vote._sd = sd
        return vote

    def verify_signature(self) -> bool:
        return verify(self.signature, self.representative, self.signing_digest())


def make_vote(identity: Identity, subject: bytes, choice: bytes, weight: int) -> VoteRecord:
    """A vote signed by `identity`, its signing payload hashed from the fields."""
    sd = digest(_vote_payload(identity.id, subject, choice, weight))
    vote = VoteRecord(identity.id, subject, choice, weight, sign(identity, sd))
    vote._sd = sd
    return vote


# ---------------------------------------------------------------------------
# Verdicts and outcomes

class LatticeVerdict(enum.Enum):
    ACCEPT = "accept"
    BAD_SIGNATURE = "bad-signature"
    BAD_POW = "bad-pow"
    FORK_DETECTED = "fork-detected"
    GAP_DETECTED = "gap-detected"          # a predecessor or send not held yet
    UNKNOWN_REFERENCE = "unknown-reference"  # names what can never arrive
    INSUFFICIENT_BALANCE = "insufficient-balance"
    DUPLICATE_RECEIVE = "duplicate-receive"


class OutcomeStatus(enum.Enum):
    APPLIED = "applied"
    PARKED = "parked"
    CONFLICT = "conflict"
    REJECTED = "rejected"
    DUPLICATE = "duplicate"


@dataclass
class Resolution:
    account: str
    subject: bytes
    winner: bytes
    discarded: tuple[bytes, ...]
    winner_weight: int  # the winner's tally
    runner_up: int      # the largest tally among the other candidates


@dataclass(slots=True)
class Outcome:
    status: OutcomeStatus = OutcomeStatus.REJECTED
    verdict: LatticeVerdict = LatticeVerdict.ACCEPT
    detail: str = ""
    applied: list[LatticeBlock] = field(default_factory=list)
    conflicts_opened: list[tuple[str, bytes]] = field(default_factory=list)
    resolutions: list[Resolution] = field(default_factory=list)


@dataclass
class Conflict:
    candidates: dict[bytes, LatticeBlock]
    resolved: Optional[bytes] = None


def resolve_fork(candidates: Iterable[bytes], votes: Iterable[VoteRecord],
                 total_weight: int,
                 quorum_fraction: float = DEFAULT_QUORUM_FRACTION,
                 ) -> tuple[Optional[bytes], dict[bytes, int], bool]:
    """Tally votes over conflicting candidates.

    Returns (winner, tallies, tied). The winner must hold strictly the
    greatest summed weight AND more than quorum_fraction of all delegated
    weight; otherwise the conflict stays undecided (winner None). An exact
    tie at the top is reported through the tied flag.
    """
    tallies: dict[bytes, int] = {c: 0 for c in candidates}
    for v in votes:
        if v.choice in tallies:
            tallies[v.choice] += v.weight
    threshold = quorum_fraction * total_weight
    best = max(tallies.values(), default=0)
    leaders = [c for c, w in sorted(tallies.items()) if w == best and w > 0]
    tied = len(leaders) > 1
    if tied or not leaders:
        return None, tallies, tied
    if best <= threshold:
        return None, tallies, False
    return leaders[0], tallies, False


# ---------------------------------------------------------------------------
# Per-account chain

@dataclass
class AccountChain:
    account: str
    representative: str
    balance: int = 0
    blocks: dict[bytes, LatticeBlock] = field(default_factory=dict)
    order: list[bytes] = field(default_factory=list)

    @property
    def head(self) -> bytes:
        """The frontier: the last block of the chain."""
        return self.order[-1] if self.order else ZERO_DIGEST

    def successor_of(self, predecessor: bytes) -> Optional[bytes]:
        """Digest of the on-chain block sitting directly after `predecessor`."""
        try:
            i = self.order.index(predecessor)
        except ValueError:
            return None
        return self.order[i + 1] if i + 1 < len(self.order) else None


# ---------------------------------------------------------------------------
# The ledger (one node's view)

class LatticeLedger:
    """Everything one node believes about the lattice."""

    def __init__(self, genesis: dict[str, tuple[int, str]],
                 spam_bits: int = 0,
                 quorum_fraction: float = DEFAULT_QUORUM_FRACTION,
                 gap_buffer: int = DEFAULT_GAP_BUFFER):
        self.spam_bits = spam_bits
        self.quorum_fraction = quorum_fraction

        self.accounts: dict[str, AccountChain] = {}
        self.pending: dict[bytes, PendingSend] = {}
        self.settled_of: dict[bytes, tuple[str, bytes]] = {}  # send -> (recipient, receive)
        self.seen: set[bytes] = set()

        self.conflicts: dict[tuple[str, bytes], Conflict] = {}
        # candidate digest -> its conflict's key; a block's key is its own
        # (account, predecessor), so a digest is a candidate in one conflict
        self.conflict_of: dict[bytes, tuple[str, bytes]] = {}
        self.flagged_ties: list[tuple[str, bytes]] = []
        # subject -> representative -> vote; a representative's first stands
        self.votes: dict[bytes, dict[str, VoteRecord]] = {}

        self.parked = GapBuffer(gap_buffer)

        self.rep_weight: dict[str, int] = {}
        self.total_balance = 0
        self.total_pending = 0
        self._bytes_blocks = 0  # held bodies, plus 32 per pruned body's digest
        self._bytes_pending = 0

        # A chain is named by its identity's id, the string that the blocks
        # and votes signed for that account carry (see `name`).
        identities = [identity_for(account) for account in sorted(genesis)]
        for identity in identities:
            self.accounts[identity.id] = AccountChain(
                account=identity.id, representative=genesis[identity.id][1])
        # genesis: every account opens its chain with a signed allocation block
        for identity in identities:
            amount, representative = genesis[identity.id]
            self._apply(genesis_block(identity, amount, self.name(representative),
                                      spam_bits))
        self.genesis_supply = self.total_balance

    # -- queries ------------------------------------------------------------

    def head(self, account: str) -> bytes:
        return self.accounts[account].head

    def name(self, name: str) -> str:
        """This ledger's own string for an account name, else `name` itself.

        Every name the ledger keeps (an account, a recipient, a
        representative, a signer) passes through here, so the blocks and
        votes it retains share one string per account.
        """
        chain = self.accounts.get(name)
        return name if chain is None else chain.account

    def representative_weight(self, representative: str) -> int:
        """Sum of settled balances delegated to this representative."""
        return self.rep_weight.get(representative, 0)

    def recompute_weights(self) -> dict[str, int]:
        """Full-scan oracle for the incrementally tracked weights."""
        out: dict[str, int] = {}
        for account in sorted(self.accounts):
            chain = self.accounts[account]
            out[chain.representative] = out.get(chain.representative, 0) + chain.balance
        return {r: w for r, w in out.items() if w != 0}

    def open_conflicts(self) -> list[tuple[str, bytes]]:
        return sorted(k for k, c in self.conflicts.items() if c.resolved is None)

    # -- conservation and audit ---------------------------------------------

    def check_conservation(self) -> None:
        if self.total_balance + self.total_pending != self.genesis_supply:
            raise InvariantViolation(
                "lattice balance conservation",
                f"settled {self.total_balance} + pending {self.total_pending}"
                f" != genesis {self.genesis_supply}")

    def audit(self) -> None:
        """Rescan sums, supply, weights and bytes; raise on a breach."""
        settled = sum(c.balance for c in self.accounts.values())
        pend = sum(p.amount for p in self.pending.values())
        if (settled, pend) != (self.total_balance, self.total_pending):
            raise InvariantViolation(
                "lattice balance conservation",
                f"audit {settled}/{pend} != counters "
                f"{self.total_balance}/{self.total_pending}")
        self.check_conservation()
        if self.recompute_weights() != self.rep_weight:
            raise InvariantViolation(
                "delegated weight tracking",
                "incremental weights diverged from rescan")
        if self.recount_bytes() != self.ledger_bytes():
            raise InvariantViolation(
                "ledger size accounting",
                "recount != incremental byte totals")

    # -- block creation -----------------------------------------------------

    def create_send(self, account: str, recipient: str, amount: int,
                    counter: WorkCounter | None = None) -> LatticeBlock:
        chain = self._chain(account)
        if amount <= 0:
            raise InvalidAmountError(f"send amount {amount} is not positive")
        if amount > chain.balance:
            raise InsufficientBalanceError(
                f"{account} holds {chain.balance}, cannot send {amount}")
        if recipient not in self.accounts:
            raise NotFoundError(f"unknown recipient {recipient}")
        return build_block(identity_for(account), chain.head, BlockKind.SEND,
                           amount=amount, counterparty=self.name(recipient),
                           spam_bits=self.spam_bits, counter=counter)

    def create_receive(self, account: str, send_digest: bytes,
                       counter: WorkCounter | None = None) -> LatticeBlock:
        chain = self._chain(account)
        pend = self.pending.get(send_digest)
        if pend is None:
            if send_digest in self.settled_of:
                raise DuplicateReceiveError("send already received")
            raise NotFoundError("no matching pending send")
        if pend.recipient != account:
            raise NotFoundError(f"pending send addressed to {pend.recipient}")
        return build_block(identity_for(account), chain.head, BlockKind.RECEIVE,
                           amount=pend.amount, counterparty=send_digest,
                           spam_bits=self.spam_bits, counter=counter)

    def create_rep_change(self, account: str, new_representative: str,
                          counter: WorkCounter | None = None) -> LatticeBlock:
        chain = self._chain(account)
        if new_representative not in self.accounts:
            raise NotFoundError(f"unknown representative {new_representative}")
        return build_block(identity_for(account), chain.head, BlockKind.REP_CHANGE,
                           new_representative=self.name(new_representative),
                           spam_bits=self.spam_bits, counter=counter)

    def _chain(self, account: str) -> AccountChain:
        chain = self.accounts.get(account)
        if chain is None:
            raise NotFoundError(f"unknown account {account}")
        return chain

    # -- validation ---------------------------------------------------------

    def validate_block(self, block: LatticeBlock) -> tuple[LatticeVerdict, str]:
        if not block.verify_signature():
            return LatticeVerdict.BAD_SIGNATURE, f"bad signature from {block.account}"
        if self.spam_bits > 0 and not check_pow(
                block.signing_digest(), block.antispam_nonce, self.spam_bits):
            return LatticeVerdict.BAD_POW, "antispam work below difficulty"

        chain = self.accounts.get(block.account)
        if chain is None:
            # accounts exist only from genesis, so no later block opens one
            return LatticeVerdict.UNKNOWN_REFERENCE, f"unknown account {block.account}"
        kind = block.kind
        if kind is _GENESIS:
            # chains are opened at construction; a second first-block is a fork
            return LatticeVerdict.FORK_DETECTED, "genesis slot is fixed"

        if block.predecessor != chain.head:
            if block.predecessor == ZERO_DIGEST:
                # genesis alone follows the zero digest, and it is fixed
                return LatticeVerdict.UNKNOWN_REFERENCE, "no block but genesis opens a chain"
            if block.predecessor in chain.order:
                return LatticeVerdict.FORK_DETECTED, "predecessor already has a successor"
            return LatticeVerdict.GAP_DETECTED, "predecessor not held"

        if kind is _SEND:
            if block.amount <= 0:
                return LatticeVerdict.INSUFFICIENT_BALANCE, "non-positive amount"
            if block.amount > chain.balance:
                return LatticeVerdict.INSUFFICIENT_BALANCE, (
                    f"{block.account} holds {chain.balance}, sends {block.amount}")
            if block.counterparty not in self.accounts:
                return LatticeVerdict.UNKNOWN_REFERENCE, "unknown recipient"
        elif kind is _RECEIVE:
            pend = self.pending.get(block.counterparty)
            if pend is None:
                if block.counterparty in self.settled_of:
                    return LatticeVerdict.DUPLICATE_RECEIVE, "send already received"
                return LatticeVerdict.GAP_DETECTED, "matched send not held"
            if pend.recipient != block.account:
                return (LatticeVerdict.UNKNOWN_REFERENCE,
                        "no matching pending send for this account")
            if pend.amount != block.amount:
                return LatticeVerdict.INSUFFICIENT_BALANCE, "amount mismatch with pending send"
        else:  # REP_CHANGE
            if block.new_representative not in self.accounts:
                return LatticeVerdict.UNKNOWN_REFERENCE, "unknown representative"
        return LatticeVerdict.ACCEPT, ""

    # -- the single entry point for blocks off the wire ---------------------

    def receive_block(self, block: LatticeBlock, votes: Iterable[VoteRecord] = ()) -> Outcome:
        outcome = Outcome()
        for v in votes:
            self._record_vote(v, outcome)
        outcome.status, outcome.verdict, outcome.detail, released = \
            self._process(block, outcome)
        if released:
            self._drain(released, outcome)
        self.check_conservation()
        return outcome

    def add_vote(self, vote: VoteRecord) -> Outcome:
        outcome = Outcome()
        self._record_vote(vote, outcome)
        self.check_conservation()
        return outcome

    # -- internals ----------------------------------------------------------

    def _drain(self, queue: list[LatticeBlock], outcome: Outcome) -> None:
        """Process released blocks first in, first out; each appends its own."""
        i = 0
        while i < len(queue):
            queue.extend(self._process(queue[i], outcome)[3])
            i += 1

    def _process(self, block: LatticeBlock, outcome: Outcome
                 ) -> tuple[OutcomeStatus, LatticeVerdict, str, list[LatticeBlock]]:
        """Settle one block; returns (status, verdict, detail, released)."""
        d = block.digest()
        if d in self.seen:
            return OutcomeStatus.DUPLICATE, LatticeVerdict.ACCEPT, "", []
        self.seen.add(d)

        key = (block.account, block.predecessor)
        conflict = self.conflicts.get(key)
        if conflict is not None and conflict.resolved not in (None, d):
            return (OutcomeStatus.REJECTED, LatticeVerdict.FORK_DETECTED,
                    "conflict already resolved against this block", [])

        verdict, detail = self.validate_block(block)

        if verdict is LatticeVerdict.ACCEPT:
            self._apply(block)
            outcome.applied.append(block)
            return OutcomeStatus.APPLIED, verdict, detail, self._release_parked(d)

        if verdict is LatticeVerdict.FORK_DETECTED and block.kind is not BlockKind.GENESIS:
            incumbent = self.accounts[block.account].successor_of(block.predecessor)
            self._open_conflict(block, incumbent, outcome)
            return OutcomeStatus.CONFLICT, verdict, detail, self._try_resolve(key, outcome)

        if verdict is LatticeVerdict.GAP_DETECTED:
            missing = block.predecessor
            if missing == self.accounts[block.account].head:
                missing = block.counterparty  # a receive whose send is not held
            self.parked.park(d, block, missing)
            return OutcomeStatus.PARKED, verdict, detail, []

        return OutcomeStatus.REJECTED, verdict, detail, []

    def _release_parked(self, arrived: bytes) -> list[LatticeBlock]:
        released = self.parked.release(arrived)
        for block in released:
            self.seen.discard(block.digest())  # allow a fresh pass
        return released

    def _record_vote(self, vote: VoteRecord, outcome: Outcome) -> None:
        ballot = self.votes.setdefault(vote.subject, {})
        if vote.representative in ballot or not vote.verify_signature():
            return  # the first vote stands, and a forged one never counts
        ballot[vote.representative] = vote
        key = self.conflict_of.get(vote.choice)
        if key is not None and key[1] == vote.subject:
            self._drain(self._try_resolve(key, outcome), outcome)

    def _open_conflict(self, newcomer: LatticeBlock, incumbent_digest: bytes,
                       outcome: Outcome) -> None:
        key = (newcomer.account, newcomer.predecessor)
        conflict = self.conflicts.get(key)
        if conflict is None:
            conflict = Conflict(candidates={})
            self.conflicts[key] = conflict
            outcome.conflicts_opened.append(key)
        if incumbent_digest not in conflict.candidates:
            chain = self.accounts[newcomer.account]
            conflict.candidates[incumbent_digest] = chain.blocks.get(incumbent_digest)
            self.conflict_of[incumbent_digest] = key
        conflict.candidates[newcomer.digest()] = newcomer
        self.conflict_of[newcomer.digest()] = key

    def _try_resolve(self, key: tuple[str, bytes], outcome: Outcome) -> list[LatticeBlock]:
        """Settle an open conflict if its votes decide it; returns the
        parked blocks that the winner's arrival releases."""
        conflict = self.conflicts.get(key)
        if conflict is None or conflict.resolved is not None:
            return []
        winner, tallies, tied = resolve_fork(
            sorted(conflict.candidates), self.votes.get(key[1], {}).values(),
            self.total_balance, self.quorum_fraction)
        if tied and key not in self.flagged_ties:
            self.flagged_ties.append(key)
        if winner is None:
            return []

        account, subject = key
        chain = self.accounts[account]
        incumbent = chain.successor_of(subject)
        discarded: tuple[bytes, ...] = ()
        released: list[LatticeBlock] = []
        if incumbent != winner:  # else the chain already carries the winner
            if incumbent is not None:
                discarded = tuple(self._undo_to(account, subject))
            winner_block = conflict.candidates.get(winner)
            verdict, _ = self.validate_block(winner_block)
            if verdict is LatticeVerdict.ACCEPT:
                self._apply(winner_block)
                outcome.applied.append(winner_block)
                released = self._release_parked(winner)
        conflict.resolved = winner
        if key in self.flagged_ties:
            self.flagged_ties.remove(key)  # a later vote broke the tie
        outcome.resolutions.append(Resolution(
            account=account, subject=subject, winner=winner,
            discarded=discarded,
            winner_weight=tallies[winner],
            runner_up=max((w for c, w in tallies.items() if c != winner), default=0)))
        return released

    # -- state transitions --------------------------------------------------

    def _shift_weight(self, representative: str, delta: int) -> None:
        weight = self.rep_weight.get(representative, 0) + delta
        if weight:
            self.rep_weight[representative] = weight
        else:
            self.rep_weight.pop(representative, None)

    def _adjust_balance(self, chain: AccountChain, delta: int) -> None:
        nb = chain.balance + delta
        if nb < 0:
            raise InvariantViolation("non-negative balances",
                                     f"{chain.account} would hold {nb}")
        chain.balance = nb
        self._shift_weight(chain.representative, delta)
        self.total_balance += delta

    def _delegate(self, chain: AccountChain, representative: str) -> None:
        """Hand the chain's settled balance to another representative."""
        if chain.balance:
            self._shift_weight(chain.representative, -chain.balance)
            self._shift_weight(representative, chain.balance)
        chain.representative = representative

    def _add_pending(self, send_digest: bytes, recipient: str, amount: int) -> None:
        pend = PendingSend(send_digest=send_digest, recipient=recipient, amount=amount)
        self.pending[send_digest] = pend
        self.total_pending += amount
        self._bytes_pending += pend.encoded_len()

    def _take_pending(self, send_digest: bytes) -> PendingSend:
        pend = self.pending.pop(send_digest)
        self.total_pending -= pend.amount
        self._bytes_pending -= pend.encoded_len()
        return pend

    def _apply(self, block: LatticeBlock) -> None:
        d = block.digest()
        chain = self.accounts[block.account]
        kind = block.kind
        if kind is _GENESIS:
            self._delegate(chain, block.new_representative)
            self._adjust_balance(chain, block.amount)
        elif kind is _SEND:
            self._adjust_balance(chain, -block.amount)
            self._add_pending(d, block.counterparty, block.amount)
        elif kind is _RECEIVE:
            pend = self._take_pending(block.counterparty)
            self._adjust_balance(chain, pend.amount)
            self.settled_of[block.counterparty] = (block.account, d)
        else:  # REP_CHANGE
            self._delegate(chain, block.new_representative)

        chain.blocks[d] = block
        chain.order.append(d)
        self._bytes_blocks += block.encoded_len()

    def _undo_to(self, account: str, target: bytes) -> list[bytes]:
        """Roll an account chain back to `target`, cascading through settlements."""
        chain = self.accounts[account]
        discarded: list[bytes] = []
        while chain.head != target:
            d = chain.head
            block = chain.blocks.get(d)
            if block is None:
                raise InvariantViolation(
                    "rollback needs block bodies",
                    f"{account} pruned below an unresolved conflict")
            kind = block.kind
            if kind is BlockKind.GENESIS:
                raise InvariantViolation("genesis is immutable",
                                         f"rollback hit genesis of {account}")
            if kind is BlockKind.SEND:
                settled = self.settled_of.get(d)
                if settled is not None:
                    recipient, receive_digest = settled
                    rblock = self.accounts[recipient].blocks.get(receive_digest)
                    if rblock is None:
                        raise InvariantViolation(
                            "rollback needs block bodies",
                            f"{recipient} pruned below a cascading rollback")
                    discarded.extend(self._undo_to(recipient, rblock.predecessor))
                self._take_pending(d)
                self._adjust_balance(chain, block.amount)
            elif kind is BlockKind.RECEIVE:
                self.settled_of.pop(block.counterparty, None)
                self._adjust_balance(chain, -block.amount)
                self._add_pending(block.counterparty, account, block.amount)
            else:  # REP_CHANGE: restore whatever the chain named before
                self._delegate(chain, self._representative_before(chain, d))

            chain.order.pop()
            chain.blocks.pop(d, None)
            self._bytes_blocks -= block.encoded_len()
            discarded.append(d)
        return discarded

    def _representative_before(self, chain: AccountChain, block_digest: bytes) -> str:
        i = chain.order.index(block_digest)
        for d in reversed(chain.order[:i]):
            blk = chain.blocks.get(d)
            if blk is None:
                raise InvariantViolation("rollback needs block bodies",
                                         f"{chain.account} pruned mid-history")
            if blk.kind in (BlockKind.GENESIS, BlockKind.REP_CHANGE):
                return blk.new_representative
        raise InvariantViolation("chain must start at genesis", chain.account)

    # -- pruning ------------------------------------------------------------

    def prune_to_current(self) -> None:
        """Reduce every undisputed chain to its head block (plus the digest
        index that keeps fork-vs-gap verdicts identical to an archive node);
        a pruned body leaves its 32-byte index entry in the block bytes."""
        open_accounts = {account for account, _ in self.open_conflicts()}
        for account, chain in self.accounts.items():
            if account in open_accounts:
                continue
            for d in list(chain.blocks):
                if d != chain.head:
                    self._bytes_blocks -= chain.blocks.pop(d).encoded_len() - 32

    # -- size accounting ----------------------------------------------------

    def ledger_bytes(self) -> dict[str, int]:
        return {"lattice_blocks": self._bytes_blocks,
                "lattice_pending": self._bytes_pending}

    def recount_bytes(self) -> dict[str, int]:
        """Full recomputation; audits the incremental counters.

        A counter takes a block from the bytes it was scanned from or
        encoded to, and the recount each size from the stored fields
        (`field_len`), never from a cache or an encoding. A pending send is
        counted and recounted by its field rule, so for pending sends the
        audit checks the bookkeeping of insert, take and undo."""
        blocks = sum(b.field_len() for c in self.accounts.values()
                     for b in c.blocks.values())
        index_only = sum(len(c.order) - len(c.blocks) for c in self.accounts.values())
        pend = sum(p.encoded_len() for p in self.pending.values())
        return {"lattice_blocks": blocks + 32 * index_only, "lattice_pending": pend}
