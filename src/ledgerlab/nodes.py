"""Protocol behavior of simulated nodes: mining, gossip, votes, receives.

Wire messages are canonical-encoded with a 1-byte tag. Blocks are broadcast
by their producer; a node that sees a block with an unknown parent parks it
and asks the sender for the missing predecessor (that fetch is the only
recovery path, the transport never retransmits). Lattice blocks are
rebroadcast once per node, representatives attaching their vote, so in a
full mesh every vote reaches every node riding the block it endorses. A
node relays a block it received as the bytes it arrived in, and hands on
the scan it arrived with, so no relay scans the block again; when it holds
no vote for the block but those that arrived with it, the relay is the
message received under its own head, votes and scans and all. It encodes
only the blocks it makes, releases from a park or settles by a vote, and
their first receivers scan them.
Representatives vote on every block their node applies, the receives the
node signs in for its own accounts included.

Every message is scanned whole by `codec.scan_message` with the one framing
table, `FRAMING`, and handed to the handler that its node class keeps for
its tag in `HANDLERS`; a tag with none there is a `CodecError`. Every
message goes out through `Simulation.send`, an injected fork spend from its
attacker's host too. A broadcast or a fork spend reaches each receiver as
one `codec.Broadcast`, scanned once for all of them; a relay's broadcast
comes scanned, with the scans the relay received, or with its block's scan
and its votes scanned anew (`LatticeNode._forward`). Every receiver makes
its own objects and checks their signatures itself; no node shares an
object it keeps.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Iterable, Optional

from . import codec
from .blockchain import (
    Block,
    ChainStore,
    ChainTransaction,
    GrindProof,
    PosProof,
    TxScan,
    Verdict,
    assemble_block,
    make_transaction,
)
from .codec import HEAD, U32, CodecError
from .errors import InvariantViolation
from .lattice import (
    BlockKind,
    BlockScan,
    InsufficientBalanceError,
    LatticeBlock,
    LatticeLedger,
    OutcomeStatus,
    VoteRecord,
    VoteScan,
    make_vote,
)
from .leader_election import WorkCounter, mine
from .primitives import GapBuffer, identity_for
from .recording import RunRecorder
from .simnet import Simulation, derive_rng

MSG_CHAIN_TX = 0
MSG_CHAIN_BLOCK = 1
MSG_CHAIN_REQ = 2
MSG_CHAIN_RESP = 3
MSG_LAT_BLOCK = 10

# The one framing table: what follows each tag's head (see `codec.scan_frame`).
FRAMING = {
    MSG_CHAIN_TX: (TxScan,),
    MSG_CHAIN_BLOCK: Block.FRAMING,
    MSG_CHAIN_REQ: (codec.DigestScan,),  # the digest of the block wanted
    MSG_CHAIN_RESP: Block.FRAMING,
    MSG_LAT_BLOCK: (BlockScan, [VoteScan]),  # a block and the votes for it
}
_VOTES = FRAMING[MSG_LAT_BLOCK][1:]  # what follows a lattice block message's block

TIMER_MINE = 0
TIMER_POS_SLOT = 1

# enum members read off the class cost an attribute lookup on every access
_SEND, _RECEIVE = BlockKind.SEND, BlockKind.RECEIVE

ORPHAN_BUFFER_LIMIT = 10_000


def _chain_block_msg(tag: int, sender: int, block: Block) -> bytes:
    return HEAD.pack(tag, sender) + block.encode()


def _lattice_block_msg(sender: int, block: bytes,
                       votes: list[VoteRecord]) -> bytes:
    """A block message from the block's encoding and the votes it carries."""
    return b"".join([HEAD.pack(MSG_LAT_BLOCK, sender), block,
                     U32.pack(len(votes)), *[v.encode() for v in votes]])


class ChainNode:
    """A blockchain full node, optionally producing blocks.

    The store's proof rule names the consensus flavour: a `PosProof` node
    with a producer id produces in the slots drawn for it; otherwise a node
    with a positive hash rate mines, by literal nonce search under a
    `GrindProof` and by an exponential lottery draw under a `LotteryProof`.
    """

    def __init__(self, node_id: int, store: ChainStore, recorder: RunRecorder,
                 run_seed: int, producer_id: str, hash_rate: float = 0.0):
        self.node_id = node_id
        self.store = store
        self.recorder = recorder
        self.producer_id = producer_id
        self.hash_rate = hash_rate
        self.rng = derive_rng(run_seed, f"miner/{node_id}")
        self.mempool: dict[bytes, ChainTransaction] = {}
        # stale-check work list: (sequence, digest) of each pooled
        # transaction in a min-heap per sender, pushed and popped with the pool
        self._pooled_by_sender: dict[str, list[tuple[int, bytes]]] = {}
        self.parked = GapBuffer(ORPHAN_BUFFER_LIMIT)  # blocks by missing parent
        self._pending_grind: Optional[Block] = None
        self.work = WorkCounter()

    # -- mining -------------------------------------------------------------

    def start(self, sim: Simulation) -> None:
        if isinstance(self.store.proof_rule, PosProof):
            if self.producer_id:
                self._schedule_slot(sim, 1)
        else:
            self._schedule_mining(sim)

    def _schedule_mining(self, sim: Simulation) -> None:
        """Start a work attempt on the adopted head; non-miners do nothing.

        A grind attempt searches its nonce now and fires once this node's
        hash rate would have spent those evaluations; a lottery attempt
        draws its duration and assembles its block when it fires.
        """
        if self.hash_rate <= 0:
            return
        head = self.store.adopted_head
        schedule = self.store.blocks[head].schedule
        if isinstance(self.store.proof_rule, GrindProof):
            block = self._assemble(self.producer_id, sim.now)
            work = block.header.work_digest()
            counter = WorkCounter()
            nonce = mine(work, schedule.difficulty_bits,
                         int.from_bytes(work[:8], "big") ^ self.node_id, counter=counter)
            self.work.add(counter.evaluations)
            self._pending_grind = Block(header=replace(block.header, nonce=nonce),
                                        transactions=block.transactions)
            delay = counter.evaluations / self.hash_rate
        else:
            delay = self.rng.expovariate(self.hash_rate / schedule.difficulty)
        sim.set_timer(self.node_id, delay,
                      codec.enc_u8(TIMER_MINE) + codec.enc_digest(head))

    def _schedule_slot(self, sim: Simulation, slot: int) -> None:
        at = slot * self.store.proof_rule.slot_interval_s
        sim.set_timer(self.node_id, at - sim.now,
                      codec.enc_u8(TIMER_POS_SLOT) + codec.enc_u64(slot))

    def on_timer(self, sim: Simulation, now: float, payload: bytes) -> None:
        tag = payload[0]  # a timer payload is this node's own, never malformed
        if tag == TIMER_MINE:
            if payload[1:] != self.store.adopted_head:
                return  # the chain moved on while this attempt was running
            if isinstance(self.store.proof_rule, GrindProof):
                block = self._pending_grind
                self._pending_grind = None
            else:
                block = self._assemble(self.producer_id, now)
            self._produce(sim, now, block)
        elif tag == TIMER_POS_SLOT:
            slot = int.from_bytes(payload[1:], "big")
            if self.store.proof_rule.leader(slot) == self.producer_id:
                self._produce(sim, now, self._assemble(self.producer_id, now))
            self._schedule_slot(sim, slot + 1)

    def _assemble(self, producer: str, now: float) -> Block:
        return assemble_block(self.store, self.store.adopted_head,
                              self.mempool.values(), producer, now)

    def _produce(self, sim: Simulation, now: float, block: Block) -> None:
        """Record a block made here, adopt it, then broadcast it."""
        self.recorder.blocks_mined.append(
            (now, self.node_id, block.digest(), block.header.height,
             len(block.transactions)))
        self._ingest_block(sim, now, block, sender=self.node_id)
        sim.broadcast(self.node_id,
                      _chain_block_msg(MSG_CHAIN_BLOCK, self.node_id, block))

    # -- messages -----------------------------------------------------------

    def submit_transaction(self, sim: Simulation, tx: ChainTransaction) -> None:
        """Entry point for wallet traffic: pool it here, gossip it once. It is
        encoded once, for the broadcast and for `_pool`'s digest alike."""
        wire = tx.encode_and_cache()
        self._add_to_mempool(tx)
        sim.broadcast(self.node_id, HEAD.pack(MSG_CHAIN_TX, self.node_id) + wire)

    def on_message(self, sim: Simulation, now: float, payload: bytes) -> None:
        tag, sender, scans = codec.scan_message(payload, FRAMING)
        handler = self.HANDLERS.get(tag)
        if handler is None:  # a message of the other paradigm
            raise CodecError(f"ChainNode takes no message tag {tag}")
        handler(self, sim, now, sender, payload, scans)

    def _on_transaction(self, sim, now, sender, data, scans) -> None:
        # a transaction this node pooled is the pooled object, verified once
        self._add_to_mempool(ChainTransaction.decode(scans[0], data, self.mempool))

    def _on_block(self, sim, now, sender, data, scans) -> None:
        self._ingest_block(sim, now, Block.decode(scans, data, self.mempool), sender)

    def _on_fetch(self, sim, now, sender, data, scans) -> None:
        sb = self.store.blocks.get(scans[0].digest)
        if sb is not None and sb.transactions is not None:
            block = Block(header=sb.header, transactions=sb.transactions)
            sim.send(self.node_id, sender,
                     _chain_block_msg(MSG_CHAIN_RESP, self.node_id, block))

    HANDLERS = {MSG_CHAIN_TX: _on_transaction, MSG_CHAIN_BLOCK: _on_block,
                MSG_CHAIN_REQ: _on_fetch, MSG_CHAIN_RESP: _on_block}

    def _add_to_mempool(self, tx: ChainTransaction) -> None:
        if tx.amount > 0 and tx.weight > 0 and tx.verify_signature():
            self._pool(tx)

    def _pool(self, tx: ChainTransaction) -> None:
        """Pool `tx` unless it is pooled already or the head's sequences
        have overtaken it, so no pooled transaction is ever stale."""
        d = tx.digest()
        if d in self.mempool or (
                tx.sequence <= self.store.head_state.sequences.get(tx.sender, 0)):
            return
        self.mempool[d] = tx
        heapq.heappush(self._pooled_by_sender.setdefault(tx.sender, []),
                       (tx.sequence, d))

    def _drop_stale(self, moved_senders: set[str]) -> None:
        """Unpool every transaction the new head's sequences have overtaken.

        `_pool` admits no stale transaction, and a head move raises only
        the sequences of senders with a transaction in a block that just
        joined the adopted branch. Of such a sender's transactions, the
        stale ones are those at the front of its heap, up to the sender's
        new head sequence.
        """
        pool = self.mempool
        head_sequences = self.store.head_state.sequences
        for sender in moved_senders & self._pooled_by_sender.keys():
            heap = self._pooled_by_sender[sender]
            overtaken = head_sequences.get(sender, 0)
            while heap and heap[0][0] <= overtaken:
                del pool[heapq.heappop(heap)[1]]
            if not heap:
                del self._pooled_by_sender[sender]

    def _ingest_block(self, sim: Simulation, now: float, block: Block,
                      sender: int) -> None:
        # Blocks parked on an adopted block are tried next, depth first, from
        # an explicit stack so a long parked run cannot exhaust the call stack.
        stack = [block]
        while stack:
            block = stack.pop()
            d = block.digest()
            if d in self.store.blocks:
                continue
            res = self.store.validate_block(block)
            if res.verdict is Verdict.UNKNOWN_PARENT:
                self._park_and_fetch(sim, d, block, sender)
                continue
            if not res.ok:
                continue
            try:
                report = self.store.adopt(block, res)  # checks supply on a head move
            except InvariantViolation as exc:
                raise exc.at_node(self.node_id) from exc
            self.recorder.adoptions.append(
                (now, self.node_id, report.old_height, report.new_height,
                 report.orphaned, report.reorged_in))
            if report.head_moved:
                # every orphaned transaction goes back through _pool, which
                # refuses those that the new branch holds or overtook
                for od in report.orphaned:
                    for tx in self.store.blocks[od].transactions or ():
                        self._pool(tx)
                self._drop_stale({tx.sender for nd in report.reorged_in
                                  for tx in self.store.blocks[nd].transactions or ()})
                self._schedule_mining(sim)
            stack.extend(reversed(self.parked.release(d)))

    def _park_and_fetch(self, sim: Simulation, d: bytes, block: Block,
                        sender: int) -> None:
        parent = block.header.predecessor
        self.parked.park(d, block, parent)
        sim.send(self.node_id, sender,
                 HEAD.pack(MSG_CHAIN_REQ, self.node_id) + codec.enc_digest(parent))


class LatticeNode:
    """A lattice node hosting accounts; votes if it hosts a representative.

    `receivers` are the hosted accounts that are online: this node signs in
    a receive for each send to one of them.
    """

    def __init__(self, node_id: int, ledger: LatticeLedger, recorder: RunRecorder,
                 receivers: frozenset[str],
                 representative_accounts: tuple[str, ...] = ()):
        self.node_id = node_id
        self.ledger = ledger
        self.recorder = recorder
        self.receivers = receivers
        self.representative_accounts = representative_accounts
        self.work = WorkCounter()

    # -- outbound -----------------------------------------------------------

    def _forward(self, sim: Simulation, block: LatticeBlock,
                 arrival: Optional[tuple] = None) -> None:
        """Broadcast `block` with the votes held for it.

        A block that arrived has its `arrival`: (the message `data`, its
        `scans`, the votes decoded from it, or None if the ballot filter
        dropped one). When the votes held are those, in that order, the
        relay is the message received under this node's head, and it
        carries the arrival's scans. Else the relay is built around the
        block's bytes as they arrived and carries the block's scan, since
        `_lattice_block_msg` puts the block at `HEAD.size` in every message;
        only its votes are scanned anew. Any other block is encoded here.
        """
        node_id, d = self.node_id, block.digest()
        ballot = self.ledger.votes.get(block.predecessor, {})
        votes = [ballot[rep] for rep in sorted(ballot) if ballot[rep].choice == d]
        if arrival is None:
            message = codec.Broadcast(_lattice_block_msg(node_id, block.encode(), votes))
        else:
            data, scans, carried = arrival
            if votes == carried:
                message = codec.Broadcast(HEAD.pack(MSG_LAT_BLOCK, node_id)
                                          + data[HEAD.size:])
            else:
                scan = scans[0]
                message = codec.Broadcast(_lattice_block_msg(
                    node_id, data[scan.start:scan.end], votes))
                scans = [scan, *codec.scan_frame(message, _VOTES, scan.end)]
            message.scanned = (MSG_LAT_BLOCK, node_id, scans)
        sim.broadcast(node_id, message)

    # -- inbound ------------------------------------------------------------

    def on_message(self, sim: Simulation, now: float, payload: bytes) -> None:
        tag, sender, scans = codec.scan_message(payload, FRAMING)
        handler = self.HANDLERS.get(tag)
        if handler is None:  # a message of the other paradigm
            raise CodecError(f"LatticeNode takes no message tag {tag}")
        handler(self, sim, now, sender, payload, scans)

    def _on_block(self, sim, now, sender, data, scans) -> None:
        # A block this ledger holds decodes to the held object. A vote whose
        # representative is on its subject's ballot is dropped undecoded:
        # the first vote stands, so it could not count.
        ledger, (block_scan, vote_scans) = self.ledger, scans
        block = LatticeBlock.decode(block_scan, data, ledger)
        ballots, votes = ledger.votes, []
        for s in vote_scans:
            if s.representative not in ballots.get(s.subject, ()):
                votes.append(VoteRecord.decode(s, data, ledger, block))
        if votes or block_scan.digest not in ledger.seen:
            carried = votes if len(votes) == len(vote_scans) else None
            self._settle(sim, now, block, votes, (data, scans, carried))

    HANDLERS = {MSG_LAT_BLOCK: _on_block}  # gossip is undirected: no sender

    def start(self, sim: Simulation) -> None:
        pass  # lattice behavior is purely reactive

    def on_timer(self, sim: Simulation, now: float, payload: bytes) -> None:
        pass

    # -- settling -----------------------------------------------------------

    def _settle(self, sim: Simulation, now: float, block: LatticeBlock,
                votes: Iterable[VoteRecord] = (),
                arrival: Optional[tuple] = None) -> None:
        """Receive a block, then handle each outcome on one work-list.

        The list starts with the block's outcome, and each receive this node
        signs in for an online hosted account appends its own, so every
        block the node applies takes the same steps: hosted representatives
        vote on it, conflicts and resolutions are recorded, it is forwarded
        once, a receive is recorded, and a due receive is signed in. A
        delivery that applies, opens, resolves and contests nothing (a known
        block bringing new votes) has no step to take and returns at once.
        The block that arrived is forwarded with its `arrival` (see
        `_forward`); every other block is encoded there. A breach raised on
        the way names this node.
        """
        ledger, recorder, node_id = self.ledger, self.recorder, self.node_id
        try:
            outcome = ledger.receive_block(block, votes)
            if not (outcome.applied or outcome.conflicts_opened or outcome.resolutions
                    or outcome.status is OutcomeStatus.CONFLICT):
                return
            arrived = block if arrival is not None else None
            work = [(block, outcome)]
            forwarded: set[bytes] = set()
            for block, outcome in work:  # signing a receive in appends to work
                applied = outcome.applied
                for blk in applied:  # grows with the blocks a vote settles
                    for rep in self.representative_accounts:
                        if rep in ledger.votes.get(blk.predecessor, ()):
                            continue
                        vote = make_vote(identity_for(rep), subject=blk.predecessor,
                                         choice=blk.digest(),
                                         weight=ledger.representative_weight(rep))
                        cast = ledger.add_vote(vote)
                        outcome.conflicts_opened.extend(cast.conflicts_opened)
                        outcome.resolutions.extend(cast.resolutions)
                        applied.extend(cast.applied)
                for account, subject in outcome.conflicts_opened:
                    recorder.conflicts_opened.append((now, node_id, account, subject))
                for res in outcome.resolutions:
                    recorder.conflicts_resolved.append(
                        (now, node_id, res.account, res.subject, res.winner,
                         res.winner_weight, res.runner_up))
                # a conflict candidate is forwarded too, so its rival is heard
                candidate = [block] if outcome.status is OutcomeStatus.CONFLICT else []
                for blk in applied + candidate:
                    d = blk.digest()
                    if d not in forwarded:
                        forwarded.add(d)
                        if blk is arrived:
                            self._forward(sim, blk, arrival)
                        else:
                            self._forward(sim, blk)
                for blk in applied:
                    if blk.kind is _RECEIVE:
                        recorder.receives_applied.append(
                            (now, node_id, blk.counterparty, blk.digest()))
                    elif (blk.kind is _SEND and blk.counterparty in self.receivers
                          and blk.digest() in ledger.pending):  # not received yet
                        receive = ledger.create_receive(
                            blk.counterparty, blk.digest(), counter=self.work)
                        work.append((receive, ledger.receive_block(receive)))
        except InvariantViolation as exc:
            raise exc.at_node(node_id) from exc


# ---------------------------------------------------------------------------
# Traffic drivers

CMD_CHAIN_TX = 0
CMD_LATTICE_SEND = 1
CMD_FORK_INJECT = 2


class MultiDriver:
    """Dispatches driver commands by their leading tag byte."""

    def __init__(self, children: dict[int, object]):
        self.children = children

    def start(self, sim: Simulation) -> None:
        for tag in sorted(self.children):
            self.children[tag].start(sim)

    def on_command(self, sim: Simulation, now: float, payload: bytes) -> None:
        self.children[payload[0]].on_command(sim, now, payload)


class ChainTxDriver:
    """Poisson wallet traffic for the blockchain paradigm; senders are distinct."""

    def __init__(self, run_seed: int, senders: list[str],
                 rate_per_s: float, tx_weight: int, max_amount: int = 5):
        self.senders = senders
        self.rate_per_s = rate_per_s
        self.tx_weight = tx_weight
        self.max_amount = max_amount
        self.rng = derive_rng(run_seed, "driver/chain-tx")
        self.next_sequence = {s: 1 for s in senders}

    def start(self, sim: Simulation) -> None:
        if self.rate_per_s > 0:
            sim.schedule_command(self.rng.expovariate(self.rate_per_s),
                                 bytes([CMD_CHAIN_TX]))

    def on_command(self, sim: Simulation, now: float, payload: bytes) -> None:
        senders = self.senders
        i = self.rng.randrange(len(senders))
        sender = senders[i]
        j = self.rng.randrange(len(senders) - 1)  # among the others: skip i
        recipient = senders[j + (j >= i)]
        amount = self.rng.randint(1, self.max_amount)
        seq = self.next_sequence[sender]
        self.next_sequence[sender] = seq + 1
        tx = make_transaction(identity_for(sender), recipient, amount, seq,
                              self.tx_weight)
        entry = self.rng.randrange(len(sim.nodes))  # any node takes wallet traffic
        sim.nodes[entry].submit_transaction(sim, tx)
        sim.schedule_command(self.rng.expovariate(self.rate_per_s),
                             bytes([CMD_CHAIN_TX]))


class LatticeSendDriver:
    """Poisson send traffic for the lattice paradigm; recipients auto-receive.

    The recipients are distinct names, and every sender is one of them.
    """

    def __init__(self, recorder: RunRecorder, run_seed: int,
                 senders: list[str], recipients: list[str],
                 host_of: dict[str, int],
                 rate_per_s: float, max_amount: int = 5):
        self.recorder = recorder
        self.senders = senders
        self.recipients = recipients
        self.recipient_index = {a: i for i, a in enumerate(recipients)}
        self.host_of = host_of
        self.rate_per_s = rate_per_s
        self.max_amount = max_amount
        self.rng = derive_rng(run_seed, "driver/lattice-send")

    def start(self, sim: Simulation) -> None:
        if self.rate_per_s > 0:
            sim.schedule_command(self.rng.expovariate(self.rate_per_s),
                                 bytes([CMD_LATTICE_SEND]))

    def on_command(self, sim: Simulation, now: float, payload: bytes) -> None:
        sender = self.senders[self.rng.randrange(len(self.senders))]
        skip = self.recipient_index[sender]
        j = self.rng.randrange(len(self.recipients) - 1)  # among the others
        recipient = self.recipients[j + (j >= skip)]
        amount = self.rng.randint(1, self.max_amount)
        node: LatticeNode = sim.nodes[self.host_of[sender]]
        try:
            block = node.ledger.create_send(sender, recipient, amount,
                                            counter=node.work)
        except InsufficientBalanceError:
            block = None  # broke account this tick; traffic continues
        if block is not None:
            self.recorder.sends_created.append(
                (now, node.node_id, block.digest(), sender, recipient, amount))
            node._settle(sim, now, block)  # apply it here and gossip it
        sim.schedule_command(self.rng.expovariate(self.rate_per_s),
                             bytes([CMD_LATTICE_SEND]))


class ForkInjectionDriver:
    """Periodically equivocates: two sends spending the same head."""

    def __init__(self, recorder: RunRecorder, run_seed: int,
                 attackers: list[str], host_of: dict[str, int],
                 interval_s: float, max_amount: int = 5,
                 stop_after_s: float = float("inf")):
        self.recorder = recorder
        self.attackers = attackers
        self.host_of = host_of
        self.interval_s = interval_s
        self.max_amount = max_amount
        self.stop_after_s = stop_after_s
        self.rng = derive_rng(run_seed, "driver/fork-inject")

    def start(self, sim: Simulation) -> None:
        sim.schedule_command(self.interval_s, bytes([CMD_FORK_INJECT]))

    def on_command(self, sim: Simulation, now: float, payload: bytes) -> None:
        if now > self.stop_after_s:
            return  # too close to the horizon for the votes to land
        attacker = self.attackers[self.rng.randrange(len(self.attackers))]
        node: LatticeNode = sim.nodes[self.host_of[attacker]]
        ledger = node.ledger
        others = sorted(a for a in ledger.accounts if a != attacker)
        r1 = others[self.rng.randrange(len(others))]
        r2 = others[self.rng.randrange(len(others) - 1)]
        if r2 == r1:
            r2 = others[-1] if others[-1] != r1 else others[0]
        amount = self.rng.randint(1, self.max_amount)
        head = ledger.head(attacker)
        try:
            a = ledger.create_send(attacker, r1, amount, counter=node.work)
            b = ledger.create_send(attacker, r2, amount + 1, counter=node.work)
        except InsufficientBalanceError:
            sim.schedule_command(self.interval_s, bytes([CMD_FORK_INJECT]))
            return
        self.recorder.conflicts_injected.append((now, head, a.digest(), b.digest()))
        # split delivery: the attacker's host sends one spend to half the
        # network and the other to the rest, itself included, over the links;
        # each spend is one message, scanned once for all who hear it
        msgs = [codec.Broadcast(_lattice_block_msg(node.node_id, x.encode(), []))
                for x in (a, b)]
        targets = sorted(sim.nodes)
        for i, dst in enumerate(targets):
            sim.send(node.node_id, dst, msgs[i >= len(targets) // 2])
        sim.schedule_command(self.interval_s, bytes([CMD_FORK_INJECT]))
