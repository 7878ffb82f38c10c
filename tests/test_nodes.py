"""Wire formats, orphan resolution and driver dispatch.

The full node behaviours (mining loops, orphan fetching, vote-on-apply) are
exercised end to end by the scenario tests in test_runner.py; here we pin the
message encodings and the node-layer cases no scenario preset reaches.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from census import take

from ledgerlab import blockchain, codec, lattice, nodes
from ledgerlab.blockchain import (
    Block,
    ChainStore,
    ChainTransaction,
    DifficultySchedule,
    LotteryProof,
    Verdict,
    assemble_block,
    make_transaction,
)
from ledgerlab.codec import HEAD, CodecError
from ledgerlab.lattice import (
    BlockKind,
    LatticeBlock,
    LatticeLedger,
    LatticeVerdict,
    Outcome,
    OutcomeStatus,
    VoteRecord,
    build_block,
    make_vote,
)
from ledgerlab.metrics import build_report, render_report
from ledgerlab.nodes import (
    CMD_CHAIN_TX,
    CMD_LATTICE_SEND,
    MSG_CHAIN_BLOCK,
    MSG_CHAIN_REQ,
    MSG_CHAIN_RESP,
    MSG_CHAIN_TX,
    MSG_LAT_BLOCK,
    ChainNode,
    LatticeNode,
    MultiDriver,
    _chain_block_msg,
    _lattice_block_msg,
)
from ledgerlab.primitives import ZERO_DIGEST, Signature, identity_for
from ledgerlab.recording import RunRecorder
from ledgerlab.runner import build_simulation, run
from ledgerlab.scenario import preset_config
from ledgerlab.simnet import (
    LinkModel,
    SimEventKind,
    Simulation,
    derive_rng,
    mesh_adjacency,
)
from wire import decode_whole


# ---------------------------------------------------------------------------
# Message encodings


def _store():
    return ChainStore(
        genesis_allocation={"alice": 1000, "bob": 500},
        block_reward=50,
        capacity=10_000,
        proof_rule=LotteryProof(),
        schedule=DifficultySchedule(2.0, 16, 1.0),
        reorg_safety=8,
    )


def test_chain_block_message_round_trip():
    store = _store()
    tx = make_transaction(identity_for("alice"), "bob", 25, 1, 250)
    block = assemble_block(store, store.adopted_head, [tx],
                           producer="miner-0", timestamp=1.0)

    payload = _chain_block_msg(MSG_CHAIN_BLOCK, 3, block)

    tag, sender, scans = codec.scan_message(payload, nodes.FRAMING)
    assert (tag, sender) == (MSG_CHAIN_BLOCK, 3)
    decoded = Block.decode(scans, payload, {})
    assert decoded.digest() == block.digest()
    assert decoded.transactions == block.transactions


def test_lattice_block_message_round_trip_with_votes():
    ledger = LatticeLedger({"carol": (100, "carol"), "home": (40, "home")})
    send = ledger.create_send("carol", "home", 30)
    vote = make_vote(identity_for("home"), send.digest(), send.digest(), 40)

    payload = _lattice_block_msg(6, send.encode(), [vote])

    tag, sender, (block_scan, vote_scans) = codec.scan_message(payload, nodes.FRAMING)
    assert (tag, sender) == (MSG_LAT_BLOCK, 6)
    nothing = LatticeLedger({})
    decoded = LatticeBlock.decode(block_scan, payload, nothing)
    votes = [VoteRecord.decode(s, payload, nothing, decoded) for s in vote_scans]
    assert decoded.digest() == send.digest()
    assert votes == [vote]
    assert votes[0].verify_signature()


def test_a_message_with_trailing_bytes_is_rejected():
    store = _store()
    block = assemble_block(store, store.adopted_head, [],
                           producer="miner-0", timestamp=1.0)
    node, sim = _chain_node()
    with pytest.raises(CodecError, match="1 trailing bytes"):
        node.on_message(sim, 0.0,
                        _chain_block_msg(MSG_CHAIN_BLOCK, 1, block) + b"\x00")
    assert node.store.head_height == 0

    genesis = {"carol": (100, "carol"), "home": (40, "home")}
    send = LatticeLedger(genesis).create_send("carol", "home", 30)
    lattice_node = LatticeNode(1, LatticeLedger(genesis), RunRecorder(),
                               receivers=frozenset({"home"}))
    with pytest.raises(CodecError, match="1 trailing bytes"):
        lattice_node.on_message(sim, 0.0,
                                _lattice_block_msg(0, send.encode(), []) + b"\x00")
    assert lattice_node.ledger.accounts["carol"].balance == 100


# ---------------------------------------------------------------------------
# Orphan resolution


def _source_chain(length):
    source = _store()
    blocks = []
    for height in range(1, length + 1):
        block = assemble_block(source, source.adopted_head, [],
                               producer="miner-1", timestamp=float(height))
        source.adopt(block, source.validate_block(block))
        blocks.append(block)
    return source, blocks


def _chain_node():
    node = ChainNode(0, _store(), RunRecorder(), run_seed=1,
                     producer_id="")
    sim = Simulation(seed=1, link=LinkModel(), adjacency={0: [1], 1: [0]},
                     nodes={0: node})
    return node, sim


def _waiting(node):
    return sum(len(w) for w in node.parked.waiting.values())


def _empty(node):
    return not node.parked.held and not node.parked.waiting


def test_long_parked_run_resolves_without_deep_recursion():
    source, blocks = _source_chain(1200)
    node, sim = _chain_node()

    for block in reversed(blocks[1:]):  # every child before its parent
        node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, block))
    assert node.store.head_height == 0
    assert set(node.parked.held) == {b.digest() for b in blocks[1:]}
    assert len(node.parked.held) == _waiting(node) == 1199
    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, blocks[0]))

    assert node.store.head_height == 1200
    assert node.store.adopted_head == source.adopted_head
    assert _empty(node)


def test_parked_blocks_evict_the_oldest(monkeypatch):
    monkeypatch.setattr(nodes, "ORPHAN_BUFFER_LIMIT", 3)
    _, blocks = _source_chain(5)
    node, sim = _chain_node()

    for block in reversed(blocks[1:]):  # four orphans, each on its own parent
        node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, block))
    # the fourth park went over the limit and dropped the first one parked
    assert blocks[3].digest() not in node.parked.waiting
    assert list(node.parked.waiting) == [b.digest() for b in reversed(blocks[:3])]
    assert list(node.parked.held) == [b.digest() for b in reversed(blocks[1:4])]
    assert len(node.parked.held) == _waiting(node) == 3

    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, blocks[0]))
    assert node.store.head_height == 4  # the evicted tip stays unknown
    assert _empty(node)


def test_both_children_of_a_missing_parent_are_adopted_when_it_arrives():
    source, (parent,) = _source_chain(1)
    children = [assemble_block(source, parent.digest(), [], producer=p,
                               timestamp=2.0)
                for p in ("miner-1", "miner-2")]
    node, sim = _chain_node()

    for child in children:
        node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, child))
    assert node.parked.waiting == {parent.digest(): [c.digest() for c in children]}
    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, parent))

    assert all(c.digest() in node.store.blocks for c in children)
    assert node.store.head_height == 2
    assert node.store.adopted_head == children[0].digest()  # first seen stays
    assert _empty(node)


def test_each_park_of_a_block_from_a_peer_fetches_its_parent(monkeypatch):
    source, (parent,) = _source_chain(1)
    children = [assemble_block(source, parent.digest(), [], producer=p,
                               timestamp=2.0)
                for p in ("miner-1", "miner-2")]
    node, sim = _chain_node()
    sim.nodes[1] = ChainNode(1, source, RunRecorder(), run_seed=1, producer_id="")
    sent = []
    send = sim.send
    monkeypatch.setattr(sim, "send", lambda src, dst, payload:
                        sent.append((src, dst, payload)) or send(src, dst, payload))
    request = (0, 1, codec.enc_u8(MSG_CHAIN_REQ) + codec.enc_u64(0)
               + codec.enc_digest(parent.digest()))

    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, children[0]))
    assert node.parked.waiting == {parent.digest(): [children[0].digest()]}
    assert sent == [request]
    # the parent is still missing, so the second child asks again
    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, children[1]))
    assert sent == [request] * 2

    sim.run(1.0)  # the peer answers both; the first answer releases both children
    assert [(src, dst, p[0]) for src, dst, p in sent[2:]] == [(1, 0, MSG_CHAIN_RESP)] * 2
    assert all(c.digest() in node.store.blocks for c in children)
    assert node.store.head_height == 2
    assert node.store.adopted_head == children[0].digest()
    assert _empty(node)


# ---------------------------------------------------------------------------
# Pooled transactions


def _pooled_node(txs):
    """A chain node that pooled `txs` from the wire, one message each."""
    node, sim = _chain_node()
    for tx in txs:
        node.on_message(sim, 0.0, codec.enc_u8(MSG_CHAIN_TX) + codec.enc_u64(1)
                        + tx.encode())
    return node, sim, [node.mempool[tx.digest()] for tx in txs]


def _alice_pays_bob():
    return [make_transaction(identity_for("alice"), "bob", 5, seq, 10)
            for seq in (1, 2)]


def _tampered(tx):
    """`tx` with one byte of its signature tag flipped."""
    raw = bytearray(tx.encode())
    raw[-1] ^= 1
    return decode_whole(ChainTransaction, bytes(raw))


def _block_on_genesis(txs):
    """A block another node built on genesis, committing to `txs` as given."""
    source = _store()
    return assemble_block(source, source.adopted_head, txs,
                          producer="miner-1", timestamp=1.0)


def _count_verify(monkeypatch):
    calls = []
    real = blockchain.verify
    monkeypatch.setattr(blockchain, "verify",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_block_of_pooled_transactions_decodes_to_them_and_verifies_nothing(
        monkeypatch):
    txs = _alice_pays_bob()
    node, _, pooled = _pooled_node(txs)
    block = _block_on_genesis(txs)
    calls = _count_verify(monkeypatch)

    decoded = decode_whole(Block, block.encode(), node.mempool)

    assert all(d is p for d, p in zip(decoded.transactions, pooled, strict=True))
    assert node.store.validate_block(decoded).ok
    assert calls == []


def test_a_tampered_block_transaction_is_decoded_fresh_and_refused(monkeypatch):
    txs = _alice_pays_bob()
    node, _, pooled = _pooled_node(txs)
    block = _block_on_genesis([txs[0], _tampered(txs[1])])
    calls = _count_verify(monkeypatch)

    decoded = decode_whole(Block, block.encode(), node.mempool)

    assert decoded.transactions[0] is pooled[0]
    fresh = decoded.transactions[1]
    assert fresh is not pooled[1] and fresh.digest() not in node.mempool
    assert node.store.validate_block(decoded).verdict is Verdict.BAD_SIGNATURE
    assert [args[1] for args in calls] == ["alice"]  # the fresh one alone


@pytest.mark.parametrize("tag", [MSG_CHAIN_BLOCK, MSG_CHAIN_RESP],
                         ids=["block", "resp"])
def test_a_delivered_block_reuses_the_pool_and_a_tampered_one_is_refused(
        monkeypatch, tag):
    txs = _alice_pays_bob()
    node, sim, pooled = _pooled_node(txs)
    verdicts = []
    validate = node.store.validate_block
    monkeypatch.setattr(node.store, "validate_block",
                        lambda b: verdicts.append(validate(b)) or verdicts[-1])
    calls = _count_verify(monkeypatch)

    tampered = _block_on_genesis([txs[0], _tampered(txs[1])])
    node.on_message(sim, 1.0, _chain_block_msg(tag, 1, tampered))
    assert [v.verdict for v in verdicts] == [Verdict.BAD_SIGNATURE]
    assert len(calls) == 1 and node.store.head_height == 0

    good = _block_on_genesis(txs)
    node.on_message(sim, 1.0, _chain_block_msg(tag, 1, good))
    assert verdicts[-1].ok and len(calls) == 1
    stored = node.store.blocks[good.digest()].transactions
    assert all(s is p for s, p in zip(stored, pooled, strict=True))
    assert node.mempool == {}


def test_duplicate_lattice_delivery_encodes_nothing(monkeypatch):
    genesis = {"carol": (100, "carol"), "home": (40, "home")}
    send = LatticeLedger(genesis).create_send("carol", "home", 30)
    vote = make_vote(identity_for("carol"), send.predecessor, send.digest(), 100)
    payload = _lattice_block_msg(0, send.encode(), [vote])
    node = LatticeNode(1, LatticeLedger(genesis), RunRecorder(),
                       receivers=frozenset({"home"}), representative_accounts=("home",))
    sim = Simulation(seed=1, link=LinkModel(), adjacency={0: [1], 1: [0]},
                     nodes={1: node})
    encoded = []
    original = LatticeBlock.encode

    def counting_encode(block):
        encoded.append(block)
        return original(block)

    monkeypatch.setattr(LatticeBlock, "encode", counting_encode)

    node.on_message(sim, 1.0, payload)
    assert node.ledger.accounts["home"].balance == 70  # applied and received here
    first = len(encoded)
    assert first > 0  # applying and forwarding do encode

    node.on_message(sim, 2.0, payload)
    assert len(encoded) == first


# ---------------------------------------------------------------------------
# Lattice blocks and votes the ledger already keeps

_GENESIS = {"carol": (100, "carol"), "home": (40, "home")}


def _lattice_node():
    """A node that hosts no account, so it signs and votes for nothing."""
    node = LatticeNode(1, LatticeLedger(_GENESIS), RunRecorder(),
                       receivers=frozenset())
    sim = Simulation(seed=1, link=LinkModel(), adjacency={0: [1], 1: [0]},
                     nodes={1: node})
    return node, sim


def _count_lattice_verify(monkeypatch):
    calls = []
    real = lattice.verify
    monkeypatch.setattr(lattice, "verify",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def _flip_last_byte(obj):
    """The encoding of `obj` with the last byte of its signature tag flipped."""
    raw = bytearray(obj.encode())
    raw[-1] ^= 1
    return bytes(raw)


def _applied_send_with_vote():
    """A node that applied carol's send to home, carried with carol's vote."""
    node, sim = _lattice_node()
    send = LatticeLedger(_GENESIS).create_send("carol", "home", 30)
    vote = make_vote(identity_for("carol"), send.predecessor, send.digest(), 100)
    node.on_message(sim, 1.0, _lattice_block_msg(0, send.encode(), [vote]))
    assert node.ledger.accounts["carol"].balance == 70
    return node, sim, send, vote


def test_a_held_block_decodes_to_the_held_object_and_verifies_nothing(monkeypatch):
    node, sim, send, _ = _applied_send_with_vote()
    held = node.ledger.accounts["carol"].blocks[send.digest()]
    calls = _count_lattice_verify(monkeypatch)

    assert decode_whole(LatticeBlock, send.encode(), node.ledger) is held
    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), []))

    assert node.ledger.accounts["carol"].blocks[send.digest()] is held
    assert calls == []


def test_a_held_block_with_a_flipped_signature_byte_is_decoded_fresh_and_refused(
        monkeypatch):
    node, _, send, _ = _applied_send_with_vote()
    calls = _count_lattice_verify(monkeypatch)

    fresh = decode_whole(LatticeBlock, _flip_last_byte(send), node.ledger)

    assert fresh.digest() not in node.ledger.accounts["carol"].blocks
    assert fresh.signature.tag != send.signature.tag
    out = node.ledger.receive_block(fresh)
    assert out.verdict is LatticeVerdict.BAD_SIGNATURE
    assert len(calls) == 1


def test_votes_from_representatives_on_the_ballot_are_never_decoded(monkeypatch):
    node, sim, send, vote = _applied_send_with_vote()
    before = {subject: dict(ballot) for subject, ballot in node.ledger.votes.items()}
    again = make_vote(identity_for("carol"), send.predecessor, send.digest(), 99)
    decodes = []
    decode = VoteRecord.decode
    monkeypatch.setattr(VoteRecord, "decode", classmethod(
        lambda cls, *args: decodes.append(args) or decode(*args)))

    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [vote, again]))

    assert decodes == []
    assert node.ledger.votes == before
    carol = node.ledger.votes[send.predecessor]["carol"]
    assert carol is before[send.predecessor]["carol"]


@pytest.mark.parametrize("change", ["weight", "tag"])
def test_a_vote_differing_in_one_field_is_decoded_fresh_and_ignored_unverified(
        monkeypatch, change):
    node, sim, send, vote = _applied_send_with_vote()
    stored = node.ledger.votes[send.predecessor]["carol"]
    if change == "weight":
        raw = make_vote(identity_for("carol"), send.predecessor, send.digest(),
                        99).encode()
    else:
        raw = _flip_last_byte(vote)
    calls = _count_lattice_verify(monkeypatch)

    fresh = decode_whole(VoteRecord, raw, node.ledger, send)
    assert fresh is not stored and fresh != stored

    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [fresh]))
    assert calls == []  # carol's first vote stands, so no other is checked
    assert node.ledger.votes[send.predecessor] == {"carol": stored}
    assert node.ledger.votes[send.predecessor]["carol"] is stored


def test_a_block_of_an_account_the_ledger_does_not_know_decodes_fresh():
    node, _ = _lattice_node()
    stranger = build_block(identity_for("dave"), ZERO_DIGEST, BlockKind.SEND,
                           amount=5, counterparty="home")

    fresh = decode_whole(LatticeBlock, stranger.encode(), node.ledger)

    assert fresh is not stranger and fresh == stranger
    assert fresh._sd == stranger.signing_digest()
    assert fresh.counterparty is node.ledger.accounts["home"].account
    assert node.ledger.receive_block(fresh).verdict \
        is LatticeVerdict.UNKNOWN_REFERENCE


def test_a_block_rolled_back_then_delivered_again_decodes_fresh():
    node, sim = _lattice_node()
    source = LatticeLedger(_GENESIS)
    head = source.head("carol")
    loser = source.create_send("carol", "home", 30)
    winner = source.create_send("carol", "home", 31)
    carol_votes_winner = make_vote(identity_for("carol"), head, winner.digest(), 100)

    node.on_message(sim, 1.0, _lattice_block_msg(0, loser.encode(), []))
    held = node.ledger.accounts["carol"].blocks[loser.digest()]
    node.on_message(sim, 2.0,
                    _lattice_block_msg(0, winner.encode(), [carol_votes_winner]))
    [resolution] = node.recorder.conflicts_resolved
    assert resolution[4] == winner.digest()
    assert loser.digest() not in node.ledger.accounts["carol"].blocks

    fresh = decode_whole(LatticeBlock, loser.encode(), node.ledger)

    assert fresh is not held and fresh == loser
    # the ledger saw it before the rollback, as it did when every decode
    # was fresh
    assert node.ledger.receive_block(fresh).status is OutcomeStatus.DUPLICATE
    assert node.ledger.head("carol") == winner.digest()


def test_every_retained_name_is_its_chains_account_string():
    cfg = preset_config("nano-scaling", ["scenario.horizon_s=20"])
    result = run(cfg, 1)
    assert result.breach is None
    sends = votes = 0
    for node in result.nodes.values():
        ledger = node.ledger
        own = ledger.accounts
        for block in (b for c in own.values() for b in c.blocks.values()):
            assert block.account is own[block.account].account
            assert block.signature.signer is block.account
            if block.kind is BlockKind.SEND:
                sends += 1
                assert block.counterparty is own[block.counterparty].account
            if block.new_representative is not None:
                assert block.new_representative is own[block.new_representative].account
        for vote in (v for ballot in ledger.votes.values() for v in ballot.values()):
            votes += 1
            assert vote.representative is own[vote.representative].account
            assert vote.signature.signer is vote.representative
    assert sends and votes


# ---------------------------------------------------------------------------
# One bytes object per digest value in each node


def _held_signed_objects(node):
    """The signed objects a node keeps: its lattice blocks and stored votes,
    or its pooled and stored chain transactions."""
    if isinstance(node, LatticeNode):
        chains, ballots = node.ledger.accounts.values(), node.ledger.votes.values()
        yield from (b for c in chains for b in c.blocks.values())
        yield from (v for ballot in ballots for v in ballot.values())
    else:
        yield from node.mempool.values()
        for sb in node.store.blocks.values():
            yield from sb.transactions or ()


@pytest.mark.parametrize("name,horizon_s", [("nano-scaling", 20),
                                            ("fork-stress", 40),
                                            ("bitcoin-baseline", 60)])
def test_every_held_object_signs_its_own_signing_digest_object(name, horizon_s):
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)
    assert result.breach is None
    held = [obj for node in result.nodes.values()
            for obj in _held_signed_objects(node)]
    assert held
    for obj in held:
        assert obj._sd is obj.signature.payload_digest


def _after_send(send):
    """A ledger that applied `send`, to build the blocks that follow it."""
    source = LatticeLedger(_GENESIS)
    assert source.receive_block(send).status is OutcomeStatus.APPLIED
    return source


def test_a_fresh_block_takes_its_held_predecessors_digest_object():
    node, _, send, _ = _applied_send_with_vote()
    after = _after_send(send).create_send("carol", "home", 10)

    fresh = decode_whole(LatticeBlock, after.encode(), node.ledger)

    assert fresh == after
    held = node.ledger.accounts["carol"].blocks[send.digest()]
    assert fresh.predecessor is held.digest()


def test_a_fresh_receive_takes_its_pending_sends_digest_object():
    node, _, send, _ = _applied_send_with_vote()
    receive = _after_send(send).create_receive("home", send.digest())

    fresh = decode_whole(LatticeBlock, receive.encode(), node.ledger)

    assert fresh == receive
    assert fresh.counterparty is node.ledger.pending[send.digest()].send_digest
    home = node.ledger.accounts["home"]
    assert fresh.predecessor is home.blocks[home.head].digest()


def test_a_fresh_vote_takes_subject_and_choice_from_its_block():
    node, _, send, _ = _applied_send_with_vote()
    stored = node.ledger.votes[send.predecessor]["carol"]
    # equal to the held block, but none of its digests are the held objects
    block = decode_whole(LatticeBlock, send.encode())
    assert block.predecessor == stored.subject and block.predecessor is not stored.subject
    home = identity_for("home")
    same = make_vote(home, send.predecessor, send.digest(), 40)
    rival = make_vote(home, send.predecessor, b"\x07" * 32, 40)

    fresh = decode_whole(VoteRecord, same.encode(), node.ledger, block)
    assert fresh == same
    assert fresh.subject is block.predecessor and fresh.choice is block.digest()

    fresh = decode_whole(VoteRecord, rival.encode(), node.ledger, block)
    assert fresh == rival and fresh.subject is block.predecessor


def test_a_first_vote_takes_subject_and_choice_from_the_block_it_rides_on():
    node, _, send, _ = _applied_send_with_vote()
    block = node.ledger.accounts["carol"].blocks[send.digest()]
    [subject] = [key for key in node.ledger.votes if key == send.predecessor]
    vote = node.ledger.votes[subject]["carol"]

    assert vote.subject is block.predecessor and vote.choice is block.digest()
    assert subject is block.predecessor  # the ballot's key, too


_OTHER_DIGEST = b"\x09" * 32


def _forged(obj):
    """`obj` with a tag over its signing digest, but a signature that names
    another payload digest: a decoder that took the signing digest for the
    payload digest without comparing them would make it verify."""
    sig = obj.signature
    assert sig.payload_digest == obj.signing_digest() != _OTHER_DIGEST
    return replace(obj, signature=Signature(sig.signer, _OTHER_DIGEST, sig.tag))


def _kept_apart(fresh, honest):
    return (fresh.signature.payload_digest == _OTHER_DIGEST
            and fresh.signing_digest() == honest.signing_digest())


def test_a_block_naming_another_payload_digest_is_kept_apart_and_refused():
    node, _ = _lattice_node()
    send = LatticeLedger(_GENESIS).create_send("carol", "home", 30)

    fresh = decode_whole(LatticeBlock, _forged(send).encode(), node.ledger)

    assert _kept_apart(fresh, send)
    assert node.ledger.receive_block(fresh).verdict is LatticeVerdict.BAD_SIGNATURE
    assert node.ledger.accounts["carol"].balance == 100


def test_a_vote_naming_another_payload_digest_is_kept_apart_and_refused():
    node, sim, send, _ = _applied_send_with_vote()
    vote = make_vote(identity_for("home"), send.predecessor, send.digest(), 40)

    fresh = decode_whole(VoteRecord, _forged(vote).encode(), node.ledger, send)

    assert _kept_apart(fresh, vote)
    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [fresh]))
    assert "home" not in node.ledger.votes[send.predecessor]


def test_a_transaction_naming_another_payload_digest_is_kept_apart_and_refused():
    tx = make_transaction(identity_for("alice"), "bob", 5, 1, 10)
    raw = _forged(tx).encode()

    assert _kept_apart(decode_whole(ChainTransaction, raw), tx)
    node, sim = _chain_node()
    node.on_message(sim, 0.0, codec.enc_u8(MSG_CHAIN_TX) + codec.enc_u64(1) + raw)
    assert node.mempool == {}


def _trace_and_report_sha(name, horizon_s):
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)
    text = render_report(build_report(result))
    return result, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_same_run(monkeypatch, name, horizon_s, change):
    """A run and its rerun after `change(monkeypatch)` have one trace and
    one report."""
    reused, reused_sha = _trace_and_report_sha(name, horizon_s)
    if name == "fork-stress":
        assert reused.recorder.conflicts_resolved
    change(monkeypatch)
    fresh, fresh_sha = _trace_and_report_sha(name, horizon_s)
    assert (reused.trace, reused_sha) == (fresh.trace, fresh_sha)


def _decode_fresh(monkeypatch):
    """Every lattice block and vote decoded fresh, against a ledger that
    holds nothing, as if no node held any."""
    nothing = LatticeLedger({})
    block_decode, vote_decode = LatticeBlock.decode, VoteRecord.decode
    monkeypatch.setattr(LatticeBlock, "decode", classmethod(
        lambda cls, s, data, ledger: block_decode(s, data, nothing)))
    monkeypatch.setattr(VoteRecord, "decode", classmethod(
        lambda cls, s, data, ledger, block: vote_decode(s, data, nothing, block)))


def _scan_per_receiver(monkeypatch):
    """Every receiver of a broadcast gets plain bytes, so each scans its own."""
    def broadcast(sim, src, payload):
        for dst in sim.adjacency[src]:
            sim.send(src, dst, bytes(payload))
    monkeypatch.setattr(Simulation, "broadcast", broadcast)


@pytest.mark.parametrize("name,horizon_s", [("nano-scaling", 30),
                                            ("fork-stress", 40)])
def test_decoding_against_the_ledger_changes_no_run(monkeypatch, name, horizon_s):
    _assert_same_run(monkeypatch, name, horizon_s, _decode_fresh)


@pytest.mark.parametrize("name,horizon_s", [("nano-scaling", 30),
                                            ("fork-stress", 40),
                                            ("bitcoin-baseline", 60)])
def test_sharing_a_broadcasts_scans_changes_no_run(monkeypatch, name, horizon_s):
    _assert_same_run(monkeypatch, name, horizon_s, _scan_per_receiver)


# ---------------------------------------------------------------------------
# One scan per broadcast, one object per receiver


def _spy_relays(monkeypatch):
    """A list that gets (node, the votes held, the message, whether it went
    out as the message received) for each block a lattice node forwards."""
    relays, forward, broadcast = [], LatticeNode._forward, Simulation.broadcast
    forwarding = []  # (node, block, arrival) of the forward under way

    def spy_forward(node, sim, block, arrival=None):
        forwarding.append((node, block, arrival))
        try:
            forward(node, sim, block, arrival)
        finally:
            forwarding.pop()

    def spy_broadcast(sim, src, payload):
        if forwarding:
            node, block, arrival = forwarding[-1]
            ballot = node.ledger.votes.get(block.predecessor, {})
            votes = [ballot[rep] for rep in sorted(ballot)
                     if ballot[rep].choice == block.digest()]
            as_received = arrival is not None and payload.scanned[2] is arrival[1]
            relays.append((node, block, votes, payload, as_received))
        broadcast(sim, src, payload)

    monkeypatch.setattr(LatticeNode, "_forward", spy_forward)
    monkeypatch.setattr(Simulation, "broadcast", spy_broadcast)
    return relays


def test_a_broadcast_is_scanned_once_and_decoded_at_every_receiver(monkeypatch):
    scans, decodes, delivered = [], [], []
    relays = _spy_relays(monkeypatch)
    scan_frame = codec.scan_frame
    monkeypatch.setattr(codec, "scan_frame", lambda data, *rest: (
        scans.append(id(data)) or scan_frame(data, *rest)))
    decode = LatticeBlock.decode
    monkeypatch.setattr(LatticeBlock, "decode", classmethod(
        lambda cls, *args: decodes.append(1) or decode(*args)))
    on_message = LatticeNode.on_message
    monkeypatch.setattr(LatticeNode, "on_message", lambda node, sim, now, payload: (
        delivered.append(payload) or on_message(node, sim, now, payload)))

    run(preset_config("nano-baseline", ["scenario.horizon_s=20"]), 1)

    # nano-baseline injects no forks, so every message is a broadcast;
    # `delivered` and `relays` keep each alive, so no two share an id. A
    # relay sent as the message received carries its scans and is never
    # scanned; every other broadcast is scanned once.
    assert {type(p) for p in delivered} == {codec.Broadcast}
    broadcasts = {id(p) for p in delivered}
    assert len(broadcasts) < len(delivered)  # receivers share each broadcast
    as_received = {id(payload) for *_, payload, same in relays if same}
    assert as_received and as_received < broadcasts
    assert len(scans) == len(broadcasts - as_received)
    assert set(scans) == broadcasts - as_received
    assert len(decodes) == len(delivered)


def _scan_fields(scan, data):
    """Every slot of a scan, its signing digest (over `data`) included."""
    slots = [name for cls in type(scan).__mro__
             for name in getattr(cls, "__slots__", ()) if name != "sd"]
    return {name: getattr(scan, name) for name in slots} | {
        "sd": scan.signing_digest(data)}


def test_a_relayed_broadcast_carries_the_scans_its_bytes_give(monkeypatch):
    relayed, broadcast = [], Simulation.broadcast

    def spy(sim, src, payload):
        if type(payload) is codec.Broadcast and payload.scanned is not None:
            relayed.append((bytes(payload), payload.scanned))
        broadcast(sim, src, payload)

    monkeypatch.setattr(Simulation, "broadcast", spy)
    result = run(preset_config("fork-stress", ["scenario.horizon_s=40"]), 1)

    assert result.breach is None and result.recorder.conflicts_resolved
    assert any(vote_scans for _, (_, _, (_, vote_scans)) in relayed)
    for data, (tag, sender, (block_scan, vote_scans)) in relayed:
        fresh_tag, fresh_sender, (fresh_block, fresh_votes) = codec.scan_message(
            data, nodes.FRAMING)
        assert tag == MSG_LAT_BLOCK and (tag, sender) == (fresh_tag, fresh_sender)
        assert _scan_fields(block_scan, data) == _scan_fields(fresh_block, data)
        assert ([_scan_fields(s, data) for s in vote_scans]
                == [_scan_fields(s, data) for s in fresh_votes])


@pytest.mark.parametrize("name,horizon_s", [("nano-scaling", 30),
                                            ("fork-stress", 40)])
def test_every_relay_is_the_message_its_votes_build(monkeypatch, name, horizon_s):
    """A relay that goes out as the message received, under the relay's
    head, is byte for byte the message `_lattice_block_msg` builds from the
    votes held, and the scans it carries are the scans of its bytes; so is
    every relay built anew."""
    relays = _spy_relays(monkeypatch)
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)

    assert result.breach is None
    same = [as_received for *_, as_received in relays]
    assert any(same) and not all(same)  # both paths are taken
    for node, block, votes, payload, _ in relays:
        assert payload == _lattice_block_msg(node.node_id, block.encode(), votes)
        if payload.scanned is None:  # encoded here: its first receiver scans it
            continue
        tag, sender, (block_scan, vote_scans) = payload.scanned
        fresh_tag, fresh_sender, (fresh_block, fresh_votes) = codec.scan_message(
            bytes(payload), nodes.FRAMING)
        assert (tag, sender) == (fresh_tag, fresh_sender) == (MSG_LAT_BLOCK, node.node_id)
        assert _scan_fields(block_scan, payload) == _scan_fields(fresh_block, payload)
        assert ([_scan_fields(s, payload) for s in vote_scans]
                == [_scan_fields(s, payload) for s in fresh_votes])


def test_each_lattice_block_is_scanned_once_however_often_it_is_relayed():
    census = take("nano-scaling", ["scenario.horizon_s=30"], 1)
    scans, blocks = census.scans["BlockScan"]
    assert scans == len(blocks) > 0
    votes, distinct_votes = census.scans["VoteScan"]
    assert votes > len(distinct_votes)  # a vote rides every relay of its block


def _message(tag):
    """A well-formed message of each tag in the framing table."""
    if tag == MSG_CHAIN_TX:
        return _tx_msg(make_transaction(identity_for("alice"), "bob", 5, 1, 10))
    if tag in (MSG_CHAIN_BLOCK, MSG_CHAIN_RESP):
        return _chain_block_msg(tag, 1, _block_on_genesis([]))
    if tag == MSG_CHAIN_REQ:
        return HEAD.pack(MSG_CHAIN_REQ, 1) + bytes(32)
    send = LatticeLedger(_GENESIS).create_send("carol", "home", 30)
    return _lattice_block_msg(0, send.encode(), [])


# where each tag's message has its first string: after the head, or after
# a block header's fixed fields; a block request holds none
_FIRST_TEXT = {MSG_CHAIN_TX: HEAD.size, MSG_LAT_BLOCK: HEAD.size,
               MSG_CHAIN_BLOCK: HEAD.size + 124, MSG_CHAIN_RESP: HEAD.size + 124}
_UNKNOWN_TAG = 99


def _malformed(fault, tag):
    raw = _message(tag)
    if fault == "truncated":
        return raw[:-1]
    if fault == "trailing byte":
        return raw + b"\x00"
    if fault == "unknown tag":
        return bytes([_UNKNOWN_TAG]) + raw[1:]
    if fault == "other paradigm":
        return raw
    at = _FIRST_TEXT[tag] + 4  # the first byte of the string, after its length
    return raw[:at] + b"\xff" + raw[at + 1:]


def _malformed_cases():
    """(receiving paradigm, fault, tag): each tag a node type handles,
    truncated, with a trailing byte and with invalid UTF-8 where it holds
    text; each tag of the other paradigm as it is; and an unknown tag."""
    cases = []
    for paradigm, node_type in (("chain", ChainNode), ("lattice", LatticeNode)):
        for tag in sorted(nodes.FRAMING):
            if tag not in node_type.HANDLERS:
                cases.append((paradigm, "other paradigm", tag))
                continue
            faults = ["invalid utf-8"] if tag in _FIRST_TEXT else []
            cases += [(paradigm, fault, tag)
                      for fault in faults + ["trailing byte", "truncated"]]
        cases.append((paradigm, "unknown tag", MSG_LAT_BLOCK))
    return cases


def _case_id(paradigm, fault, tag):
    """The case's name; a gossiped transaction or lattice block goes unnamed."""
    return f"{paradigm}-{fault}" + ("" if tag in (MSG_CHAIN_TX, MSG_LAT_BLOCK)
                                    else f"-tag{tag}")


@pytest.mark.parametrize("paradigm,fault,tag", _malformed_cases(),
                         ids=[_case_id(*case) for case in _malformed_cases()])
def test_a_malformed_broadcast_fails_alike_at_every_receiver_and_keeps_no_body(
        paradigm, fault, tag):
    receiver = _lattice_node if paradigm == "lattice" else _chain_node
    raw = _malformed(fault, tag)
    broadcast = codec.Broadcast(raw)

    errors = []
    for payload in [broadcast] * 3 + [bytes(raw)] * 3:  # broadcast, then unicasts
        node, sim = receiver()
        with pytest.raises(CodecError) as caught:
            node.on_message(sim, 1.0, payload)
        errors.append(str(caught.value))

    assert len(set(errors)) == 1
    if fault == "other paradigm":
        # the bytes scan: the node type refuses them, and the broadcast keeps
        # only what its bytes say
        assert errors[0] == f"{type(node).__name__} takes no message tag {tag}"
        assert broadcast.scanned is not None
    else:
        assert broadcast.scanned is None  # a failed scan keeps nothing
        if fault == "unknown tag":
            assert errors[0] == f"unknown message tag {_UNKNOWN_TAG}"


_MSG_PING = 200  # a message type that only the test below registers


def test_a_new_message_type_is_one_table_entry_and_one_handler(monkeypatch):
    heard = []
    monkeypatch.setitem(nodes.FRAMING, _MSG_PING, (codec.DigestScan,))
    monkeypatch.setitem(ChainNode.HANDLERS, _MSG_PING,
                        lambda node, sim, now, sender, data, scans:
                        heard.append((node.node_id, sender, scans[0].digest)))
    chain_nodes = {i: ChainNode(i, _store(), RunRecorder(), run_seed=1,
                                producer_id="") for i in range(3)}
    sim = Simulation(seed=1, link=LinkModel(), adjacency=mesh_adjacency(3),
                     nodes=chain_nodes)

    sim.broadcast(0, HEAD.pack(_MSG_PING, 0) + b"\x05" * 32)  # to nodes 1 and 2
    sim.send(2, 0, HEAD.pack(_MSG_PING, 2) + b"\x06" * 32)  # and a unicast
    sim.run(1.0)

    assert sorted(heard) == [(0, 2, b"\x06" * 32), (1, 0, b"\x05" * 32),
                             (2, 0, b"\x05" * 32)]
    node, sim = _lattice_node()  # the other node type has no handler for it
    with pytest.raises(CodecError, match=f"LatticeNode takes no message tag {_MSG_PING}"):
        node.on_message(sim, 1.0, HEAD.pack(_MSG_PING, 0) + bytes(32))


def _spy_receive(monkeypatch, ledger):
    """The (block, votes) of each receive_block call the ledger gets."""
    calls = []
    real = ledger.receive_block
    monkeypatch.setattr(ledger, "receive_block",
                        lambda block, votes=(): calls.append((block, list(votes)))
                        or real(block, votes))
    return calls


def test_a_delivery_that_holds_nothing_new_stops_before_the_ledger(monkeypatch):
    node, sim, send, vote = _applied_send_with_vote()
    calls = _spy_receive(monkeypatch, node.ledger)

    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [vote]))
    node.on_message(sim, 3.0, _lattice_block_msg(0, send.encode(), []))

    assert calls == []


def test_a_held_block_with_a_new_vote_still_records_the_vote(monkeypatch):
    node, sim, send, vote = _applied_send_with_vote()
    home = make_vote(identity_for("home"), send.predecessor, send.digest(), 40)
    calls = _spy_receive(monkeypatch, node.ledger)

    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [vote, home]))

    assert len(calls) == 1
    assert node.ledger.votes[send.predecessor]["home"] == home


@pytest.mark.parametrize("change", ["choice", "weight", "signer",
                                    "payload_digest", "tag"])
def test_a_vote_differing_from_the_stored_one_is_skipped(
        monkeypatch, change):
    node, sim, send, vote = _applied_send_with_vote()
    other = b"\x07" * 32
    if change in ("choice", "weight"):
        changed = replace(vote, **{change: 99 if change == "weight" else other})
    else:
        value = "home" if change == "signer" else other
        changed = replace(vote, signature=replace(vote.signature, **{change: value}))
    stored = node.ledger.votes[send.predecessor]["carol"]
    calls = _spy_receive(monkeypatch, node.ledger)

    node.on_message(sim, 2.0, _lattice_block_msg(0, send.encode(), [changed]))

    assert calls == []  # carol is on the ballot, and her first vote stands
    assert node.ledger.votes[send.predecessor] == {"carol": stored}
    assert node.ledger.votes[send.predecessor]["carol"] is stored


def test_a_held_block_the_ledger_has_not_seen_still_reaches_it(monkeypatch):
    node, sim = _lattice_node()
    chain = node.ledger.accounts["carol"]
    genesis = chain.blocks[chain.order[0]]  # held, but never through _process
    assert genesis.digest() not in node.ledger.seen
    calls = _spy_receive(monkeypatch, node.ledger)

    node.on_message(sim, 1.0, _lattice_block_msg(0, genesis.encode(), []))

    assert calls == [(genesis, [])]
    assert genesis.digest() in node.ledger.seen


@pytest.mark.parametrize("name,horizon_s", [("nano-baseline", 20),
                                            ("fork-stress", 40)])
def test_every_delivery_the_ledger_skips_would_change_nothing(
        monkeypatch, name, horizon_s):
    """Every vote a node drops undecoded, and every delivery it does not
    settle, replayed through `receive_block` after the node is done with it,
    leaves the ballots as they are and is a duplicate."""
    replayed, dropped_votes, unsettled = [], [], []
    on_block, settle = LatticeNode._on_block, LatticeNode._settle
    block_decode, vote_decode = LatticeBlock.decode, VoteRecord.decode
    decoded, settled = set(), []

    def spy_on_block(node, sim, now, sender, data, scans):
        decoded.clear()
        settled.clear()
        on_block(node, sim, now, sender, data, scans)
        ledger, (block_scan, vote_scans) = node.ledger, scans
        dropped = [s for s in vote_scans if id(s) not in decoded]
        if settled and not dropped:
            return
        block = block_decode(block_scan, data, ledger)
        votes = [vote_decode(s, data, ledger, block) for s in dropped]
        dropped_votes.extend(votes)
        if not settled:
            unsettled.append(block)
        before = {subject: dict(ballot) for subject, ballot in ledger.votes.items()}
        replayed.append(ledger.receive_block(block, votes))
        assert ledger.votes == before

    def spy_vote_decode(cls, s, data, ledger, block):
        decoded.add(id(s))
        return vote_decode(s, data, ledger, block)

    monkeypatch.setattr(LatticeNode, "HANDLERS", {MSG_LAT_BLOCK: spy_on_block})
    monkeypatch.setattr(LatticeNode, "_settle", lambda node, *args: (
        settled.append(1) or settle(node, *args)))
    monkeypatch.setattr(VoteRecord, "decode", classmethod(spy_vote_decode))
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)

    assert result.breach is None and dropped_votes and unsettled
    assert all(out == Outcome(status=OutcomeStatus.DUPLICATE) for out in replayed)


# ---------------------------------------------------------------------------
# Stale-mempool eviction


class _RescanNode(ChainNode):
    """Pools every valid transaction, then drops every stale one from the
    whole pool after each message: the oracle for the indexed check."""

    def _pool(self, tx):
        self.mempool.setdefault(tx.digest(), tx)

    def _drop_stale(self, moved_senders):
        pass

    def on_message(self, sim, now, payload):
        super().on_message(sim, now, payload)
        head_sequences = self.store.head_state.sequences
        for d in [d for d, tx in self.mempool.items()
                  if tx.sequence <= head_sequences.get(tx.sender, 0)]:
            del self.mempool[d]


SENDERS = ("alice", "bob", "carol", "dave")


def _pool_store():
    return ChainStore(genesis_allocation={s: 1000 for s in SENDERS},
                      block_reward=50, capacity=8, proof_rule=LotteryProof(),
                      schedule=DifficultySchedule(2.0, 16, 1.0), reorg_safety=8)


def _tx_msg(tx):
    return bytes([MSG_CHAIN_TX]) + (1).to_bytes(8, "big") + tx.encode()


@pytest.mark.parametrize("seed", range(6))
def test_indexed_stale_eviction_matches_full_rescan(seed):
    rng = random.Random(seed)
    txs = [make_transaction(identity_for(sender), rng.choice(SENDERS), rng.randint(1, 40),
                            rng.randint(1, 12), rng.randint(1, 3))
           for sender in SENDERS for _ in range(12)]
    rng.shuffle(txs)

    # branch A grows to six blocks; branch B forks after A's second and
    # overtakes it without alice's and bob's transactions, which A returns
    source = _pool_store()
    branch_a, parent = [], source.adopted_head
    for height in range(1, 7):
        picks = sorted(rng.sample(txs, 10), key=lambda tx: tx.sequence)
        block = assemble_block(source, parent, picks,
                               producer="miner-a", timestamp=float(height))
        source.adopt(block, source.validate_block(block))
        branch_a.append(block)
        parent = block.digest()
    branch_b, parent, returned = [], branch_a[1].digest(), 0
    b_txs = [tx for tx in txs if tx.sender in ("carol", "dave")]
    for height in range(3, 9):
        picks = sorted(rng.sample(b_txs, 6), key=lambda tx: tx.sequence)
        block = assemble_block(source, parent, picks,
                               producer="miner-b", timestamp=height + 0.5)
        report = source.adopt(block, source.validate_block(block))
        rejoined = {tx.digest() for nd in report.reorged_in
                    for tx in source.blocks[nd].transactions}
        returned += sum(tx.digest() not in rejoined for od in report.orphaned
                        for tx in source.blocks[od].transactions)
        branch_b.append(block)
        parent = block.digest()

    # blocks arrive in order, parent first; transactions fall in between
    tx_msgs = iter([_tx_msg(tx) for tx in txs])
    block_msgs = iter([_chain_block_msg(MSG_CHAIN_BLOCK, 1, b)
                       for b in branch_a + branch_b])
    total = len(txs) + len(branch_a) + len(branch_b)
    at_block = set(rng.sample(range(total), len(branch_a) + len(branch_b)))
    events = [next(block_msgs) if i in at_block else next(tx_msgs) for i in range(total)]
    node = ChainNode(0, _pool_store(), RunRecorder(), run_seed=1,
                     producer_id="")
    oracle = _RescanNode(0, _pool_store(), RunRecorder(), run_seed=1,
                         producer_id="")
    sim = Simulation(seed=1, link=LinkModel(), adjacency={0: [1], 1: [0]})
    in_blocks = {tx.digest() for b in branch_a + branch_b for tx in b.transactions}
    heads, evicted = 0, 0
    for msg in events:
        pooled_before = set(node.mempool)
        head_before = node.store.adopted_head
        node.on_message(sim, 0.0, msg)
        oracle.on_message(sim, 0.0, msg)
        assert list(node.mempool.items()) == list(oracle.mempool.items())
        # the heaps index exactly the pooled transactions
        assert sorted((tx.sender, tx.sequence, d) for d, tx in node.mempool.items()) \
            == sorted((sender, *entry) for sender, heap in node._pooled_by_sender.items()
                      for entry in heap)
        assert all(tx.sequence > node.store.head_state.sequences.get(tx.sender, 0)
                   for tx in node.mempool.values())  # and none is stale
        if node.store.adopted_head != head_before:
            heads += 1
            evicted += len(pooled_before - set(node.mempool) - in_blocks)
    assert node.store.adopted_head == branch_b[-1].digest()
    assert heads == len(branch_a) + len(branch_b) - 4  # B's first three tie or trail A
    assert returned > 0 and evicted > 0


def test_a_wallet_transaction_is_encoded_once_for_the_pool_and_the_broadcast(monkeypatch):
    node = ChainNode(1, _pool_store(), RunRecorder(), run_seed=1, producer_id="")
    sim = Simulation(seed=1, link=LinkModel(), adjacency={1: [0], 0: [1]}, nodes={1: node})
    tx = make_transaction(identity_for("alice"), "bob", 5, 1, 10)
    encoded, sent = [], []
    encode = ChainTransaction.encode
    monkeypatch.setattr(ChainTransaction, "encode",
                        lambda self: encoded.append(encode(self)) or encoded[-1])
    monkeypatch.setattr(sim, "send", lambda src, dst, payload: sent.append(payload))
    node.submit_transaction(sim, tx)
    assert len(encoded) == 1
    assert sent == [_tx_msg(tx)]  # re-encodes, after the count
    assert node.mempool == {hashlib.sha256(encoded[0]).digest(): tx}
    assert (tx._digest, tx._size) == (hashlib.sha256(encoded[0]).digest(), len(encoded[0]))


def test_a_depth_two_reorg_pools_the_orphaned_transactions_the_new_branch_lacks():
    tx_a = make_transaction(identity_for("alice"), "bob", 100, 1, 10)
    tx_shared = make_transaction(identity_for("bob"), "alice", 7, 1, 10)
    source = _store()
    genesis = source.adopted_head

    def extend(parent, txs, producer, ts):
        block = assemble_block(source, parent, txs, producer, ts)
        source.adopt(block, source.validate_block(block))
        return block

    a1 = extend(genesis, [tx_a, tx_shared], "miner-a", 1.0)
    a2 = extend(a1.digest(), [], "miner-a", 2.0)
    b1 = extend(genesis, [tx_shared], "miner-b", 1.5)
    b2 = extend(b1.digest(), [], "miner-b", 2.5)
    b3 = extend(b2.digest(), [], "miner-b", 3.5)
    node, sim = _chain_node()

    for block in (a1, a2, b1, b2):
        node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, block))
    assert node.store.adopted_head == a2.digest() and node.mempool == {}
    node.on_message(sim, 0.0, _chain_block_msg(MSG_CHAIN_BLOCK, 1, b3))

    assert node.store.adopted_head == b3.digest()
    # both left with a1; tx_shared came back with b1, so only tx_a is pooled
    assert list(node.mempool) == [tx_a.digest()]
    assert node._pooled_by_sender == {"alice": [(1, tx_a.digest())]}


def test_a_repeated_transaction_message_decodes_to_the_pooled_object(monkeypatch):
    node, sim = _chain_node()
    first = make_transaction(identity_for("alice"), "bob", 5, 1, 10)
    for tx in (first, make_transaction(identity_for("alice"), "bob", 6, 2, 10)):
        node.on_message(sim, 0.0, _tx_msg(tx))
    pool = list(node.mempool.items())
    heaps = {sender: list(heap) for sender, heap in node._pooled_by_sender.items()}
    added = []
    add = node._add_to_mempool
    monkeypatch.setattr(node, "_add_to_mempool", lambda tx: added.append(tx) or add(tx))

    node.on_message(sim, 0.0, _tx_msg(first))

    assert [tx is node.mempool[first.digest()] for tx in added] == [True]
    assert list(node.mempool.items()) == pool
    assert node._pooled_by_sender == heaps


# ---------------------------------------------------------------------------
# Driver dispatch


class _ChildDriver:
    def __init__(self):
        self.started = 0
        self.got = []

    def start(self, sim):
        self.started += 1

    def on_command(self, sim, now, payload):
        self.got.append(payload)


def test_multi_driver_dispatches_on_leading_byte():
    chain_child = _ChildDriver()
    lattice_child = _ChildDriver()
    driver = MultiDriver({CMD_CHAIN_TX: chain_child,
                          CMD_LATTICE_SEND: lattice_child})

    driver.start(None)
    driver.on_command(None, 0.0, bytes([CMD_CHAIN_TX]) + b"x")
    driver.on_command(None, 0.0, bytes([CMD_LATTICE_SEND]) + b"y")

    assert chain_child.started == 1 and lattice_child.started == 1
    assert chain_child.got == [bytes([CMD_CHAIN_TX]) + b"x"]
    assert lattice_child.got == [bytes([CMD_LATTICE_SEND]) + b"y"]


def _listed_draw(rng, senders, recipients):
    """The driver's draw with the recipients other than the sender listed."""
    sender = senders[rng.randrange(len(senders))]
    others = [a for a in recipients if a != sender]
    recipient = others[rng.randrange(len(others))]
    amount = rng.randint(1, 5)
    rng.expovariate(1.0)  # the next command's delay
    return sender, recipient, amount


def test_lattice_send_driver_draws_as_a_list_of_the_other_recipients():
    names = [f"a{i}" for i in range(5)]
    ledger = LatticeLedger({a: (1000, "a0") for a in names})
    node = LatticeNode(0, ledger, RunRecorder(), receivers=frozenset())
    sim = Simulation(seed=1, link=LinkModel(), adjacency={0: []}, nodes={0: node})
    senders, recipients = ["a0", "a1", "a2"], ["a3", "a2", "a0", "a4", "a1"]
    recorder = node.recorder
    driver = nodes.LatticeSendDriver(recorder, 7, senders, recipients,
                                     {a: 0 for a in names}, rate_per_s=1.0)
    twin = derive_rng(7, "driver/lattice-send")

    for _ in range(60):
        driver.on_command(sim, 0.0, bytes([CMD_LATTICE_SEND]))

    drawn = [(s, r, amount) for _, _, _, s, r, amount in recorder.sends_created]
    assert drawn == [_listed_draw(twin, senders, recipients) for _ in range(60)]
    assert {s for s, _, _ in drawn} == set(senders)
    assert all(s != r for s, r, _ in drawn)


def test_every_queued_message_is_a_send_the_fork_spends_included(monkeypatch):
    queued, delivered = [], []
    send, on_message = Simulation.send, LatticeNode.on_message
    monkeypatch.setattr(Simulation, "send", lambda sim, src, dst, payload: (
        queued.append(send(sim, src, dst, payload)) or queued[-1]))
    monkeypatch.setattr(LatticeNode, "on_message", lambda node, sim, now, payload: (
        delivered.append(now) or on_message(node, sim, now, payload)))
    recorder = RunRecorder()
    sim = build_simulation(preset_config("fork-stress", ["scenario.horizon_s=40"]),
                           1, recorder)

    sim.run(40.0)

    pending = sum(entry[2] is SimEventKind.MESSAGE for entry in sim._heap)
    assert len(recorder.conflicts_injected) == 3 and pending
    assert queued.count(True) == len(delivered) + pending


def test_a_fork_injection_does_not_cross_a_partition(monkeypatch):
    # every attacker's host is cut off from 9 to 12 s, across the one
    # injection (at 10 s) that a 20 s run makes
    cfg = preset_config("fork-stress")
    roles, n = cfg.lattice_roles, cfg["net.nodes"]
    hosts = sorted({roles.names.index(a) % n for a in roles.attackers})
    cuts = ";".join(f"9-12:{h}|{','.join(str(v) for v in range(n) if v != h)}"
                    for h in hosts)
    received = []
    receive_block = LatticeLedger.receive_block
    monkeypatch.setattr(LatticeLedger, "receive_block", lambda ledger, block, votes=(): (
        received.append((ledger, block.digest()))
        or receive_block(ledger, block, votes)))

    result = run(preset_config("fork-stress", ["scenario.horizon_s=20",
                                               f"net.partitions={cuts}"]), 1)

    [(_, _, a, b)] = result.recorder.conflicts_injected
    heard = {node_id for node_id, node in result.nodes.items()
             for ledger, d in received if ledger is node.ledger and d in (a, b)}
    assert len(heard) == 1 and heard <= set(hosts)  # only the host itself


# ---------------------------------------------------------------------------
# Settling: a delivery that settles nothing returns before the work-list


def _settles_nothing(outcome):
    return not (outcome.applied or outcome.conflicts_opened or outcome.resolutions
                or outcome.status is OutcomeStatus.CONFLICT)


@pytest.mark.parametrize("name,horizon_s", [("fork-stress", 40),
                                            ("nano-baseline", 20)])
def test_each_settling_forwards_each_applied_block_and_candidate_once(
        monkeypatch, name, horizon_s):
    # one (node id, digests applied or contested) entry per `_settle` call
    settlings, forwards, idle = [], [], []
    settle, forward = LatticeNode._settle, LatticeNode._forward
    receive_block, add_vote = LatticeLedger.receive_block, LatticeLedger.add_vote

    def spy_settle(node, sim, now, block, *rest):
        settlings.append((node.node_id, set()))
        settle(node, sim, now, block, *rest)

    def spy_receive(ledger, block, votes=()):
        outcome = receive_block(ledger, block, votes)
        idle.append(_settles_nothing(outcome))
        settlings[-1][1].update(b.digest() for b in outcome.applied)
        if outcome.status is OutcomeStatus.CONFLICT:
            settlings[-1][1].add(block.digest())
        return outcome

    def spy_add_vote(ledger, vote):
        outcome = add_vote(ledger, vote)
        settlings[-1][1].update(b.digest() for b in outcome.applied)
        return outcome

    monkeypatch.setattr(LatticeNode, "_settle", spy_settle)
    monkeypatch.setattr(LatticeNode, "_forward", lambda node, sim, block, *arrival: (
        forwards.append((node.node_id, block.digest()))
        or forward(node, sim, block, *arrival)))
    monkeypatch.setattr(LatticeLedger, "receive_block", spy_receive)
    monkeypatch.setattr(LatticeLedger, "add_vote", spy_add_vote)

    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)

    assert result.breach is None and any(idle) and not all(idle)
    expected = Counter((node_id, d) for node_id, digests in settlings for d in digests)
    assert Counter(forwards) == expected
    if name == "fork-stress":  # a candidate that later wins is forwarded twice
        assert max(expected.values()) == 2
        assert result.recorder.conflicts_resolved


def test_every_rival_is_forwarded_once_though_only_the_first_opens_a_conflict(
        monkeypatch):
    node, sim = _lattice_node()  # it hosts no representative, so none decides
    fork_point = node.ledger.accounts["carol"].head
    rivals = [build_block(identity_for("carol"), fork_point, BlockKind.SEND,
                          amount=amount, counterparty="home")
              for amount in (10, 20, 30)]
    forwarded, outcomes = [], []
    monkeypatch.setattr(LatticeNode, "_forward",
                        lambda node, sim, block, *arrival: forwarded.append(block))
    receive_block = node.ledger.receive_block
    monkeypatch.setattr(node.ledger, "receive_block", lambda block, votes=(): (
        outcomes.append(receive_block(block, votes)) or outcomes[-1]))

    for at, rival in enumerate(rivals, start=1):
        node.on_message(sim, float(at), _lattice_block_msg(0, rival.encode(), []))

    assert [o.status for o in outcomes] == [OutcomeStatus.APPLIED,
                                            OutcomeStatus.CONFLICT,
                                            OutcomeStatus.CONFLICT]
    assert [len(o.conflicts_opened) for o in outcomes] == [0, 1, 0]
    assert forwarded == rivals


@pytest.mark.parametrize("name,horizon_s", [("nano-baseline", 20),
                                            ("fork-stress", 40)])
def test_a_relayed_block_is_sent_as_the_encoder_builds_it(monkeypatch, name, horizon_s):
    expected, sent = [], []
    forward, broadcast = LatticeNode._forward, Simulation.broadcast

    def spy_forward(node, sim, block, *arrival):
        ballot = node.ledger.votes.get(block.predecessor, {})
        votes = [ballot[rep] for rep in sorted(ballot)
                 if ballot[rep].choice == block.digest()]
        expected.append(_lattice_block_msg(node.node_id, block.encode(), votes))
        forward(node, sim, block, *arrival)

    monkeypatch.setattr(LatticeNode, "_forward", spy_forward)
    monkeypatch.setattr(Simulation, "broadcast", lambda sim, src, payload: (
        sent.append(payload) or broadcast(sim, src, payload)))
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)

    assert result.breach is None and expected
    assert sent == expected


class _NeverEmpty(list):
    """An applied list that reads as non-empty even when it is empty."""

    def __bool__(self):
        return True


def _records(result):
    rec = result.recorder
    return (result.trace, rec.conflicts_opened, rec.conflicts_resolved,
            rec.receives_applied)


@pytest.mark.parametrize("name,horizon_s", [("fork-stress", 40),
                                            ("nano-baseline", 20)])
def test_returning_early_from_an_idle_settling_changes_no_record(
        monkeypatch, name, horizon_s):
    cfg = preset_config(name, [f"scenario.horizon_s={horizon_s}"])
    early = run(cfg, 1)
    receive_block = LatticeLedger.receive_block
    walked = []

    def full_walk(ledger, block, votes=()):
        # every outcome now looks as if it applied something, so `_settle`
        # never returns early and walks its work-list for each delivery
        outcome = receive_block(ledger, block, votes)
        walked.append(_settles_nothing(outcome))
        outcome.applied = _NeverEmpty(outcome.applied)
        return outcome

    monkeypatch.setattr(LatticeLedger, "receive_block", full_walk)
    full = run(cfg, 1)

    assert any(walked)
    assert early.recorder.receives_applied
    assert _records(early) == _records(full)
