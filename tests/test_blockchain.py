"""Chain store: assembly, validation verdicts, reorgs, pruning, fast sync."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from memos import clear_memos
from wire import leaf_by_fields, root_by_fields

from ledgerlab import blockchain, primitives
from ledgerlab.blockchain import (
    AccountChange,
    Block,
    BlockHeader,
    ChainState,
    ChainStore,
    ChainTransaction,
    GrindProof,
    HistoryPrunedError,
    LotteryProof,
    PosProof,
    StateDelta,
    SyncError,
    Verdict,
    assemble_block,
    fast_sync,
    make_transaction,
)
from ledgerlab.errors import ConfigError, InvariantViolation
from ledgerlab.leader_election import (
    DifficultySchedule,
    StakeRegistry,
    mine,
    pos_select,
)
from ledgerlab.primitives import ZERO_DIGEST, Signature, identity_for, merkle_root, sign

ALICE = identity_for("alice")
BOB = identity_for("bob")


def _store(reward=50, reorg_safety=8, difficulty=1.0, capacity=10_000):
    return ChainStore(
        genesis_allocation={"alice": 1000, "bob": 500},
        block_reward=reward,
        capacity=capacity,
        proof_rule=LotteryProof(),
        schedule=DifficultySchedule(2.0, 16, difficulty),
        reorg_safety=reorg_safety,
    )


def _extend(store, txs=(), producer="miner-0", parent=None, ts=None):
    parent = parent if parent is not None else store.adopted_head
    ts = ts if ts is not None else float(store.blocks[parent].height + 1)
    block = assemble_block(store, parent, txs, producer=producer,
                           timestamp=ts)
    result = store.validate_block(block)
    assert result.ok, (result.verdict, result.detail)
    return block, store.adopt(block, result)


def _signed(identity, recipient, amount, sequence, weight):
    """A signed transaction that skips make_transaction's argument checks."""
    unsigned = ChainTransaction(identity.id, recipient, amount, sequence, weight,
                                Signature(identity.id, ZERO_DIGEST, ZERO_DIGEST))
    return ChainTransaction(identity.id, recipient, amount, sequence, weight,
                            sign(identity, unsigned.signing_digest()))


def _forge(store, txs, producer="m", ts=1.0):
    """A block on the head carrying `txs` as given, with both roots right
    for moving their funds but no transaction rule applied."""
    state = store.state_at(store.adopted_head)
    for tx in txs:
        state.balances[tx.sender] = max(state.balance(tx.sender) - tx.amount, 0)
        state.balances[tx.recipient] = state.balance(tx.recipient) + tx.amount
        state.sequences[tx.sender] = tx.sequence
    if store.block_reward:
        state.balances[producer] = state.balance(producer) + store.block_reward
    header = BlockHeader(
        predecessor=store.adopted_head,
        tx_root=merkle_root([t.digest() for t in txs]),
        state_root=state.root(), height=store.head_height + 1,
        timestamp=ts, nonce=0, producer=producer)
    return Block(header=header, transactions=tuple(txs))


# -- assembly ---------------------------------------------------------------


def test_assembly_packs_greedily_and_skips_the_unfit():
    store = _store()
    heavy = make_transaction(ALICE, "carol", 10, sequence=1, weight=9_500)
    too_big = make_transaction(ALICE, "carol", 10, sequence=2, weight=9_000)
    light = make_transaction(BOB, "carol", 5, sequence=1, weight=400)
    block = assemble_block(store, store.adopted_head, [heavy, too_big, light],
                           producer="miner-0", timestamp=1.0)
    # too_big exceeds remaining capacity, later light one still packs
    assert block.transactions == (heavy, light)


def _full_scan(store, pool):
    """The transactions greedy packing chooses when it reads the whole pool."""
    state = store.state_at(store.adopted_head)
    room, chosen = store.capacity, []
    for tx in pool:
        if tx.weight > room or state.apply_tx(tx) is not None:
            continue
        chosen.append(tx)
        room -= tx.weight
    return tuple(chosen)


def test_assembly_stops_reading_the_pool_once_the_block_is_full():
    store = _store()
    fill = [make_transaction(ALICE, "carol", 10, sequence=1, weight=6_000),
            make_transaction(BOB, "carol", 10, sequence=1, weight=4_000)]
    past = [make_transaction(ALICE, "carol", 10, sequence=2, weight=1),
            _signed(BOB, "carol", 10, 2, 0),  # weightless: the rule refuses it
            make_transaction(BOB, "carol", 10, sequence=3, weight=1)]
    read = []

    def pool():
        for tx in fill + past:
            read.append(tx)
            yield tx

    block = assemble_block(store, store.adopted_head, pool(),
                           producer="miner-0", timestamp=1.0)

    assert block.transactions == _full_scan(store, fill + past) == tuple(fill)
    assert block == assemble_block(store, store.adopted_head, fill,
                                   producer="miner-0", timestamp=1.0)
    assert read == fill  # nothing past the full point was read


def test_assembly_skips_overspend_and_stale_sequence():
    store = _store()
    _extend(store, [make_transaction(ALICE, "bob", 100, 1, 10)])
    stale = make_transaction(ALICE, "bob", 1, sequence=1, weight=10)
    broke = make_transaction(ALICE, "bob", 10_000, sequence=2, weight=10)
    fine = make_transaction(ALICE, "bob", 1, sequence=2, weight=10)
    block = assemble_block(store, store.adopted_head, [stale, broke, fine],
                           producer="miner-0", timestamp=2.0)
    assert block.transactions == (fine,)


def test_assembly_respects_funds_spent_earlier_in_the_block():
    store = _store()
    a = make_transaction(ALICE, "bob", 900, sequence=1, weight=10)
    b = make_transaction(ALICE, "bob", 900, sequence=2, weight=10)
    block = assemble_block(store, store.adopted_head, [a, b],
                           producer="miner-0", timestamp=1.0)
    assert block.transactions == (a,)


# -- validation verdicts ----------------------------------------------------


def test_validate_accepts_and_updates_state():
    store = _store()
    tx = make_transaction(ALICE, "bob", 100, sequence=1, weight=10)
    _block, report = _extend(store, [tx])
    assert report.head_moved
    assert store.head_state.balance("alice") == 900
    assert store.head_state.balance("bob") == 600
    assert store.head_state.balance("miner-0") == 50
    assert store.head_state.sequences["alice"] == 1


def test_validate_unknown_parent():
    store = _store()
    other = _store()
    _extend(other, [])
    block, _ = _extend(other, [])
    assert store.validate_block(block).verdict is Verdict.UNKNOWN_PARENT


def test_validate_wrong_height():
    store = _store()
    block = assemble_block(store, store.adopted_head, [], "m", 1.0)
    bad = replace(block, header=replace(block.header, height=5))
    assert store.validate_block(bad).verdict is Verdict.WRONG_HEIGHT


def test_validate_bad_tx_root():
    store = _store()
    tx = make_transaction(ALICE, "bob", 1, 1, 10)
    block = assemble_block(store, store.adopted_head, [tx], "m", 1.0)
    bad = replace(block, transactions=())
    assert store.validate_block(bad).verdict is Verdict.BAD_ROOT


def test_validate_bad_state_root():
    store = _store()
    block = assemble_block(store, store.adopted_head, [], "m", 1.0)
    bad = replace(block, header=replace(block.header, state_root=b"\x00" * 32))
    assert store.validate_block(bad).verdict is Verdict.BAD_ROOT


def test_validate_bad_signature():
    store = _store()
    tx = make_transaction(ALICE, "bob", 1, 1, 10)
    forged = replace(tx, amount=2)  # signature no longer covers the payload
    block = assemble_block(store, store.adopted_head, [tx], "m", 1.0)
    bad = replace(block, transactions=(forged,),
                  header=replace(block.header, tx_root=__import__(
                      "ledgerlab.primitives", fromlist=["merkle_root"]
                  ).merkle_root([forged.digest()])))
    assert store.validate_block(bad).verdict is Verdict.BAD_SIGNATURE


def test_validate_overspend_is_double_spend():
    store = _store()
    tx = make_transaction(ALICE, "bob", 5_000, 1, 10)
    block = assemble_block(store, store.adopted_head, [], "m", 1.0)
    from ledgerlab.primitives import merkle_root
    bad = replace(block, transactions=(tx,),
                  header=replace(block.header, tx_root=merkle_root([tx.digest()])))
    assert store.validate_block(bad).verdict is Verdict.DOUBLE_SPEND


def test_validate_sequence_reuse():
    store = _store()
    tx1 = make_transaction(ALICE, "bob", 10, 1, 10)
    _extend(store, [tx1])
    again = make_transaction(ALICE, "bob", 10, 1, 10)
    from ledgerlab.primitives import merkle_root
    block = assemble_block(store, store.adopted_head, [], "m", 2.0)
    bad = replace(block, transactions=(again,),
                  header=replace(block.header, tx_root=merkle_root([again.digest()])))
    assert store.validate_block(bad).verdict is Verdict.BAD_SEQUENCE


def test_validate_accepts_a_block_filled_exactly_to_capacity():
    store = _store(capacity=1_000)
    full = _forge(store, [make_transaction(ALICE, "bob", 1, 1, 600),
                          make_transaction(BOB, "alice", 1, 1, 400)])
    assert store.validate_block(full).ok


def test_validate_rejects_a_block_over_capacity():
    store = _store(capacity=1_000)
    over = _forge(store, [make_transaction(ALICE, "bob", 1, 1, 600),
                          make_transaction(BOB, "alice", 1, 1, 401)])
    result = store.validate_block(over)
    assert result.verdict is Verdict.OVER_CAPACITY
    assert result.detail == "weight 1001 over capacity 1000"


def test_validate_rejects_a_weightless_transaction():
    store = _store()
    weightless = _signed(ALICE, "bob", 5, 1, 0)
    assert weightless.verify_signature()
    result = store.validate_block(_forge(store, [weightless]))
    assert result.verdict is Verdict.OVER_CAPACITY
    assert result.detail == "non-positive weight"


_ACCOUNTS = [ALICE, BOB, identity_for("carol")]  # carol starts with nothing


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ACCOUNTS),
                          st.sampled_from(["alice", "bob", "carol"]),
                          st.integers(0, 700), st.integers(1, 4),
                          st.integers(0, 600)),
                max_size=12),
       st.integers(1, 2_000))
def test_assembled_blocks_validate_and_skips_get_the_rule_verdict(specs, capacity):
    store, twin = _store(capacity=capacity), _store(capacity=capacity)
    mempool = [_signed(*spec) for spec in specs]
    block = assemble_block(store, store.adopted_head, mempool, "m", 1.0)
    assert twin.validate_block(block).ok

    # walk the pool as assembly did, noting each skip the rule refused
    chosen = list(block.transactions)
    state = twin.state_at(twin.adopted_head)
    refused = []
    for tx in mempool:
        if chosen and tx == chosen[0]:
            chosen.pop(0)
            assert state.apply_tx(tx) is None
        elif state.copy().apply_tx(tx) is not None:
            refused.append(tx)
    assert chosen == []
    for tx in refused:
        expected = state.copy().apply_tx(tx)
        result = twin.validate_block(_forge(twin, list(block.transactions) + [tx]))
        if sum(t.weight for t in block.transactions) + tx.weight > capacity:
            assert result.verdict is Verdict.OVER_CAPACITY
        elif expected is None:  # refused early in the pool, fine at the end
            assert result.ok
        else:
            assert (result.verdict, result.detail) == expected


# -- reorgs -----------------------------------------------------------------


def test_depth_two_reorg_returns_dropped_transactions():
    store = _store()
    genesis = store.adopted_head
    tx_a = make_transaction(ALICE, "bob", 100, sequence=1, weight=10)
    tx_shared = make_transaction(BOB, "carol", 7, sequence=1, weight=10)
    a1, _ = _extend(store, [tx_a, tx_shared], producer="miner-a", ts=1.0)
    a2, _ = _extend(store, [], producer="miner-a", ts=2.0)
    assert store.head_height == 2

    # competing branch from genesis carries only the shared transaction
    b1, rep1 = _extend(store, [tx_shared], producer="miner-b",
                       parent=genesis, ts=1.5)
    assert not rep1.head_moved  # same length loses to first-seen
    b2, rep2 = _extend(store, [], producer="miner-b", parent=b1.digest(), ts=2.5)
    assert not rep2.head_moved
    b3, rep3 = _extend(store, [], producer="miner-b", parent=b2.digest(), ts=3.5)
    assert rep3.head_moved
    assert set(rep3.orphaned) == {a1.digest(), a2.digest()}
    assert rep3.reorged_in == (b1.digest(), b2.digest(), b3.digest())
    # tx_a's block left the adopted branch; tx_shared's new block is on it,
    # three deep, so only tx_a is left to return (a node's pool takes it
    # back, see test_nodes.py)
    assert a1.digest() not in store.adopted
    assert store.head_height - store.adopted[b1.digest()] + 1 == 3
    assert store.head_state.balance("alice") == 1000
    assert store.head_state.balance("carol") == 7


def test_adopt_of_a_held_block_raises():
    store = _store()
    parent = store.adopted_head
    block = assemble_block(store, parent, [], producer="miner-0", timestamp=1.0)
    result = store.validate_block(block)
    store.adopt(block, result)
    with pytest.raises(ValueError):
        store.adopt(block, result)  # the same passing result, a second time
    assert store.adopted_chain() == [parent, block.digest()]
    assert len(store.blocks) == 2


# -- state deltas -----------------------------------------------------------


def test_delta_revert_restores_parent_state_exactly():
    store = _store()
    parent_state = store.head_state.copy()
    tx = make_transaction(ALICE, "carol", 42, 1, 10)  # carol springs into being
    block, _ = _extend(store, [tx])
    state = store.head_state.copy()
    store.deltas[block.digest()].revert(state)
    assert state.balances == parent_state.balances
    assert state.sequences == parent_state.sequences
    assert "carol" not in state.balances


def test_delta_existed_before_false_only_for_new_accounts():
    store = _store()
    tx = make_transaction(ALICE, "carol", 42, 1, 10)
    block, _ = _extend(store, [tx])
    changes = store.deltas[block.digest()].changes
    assert changes["alice"].existed_before
    assert not changes["carol"].existed_before


# -- state root leaf memo ---------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alice", "bob", "carol", "dave"]),
                          st.integers(0, 3), st.integers(0, 2), st.booleans()),
                min_size=1, max_size=40))
# carol is created, reverted away, then created again with the same leaf
@example([("carol", 1, 1, False), ("bob", 2, 0, False), ("carol", 0, 0, True),
          ("carol", 0, 0, True), ("carol", 1, 1, False)])
def test_leaf_memo_root_equals_a_fresh_root_at_every_step(steps):
    clear_memos()
    state = ChainState(balances={"alice": 3, "bob": 1}, sequences={"alice": 0, "bob": 0})
    applied = []  # deltas in force, newest last
    for account, balance, sequence, undo in steps:
        if undo and applied:
            applied.pop().revert(state)  # drops an account the delta created
        else:
            change = AccountChange(
                state.balance(account), balance, state.sequences.get(account, 0), sequence,
                existed_before=account in state.balances)
            delta = StateDelta(block=ZERO_DIGEST, changes={account: change})
            delta.apply(state)
            applied.append(delta)
        assert state.root() == root_by_fields(state)


def test_two_stores_one_balance_apart_each_commit_to_their_own_state():
    clear_memos()
    ahead, behind = _store(), _store()
    _extend(ahead, [make_transaction(ALICE, "bob", 1, 1, 10)], ts=1.0)
    _extend(behind, [make_transaction(ALICE, "bob", 2, 1, 10)], ts=1.0)
    states = (ahead.head_state, behind.head_state)
    assert states[0].balances.keys() == states[1].balances.keys()
    assert states[0].sequences == states[1].sequences
    assert [a for a in states[0].balances
            if states[0].balances[a] != states[1].balances[a]] == ["alice", "bob"]
    for state in (*states, *states):  # each root after the other's, twice
        assert state.root() == root_by_fields(state)
    assert states[0].root() != states[1].root()


def _tree_preimages(leaves):
    """The byte strings that hashing the Merkle tree over `leaves` digests."""
    if len(leaves) == 1:
        return [leaves[0]]
    out, level = [], list(leaves)
    while len(level) > 1:
        pairs = [level[i] + level[i + 1] for i in range(0, len(level) // 2 * 2, 2)]
        out += pairs
        level = [hashlib.sha256(p).digest() for p in pairs] + level[len(pairs) * 2:]
    return out


def test_validating_an_assembled_block_hashes_no_leaf_and_no_merkle_node(monkeypatch):
    clear_memos()
    store, other = _store(), _store()
    block = assemble_block(store, store.adopted_head,
                           [make_transaction(ALICE, "carol", 5, 1, 10)],
                           producer="miner-0", timestamp=1.0)
    hashed = []

    def recording_digest(payload):
        hashed.append(bytes(payload))
        return hashlib.sha256(payload).digest()

    for module in (primitives, blockchain):
        monkeypatch.setattr(module, "digest", recording_digest)
    results = [store.validate_block(block), other.validate_block(block)]
    monkeypatch.undo()
    assert all(r.ok for r in results)
    assert hashed  # the header's digest, at least
    state = store.state_at(store.adopted_head)
    results[0].delta.apply(state)
    assert sorted(state.balances) == ["alice", "bob", "carol", "miner-0"]
    leaves = [leaf_by_fields(a, b, state.sequences.get(a, 0))
              for a, b in sorted(state.balances.items())]
    tree = [*_tree_preimages([hashlib.sha256(leaf).digest() for leaf in leaves]),
            *_tree_preimages([tx.digest() for tx in block.transactions])]
    assert not set(hashed) & set(leaves), "a leaf was hashed again"
    assert not set(hashed) & set(tree), "a Merkle node was hashed again"


def test_state_root_frozen_values():
    # frozen from leaves encoded field by field (enc_str, enc_u64, enc_u64);
    # an account with no sequence entry reads as sequence 0
    state = ChainState(balances={"alice": 1000, "bob": 500, "zoë-名": 7},
                       sequences={"alice": 3, "bob": 0})
    assert state.root().hex() == (
        "609eb2c1445182e373be6314111630cbb60ef0f748d3455e9940235ae0c43256")
    top = ChainState(balances={"alice": 2**64 - 1}, sequences={"alice": 2**64 - 1})
    assert top.root().hex() == (
        "b68326ba815ff70e011a893afa1efef18a3eb90cb8eb9ad68dd94c1171c0f396")


def test_state_at_walks_to_side_branches():
    store = _store()
    genesis = store.adopted_head
    _extend(store, [make_transaction(ALICE, "bob", 100, 1, 10)], ts=1.0)
    side, _ = _extend(store, [make_transaction(ALICE, "bob", 1, 1, 10)],
                      parent=genesis, ts=1.5)
    at_side = store.state_at(side.digest())
    assert at_side.balance("alice") == 999
    assert store.head_state.balance("alice") == 900  # head unaffected


def test_branch_records_hold_through_random_reorgs():
    rng = random.Random(7)
    store = _store()
    tips = [store.genesis_digest]
    reorgs = 0
    for i in range(1, 201):
        parent = rng.choice(tips[-8:])
        sender, identity = rng.choice([("alice", ALICE), ("bob", BOB)])
        sequence = store.state_at(parent).sequences.get(sender, 0) + 1
        tx = make_transaction(identity, rng.choice(["bob", "carol", "dave"]),
                              rng.randint(1, 5), sequence, 10)
        block = assemble_block(store, parent, [tx], producer=f"m{i % 3}",
                               timestamp=float(i))
        report = store.adopt(block, store.validate_block(block))
        reorgs += bool(report.orphaned)
        tips.append(block.digest())

        walk, d = [], store.adopted_head
        while d != ZERO_DIGEST:
            walk.append(d)
            d = store.blocks[d].header.predecessor
        assert store.adopted_chain() == walk[::-1]
        assert store.head_height == store.blocks[store.adopted_head].height
    assert reorgs > 0
    for d, sb in store.blocks.items():
        assert store.state_at(d).root() == sb.header.state_root


# -- conservation -----------------------------------------------------------


def test_supply_tracks_reward_issuance():
    store = _store(reward=50)
    for _ in range(7):
        _extend(store, [make_transaction(ALICE, "bob", 5,
                                         store.head_state.sequences["alice"] + 1,
                                         10)])
    assert store.total_supply() == store.expected_supply() == 1500 + 7 * 50


@pytest.mark.parametrize("record", ["header", "body", "sender", "recipient", "signer",
                                    "delta"])
def test_audit_catches_a_record_that_no_longer_matches_its_counter(record):
    store = _store()
    for seq in (1, 2):
        block, _ = _extend(store, [make_transaction(ALICE, "bob", 5, seq, 10)])
    store.audit()  # every counter matches its records
    d = block.digest()
    sb = store.blocks[d]
    (tx,) = sb.transactions
    if record == "header":
        sb.header = replace(sb.header, producer=sb.header.producer + "x")
    elif record == "body":
        sb.transactions = ()
    elif record in ("sender", "recipient"):  # a stored transaction's name grows
        sb.transactions = (replace(tx, **{record: getattr(tx, record) + "x"}),)
    elif record == "signer":
        signature = replace(tx.signature, signer=tx.signature.signer + "x")
        sb.transactions = (replace(tx, signature=signature),)
    else:
        delta = store.deltas[d]
        store.deltas[d] = StateDelta(delta.block, {**delta.changes,
                                                   "zed": AccountChange(0, 0, 0, 0, False)})
    with pytest.raises(InvariantViolation, match=r"ledger size accounting \(recount"):
        store.audit()


# -- pruning ----------------------------------------------------------------


def test_prune_drops_old_bodies_and_keeps_answers():
    store = _store(reorg_safety=8)
    seq = 0
    for i in range(40):
        seq += 1
        _extend(store, [make_transaction(ALICE, "bob", 1, seq, 10)])
    before = store.recount_bytes()
    deltas_before = len(store.deltas)
    store.prune(keep_recent=10)
    assert store.first_full_block_height == 30
    # every block below height 30 lost its body; genesis carries an empty
    # body but never had a delta
    assert sorted(sb.height for sb in store.blocks.values()
                  if sb.transactions is None) == list(range(30))
    assert len(store.deltas) == deltas_before - 29
    assert min(store.blocks[d].height for d in store.deltas) == 30
    assert store.recount_bytes() == store.ledger_bytes()
    assert sum(store.ledger_bytes().values()) < sum(before.values())
    # balances come from head state, untouched by pruning
    assert store.head_state.balance("alice") == 1000 - 40
    # deep history is gone
    old = store.adopted_chain()[5]
    with pytest.raises(HistoryPrunedError):
        store.state_at(old)


def test_prune_respects_reorg_safety_floor():
    store = _store(reorg_safety=8)
    with pytest.raises(ConfigError):
        store.prune(keep_recent=4)


def test_pruned_node_validates_like_archive():
    archive = _store(reorg_safety=8)
    pruned = _store(reorg_safety=8)
    seq = 0
    for _ in range(30):
        seq += 1
        tx = make_transaction(ALICE, "bob", 1, seq, 10)
        block = assemble_block(archive, archive.adopted_head, [tx],
                               "m", float(seq))
        for st in (archive, pruned):
            res = st.validate_block(block)
            assert res.ok
            st.adopt(block, res)
    pruned.prune(keep_recent=10)
    # identical verdicts on a fresh stream after pruning
    for _ in range(5):
        seq += 1
        tx = make_transaction(ALICE, "bob", 1, seq, 10)
        block = assemble_block(archive, archive.adopted_head, [tx],
                               "m", float(seq))
        ra = archive.validate_block(block)
        rp = pruned.validate_block(block)
        assert (ra.verdict, ra.detail) == (rp.verdict, rp.detail)
        archive.adopt(block, ra)
        pruned.adopt(block, rp)
    assert archive.head_state.root() == pruned.head_state.root()


# -- fast sync --------------------------------------------------------------


def _grow(store, n, start_seq):
    seq = start_seq
    for _ in range(n):
        seq += 1
        _extend(store, [make_transaction(ALICE, "bob", 1, seq, 10)])
    return seq


def test_fast_sync_pivot_replay_matches_source():
    source = _store()
    _grow(source, 60, 0)
    fresh = fast_sync(source, pivot_offset=16)
    assert fresh.adopted_head == source.adopted_head
    assert fresh.head_state.root() == source.head_state.root()
    assert fresh.first_full_block_height == 60 - 16
    # headers exist below the pivot, bodies do not
    below = source.adopted_chain()[10]
    assert fresh.blocks[below].transactions is None
    # header-only and replayed blocks share one insert path and byte count
    assert fresh.recount_bytes() == fresh.ledger_bytes()
    # one branch: every stored block was adopted
    assert set(fresh.blocks) == set(fresh.adopted)


def test_fast_sync_short_chain_full_replay():
    source = _store()
    _grow(source, 10, 0)
    for offset in (16, 10):  # longer than the chain, and exactly its length
        fresh = fast_sync(source, pivot_offset=offset)
        assert fresh.head_state.root() == source.head_state.root()
        assert fresh.first_full_block_height == 0
        assert fresh.capacity == source.capacity
        assert all(sb.transactions is not None for sb in fresh.blocks.values())


def test_fast_sync_pivot_just_above_genesis():
    source = _store()
    _grow(source, 10, 0)
    fresh = fast_sync(source, pivot_offset=9)
    assert fresh.head_state.root() == source.head_state.root()
    assert fresh.first_full_block_height == 1
    assert fresh.blocks[source.adopted_chain()[1]].transactions is None
    assert fresh.recount_bytes() == fresh.ledger_bytes()
    assert set(fresh.blocks) == set(fresh.adopted)


def test_fast_sync_refuses_overpruned_source():
    source = _store(reorg_safety=8)
    _grow(source, 60, 0)
    source.prune(keep_recent=10)  # full blocks start at height 50
    for offset in (16, 60, 65):  # pivot at 44, and at genesis twice
        with pytest.raises(SyncError):
            fast_sync(source, pivot_offset=offset)


# -- proof rules ------------------------------------------------------------


def test_grind_proof_gates_on_nonce():
    store = _store(difficulty=256.0)  # 8 bits
    store.proof_rule = GrindProof()
    block = assemble_block(store, store.adopted_head, [], "m", 1.0)
    unmined = store.validate_block(block)
    assert unmined.verdict is Verdict.BAD_PROOF
    nonce = mine(block.header.work_digest(), 8, seed=1)
    mined = replace(block, header=replace(block.header, nonce=nonce))
    assert store.validate_block(mined).ok


def test_pos_proof_enforces_slot_grid_and_producer():
    registry = StakeRegistry(deposits={"val-0": 100, "val-1": 200})
    rule = PosProof(registry, run_seed=9, slot_interval_s=1.0)
    store = ChainStore({"alice": 1000}, block_reward=0, capacity=10_000,
                       proof_rule=rule, schedule=DifficultySchedule(1.0, 16, 1.0),
                       reorg_safety=128)
    leader = pos_select(registry, 9, 3)
    other = "val-0" if leader == "val-1" else "val-1"
    good = assemble_block(store, store.adopted_head, [], leader, 3.0)
    assert store.validate_block(good).ok
    wrong_producer = assemble_block(store, store.adopted_head, [], other, 3.0)
    assert store.validate_block(wrong_producer).verdict is Verdict.BAD_PROOF
    off_grid = assemble_block(store, store.adopted_head, [], leader, 3.01)
    assert store.validate_block(off_grid).verdict is Verdict.BAD_PROOF
