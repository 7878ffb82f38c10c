"""Account-chain ledger: lifecycle, forks, voting, rollback, pruning."""

from dataclasses import replace

import pytest

from ledgerlab import lattice
from ledgerlab.errors import InvariantViolation, NotFoundError
from ledgerlab.lattice import (
    BlockKind,
    DuplicateReceiveError,
    InsufficientBalanceError,
    InvalidAmountError,
    LatticeLedger,
    LatticeVerdict,
    Outcome,
    OutcomeStatus,
    VoteRecord,
    build_block,
    genesis_block,
    make_vote,
    resolve_fork,
)
from ledgerlab.leader_election import WorkCounter, check_pow
from ledgerlab.primitives import ZERO_DIGEST, identity_for
from memos import clear_memos
from wire import decode_whole


def _ledger(**kw):
    genesis = kw.pop("genesis", {"a": (100, "w8"), "w8": (700, "w8"),
                                 "w2": (200, "w2")})
    return LatticeLedger(genesis, **kw)


def _apply(ledger, block, votes=()):
    outcome = ledger.receive_block(block, votes=votes)
    return outcome


# -- genesis ----------------------------------------------------------------


def test_genesis_allocation_and_weights():
    ledger = _ledger()
    assert ledger.total_balance == 1000
    assert ledger.genesis_supply == 1000
    assert ledger.total_pending == 0
    assert ledger.accounts["a"].balance == 100
    assert ledger.representative_weight("w8") == 800
    assert ledger.representative_weight("w2") == 200
    assert ledger.recompute_weights() == {"w8": 800, "w2": 200}
    ledger.audit()


# -- send / receive lifecycle -----------------------------------------------


def test_send_then_receive_moves_value():
    ledger = _ledger()
    send = ledger.create_send("a", "w2", 30)
    out = _apply(ledger, send)
    assert out.status is OutcomeStatus.APPLIED
    assert ledger.accounts["a"].balance == 70
    assert ledger.total_pending == 30
    assert ledger.pending[send.digest()].recipient == "w2"

    recv = ledger.create_receive("w2", send.digest())
    out2 = _apply(ledger, recv)
    assert out2.status is OutcomeStatus.APPLIED
    assert ledger.accounts["w2"].balance == 230
    assert ledger.total_pending == 0
    assert ledger.settled_of[send.digest()] == ("w2", recv.digest())
    # delegated weight followed the balance
    assert ledger.representative_weight("w2") == 230
    assert ledger.representative_weight("w8") == 770


def test_create_send_error_paths():
    ledger = _ledger()
    with pytest.raises(InvalidAmountError):
        ledger.create_send("a", "w2", 0)
    with pytest.raises(InsufficientBalanceError):
        ledger.create_send("a", "w2", 101)
    with pytest.raises(NotFoundError):
        ledger.create_send("a", "nobody", 5)
    with pytest.raises(NotFoundError):
        ledger.create_send("ghost", "a", 5)


def test_create_receive_error_paths():
    ledger = _ledger()
    send = ledger.create_send("a", "w2", 5)
    _apply(ledger, send)
    with pytest.raises(NotFoundError):
        ledger.create_receive("w8", send.digest())  # addressed to w2
    with pytest.raises(NotFoundError):
        ledger.create_receive("w2", b"\x01" * 32)
    recv = ledger.create_receive("w2", send.digest())
    _apply(ledger, recv)
    with pytest.raises(DuplicateReceiveError):
        ledger.create_receive("w2", send.digest())


def test_duplicate_block_and_duplicate_receive_verdicts():
    ledger = _ledger()
    send = ledger.create_send("a", "w2", 5)
    _apply(ledger, send)
    again = _apply(ledger, send)
    assert again.status is OutcomeStatus.DUPLICATE

    recv = ledger.create_receive("w2", send.digest())
    _apply(ledger, recv)
    second_receive = build_block(identity_for("w2"),
                                 ledger.accounts["w2"].head,
                                 BlockKind.RECEIVE, amount=5,
                                 counterparty=send.digest())
    out = _apply(ledger, second_receive)
    assert out.status is OutcomeStatus.REJECTED
    assert out.verdict is LatticeVerdict.DUPLICATE_RECEIVE


def test_bad_signature_and_bad_pow_verdicts():
    ledger = _ledger(spam_bits=8)
    send = ledger.create_send("a", "w2", 5)
    tampered = replace(send, amount=6)
    out = _apply(ledger, tampered)
    assert out.status is OutcomeStatus.REJECTED
    assert out.verdict is LatticeVerdict.BAD_SIGNATURE

    lazy = build_block(identity_for("a"), ledger.accounts["a"].head,
                       BlockKind.SEND, amount=5, counterparty="w2",
                       spam_bits=0)
    if check_pow(lazy.signing_digest(), lazy.antispam_nonce, 8):
        pytest.skip("zero-effort nonce cleared 8 bits by chance")
    out2 = _apply(ledger, lazy)
    assert out2.status is OutcomeStatus.REJECTED
    assert out2.verdict is LatticeVerdict.BAD_POW


def test_overspend_rejected():
    ledger = _ledger()
    greedy = build_block(identity_for("a"), ledger.accounts["a"].head,
                         BlockKind.SEND, amount=1_000, counterparty="w2")
    out = _apply(ledger, greedy)
    assert out.status is OutcomeStatus.REJECTED
    assert out.verdict is LatticeVerdict.INSUFFICIENT_BALANCE


def test_antispam_work_is_attached_and_checked():
    counter = WorkCounter()
    ledger = _ledger(spam_bits=6)
    send = ledger.create_send("a", "w2", 5, counter=counter)
    assert counter.evaluations >= 1
    assert check_pow(send.signing_digest(), send.antispam_nonce, 6)
    assert _apply(ledger, send).status is OutcomeStatus.APPLIED


# -- gaps -------------------------------------------------------------------


def test_gap_parks_until_predecessor_arrives():
    ledger = _ledger()
    feeder = _ledger()
    s1 = feeder.create_send("a", "w2", 5)
    feeder.receive_block(s1)
    s2 = feeder.create_send("a", "w2", 7)

    out = _apply(ledger, s2)
    assert out.status is OutcomeStatus.PARKED
    assert ledger.accounts["a"].balance == 100

    out2 = _apply(ledger, s1)
    assert out2.status is OutcomeStatus.APPLIED
    # parked successor drained in the same call
    assert [b.digest() for b in out2.applied] == [s1.digest(), s2.digest()]
    assert ledger.accounts["a"].balance == 88
    assert not ledger.parked.held and not ledger.parked.waiting


def test_released_blocks_settle_first_in_first_out():
    ledger = _ledger()
    feeder = _ledger()
    s1 = feeder.create_send("a", "w2", 5)
    feeder.receive_block(s1)
    s2 = feeder.create_send("a", "w2", 7)
    feeder.receive_block(s2)
    s3 = feeder.create_send("a", "w2", 1)
    feeder.receive_block(s3)
    r1 = feeder.create_receive("w2", s1.digest())
    for blk in (s2, s3, r1):  # all wait, directly or not, on s1
        assert _apply(ledger, blk).status is OutcomeStatus.PARKED

    out = _apply(ledger, s1)
    # s1 releases s2 and r1; s3, released by s2, queues behind r1
    assert out.applied == [s1, s2, r1, s3]
    assert not ledger.parked.held and not ledger.parked.waiting


def test_gap_buffer_evicts_oldest():
    ledger = _ledger(gap_buffer=2)
    feeder = _ledger()
    blocks = []
    for i in range(4):
        s = feeder.create_send("a", "w2", 1 + i)
        feeder.receive_block(s)
        blocks.append(s)
    # deliver the three successors of the missing first block, newest last
    for s in blocks[1:]:
        _apply(ledger, s)
    assert len(ledger.parked.held) == 2
    parked_digests = set(ledger.parked.held)
    assert blocks[1].digest() not in parked_digests  # oldest fell out


def test_a_reference_that_can_never_arrive_is_rejected_not_parked():
    # accounts exist only from genesis, so no later block can fill these in
    ledger = _ledger()
    stranger = build_block(identity_for("zed"), b"\x01" * 32, BlockKind.SEND,
                           amount=1, counterparty="a")
    send = ledger.create_send("a", "w2", 5)
    _apply(ledger, send)
    misdirected = build_block(identity_for("w8"), ledger.accounts["w8"].head,
                              BlockKind.RECEIVE, amount=5,
                              counterparty=send.digest())  # addressed to w2
    # only genesis follows the zero digest, so no block can fill this slot
    reopened = build_block(identity_for("w2"), ZERO_DIGEST, BlockKind.SEND,
                           amount=1, counterparty="a")
    for block in (stranger, misdirected, reopened):
        out = _apply(ledger, block)
        assert out.status is OutcomeStatus.REJECTED
        assert out.verdict is LatticeVerdict.UNKNOWN_REFERENCE
        assert not out.conflicts_opened
    assert not ledger.parked.held
    assert not ledger.conflicts


# -- forks and voting -------------------------------------------------------


def _conflicting_sends(ledger):
    fork_point = ledger.accounts["a"].head
    others = sorted(set(ledger.accounts) - {"a"})
    s1 = ledger.create_send("a", others[0], 10)
    s2 = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                     amount=20, counterparty=others[1])
    return fork_point, s1, s2


def test_fork_opens_conflict_and_majority_resolves():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    assert _apply(ledger, s1).status is OutcomeStatus.APPLIED

    out = _apply(ledger, s2)
    assert out.status is OutcomeStatus.CONFLICT
    assert out.verdict is LatticeVerdict.FORK_DETECTED
    assert ledger.open_conflicts() == [("a", fork_point)]

    # 800 of 1000 delegated weight backs the newcomer: supermajority flips it
    vote = make_vote(identity_for("w8"), fork_point, s2.digest(), 800)
    res_out = ledger.add_vote(vote)
    assert [r.winner for r in res_out.resolutions] == [s2.digest()]
    assert ledger.conflicts[("a", fork_point)].resolved == s2.digest()
    assert ledger.accounts["a"].head == s2.digest()
    assert ledger.accounts["a"].balance == 80
    assert s1.digest() not in ledger.pending
    assert ledger.pending[s2.digest()].amount == 20
    assert not ledger.open_conflicts()

    # the loser is already seen, and a fresh third fork is dead on arrival
    assert _apply(ledger, s1).status is OutcomeStatus.DUPLICATE
    s3 = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                     amount=1, counterparty="w8")
    rej = _apply(ledger, s3)
    assert rej.status is OutcomeStatus.REJECTED
    assert rej.verdict is LatticeVerdict.FORK_DETECTED


def test_incumbent_survives_when_majority_backs_it():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    vote = make_vote(identity_for("w8"), fork_point, s1.digest(), 800)
    ledger.add_vote(vote)
    assert ledger.conflicts[("a", fork_point)].resolved == s1.digest()
    assert ledger.accounts["a"].head == s1.digest()
    assert ledger.accounts["a"].balance == 90


def test_votes_accumulate_to_quorum():
    ledger = _ledger(genesis={"a": (100, "r1"), "r1": (300, "r1"),
                              "r2": (600, "r2")})
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    # 400 of 1000 is under the 0.5 quorum: stays open
    ledger.add_vote(make_vote(identity_for("r1"), fork_point, s2.digest(), 400))
    assert ledger.open_conflicts() == [("a", fork_point)]
    out = ledger.add_vote(make_vote(identity_for("r2"), fork_point, s2.digest(), 600))
    assert [r.winner for r in out.resolutions] == [s2.digest()]
    assert not ledger.open_conflicts()


def test_exact_tie_is_flagged_and_stays_open():
    ledger = _ledger(genesis={"a": (100, "r1"), "r1": (400, "r1"),
                              "r2": (500, "r2"), "r3": (100, "r3")})
    assert ledger.representative_weight("r1") == 500
    assert ledger.representative_weight("r2") == 500
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    # both votes land with the fork so the first tally already sees the split
    out = _apply(ledger, s2, votes=[
        make_vote(identity_for("r1"), fork_point, s1.digest(), 500),
        make_vote(identity_for("r2"), fork_point, s2.digest(), 500),
    ])
    assert out.status is OutcomeStatus.CONFLICT
    assert ("a", fork_point) in ledger.flagged_ties
    assert ledger.open_conflicts() == [("a", fork_point)]
    assert ledger.accounts["a"].head == s1.digest()  # incumbent holds
    # a third representative breaks the tie: the flag goes with it
    ledger.add_vote(make_vote(identity_for("r3"), fork_point, s1.digest(), 100))
    assert ledger.conflicts[("a", fork_point)].resolved == s1.digest()
    assert ledger.flagged_ties == []


def test_first_vote_per_rep_and_subject_stands():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    ledger.add_vote(make_vote(identity_for("w2"), fork_point, s1.digest(), 200))
    # the same representative trying to flip is ignored
    ledger.add_vote(make_vote(identity_for("w2"), fork_point, s2.digest(), 200))
    assert ledger.conflicts[("a", fork_point)].resolved is None
    assert ledger.votes[fork_point]["w2"].choice == s1.digest()


def test_a_vote_counts_only_on_its_own_subject():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    # w8 holds 800 of 1000, but names the wrong slot: the conflict stays open
    elsewhere = ledger.accounts["w8"].head
    out = ledger.add_vote(make_vote(identity_for("w8"), elsewhere, s2.digest(), 800))
    assert out.resolutions == []
    assert ledger.open_conflicts() == [("a", fork_point)]
    # the same representative on the right subject decides it
    out = ledger.add_vote(make_vote(identity_for("w8"), fork_point, s2.digest(), 800))
    assert [r.winner for r in out.resolutions] == [s2.digest()]
    assert ledger.accounts["a"].head == s2.digest()


def _vote_state(ledger):
    return ({k: (c.resolved, dict(c.candidates)) for k, c in ledger.conflicts.items()},
            {k: dict(v) for k, v in ledger.votes.items()},
            list(ledger.flagged_ties),
            {k: c.resolved for k, c in ledger.conflicts.items()},
            ledger.accounts["a"].head)


def test_repeated_vote_changes_nothing_and_skips_verify(monkeypatch):
    ledger = _ledger(genesis={"a": (100, "r1"), "r1": (300, "r1"),
                              "r2": (600, "r2")})
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    vote = make_vote(identity_for("r1"), fork_point, s2.digest(), 400)
    _apply(ledger, s2, votes=[vote])
    assert ledger.votes[fork_point] == {"r1": vote}
    before = _vote_state(ledger)

    verified = []
    original = lattice.verify

    def counting_verify(*args):
        verified.append(args)
        return original(*args)

    monkeypatch.setattr(lattice, "verify", counting_verify)
    again = decode_whole(VoteRecord, vote.encode())  # a fresh copy off the wire
    assert again == vote and again is not vote
    assert ledger.add_vote(again) == Outcome()
    dup = _apply(ledger, s2, votes=[again])
    assert dup == Outcome(status=OutcomeStatus.DUPLICATE)
    assert verified == []
    assert _vote_state(ledger) == before

    # a vote that differs in any byte is ignored unverified: the first stands
    heavier = make_vote(identity_for("r1"), fork_point, s2.digest(), 401)
    assert ledger.add_vote(heavier) == Outcome()
    assert verified == []
    assert _vote_state(ledger) == before


def test_vote_for_a_candidate_that_joined_later_counts():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    s3 = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                     amount=5, counterparty="w8")
    out = _apply(ledger, s3)
    assert out.status is OutcomeStatus.CONFLICT
    assert out.conflicts_opened == []  # joined the open conflict
    assert sorted(ledger.conflicts[("a", fork_point)].candidates) == sorted(
        [s1.digest(), s2.digest(), s3.digest()])

    res = ledger.add_vote(make_vote(identity_for("w8"), fork_point, s3.digest(), 800))
    assert [r.winner for r in res.resolutions] == [s3.digest()]
    assert ledger.accounts["a"].head == s3.digest()
    assert ledger.accounts["a"].balance == 95


def test_losing_branch_rollback_cascades_through_receives():
    ledger = _ledger(genesis={"a": (100, "w8"), "b": (50, "w8"),
                              "w8": (650, "w8"), "w2": (200, "w2")})
    fork_point = ledger.accounts["a"].head
    s1 = ledger.create_send("a", "b", 50)
    _apply(ledger, s1)
    r1 = ledger.create_receive("b", s1.digest())
    _apply(ledger, r1)
    assert ledger.accounts["b"].balance == 100

    s2 = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                     amount=60, counterparty="w2")
    out = _apply(ledger, s2)
    assert out.status is OutcomeStatus.CONFLICT
    res = ledger.add_vote(
        make_vote(identity_for("w8"), fork_point, s2.digest(), 800))
    assert [r.winner for r in res.resolutions] == [s2.digest()]

    # the receive on b's chain was built on the discarded send: unwound too
    assert ledger.accounts["b"].balance == 50
    assert ledger.accounts["b"].head != r1.digest()
    assert ledger.accounts["b"].head == r1.predecessor == ledger.accounts["b"].order[-1]
    assert ledger.accounts["a"].head == s2.digest()
    assert ledger.accounts["a"].balance == 40
    assert s1.digest() not in ledger.pending
    assert ledger.pending[s2.digest()].amount == 60
    assert ledger.total_balance + ledger.total_pending == ledger.genesis_supply


def test_two_candidate_resolution_carries_both_tallies():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    assert ledger.rep_weight == {"w8": 790, "w2": 200}  # s1's 10 is pending
    ledger.add_vote(make_vote(identity_for("w2"), fork_point, s1.digest(), 200))
    out = ledger.add_vote(make_vote(identity_for("w8"), fork_point, s2.digest(), 790))
    assert out.resolutions == [lattice.Resolution(
        account="a", subject=fork_point, winner=s2.digest(),
        discarded=(s1.digest(),),
        winner_weight=790, runner_up=200)]


def test_three_candidate_runner_up_is_the_largest_loser():
    ledger = _ledger(genesis={"a": (100, "r3"), "r1": (100, "r1"),
                              "r2": (250, "r2"), "r3": (550, "r3")})
    fork_point = ledger.accounts["a"].head
    sends = [build_block(identity_for("a"), fork_point, BlockKind.SEND,
                         amount=amount, counterparty=to)
             for amount, to in ((10, "r1"), (20, "r2"), (30, "r3"))]
    for send in sends:
        _apply(ledger, send)
    assert ledger.rep_weight == {"r1": 100, "r2": 250, "r3": 640}

    def vote(rep, send):
        return make_vote(identity_for(rep), fork_point, send.digest(),
                         ledger.representative_weight(rep))

    for rep, send in (("r1", sends[0]), ("r2", sends[1])):
        assert ledger.add_vote(vote(rep, send)).resolutions == []  # under quorum
    (res,) = ledger.add_vote(vote("r3", sends[2])).resolutions
    assert res.winner == sends[2].digest()
    assert (res.winner_weight, res.runner_up) == (640, 250)
    assert res.discarded == (sends[0].digest(),)
    assert ledger.accounts["a"].head == sends[2].digest()


def test_resolution_for_a_winner_that_no_longer_applies():
    ledger = _ledger()
    fork_point, s1, _ = _conflicting_sends(ledger)
    overspend = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                            amount=1_000, counterparty="w8")
    _apply(ledger, s1)
    assert _apply(ledger, overspend).status is OutcomeStatus.CONFLICT
    out = ledger.add_vote(
        make_vote(identity_for("w8"), fork_point, overspend.digest(), 790))
    (res,) = out.resolutions
    assert (res.winner, res.discarded) == (overspend.digest(), (s1.digest(),))
    assert (res.winner_weight, res.runner_up) == (790, 0)
    assert out.applied == []
    assert ledger.accounts["a"].head == fork_point
    assert ledger.conflicts[("a", fork_point)].resolved == overspend.digest()
    assert ledger.accounts["a"].balance == 100


def test_resolve_fork_tally_rules():
    c1, c2 = b"\x01" * 32, b"\x02" * 32
    mk = lambda rep, choice, w: make_vote(identity_for(rep), b"\x00" * 32, choice, w)
    win, tallies, tied = resolve_fork(
        [c1, c2], [mk("x", c1, 800), mk("y", c2, 200)], 1000)
    assert win == c1 and not tied
    assert tallies == {c1: 800, c2: 200}
    win, _t, tied = resolve_fork([c1, c2], [mk("x", c1, 500), mk("y", c2, 500)], 1000)
    assert win is None and tied
    win, _t, tied = resolve_fork([c1, c2], [mk("x", c1, 400)], 1000)
    assert win is None and not tied  # under quorum
    win, _t, _ = resolve_fork([c1, c2], [mk("x", c1, 501)], 1000)
    assert win == c1


# -- representative changes -------------------------------------------------


def test_rep_change_moves_delegated_weight():
    ledger = _ledger()
    change = ledger.create_rep_change("a", "w2")
    out = _apply(ledger, change)
    assert out.status is OutcomeStatus.APPLIED
    assert ledger.representative_weight("w8") == 700
    assert ledger.representative_weight("w2") == 300
    assert ledger.recompute_weights() == {"w8": 700, "w2": 300}
    with pytest.raises(NotFoundError):
        ledger.create_rep_change("a", "nobody")


def test_rep_change_on_a_losing_branch_rolls_back():
    ledger = _ledger()
    fork_point = ledger.accounts["a"].head
    change = ledger.create_rep_change("a", "w2")
    _apply(ledger, change)
    later = ledger.create_send("a", "w8", 30)
    _apply(ledger, later)
    assert ledger.accounts["a"].representative == "w2"
    assert ledger.rep_weight == {"w8": 700, "w2": 270}

    rival = build_block(identity_for("a"), fork_point, BlockKind.SEND,
                        amount=20, counterparty="w8")
    assert _apply(ledger, rival).status is OutcomeStatus.CONFLICT
    out = ledger.add_vote(make_vote(identity_for("w8"), fork_point, rival.digest(), 700))
    (res,) = out.resolutions
    assert res.discarded == (later.digest(), change.digest())

    # the prior representative is back, with the balance the rival left
    assert ledger.accounts["a"].representative == "w8"
    assert ledger.rep_weight == ledger.recompute_weights() == {"w8": 780, "w2": 200}
    ledger.audit()
    assert (ledger.total_balance, ledger.total_pending) == (980, 20)
    assert ledger.recount_bytes() == ledger.ledger_bytes()


# -- tiers and pruning ------------------------------------------------------


def _stream(n=4):
    feeder = _ledger()
    blocks = []
    for i in range(n):
        s = feeder.create_send("a", "w2", 1 + i)
        feeder.receive_block(s)
        blocks.append(s)
        r = feeder.create_receive("w2", s.digest())
        feeder.receive_block(r)
        blocks.append(r)
    return blocks


def test_current_tier_node_tracks_historical_twin():
    historical = _ledger()
    trimmed = _ledger()
    blocks = _stream(4)
    for blk in blocks[:4]:
        assert (_apply(historical, blk).status
                == _apply(trimmed, blk).status)
    bytes_before = sum(trimmed.ledger_bytes().values())
    trimmed.prune_to_current()
    for chain in trimmed.accounts.values():  # no conflict: every chain pruned
        assert set(chain.blocks) == {chain.head}
    assert sum(trimmed.ledger_bytes().values()) < bytes_before
    for blk in blocks[4:]:
        assert (_apply(historical, blk).status
                == _apply(trimmed, blk).status)
    for account in historical.accounts:
        assert historical.accounts[account].balance == trimmed.accounts[account].balance

    # fork off pruned history: the digest index still says fork, not gap
    old_pred = blocks[0].predecessor
    rival = build_block(identity_for("a"), old_pred, BlockKind.SEND,
                        amount=9, counterparty="w2")
    vh = historical.validate_block(rival)
    vt = trimmed.validate_block(rival)
    assert vh == vt
    assert vh[0] is LatticeVerdict.FORK_DETECTED


def test_prune_keeps_only_heads():
    ledger = _ledger()
    for blk in _stream(3):
        _apply(ledger, blk)
    ledger.prune_to_current()
    for chain in ledger.accounts.values():
        assert set(chain.blocks) == {chain.head}
    assert ledger.recount_bytes() == ledger.ledger_bytes()


def test_prune_skips_accounts_with_open_conflicts():
    ledger = _ledger()
    _apply(ledger, ledger.create_send("w2", "w8", 5))  # history to prune
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    _apply(ledger, s2)
    ledger.prune_to_current()
    assert fork_point in ledger.accounts["a"].blocks  # not the head: kept, not pruned
    undisputed = ledger.accounts["w2"]
    assert len(undisputed.order) == 2 and set(undisputed.blocks) == {undisputed.head}
    assert ledger.recount_bytes() == ledger.ledger_bytes()


# -- size accounting --------------------------------------------------------


def test_byte_counters_match_recount_after_churn():
    ledger = _ledger()
    fork_point, s1, s2 = _conflicting_sends(ledger)
    _apply(ledger, s1)
    recv = ledger.create_receive(ledger.pending[s1.digest()].recipient,
                                 s1.digest())
    _apply(ledger, recv)
    _apply(ledger, s2)
    ledger.add_vote(make_vote(identity_for("w8"), fork_point, s2.digest(), 800))
    assert ledger.recount_bytes() == ledger.ledger_bytes()


@pytest.mark.parametrize("field", ["account", "counterparty", "signer", "recipient"])
def test_audit_catches_a_record_that_no_longer_matches_its_counter(field):
    ledger = _ledger()
    send = ledger.create_send("a", "w2", 30)
    _apply(ledger, send)
    ledger.audit()  # every counter matches its records
    d = send.digest()
    blocks = ledger.accounts["a"].blocks
    if field in ("account", "counterparty"):  # a held block's name grows
        blocks[d] = replace(send, **{field: getattr(send, field) + "x"})
    elif field == "signer":
        blocks[d] = replace(send, signature=replace(send.signature,
                                                    signer=send.signature.signer + "x"))
    else:  # the pending send's recipient grows
        pend = ledger.pending[d]
        ledger.pending[d] = replace(pend, recipient=pend.recipient + "x")
    with pytest.raises(InvariantViolation, match="ledger size accounting"):
        ledger.audit()


def test_a_genesis_block_is_signed_once_per_process_and_built_anew_each_time():
    clear_memos()
    carol = identity_for("carol")
    built = build_block(carol, ZERO_DIGEST, BlockKind.GENESIS, amount=100,
                        new_representative="home", spam_bits=2)
    first = genesis_block(carol, 100, "home", 2)
    assert len(lattice.GENESIS_VALUES) == 1
    again = genesis_block(carol, 100, "home", 2)
    assert len(lattice.GENESIS_VALUES) == 1
    for block in (first, again):
        assert block == built and block.encode() == built.encode()
        assert (block.signing_digest(), block.digest(), block.encoded_len()) == (
            built.signing_digest(), built.digest(), len(built.encode()))
        assert block.verify_signature()
    assert again is not first and again.signature is not first.signature
    # a different allocation, representative or spam stamp is its own entry
    for args in ((101, "home", 2), (100, "carol", 2), (100, "home", 0)):
        assert genesis_block(carol, *args) != built
    assert len(lattice.GENESIS_VALUES) == 4
