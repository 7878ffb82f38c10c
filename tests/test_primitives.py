"""Hashing, Merkle commitments, the gap buffer, identities, signatures."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st
from memos import clear_memos
from wire import merkle_by_levels

from ledgerlab import primitives
from ledgerlab.primitives import (
    DIGEST_ALGORITHM,
    DIGEST_LEN,
    EMPTY_ROOT,
    ZERO_DIGEST,
    GapBuffer,
    digest,
    identity_for,
    leading_zero_bits,
    merkle_root,
    sign,
    verify,
)

_LEAVES = [hashlib.sha256(bytes([i])).digest() for i in range(5)]


def test_digest_known_answer():
    # sha256 of the empty string, the published reference value
    assert DIGEST_ALGORITHM == "sha256"
    assert digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert len(digest(b"x")) == DIGEST_LEN
    assert ZERO_DIGEST == b"\x00" * 32


def test_leading_zero_bits():
    assert leading_zero_bits(b"\xff" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x7f" + b"\xff" * 31) == 1
    assert leading_zero_bits(b"\x00" + b"\xff" + b"\x00" * 30) == 8
    assert leading_zero_bits(b"\x00\x10" + b"\x00" * 30) == 11
    assert leading_zero_bits(b"\x00" * 32) == 256


def test_merkle_frozen_values():
    # frozen from the level-by-level oracle, `wire.merkle_by_levels`
    assert merkle_root([]) == EMPTY_ROOT
    assert merkle_root(_LEAVES[:1]).hex() == (
        "1406e05881e299367766d313e26c05564ec91bf721d31726bd6e46e60689539a")
    assert merkle_root(_LEAVES[:2]).hex() == (
        "30e1867424e66e8b6d159246db94e3486778136f7e386ff5f001859d6b8484ab")
    assert merkle_root(_LEAVES[:4]).hex() == (
        "9675e04b4ba9dc81b06e81731e2d21caa2c95557a85dcfa3fff70c9ff0f30b2e")
    assert merkle_root(_LEAVES[:5]).hex() == (
        "5174b138f822e56503c04bce38e368672593b4a2694466c2e60f1216caf234be")


def test_merkle_odd_promotion_by_hand():
    # root over 5 leaves: H(H(H(l0 l1) + H(l2 l3)) + l4), the odd leaf rides up
    h = lambda b: hashlib.sha256(b).digest()
    l = _LEAVES
    want = h(h(h(l[0] + l[1]) + h(l[2] + l[3])) + l[4])
    assert merkle_root(l[:5]) == want


def test_merkle_rejects_bad_leaf_width():
    with pytest.raises(ValueError):
        merkle_root([b"short"])


@pytest.mark.parametrize("bad", [b"short", bytes(31), bytearray(32), list(range(32))],
                         ids=["short", "31-bytes", "bytearray", "int-list"])
def test_merkle_refuses_a_leaf_that_is_not_32_exact_bytes(bad):
    for leaves in ([bad], [_LEAVES[0], bad], [bad, *_LEAVES]):
        with pytest.raises(ValueError):  # an unhashable leaf is no TypeError
            merkle_root(leaves)


@pytest.mark.parametrize("count", range(1, 66))
def test_merkle_memo_gives_the_oracle_root_cold_warm_and_for_equal_leaves(count):
    rng = random.Random(count)
    leaves = [rng.randbytes(32) for _ in range(count)]
    want = merkle_by_levels(leaves)
    clear_memos()
    assert merkle_root(leaves) == want, "cold"
    hits = primitives._tree_root.cache_info().hits
    assert merkle_root(leaves) == want, "warm"
    assert primitives._tree_root.cache_info().hits == hits + 1
    equal = [bytes(bytearray(leaf)) for leaf in leaves]
    assert not any(a is b for a, b in zip(equal, leaves))
    assert merkle_root(equal) == want, "equal leaves, distinct objects"
    i, at = rng.randrange(count), rng.randrange(32)
    flipped = list(leaves)
    flipped[i] = leaves[i][:at] + bytes([leaves[i][at] ^ 1]) + leaves[i][at + 1:]
    assert merkle_root(flipped) == merkle_by_levels(flipped) != want


@given(st.lists(st.binary(min_size=32, max_size=32), max_size=40))
def test_merkle_matches_oracle(leaves):
    assert merkle_root(leaves) == merkle_by_levels(leaves)


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=2, max_size=12),
       st.data())
def test_merkle_sensitive_to_any_leaf(leaves, data):
    idx = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    flipped = leaves[idx][:0] + bytes([leaves[idx][0] ^ 1]) + leaves[idx][1:]
    mutated = leaves[:idx] + [flipped] + leaves[idx + 1:]
    assert merkle_root(leaves) != merkle_root(mutated)


def test_identity_deterministic_and_distinct():
    a1 = identity_for("alice")
    a2 = identity_for("alice")
    b = identity_for("bob")
    assert a1 == a2
    assert a1.secret != b.secret
    assert len(a1.secret) == 32


def test_identity_is_derived_once_and_shared():
    assert identity_for("carol") is identity_for("carol")
    expected = hashlib.sha256(b"ledgerlab/identity-secret/v1:" + "carol".encode("utf-8"))
    assert identity_for("carol").secret == expected.digest()


def test_signature_roundtrip_and_tamper():
    alice = identity_for("alice")
    payload = digest(b"a payload")
    sig = sign(alice, payload)
    assert verify(sig, "alice", payload)
    assert not verify(sig, "bob", payload)
    assert not verify(sig, "alice", digest(b"other payload"))
    forged = sign(identity_for("bob"), payload)
    assert not verify(
        type(sig)(signer="alice", payload_digest=payload, tag=forged.tag),
        "alice", payload)


def test_a_tag_is_hashed_once_and_still_compared_at_every_check(monkeypatch):
    clear_memos()
    alice, payload = identity_for("alice"), digest(b"a payload")
    hashed = []
    monkeypatch.setattr(primitives, "digest", lambda data: (
        hashed.append(data) or digest(data)))
    sig = sign(alice, payload)
    assert all(verify(sig, "alice", payload) for _ in range(5))
    assert hashed == [alice.secret + payload]
    # the memo holds the expected tag, not a verdict: a forged tag on the
    # same (signer, payload digest) is compared with it and refused
    forged = type(sig)(signer="alice", payload_digest=payload, tag=bytes(32))
    assert not verify(forged, "alice", payload)
    assert hashed == [alice.secret + payload]
    assert primitives._expected_tag.cache_info().maxsize == primitives.SIGNATURE_TAGS


@given(st.text(min_size=1, max_size=24), st.binary(min_size=32, max_size=32))
def test_signature_sound_for_any_signer(signer_id, payload):
    sig = sign(identity_for(signer_id), payload)
    assert verify(sig, signer_id, payload)


def _fresh_transaction():
    from ledgerlab.blockchain import make_transaction
    return make_transaction(identity_for("alice"), "bob", 5, 1, 10)


def _fresh_lattice_block():
    from ledgerlab.lattice import LatticeLedger
    ledger = LatticeLedger({"carol": (100, "carol"), "home": (40, "home")},
                           spam_bits=2)
    return ledger.create_send("carol", "home", 30)


def _fresh_vote():
    from ledgerlab.lattice import make_vote
    return make_vote(identity_for("home"), b"\x01" * 32, b"\x02" * 32, 40)


@pytest.mark.parametrize("make", [_fresh_transaction, _fresh_lattice_block,
                                  _fresh_vote])
def test_a_freshly_signed_object_verifies_without_rehashing(monkeypatch, make):
    obj = make()
    cls = type(obj)
    hashed = []
    original = cls.signing_payload

    def counting_payload(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(cls, "signing_payload", counting_payload)
    assert obj.verify_signature()
    assert hashed == []
    # the cached digest is the copy's own, not a stale one
    assert obj.signing_digest() == digest(original(obj))


# -- gap buffer ---------------------------------------------------------------


def _d(i):
    return bytes([i]) * 32


def test_gap_buffer_releases_in_park_order():
    buf = GapBuffer(limit=10)
    buf.park(_d(2), "second", _d(1))
    buf.park(_d(3), "other", _d(9))
    buf.park(_d(4), "fourth", _d(1))
    assert buf.release(_d(1)) == ["second", "fourth"]
    assert list(buf.held) == [_d(3)]
    assert buf.waiting == {_d(9): [_d(3)]}


def test_gap_buffer_evicts_the_oldest_block_and_its_waiting_entry():
    buf = GapBuffer(limit=2)
    buf.park(_d(2), "a", _d(1))
    buf.park(_d(3), "b", _d(1))
    buf.park(_d(5), "c", _d(4))
    assert list(buf.held) == [_d(3), _d(5)]
    assert buf.waiting == {_d(1): [_d(3)], _d(4): [_d(5)]}
    buf.park(_d(6), "d", _d(7))  # "b" goes, and _d(1) waits on nothing
    assert buf.waiting == {_d(4): [_d(5)], _d(7): [_d(6)]}
    assert buf.release(_d(1)) == []


def test_gap_buffer_holds_a_digest_once():
    buf = GapBuffer(limit=10)
    buf.park(_d(2), "first", _d(1))
    buf.park(_d(2), "again", _d(1))
    assert buf.waiting == {_d(1): [_d(2)]}
    assert buf.release(_d(1)) == ["first"]


def test_gap_buffer_release_of_an_unknown_digest_is_empty():
    buf = GapBuffer(limit=10)
    buf.park(_d(2), "held", _d(1))
    assert buf.release(_d(8)) == []
    assert list(buf.held) == [_d(2)]
