"""Canonical wire encoding round-trips and malformed-input handling."""

import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from ledgerlab import codec
from ledgerlab.blockchain import AccountChange, Block, BlockHeader, ChainTransaction, StateDelta
from ledgerlab.codec import CodecError, Reader
from ledgerlab.lattice import BlockKind, LatticeBlock, VoteRecord, build_block
from ledgerlab.primitives import ZERO_DIGEST, Signature, digest, identity_for


def test_fixed_width_layouts():
    assert codec.enc_u8(0) == b"\x00"
    assert codec.enc_u8(255) == b"\xff"
    assert codec.enc_u64(1) == b"\x00" * 7 + b"\x01"
    assert len(codec.enc_u64(2**64 - 1)) == 8
    assert len(codec.enc_f64(1.5)) == 8
    # big-endian: 256 puts its bit in the seventh byte
    assert codec.enc_u64(256)[6] == 1


def test_range_checks():
    with pytest.raises(CodecError):
        codec.enc_u8(256)
    with pytest.raises(CodecError):
        codec.enc_u8(-1)
    with pytest.raises(CodecError):
        codec.enc_u64(-1)
    with pytest.raises(CodecError):
        codec.enc_u64(2**64)
    with pytest.raises(CodecError):
        codec.enc_digest(b"not 32 bytes")
    with pytest.raises(CodecError):
        codec.enc_str("\ud800")  # a lone surrogate has no utf-8 form


def test_fast_paths_keep_the_type_checks():
    with pytest.raises(CodecError):
        codec.enc_u64(True)
    with pytest.raises(CodecError):
        codec.enc_u8(True)

    class Height(int):
        pass

    # only the exact types are encoded; near relatives are refused
    with pytest.raises(CodecError):
        codec.enc_u64(Height(5))
    with pytest.raises(CodecError):
        codec.enc_u8(Height(5))
    with pytest.raises(CodecError):
        codec.enc_digest(bytearray(32))
    with pytest.raises(CodecError):
        codec.enc_digest(bytes(31))
    with pytest.raises(CodecError):
        codec.enc_digest("x" * 32)
    with pytest.raises(CodecError):
        codec.enc_str(b"not text")


def test_reader_str_rejects_underruns_and_invalid_utf8():
    with pytest.raises(CodecError):
        Reader(b"\x00\x00\x00").str_()  # the length itself is cut short
    with pytest.raises(CodecError):
        Reader(codec.enc_str("abc")[:-1]).str_()  # the body is cut short
    with pytest.raises(CodecError):
        Reader(b"\x00\x00\x00\x01\xff").str_()  # not utf-8
    with pytest.raises(CodecError):
        Reader(bytes(31)).digest()
    r = Reader(codec.enc_str("ab") + codec.enc_str(""))
    assert (r.str_(), r.str_()) == ("ab", "")
    r.expect_end()


def test_reader_underrun_and_trailing():
    r = Reader(codec.enc_u64(7))
    assert r.u64() == 7
    with pytest.raises(CodecError):
        r.u64()
    r2 = Reader(codec.enc_u64(7) + b"\x01")
    r2.u64()
    with pytest.raises(CodecError):
        r2.expect_end()


def test_reader_fixed_reads_a_run_of_fields_or_nothing():
    layout = struct.Struct(">32sQ")
    data = bytes(range(32)) + codec.enc_u64(9) + codec.enc_u8(1)
    r = Reader(data)
    assert r.fixed(layout) == (bytes(range(32)), 9)
    assert r.pos == 40
    with pytest.raises(CodecError):
        r.fixed(layout)  # one byte left
    assert r.pos == 40 and r.u8() == 1
    r.expect_end()


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_roundtrip(v):
    assert Reader(codec.enc_u64(v)).u64() == v


@given(st.integers(min_value=0, max_value=255))
def test_u8_roundtrip(v):
    assert Reader(codec.enc_u8(v)).u8() == v


@given(st.floats(allow_nan=False))
def test_f64_roundtrip(v):
    assert Reader(codec.enc_f64(v)).f64() == v


@given(st.text(max_size=100))
def test_str_roundtrip(v):
    assert Reader(codec.enc_str(v)).str_() == v


@given(st.binary(min_size=32, max_size=32))
def test_digest_roundtrip(v):
    assert Reader(codec.enc_digest(v)).digest() == v


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30))
def test_list_roundtrip(vs):
    data = codec.enc_list(vs, codec.enc_u64)
    r = Reader(data)
    assert r.list_(lambda rr: rr.u64()) == vs
    r.expect_end()


@given(st.lists(st.text(max_size=20), max_size=10),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_concatenated_fields_roundtrip(names, tail):
    data = codec.enc_list(names, codec.enc_str) + codec.enc_u64(tail)
    r = Reader(data)
    assert r.list_(lambda rr: rr.str_()) == names
    assert r.u64() == tail
    r.expect_end()


def test_encoding_is_injective_on_adjacent_strings():
    # length prefixes keep "ab","c" distinct from "a","bc"
    assert (codec.enc_str("ab") + codec.enc_str("c")
            != codec.enc_str("a") + codec.enc_str("bc"))


def test_reader_reports_consumed_span():
    r = Reader(codec.enc_u64(7) + codec.enc_str("ab") + codec.enc_u8(1))
    r.u64()
    start = r.pos
    r.str_()
    assert r.since(start) == codec.enc_str("ab")
    assert r.since(0) == codec.enc_u64(7) + codec.enc_str("ab")


# ---------------------------------------------------------------------------
# Wire types: decode takes its digests from the bytes it consumed

u64s = st.integers(min_value=0, max_value=2**64 - 1)
digests = st.binary(min_size=32, max_size=32)
names = st.text(max_size=12)
signatures = st.builds(Signature, signer=names, payload_digest=digests, tag=digests)


def _lattice_block(kind, amount, counterparty, new_representative):
    return st.builds(LatticeBlock, account=names, predecessor=digests,
                     kind=st.just(kind), amount=amount, counterparty=counterparty,
                     new_representative=new_representative,
                     antispam_nonce=u64s, signature=signatures)


lattice_blocks = st.one_of(
    _lattice_block(BlockKind.GENESIS, u64s, st.none(), names),
    _lattice_block(BlockKind.SEND, u64s, names, st.none()),
    _lattice_block(BlockKind.RECEIVE, u64s, digests, st.none()),
    _lattice_block(BlockKind.REP_CHANGE, st.just(0), st.none(), names),
)
votes = st.builds(VoteRecord, representative=names, subject=digests,
                  choice=digests, weight=u64s, signature=signatures)
transactions = st.builds(ChainTransaction, sender=names, recipient=names,
                         amount=u64s, sequence=u64s, weight=u64s,
                         signature=signatures)
headers = st.builds(BlockHeader, predecessor=digests, tx_root=digests,
                    state_root=digests, height=u64s,
                    timestamp=st.floats(allow_nan=False, allow_infinity=False),
                    nonce=u64s, producer=names)
blocks = st.builds(Block, header=headers,
                   transactions=st.lists(transactions, max_size=3).map(tuple))
wire_objects = st.one_of(lattice_blocks, votes, transactions, headers, blocks)
changes = st.builds(AccountChange, u64s, u64s, u64s, u64s, st.booleans())


@given(digests, st.dictionaries(names, changes, max_size=8))
@example(ZERO_DIGEST, {"zoë-名": AccountChange(0, 5, 0, 1, existed_before=False)})
def test_state_delta_measures_its_encoding(block, account_changes):
    delta = StateDelta(block=block, changes=account_changes)
    assert delta.encoded_len() == len(delta.encode())


def _check_wire_digests(obj, raw):
    """A decoded object re-encodes to `raw`, and decode hashed those bytes."""
    assert obj.encode() == raw
    if isinstance(obj, Block):  # a block is named by its header
        assert obj.digest() == obj.header.digest()
        for part in (obj.header, *obj.transactions):
            _check_wire_digests(part, part.encode())
        return
    if not isinstance(obj, VoteRecord):  # nothing hashes a whole vote
        assert obj._digest == digest(raw)
    if isinstance(obj, (ChainTransaction, LatticeBlock)):  # size accounting
        assert obj._size == len(raw) == obj.encoded_len()
    if isinstance(obj, (ChainTransaction, LatticeBlock, VoteRecord)):
        # a fresh decode is verified, so it keeps the digest of the span it read
        assert obj._sd == digest(obj.signing_payload())


@given(wire_objects)
def test_wire_types_decode_to_equal_objects_with_wire_digests(x):
    raw = x.encode()
    r = Reader(raw)
    y = type(x).decode(r)
    r.expect_end()
    assert y == x
    _check_wire_digests(y, raw)


@given(st.one_of(lattice_blocks, transactions))
def test_locally_built_objects_measure_their_encoding(x):
    assert x._size is None
    assert x.encoded_len() == len(x.encode())
    assert x._size == len(x.encode())
    # a copy starts with an empty cache, so it measures its own encoding
    if isinstance(x, LatticeBlock):
        longer = replace(x, account=x.account + "z")
    else:
        longer = replace(x, sender=x.sender + "z")
    assert longer.encoded_len() == len(longer.encode()) == len(x.encode()) + 1


@given(headers, u64s)
def test_replaced_nonce_rehashes_header(header, nonce):
    before = header.digest()
    bumped = replace(header, nonce=nonce)
    assert bumped.digest() == digest(bumped.encode())
    assert (bumped.digest() == before) == (nonce == header.nonce)


@given(lattice_blocks, u64s)
def test_replaced_antispam_nonce_rehashes_block(block, nonce):
    before = block.digest()
    bumped = replace(block, antispam_nonce=nonce)
    assert bumped.digest() == digest(bumped.encode())
    assert (bumped.digest() == before) == (nonce == block.antispam_nonce)


@given(wire_objects, st.data())
def test_mutated_encodings_raise_or_decode_canonically(x, data):
    raw = bytearray(x.encode())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    r = Reader(bytes(raw))
    try:
        y = type(x).decode(r)
    except CodecError:
        return
    _check_wire_digests(y, r.since(0))


def test_unknown_lattice_kind_byte_is_a_codec_error():
    send = build_block(identity_for("carol"), ZERO_DIGEST, BlockKind.SEND,
                       amount=5, counterparty="home")
    raw = bytearray(send.encode())
    kind_at = len(codec.enc_str("carol")) + 32
    assert raw[kind_at] == BlockKind.SEND.value
    raw[kind_at] = 9
    with pytest.raises(CodecError):
        LatticeBlock.decode(Reader(bytes(raw)))
