"""Canonical wire encoding round-trips and malformed-input handling."""

import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ledgerlab import blockchain, codec
from ledgerlab.blockchain import (
    AccountChange,
    AdoptionReport,
    Block,
    BlockHeader,
    ChainState,
    ChainTransaction,
    StateDelta,
    make_transaction,
)
from ledgerlab.codec import CodecError
from ledgerlab.lattice import (
    BlockKind,
    LatticeBlock,
    LatticeLedger,
    PendingSend,
    VoteRecord,
    build_block,
    make_vote,
)
from ledgerlab.primitives import (
    ZERO_DIGEST,
    Signature,
    WireObject,
    digest,
    identity_for,
    merkle_root,
)
from ledgerlab.runner import run
from ledgerlab.scenario import preset_config
from memos import clear_memos
from wire import FRAMING, decode_prefix, decode_scans, decode_whole, root_by_fields

U8 = struct.Struct(">B")
HEADER_SIZE = 3 * 32 + 8 + 8 + 8 + 4  # roots, height, timestamp, nonce, name length


def test_fixed_width_layouts():
    assert codec.enc_u8(0) == b"\x00"
    assert codec.enc_u8(255) == b"\xff"
    assert codec.enc_u64(1) == b"\x00" * 7 + b"\x01"
    assert len(codec.enc_u64(2**64 - 1)) == 8
    # a header's timestamp is a binary64 between its height and nonce
    header = BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 7, 1.5, 9, "")
    assert len(header.encode()) == HEADER_SIZE
    assert header.encode()[104:112] == struct.pack(">d", 1.5)
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

    class Name(str):
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
    with pytest.raises(CodecError):
        codec.enc_str(Name("carol"))


def _named(name):
    """One wire object of each kind whose first name is `name`."""
    signature = Signature("signer", ZERO_DIGEST, ZERO_DIGEST)
    return [
        LatticeBlock(name, ZERO_DIGEST, BlockKind.SEND, 5, "home", None, 0, signature),
        VoteRecord(name, ZERO_DIGEST, ZERO_DIGEST, 40, signature),
        ChainTransaction(name, "bob", 5, 1, 10, signature),
        BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 1, 1.0, 0, name),
    ]


def test_a_scan_rejects_underruns_and_invalid_utf8():
    for obj in _named("é"):
        raw = obj.encode()
        at = raw.index("é".encode("utf-8"))
        cls = type(obj)
        with pytest.raises(CodecError, match="underrun"):
            decode_whole(cls, raw[:at - 1])  # the length itself is cut short
        with pytest.raises(CodecError, match="underrun"):
            decode_whole(cls, raw[:at + 1])  # the body is cut short
        with pytest.raises(CodecError, match="utf-8"):
            decode_whole(cls, raw[:at] + b"\xff\xff" + raw[at + 2:])
    with pytest.raises(CodecError, match="underrun"):
        codec.DigestScan(bytes(31), 0)
    for obj in _named(""):
        cls = type(obj)
        raw = obj.encode() + obj.encode()
        scans = codec.scan_frame(raw, FRAMING[cls] * 2)  # two objects in a row
        assert [decode_scans(cls, [s], raw) for s in scans] == [obj, obj]


def test_a_frame_refuses_underruns_and_trailing_bytes():
    first, second = bytes(range(32)), bytes(range(1, 33))
    framing = (codec.DigestScan, [codec.DigestScan])  # a digest, a counted list
    data = first + codec.U32.pack(1) + second
    one, [other] = codec.scan_frame(data, framing)
    assert (one.digest, other.digest, other.end) == (first, second, len(data))
    for cut in (31, 34, 67):  # in the digest, in the count, in the listed digest
        with pytest.raises(CodecError, match="underrun"):
            codec.scan_frame(data[:cut], framing)
    with pytest.raises(CodecError, match="1 trailing bytes"):
        codec.scan_frame(data + b"\x01", framing)
    # a frame starts where it is told, and a count of zero is an empty list
    assert codec.scan_frame(codec.enc_u64(7) + codec.U32.pack(0), framing[1:], 8) == [[]]


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_roundtrip(v):
    assert codec.U64.unpack(codec.enc_u64(v)) == (v,)


@given(st.integers(min_value=0, max_value=255))
def test_u8_roundtrip(v):
    assert U8.unpack(codec.enc_u8(v)) == (v,)


@given(st.floats(allow_nan=False))
def test_f64_roundtrip(v):
    header = BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 1, v, 0, "miner")
    assert decode_whole(BlockHeader, header.encode()).timestamp == v


@given(st.text(max_size=100))
def test_str_roundtrip(v):
    assert codec.U32.unpack_from(codec.enc_str(v)) == (len(v.encode("utf-8")),)
    for obj in _named(v):
        assert decode_whole(type(obj), obj.encode()) == obj


@given(st.binary(min_size=32, max_size=32))
def test_digest_roundtrip(v):
    assert codec.DigestScan(codec.enc_digest(v), 0).digest == v


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30))
def test_list_roundtrip(vs):
    data = codec.enc_list(vs, codec.enc_u64)
    assert codec.U32.unpack_from(data) == (len(vs),)
    assert list(struct.unpack(f">{len(vs)}Q", data[4:])) == vs


@given(st.lists(st.text(max_size=20), max_size=10),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_concatenated_fields_roundtrip(names, tail):
    signature = Signature("signer", ZERO_DIGEST, ZERO_DIGEST)
    txs = [ChainTransaction(n, n, 5, 1, 10, signature) for n in names]
    data = codec.enc_list(txs, ChainTransaction.encode) + codec.enc_u64(tail)
    scans, _ = codec.scan_frame(data, ([*FRAMING[ChainTransaction]], _U64Scan))
    assert [ChainTransaction.decode(s, data, {}) for s in scans] == txs
    assert codec.U64.unpack(data[-8:]) == (tail,)


class _U64Scan:
    """A u64 as a framing step, for the test above."""

    def __init__(self, data, start):
        self.end = start + 8


def test_encoding_is_injective_on_adjacent_strings():
    # length prefixes keep "ab","c" distinct from "a","bc"
    assert (codec.enc_str("ab") + codec.enc_str("c")
            != codec.enc_str("a") + codec.enc_str("bc"))


def test_a_scan_spans_exactly_its_object():
    vote = make_vote(identity_for("home"), ZERO_DIGEST, ZERO_DIGEST, 40)
    data = codec.enc_u64(7) + vote.encode() + bytes(32)
    s, _ = codec.scan_frame(data, (*FRAMING[VoteRecord], codec.DigestScan), 8)
    assert data[s.start:s.end] == vote.encode()
    assert data[:s.end] == codec.enc_u64(7) + vote.encode()
    assert data[s.start:s.signed_end] == vote.signing_payload()


# ---------------------------------------------------------------------------
# Wire types: decode takes its digests from the bytes it consumed

u64s = st.integers(min_value=0, max_value=2**64 - 1)
digests = st.binary(min_size=32, max_size=32)
ACCOUNTS = ("carol", "home", "zoë")  # the accounts of the ledger below
names = st.text(max_size=12) | st.sampled_from(ACCOUNTS)
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


stored = st.one_of(
    lattice_blocks, transactions, headers, blocks,
    st.builds(StateDelta, digests, st.dictionaries(names, changes, max_size=8)),
    st.builds(PendingSend, digests, names, u64s),
)
_ZOE = Signature("zoë", ZERO_DIGEST, ZERO_DIGEST)


def _by_field_rules(x):
    """The length of `x` by the field rules that the byte recounts call."""
    if isinstance(x, Block):  # a stored body is a count, then each transaction
        return x.header.field_len() + 4 + sum(t.field_len() for t in x.transactions)
    if isinstance(x, (StateDelta, PendingSend)):
        return x.encoded_len()
    return x.field_len()


@given(stored)
@example(LatticeBlock("zoë", ZERO_DIGEST, BlockKind.GENESIS, 5, None, "名", 3, _ZOE))
@example(LatticeBlock("zoë", ZERO_DIGEST, BlockKind.SEND, 5, "名", None, 3, _ZOE))
@example(LatticeBlock("zoë", ZERO_DIGEST, BlockKind.RECEIVE, 5, ZERO_DIGEST, None, 3, _ZOE))
@example(LatticeBlock("zoë", ZERO_DIGEST, BlockKind.REP_CHANGE, 0, None, "名", 3, _ZOE))
@example(ChainTransaction("zoë", "名", 5, 1, 10, _ZOE))
@example(Block(BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 1, 1.0, 0, "zoë"), ()))
@example(StateDelta(ZERO_DIGEST, {"zoë-名": AccountChange(0, 5, 0, 1, existed_before=False)}))
@example(PendingSend(ZERO_DIGEST, "zoë-名", 7))
@example(PendingSend(ZERO_DIGEST, "", 0))
def test_each_stored_type_measures_its_encoding_by_its_fields(x):
    parts = (x.header, *x.transactions) if isinstance(x, Block) else (x,)
    for part in parts:
        if isinstance(part, WireObject):
            part._size = -1  # a wrong size cache, which no field rule reads
    assert _by_field_rules(x) == len(x.encode())


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
    if isinstance(obj, (ChainTransaction, LatticeBlock, BlockHeader)):  # size accounting
        assert obj._size == len(raw) == obj.encoded_len()
    if isinstance(obj, (ChainTransaction, LatticeBlock, VoteRecord)):
        # a fresh decode is verified, so it keeps the digest of the span it read
        assert obj._sd == digest(obj.signing_payload())


@given(wire_objects)
def test_wire_types_decode_to_equal_objects_with_wire_digests(x):
    raw = x.encode()
    y = decode_whole(type(x), raw)
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
    try:
        y, end = decode_prefix(type(x), bytes(raw))
    except CodecError:
        return
    _check_wire_digests(y, bytes(raw[:end]))


def test_unknown_lattice_kind_byte_is_a_codec_error():
    send = build_block(identity_for("carol"), ZERO_DIGEST, BlockKind.SEND,
                       amount=5, counterparty="home")
    raw = bytearray(send.encode())
    kind_at = len(codec.enc_str("carol")) + 32
    assert raw[kind_at] == BlockKind.SEND.value
    raw[kind_at] = 9
    with pytest.raises(CodecError):
        decode_whole(LatticeBlock, bytes(raw))


# ---------------------------------------------------------------------------
# The kernels against field-by-field decoders
#
# The oracles below read one field per call, as the wire types did before
# they became kernels; the kernels must agree with them on every input.

_PREDECESSOR_KIND = struct.Struct(">32sB")
_RECEIVE_FIELDS = struct.Struct(">Q32s")
_VOTE_FIELDS = struct.Struct(">32s32sQ")
_TX_NUMBERS = struct.Struct(">QQQ")
_HEADER_ROOTS = struct.Struct(">32s32s32sQ")
_SIGNATURE_DIGESTS = struct.Struct(">32s32s")
_F64 = struct.Struct(">d")
_KIND_OF = {k.value: k for k in BlockKind}


class _FieldReader:
    """A cursor that reads one field per call, each with its own bounds check."""

    def __init__(self, data):
        self.data, self.pos = data, 0

    def fixed(self, layout):
        end = self.pos + layout.size
        if end > len(self.data):
            raise CodecError("buffer underrun")
        start, self.pos = self.pos, end
        return layout.unpack_from(self.data, start)

    def u64(self):
        return self.fixed(codec.U64)[0]

    def str_(self):
        end = self.pos + 4 + self.fixed(codec.U32)[0]
        if end > len(self.data):
            raise CodecError("buffer underrun")
        start, self.pos = self.pos, end
        try:
            return self.data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8") from exc

    def since(self, start):
        return self.data[start:self.pos]


def _oracle_signature(r):
    return Signature(r.str_(), *r.fixed(_SIGNATURE_DIGESTS))


def _oracle_lattice_block(r, ledger):
    start = r.pos
    account = r.str_()
    predecessor, kind_value = r.fixed(_PREDECESSOR_KIND)
    kind = _KIND_OF.get(kind_value)
    if kind is None:
        raise CodecError("unknown lattice block kind")
    if kind is BlockKind.SEND:
        amount, counterparty, new_rep = r.u64(), r.str_(), None
    elif kind is BlockKind.RECEIVE:
        (amount, counterparty), new_rep = r.fixed(_RECEIVE_FIELDS), None
    elif kind is BlockKind.GENESIS:
        amount, counterparty, new_rep = r.u64(), None, r.str_()
    else:
        amount, counterparty, new_rep = 0, None, r.str_()
    signed_len = r.pos - start
    nonce, signature = r.u64(), _oracle_signature(r)
    raw = r.since(start)
    d = digest(raw)
    if ledger is not None:
        chain = ledger.accounts.get(account)
        if chain is not None and d in chain.blocks:
            return chain.blocks[d]
        account = ledger.name(account)
        signature = replace(signature, signer=ledger.name(signature.signer))
        if kind is BlockKind.SEND:
            counterparty = ledger.name(counterparty)
        elif new_rep is not None:
            new_rep = ledger.name(new_rep)
    block = LatticeBlock(account, predecessor, kind, amount, counterparty, new_rep,
                         nonce, signature)
    object.__setattr__(block, "_sd", digest(raw[:signed_len]))
    object.__setattr__(block, "_digest", d)
    object.__setattr__(block, "_size", len(raw))
    return block


def _oracle_vote(r, ledger):
    start = r.pos
    representative = r.str_()
    subject, choice, weight = r.fixed(_VOTE_FIELDS)
    signed_len = r.pos - start
    signature = _oracle_signature(r)
    if ledger is not None:  # a vote decodes fresh, even one the ledger holds
        representative = ledger.name(representative)
        signature = replace(signature, signer=ledger.name(signature.signer))
    vote = VoteRecord(representative, subject, choice, weight, signature)
    object.__setattr__(vote, "_sd", digest(r.since(start)[:signed_len]))
    return vote


def _oracle_transaction(r, pool):
    start = r.pos
    sender, recipient = r.str_(), r.str_()
    amount, sequence, weight = r.fixed(_TX_NUMBERS)
    signed_len = r.pos - start
    signature = _oracle_signature(r)
    raw = r.since(start)
    d = digest(raw)
    if pool and d in pool:
        return pool[d]
    tx = ChainTransaction(sender, recipient, amount, sequence, weight, signature)
    object.__setattr__(tx, "_sd", digest(raw[:signed_len]))
    object.__setattr__(tx, "_digest", d)
    object.__setattr__(tx, "_size", len(raw))
    return tx


def _oracle_header(r):
    start = r.pos
    roots = r.fixed(_HEADER_ROOTS)
    header = BlockHeader(*roots, r.fixed(_F64)[0], r.u64(), r.str_())
    object.__setattr__(header, "_digest", digest(r.since(start)))
    object.__setattr__(header, "_size", r.pos - start)
    return header


def _oracle_block(r, pool):
    header = _oracle_header(r)
    (count,) = r.fixed(codec.U32)
    return Block(header, tuple(_oracle_transaction(r, pool) for _ in range(count)))


def _context_ledger():
    """A ledger holding blocks of every kind, and votes on two subjects."""
    ledger = LatticeLedger({"carol": (100, "carol"), "home": (40, "home"),
                            "zoë": (10, "carol")})
    send = ledger.create_send("carol", "home", 30)
    ledger.receive_block(send)
    ledger.receive_block(ledger.create_receive("home", send.digest()))
    rep_change = ledger.create_rep_change("zoë", "home")
    ledger.receive_block(rep_change)
    for rep, block in (("carol", send), ("home", send), ("home", rep_change)):
        vote = make_vote(identity_for(rep), block.predecessor, block.digest(),
                         ledger.representative_weight(rep))
        ledger.add_vote(vote)
    return ledger


LEDGER = _context_ledger()
HELD_BLOCKS = [b for chain in LEDGER.accounts.values() for b in chain.blocks.values()]
HELD_VOTES = [v for ballot in LEDGER.votes.values() for v in ballot.values()]
POOLED = [make_transaction(identity_for(sender), "bob", 5, seq, 10)
          for sender in ("alice", "zoë") for seq in (1, 2)]
POOL = {tx.digest(): tx for tx in POOLED}
KEPT = {id(x) for x in HELD_BLOCKS + HELD_VOTES + POOLED}
assert len(HELD_BLOCKS) == 6 and len(HELD_VOTES) == 3


def _agree(kernel, oracle, ledger):
    """Equal fields and caches, the same kept object, the same shared names."""
    assert type(kernel) is type(oracle)
    assert (id(kernel) in KEPT) == (id(oracle) in KEPT)
    if id(oracle) in KEPT:
        assert kernel is oracle
        return
    if isinstance(kernel, Block):
        _agree(kernel.header, oracle.header, ledger)
        assert len(kernel.transactions) == len(oracle.transactions)
        for k, o in zip(kernel.transactions, oracle.transactions):
            _agree(k, o, ledger)
        return
    assert kernel == oracle
    for cache in ("_sd", "_digest", "_size"):
        assert getattr(kernel, cache) == getattr(oracle, cache), cache
    if ledger is not None and isinstance(kernel, (LatticeBlock, VoteRecord)):
        for obj in (kernel, oracle, kernel.signature, oracle.signature):
            for name in obj.__dataclass_fields__:
                value = getattr(obj, name)
                if value in ACCOUNTS:  # a name the ledger keeps is its string
                    assert value is ledger.name(value), name


_DECODERS = {
    LatticeBlock: (_oracle_lattice_block, LEDGER),
    VoteRecord: (_oracle_vote, LEDGER),
    ChainTransaction: (_oracle_transaction, POOL),
    Block: (_oracle_block, POOL),
    BlockHeader: (lambda r, _: _oracle_header(r), None),
}

kept_or_random = st.one_of(
    lattice_blocks, st.sampled_from(HELD_BLOCKS),
    votes, st.sampled_from(HELD_VOTES),
    transactions, st.sampled_from(POOLED),
    headers, blocks,
    st.builds(Block, header=headers,
              transactions=st.lists(st.sampled_from(POOLED) | transactions,
                                    max_size=3).map(tuple)),
)


def _decode_both(cls, raw, with_context):
    """Kernel and oracle on `raw`: equal results, or both raise CodecError."""
    oracle, context = _DECODERS[cls]
    context = context if with_context else None
    # without one, the kernel decodes against a context that holds nothing
    args = (context,) if with_context and cls is not BlockHeader else ()
    if args and cls is VoteRecord:
        args += (HELD_BLOCKS[0],)  # a vote decodes beside a block; any will do
    oracle_reader = _FieldReader(raw)
    try:
        expected = oracle(oracle_reader, context)
    except CodecError:
        with pytest.raises(CodecError):
            decode_prefix(cls, raw, *args)
        return
    got, end = decode_prefix(cls, raw, *args)
    assert end == oracle_reader.pos
    _agree(got, expected, context if cls in (LatticeBlock, VoteRecord) else None)


@settings(max_examples=400, deadline=None)
@given(kept_or_random, st.booleans(), st.data())
def test_kernels_decode_as_the_field_by_field_decoders(x, with_context, data):
    raw = bytearray(x.encode())
    change = data.draw(st.sampled_from(["none", "truncate", "flip"]), label="change")
    if change == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif change == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
    # a trailing byte shows that each decoder stops where it should
    _decode_both(type(x), bytes(raw) + b"\x00", with_context)


def test_kernels_agree_on_every_truncation_and_flip_of_kept_objects():
    header = BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 1, 1.0, 0, "miner")
    block = Block(header, tuple(POOLED[:2]))
    for x in HELD_BLOCKS + HELD_VOTES + POOLED + [header, block]:
        raw = x.encode()
        for with_context in (False, True):
            for n in range(len(raw) + 1):
                _decode_both(type(x), raw[:n], with_context)
            for at in range(len(raw)):
                _decode_both(type(x), raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:],
                             with_context)


# ---------------------------------------------------------------------------
# The kernel encoders keep the exact-type checks of the enc_* helpers


class _Int(int):
    pass


class _Str(str):
    pass


_BAD = {
    "u64": [True, _Int(5), -1, 2**64],
    "digest": [bytearray(32), bytes(31), "x" * 32],
    "str": [_Str("carol"), b"carol", None, "lone \ud800"],
}
_SIG = Signature("carol", ZERO_DIGEST, ZERO_DIGEST)
_SEND = LatticeBlock("carol", ZERO_DIGEST, BlockKind.SEND, 5, "home", None, 0, _SIG)
_RECEIVE = replace(_SEND, kind=BlockKind.RECEIVE, counterparty=ZERO_DIGEST)
_GENESIS = replace(_SEND, kind=BlockKind.GENESIS, counterparty=None,
                   new_representative="home")
_REP_CHANGE = replace(_GENESIS, kind=BlockKind.REP_CHANGE, amount=0)
_VOTE = VoteRecord("home", ZERO_DIGEST, ZERO_DIGEST, 40, _SIG)
_TX = ChainTransaction("alice", "bob", 5, 1, 10, _SIG)
_HEADER = BlockHeader(ZERO_DIGEST, ZERO_DIGEST, ZERO_DIGEST, 1, 1.0, 0, "miner")
_CHANGE = AccountChange(5, 3, 0, 1)

# (object, field, domain, whether the field is under the signature)
_TYPED_FIELDS = [
    (_SEND, "account", "str", True), (_SEND, "predecessor", "digest", True),
    (_SEND, "amount", "u64", True), (_SEND, "counterparty", "str", True),
    (_SEND, "antispam_nonce", "u64", False),
    (_RECEIVE, "amount", "u64", True), (_RECEIVE, "counterparty", "digest", True),
    (_GENESIS, "amount", "u64", True), (_GENESIS, "new_representative", "str", True),
    (_REP_CHANGE, "new_representative", "str", True),
    (_VOTE, "representative", "str", True), (_VOTE, "subject", "digest", True),
    (_VOTE, "choice", "digest", True), (_VOTE, "weight", "u64", True),
    (_TX, "sender", "str", True), (_TX, "recipient", "str", True),
    (_TX, "amount", "u64", True), (_TX, "sequence", "u64", True),
    (_TX, "weight", "u64", True),
    (_HEADER, "predecessor", "digest", False), (_HEADER, "tx_root", "digest", False),
    (_HEADER, "state_root", "digest", False), (_HEADER, "height", "u64", False),
    (_HEADER, "nonce", "u64", False), (_HEADER, "producer", "str", False),
    (_SIG, "signer", "str", False), (_SIG, "payload_digest", "digest", False),
    (_SIG, "tag", "digest", False),
    (_CHANGE, "balance_before", "u64", False), (_CHANGE, "balance_after", "u64", False),
    (_CHANGE, "sequence_before", "u64", False), (_CHANGE, "sequence_after", "u64", False),
]


@pytest.mark.parametrize("obj, name, domain, signed", _TYPED_FIELDS,
                         ids=[f"{type(o).__name__}-{o.kind.name if isinstance(o, LatticeBlock) else ''}-{n}"
                              for o, n, _, _ in _TYPED_FIELDS])
def test_kernel_encoders_refuse_near_types(obj, name, domain, signed):
    obj.encode()  # the unchanged object encodes
    for bad in _BAD[domain]:
        broken = replace(obj, **{name: bad})
        with pytest.raises(CodecError):
            broken.encode()
        if signed:
            with pytest.raises(CodecError):
                broken.signing_payload()
        if isinstance(obj, Signature):  # a signature is encoded inside its owner
            for owner in (_SEND, _VOTE, _TX):
                with pytest.raises(CodecError):
                    replace(owner, signature=broken).encode()
    for bad in (True, "1.0"):
        with pytest.raises(CodecError):
            replace(_HEADER, timestamp=bad).encode()


# ---------------------------------------------------------------------------
# The chain's one-pass kernels give the bytes of the field-by-field helpers
# they replace, and refuse what the helpers refuse.

def _change_by_fields(change):
    return (codec.enc_u64(change.balance_before) + codec.enc_u64(change.balance_after)
            + codec.enc_u64(change.sequence_before) + codec.enc_u64(change.sequence_after)
            + codec.enc_u8(1 if change.existed_before else 0))


def _delta_by_fields(delta):
    return codec.enc_digest(delta.block) + codec.enc_list(
        sorted(delta.changes.items()),
        lambda kv: codec.enc_str(kv[0]) + _change_by_fields(kv[1]))


def _tx_by_fields(tx):
    sig = tx.signature
    return (codec.enc_str(tx.sender) + codec.enc_str(tx.recipient)
            + codec.enc_u64(tx.amount) + codec.enc_u64(tx.sequence)
            + codec.enc_u64(tx.weight) + codec.enc_str(sig.signer)
            + codec.enc_digest(sig.payload_digest) + codec.enc_digest(sig.tag))


# a state whose accounts may lack a sequence, which reads as 0
states = st.dictionaries(names, st.tuples(u64s, st.none() | u64s), max_size=8).map(
    lambda accounts: ChainState(
        {a: balance for a, (balance, _) in accounts.items()},
        {a: sequence for a, (_, sequence) in accounts.items() if sequence is not None}))


@given(changes, digests, st.dictionaries(names, changes, max_size=8))
@example(AccountChange(2**64 - 1, 0, 2**64 - 1, 0, False), ZERO_DIGEST,
         {"zoë-名": AccountChange(0, 5, 0, 1, existed_before=False), "": AccountChange(1, 1, 1, 1)})
def test_state_delta_kernels_match_the_helpers(change, block, account_changes):
    assert change.encode() == _change_by_fields(change)
    delta = StateDelta(block, account_changes)
    assert delta.encode() == _delta_by_fields(delta)


@given(transactions)
def test_transaction_kernel_matches_the_helpers(tx):
    assert tx.encode() == _tx_by_fields(tx)
    assert tx.encode().startswith(tx.signing_payload())


@given(states, states)
def test_state_root_leaf_kernel_matches_the_helpers(state, later):
    clear_memos()
    assert state.root() == root_by_fields(state)
    assert later.root() == root_by_fields(later)  # the first root's leaves reused


@pytest.mark.parametrize("balances,sequences", [
    ({"alice": True}, {"alice": 0}),
    ({"alice": 1.0}, {"alice": 0}),
    ({"alice": 1}, {"alice": False}),
    ({_Str("alice"): 1}, {"alice": 0}),
], ids=["bool-balance", "float-balance", "bool-sequence", "str-subclass"])
def test_a_state_root_refuses_a_near_value_cold_and_warm(monkeypatch, balances, sequences):
    # each near value equals the memoised one, so only a type check can refuse it
    monkeypatch.setattr(blockchain, "STATE_LEAVES", {})
    near = ChainState(balances, sequences)
    with pytest.raises(CodecError):
        near.root()
    assert blockchain.STATE_LEAVES == {}
    ChainState({"alice": 1}, {"alice": 0}).root()
    warm = dict(blockchain.STATE_LEAVES)
    assert list(warm) == ["alice"] and warm["alice"][:2] == (1, 0)
    with pytest.raises(CodecError):
        near.root()
    assert blockchain.STATE_LEAVES == warm


def _near_value_encodes():
    """(id, call) of a state delta and a state root fed each value their
    kernels refuse; `test_kernel_encoders_refuse_near_types` feeds the
    account change and transaction kernels."""
    calls = [(f"delta-block-{bad!r}", StateDelta(bad, {}).encode) for bad in _BAD["digest"]]
    for bad in _BAD["u64"]:
        broken = replace(_CHANGE, balance_after=bad)
        calls.append((f"delta-change-{bad!r}", StateDelta(ZERO_DIGEST, {"alice": broken}).encode))
        calls.append((f"leaf-balance-{bad!r}", ChainState({"alice": bad}, {"alice": 0}).root))
        calls.append((f"leaf-sequence-{bad!r}", ChainState({"alice": 5}, {"alice": bad}).root))
    for bad in _BAD["str"]:
        calls.append((f"delta-name-{bad!r}", StateDelta(ZERO_DIGEST, {bad: _CHANGE}).encode))
        calls.append((f"leaf-name-{bad!r}", ChainState({bad: 5}, {bad: 1}).root))
    # names that do not sort together are refused before any is encoded
    calls.append(("delta-names-mixed",
                  StateDelta(ZERO_DIGEST, {b"a": _CHANGE, "b": _CHANGE}).encode))
    calls.append(("leaf-names-mixed", ChainState({b"a": 1, "b": 2}, {}).root))
    return calls


@pytest.mark.parametrize("encode", [c for _, c in _near_value_encodes()],
                         ids=[i for i, _ in _near_value_encodes()])
def test_state_kernels_refuse_near_values_with_a_codec_error(encode):
    with pytest.raises(CodecError):  # a struct.error would escape this
        encode()


# ---------------------------------------------------------------------------
# Every kernel that writes a name takes its whole field from the memo in
# `codec.enc_str`. Cold or warm, the bytes are those of a field-by-field
# encoder that never reads the memo, and a refused name leaves it unchanged.

def _field(name):
    raw = name.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


_OTHER = bytes(range(32))


def _name_kernels(a, b):
    """(label, kernel call, expected bytes) of each name-writing kernel,
    with `a` and `b` in its name slots."""
    sig = Signature(b, ZERO_DIGEST, _OTHER)
    sig_bytes = _field(b) + ZERO_DIGEST + _OTHER
    tx = ChainTransaction(a, b, 5, 1, 10, sig)
    tx_payload = _field(a) + _field(b) + _TX_NUMBERS.pack(5, 1, 10)
    state = ChainState({a: 7, b: 9}, {a: 2})
    leaves = [digest(_field(n) + codec.U64.pack(state.balances[n])
                     + codec.U64.pack(state.sequences.get(n, 0)))
              for n in sorted(state.balances)]
    changes = {a: AccountChange(0, 5, 0, 1, False), b: AccountChange(9, 4, 3, 4)}
    delta = StateDelta(_OTHER, changes)
    delta_bytes = _OTHER + codec.U32.pack(2) + b"".join(
        _field(n) + _change_by_fields(changes[n]) for n in sorted(changes))
    vote = VoteRecord(a, ZERO_DIGEST, _OTHER, 40, sig)
    vote_payload = _field(a) + ZERO_DIGEST + _OTHER + codec.U64.pack(40)
    pend = PendingSend(_OTHER, a, 5)
    pend_bytes = _OTHER + _field(a) + codec.U64.pack(5)
    cases = [
        ("signature", sig.encode, sig_bytes),
        ("tx-payload", tx.signing_payload, tx_payload),
        ("tx", tx.encode, tx_payload + sig_bytes),
        ("state-root", state.root, merkle_root(leaves)),
        ("delta", delta.encode, delta_bytes),
        ("delta-len", delta.encoded_len, len(delta_bytes)),
        ("vote-payload", vote.signing_payload, vote_payload),
        ("vote", vote.encode, vote_payload + sig_bytes),
        ("pending", pend.encode, pend_bytes),
        ("pending-len", pend.encoded_len, len(pend_bytes)),
    ]
    amount = codec.U64.pack(5)
    for kind, counterparty, rep, tail in (
            (BlockKind.SEND, b, None, amount + _field(b)),
            (BlockKind.GENESIS, None, b, amount + _field(b)),
            (BlockKind.RECEIVE, _OTHER, None, amount + _OTHER),
            (BlockKind.REP_CHANGE, None, b, _field(b))):
        block = LatticeBlock(a, ZERO_DIGEST, kind, 0 if kind is BlockKind.REP_CHANGE else 5,
                             counterparty, rep, 3, sig)
        payload = _field(a) + ZERO_DIGEST + bytes([kind.value]) + tail
        cases.append((f"{kind.name}-payload", block.signing_payload, payload))
        cases.append((kind.name, block.encode, payload + codec.U64.pack(3) + sig_bytes))
    return cases


# a long name has a length past 16 bits
MEMO_NAMES = ["carol", "", "zoë-名", "ü" * 40_000]


@pytest.mark.parametrize("name", MEMO_NAMES, ids=["ascii", "empty", "non-ascii", "long"])
def test_name_kernels_write_the_field_by_field_bytes_cold_and_warm(monkeypatch, name):
    monkeypatch.setattr(codec, "NAME_FIELDS", {})
    a, b = name, name + "·2"
    for label, kernel, expected in _name_kernels(a, b):
        codec.NAME_FIELDS.clear()
        assert kernel() == expected, f"{label}, cold"
        memo = dict(codec.NAME_FIELDS)
        assert memo and memo.keys() <= {a, b}, label
        assert all(field == _field(n) for n, field in memo.items()), label
        assert kernel() == expected, f"{label}, warm"
        assert codec.NAME_FIELDS == memo, label
    assert codec.enc_str(a) is codec.enc_str(a) == _field(a)


def _refused_name_calls(bad):
    """(label, call) of `enc_str` and of each name-writing kernel with `bad`
    in one name slot; a list cannot key the dicts of a delta or a state."""
    calls = [("enc_str", lambda: codec.enc_str(bad)),
             ("signature", replace(_SIG, signer=bad).encode),
             ("pending", PendingSend(ZERO_DIGEST, bad, 5).encode),
             ("pending-len", PendingSend(ZERO_DIGEST, bad, 5).encoded_len)]
    for obj, name in ((_SEND, "account"), (_SEND, "counterparty"),
                      (_GENESIS, "new_representative"),
                      (_REP_CHANGE, "new_representative"),
                      (_VOTE, "representative"), (_TX, "sender"), (_TX, "recipient")):
        broken = replace(obj, **{name: bad})
        label = f"{type(obj).__name__}.{name}"
        calls.append((f"{label}-payload", broken.signing_payload))
        calls.append((label, broken.encode))
        if obj is not _VOTE:  # a vote is never stored, so it has no field rule
            calls.append((f"{label}-len", broken.field_len))
    if type(bad) is not list:
        delta = StateDelta(ZERO_DIGEST, {"alice": _CHANGE, bad: _CHANGE})
        root = ChainState({"alice": 1, bad: 5}, {bad: 1}).root
        # the same root once every good name holds a leaf at its numbers
        warm = ChainState({"alice": 1, "carol": 5}, {"carol": 1}).root
        calls += [("delta", delta.encode), ("delta-len", delta.encoded_len),
                  ("state-root", root), ("state-root-warm", lambda: (warm(), root()))]
    return calls


@pytest.mark.parametrize("bad", [_Str("carol"), b"carol", ["carol"], "lone \ud800"],
                         ids=["str-subclass", "bytes", "list", "lone-surrogate"])
def test_a_refused_name_is_a_codec_error_and_leaves_the_memo_unchanged(monkeypatch, bad):
    monkeypatch.setattr(codec, "NAME_FIELDS", {})
    monkeypatch.setattr(blockchain, "STATE_LEAVES", {})
    for obj in (_SEND, _GENESIS, _REP_CHANGE, _VOTE, _TX, _SIG):
        obj.encode()  # every good name is memoised, "carol" among them
    codec.enc_str("alice")
    assert "carol" in codec.NAME_FIELDS
    memo = dict(codec.NAME_FIELDS)
    for label, call in _refused_name_calls(bad):
        with pytest.raises(CodecError):  # a TypeError would escape this
            call()
        assert codec.NAME_FIELDS == memo, label
    if type(bad) is not list:  # the warm root stored the good names' leaves only
        assert sorted(blockchain.STATE_LEAVES) == ["alice", "carol"]


# ---------------------------------------------------------------------------
# Wire objects and the chain's state records are write-once: each public
# field is set once, by the constructor, and each cache only while it is
# None. The types are plain slotted records, so this guard, not the type,
# checks it.

CACHES = ("_sd", "_digest", "_size", "_verified")
WRITE_ONCE_TYPES = [*WireObject.__subclasses__(), Signature, Block,
                    AccountChange, StateDelta, AdoptionReport, PendingSend]


def _write_once_setattr(self, name, value):
    if name in CACHES:
        if getattr(self, name, None) is not None:
            raise AttributeError(f"{type(self).__name__}.{name} is cached already")
    elif hasattr(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is set already")
    object.__setattr__(self, name, value)


@pytest.fixture
def write_once(monkeypatch):
    assert {LatticeBlock, VoteRecord, ChainTransaction, BlockHeader} <= set(WRITE_ONCE_TYPES)
    for cls in WRITE_ONCE_TYPES:
        monkeypatch.setattr(cls, "__setattr__", _write_once_setattr, raising=False)


def test_the_write_once_guard_catches_a_mutation(write_once):
    vote = make_vote(identity_for("home"), ZERO_DIGEST, ZERO_DIGEST, 40)
    assert vote._sd is not None
    with pytest.raises(AttributeError, match="weight is set already"):
        vote.weight = 4
    with pytest.raises(AttributeError, match="_sd is cached already"):
        vote._sd = ZERO_DIGEST
    vote.digest()  # an empty cache still fills


def test_the_write_once_guard_covers_the_state_records(write_once):
    change = AccountChange(5, 3, 0, 1)
    with pytest.raises(AttributeError, match="balance_after is set already"):
        change.balance_after = 4
    delta = StateDelta(ZERO_DIGEST, {"alice": change})
    with pytest.raises(AttributeError, match="changes is set already"):
        delta.changes = {}
    report = AdoptionReport(1, 2, (), (ZERO_DIGEST,))
    with pytest.raises(AttributeError, match="new_height is set already"):
        report.new_height = 3
    pend = PendingSend(ZERO_DIGEST, "alice", 5)
    with pytest.raises(AttributeError, match="amount is set already"):
        pend.amount = 4
    with pytest.raises(TypeError):  # a plain slotted record is unhashable,
        hash(pend)  # so the guarded runs show that nothing hashes one


def _constructions(monkeypatch, types):
    """The class name of each object of `types` built from here on."""
    built = []
    for cls in types:
        def counted(self, *args, __init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("make,kind", [
    (lambda: build_block(identity_for("carol"), ZERO_DIGEST, BlockKind.SEND,
                         amount=5, counterparty="home", spam_bits=2), "LatticeBlock"),
    (lambda: make_vote(identity_for("home"), ZERO_DIGEST, ZERO_DIGEST, 40), "VoteRecord"),
    (lambda: make_transaction(identity_for("alice"), "bob", 5, 1, 10), "ChainTransaction"),
], ids=["build_block", "make_vote", "make_transaction"])
def test_a_new_object_is_signed_from_its_fields_by_one_constructor_call(
        monkeypatch, make, kind):
    built = _constructions(monkeypatch, [LatticeBlock, VoteRecord, ChainTransaction,
                                         Signature])
    obj = make()
    assert sorted(built) == sorted([kind, "Signature"])
    assert obj._sd == digest(obj.signing_payload()) and obj.verify_signature()


def test_hashing_a_measured_object_writes_its_size_once(write_once):
    tx = make_transaction(identity_for("alice"), "bob", 5, 1, 10)
    assert tx.encoded_len() == len(tx.encode())
    assert tx.digest() == digest(tx.encode())


@pytest.mark.parametrize("round_trip", [
    test_wire_types_decode_to_equal_objects_with_wire_digests,
    test_locally_built_objects_measure_their_encoding,
    test_mutated_encodings_raise_or_decode_canonically,
    test_kernels_decode_as_the_field_by_field_decoders,
    test_kernels_agree_on_every_truncation_and_flip_of_kept_objects,
], ids=lambda f: f.__name__)
def test_codec_round_trips_write_each_field_once(write_once, round_trip):
    round_trip()


@pytest.mark.parametrize("name,horizon_s", [("bitcoin-baseline", 60),
                                            ("nano-scaling", 20),
                                            ("fork-stress", 40)])
def test_runs_write_each_field_once(write_once, name, horizon_s):
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)
    assert result.breach is None
