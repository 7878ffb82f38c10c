"""One reset for every process-wide memo of the package.

Each memo maps a key to a value that is a pure function of it (an identity,
a name's encoded field, a state leaf, a Merkle root, a signature's expected
tag, a genesis block's values), so a warm memo changes no run's output. It
does change which statements run and how many hashes a run makes, so a test
that measures either starts from `clear_memos()`, as a fresh process does.
`tests/test_hygiene.py` checks that it leaves no memo of the package filled.
"""

from ledgerlab import blockchain, codec, lattice, primitives


def clear_memos() -> None:
    primitives.identity_for.cache_clear()
    primitives._tree_root.cache_clear()
    primitives._expected_tag.cache_clear()
    codec.NAME_FIELDS.clear()
    blockchain.STATE_LEAVES.clear()
    lattice.GENESIS_VALUES.clear()
