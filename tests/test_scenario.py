"""Config parsing, validation, overrides, presets."""

import pytest

from ledgerlab.errors import ConfigError
from ledgerlab.scenario import (
    PRESETS,
    SCHEMA,
    build_config,
    load_config,
    parse_config_text,
    preset_config,
)
from test_pins import VARIANTS


def _cfg(text, overrides=()):
    return build_config(parse_config_text(text), list(overrides))

MINIMAL_CHAIN = """
scenario.id = tiny
scenario.paradigm = chain
scenario.horizon_s = 10
net.nodes = 2
chain.hash_rates = 1.0
"""

MINIMAL_LATTICE = """
scenario.id = tiny-lat
scenario.paradigm = lattice
scenario.horizon_s = 10
net.nodes = 2
lattice.accounts = 4
"""


def test_parse_minimal_with_defaults():
    cfg = _cfg(MINIMAL_CHAIN)
    assert cfg.scenario_id == "tiny"
    assert cfg.paradigm == "chain"
    assert cfg["pow.retarget_window"] == 16
    assert cfg["chain.confirm_threshold"] == 6
    assert cfg["net.topology"] == "mesh"
    assert cfg["lattice.quorum_fraction"] == 0.5


def test_comments_and_blank_lines_ignored():
    cfg = _cfg(MINIMAL_CHAIN + "\n# a remark\n\n")
    assert cfg.scenario_id == "tiny"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        _cfg(MINIMAL_CHAIN + "chain.bogus = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        _cfg(MINIMAL_CHAIN + "net.nodes = 3\n")


def test_type_errors_surface():
    with pytest.raises(ConfigError):
        _cfg(MINIMAL_CHAIN.replace("net.nodes = 2",
                                                "net.nodes = lots"))


def test_a_value_that_is_not_text_is_rejected_by_key():
    base = parse_config_text(MINIMAL_CHAIN)
    for value in (5, 5.0, None, ("a", "b")):
        with pytest.raises(ConfigError, match=r"net\.nodes: .* \(expected text\)"):
            build_config({**base, "net.nodes": value})


def test_overrides_apply_and_validate():
    cfg = _cfg(MINIMAL_CHAIN, ["net.nodes=5", "chain.hash_rates=1,1,1,1"])
    assert cfg["net.nodes"] == 5
    assert len(cfg["chain.hash_rates"]) == 4
    with pytest.raises(ConfigError):
        _cfg(MINIMAL_CHAIN, ["nonsense"])
    with pytest.raises(ConfigError):
        _cfg(MINIMAL_CHAIN, ["chain.bogus=1"])


def test_cross_validation_chain():
    with pytest.raises(ConfigError):  # more miners than nodes
        _cfg(MINIMAL_CHAIN.replace("chain.hash_rates = 1.0",
                                                "chain.hash_rates = 1.0,1.0,1.0"))
    with pytest.raises(ConfigError):  # grind beyond the feasible bit limit
        _cfg(MINIMAL_CHAIN
                          + "chain.consensus = grind\npow.difficulty_bits = 30\n")
    # grind retargets to about log2(total hash rate * target interval) bits
    grind = MINIMAL_CHAIN + "chain.consensus = grind\nchain.block_interval_s = 2\n"
    _cfg(grind, [f"chain.hash_rates={2 ** 23}"])  # exactly 24 bits
    with pytest.raises(ConfigError, match="chain.hash_rates"):
        _cfg(grind, [f"chain.hash_rates={2 ** 23 + 1}"])
    with pytest.raises(ConfigError, match="chain.hash_rates"):  # one miner at 1.0
        _cfg(MINIMAL_CHAIN + "chain.consensus = grind\n"
             + f"chain.block_interval_s = {2 ** 24 + 1}\n")
    # the lottery searches no nonce, so any hash rate goes
    _cfg(MINIMAL_CHAIN, [f"chain.hash_rates={2 ** 40}"])
    with pytest.raises(ConfigError):  # pos needs stakes
        _cfg(MINIMAL_CHAIN + "chain.consensus = pos\n")
    with pytest.raises(ConfigError):  # prune window under reorg safety
        _cfg(MINIMAL_CHAIN + "chain.prune_keep_recent = 4\n"
                          + "chain.reorg_safety = 64\n")
    # prune disabled by zero is fine
    _cfg(MINIMAL_CHAIN + "chain.prune_keep_recent = 0\n")


def test_cross_validation_lattice():
    with pytest.raises(ConfigError):  # reps exceed accounts
        _cfg(MINIMAL_LATTICE + "lattice.representatives = 9\n")
    with pytest.raises(ConfigError):  # quorum out of range
        _cfg(MINIMAL_LATTICE + "lattice.quorum_fraction = 1.5\n")
    with pytest.raises(ConfigError):  # tier list length must match nodes
        _cfg(MINIMAL_LATTICE + "lattice.tiers = historical\n")
    _cfg(MINIMAL_LATTICE + "lattice.tiers = historical,current\n")
    with pytest.raises(ConfigError):
        _cfg(MINIMAL_LATTICE + "lattice.tiers = hot,cold\n")


def test_a_key_domain_holds_whichever_paradigm_runs():
    with pytest.raises(ConfigError, match="lattice.quorum_fraction"):
        _cfg(MINIMAL_CHAIN + "lattice.quorum_fraction = 1.5\n")
    with pytest.raises(ConfigError, match="chain.confirm_threshold"):
        _cfg(MINIMAL_LATTICE + "chain.confirm_threshold = 0\n")
    with pytest.raises(ConfigError, match="pos.stakes"):  # pow ignores stakes
        _cfg(MINIMAL_CHAIN + "pos.stakes = 5,-1\n")


def test_negative_gap_buffer_rejected():
    with pytest.raises(ConfigError, match="lattice.gap_buffer"):
        preset_config("nano-baseline", ["lattice.gap_buffer=-1"])
    # zero keeps no gap block at all, which is legal
    assert preset_config("nano-baseline",
                         ["lattice.gap_buffer=0"])["lattice.gap_buffer"] == 0


def _parses_to_float(parser) -> bool:
    try:
        value = parser("1.5")
    except (ValueError, ConfigError):
        return False
    return 1.5 in (value if isinstance(value, tuple) else (value,))


FLOAT_KEYS = sorted(key for key, (parser, _, _) in SCHEMA.items()
                    if _parses_to_float(parser))


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_key_refuses_a_value_that_is_not_finite(key):
    preset = "nano-baseline" if key.startswith(("lattice.", "fork.")) else "bitcoin-baseline"
    for raw in ("inf", "-inf", "nan", "1e999"):
        with pytest.raises(ConfigError, match=f"{key}: .* finite"):
            preset_config(preset, [f"{key}={raw}"])


def test_a_float_list_refuses_an_element_that_is_not_finite():
    assert "chain.hash_rates" in FLOAT_KEYS
    with pytest.raises(ConfigError, match="chain.hash_rates: inf .* finite"):
        preset_config("bitcoin-baseline", ["chain.hash_rates=1,inf,2"])


def test_partition_syntax():
    cfg = _cfg(MINIMAL_CHAIN + "net.partitions = 30-60:0,1|2,3\n", ["net.nodes=4"])
    parts = cfg["net.partitions"]
    assert len(parts) == 1
    assert parts[0].start_s == 30.0
    assert parts[0].end_s == 60.0
    assert parts[0].side_a == frozenset({0, 1})
    assert parts[0].side_b == frozenset({2, 3})
    multi = _cfg(
        MINIMAL_CHAIN + "net.partitions = 1-2:0|1;3-4:0|1\n")
    assert len(multi["net.partitions"]) == 2
    with pytest.raises(ConfigError):
        _cfg(MINIMAL_CHAIN + "net.partitions = nonsense\n")
    with pytest.raises(ConfigError, match="bad partition window"):
        _cfg(MINIMAL_CHAIN + "net.partitions = nan-5:0|1\n")
    with pytest.raises(ConfigError, match="names node -1"):
        _cfg(MINIMAL_CHAIN + "net.partitions = 1-2:-1|0\n")


def test_snapshot_lines_are_canonical():
    cfg = _cfg(MINIMAL_CHAIN + "net.partitions = 1-2:0|1\n")
    lines = cfg.snapshot_lines()
    assert lines == sorted(lines)
    assert any(l.startswith("net.partitions = 1-2:0|1") for l in lines)
    # canonical text parses back to the same snapshot
    reparsed = _cfg("\n".join(lines))
    assert reparsed.snapshot_lines() == lines


@pytest.mark.parametrize("name, overrides", [
    *((name, []) for name in sorted(PRESETS)),
    *((name, list(overrides)) for name, overrides in VARIANTS),
    # bounds past six significant digits, tiny, huge and open-ended
    ("partition-stress",
     ["net.partitions=0.00001-2:0|1;30.1234567-1234567.5:0,1|2,3;1e17-inf:0|3"]),
])
def test_snapshot_reproduces_the_config(name, overrides):
    cfg = preset_config(name, overrides)
    assert build_config(parse_config_text("\n".join(cfg.snapshot_lines()))) == cfg


def test_presets_all_validate():
    assert set(PRESETS) == {
        "bitcoin-baseline", "ethereum-baseline", "pos-baseline",
        "nano-baseline", "nano-scaling", "fork-stress", "partition-stress"}
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.scenario_id == name
        assert cfg.paradigm in ("chain", "lattice")
        # a preset is written line for line as its snapshot prints it
        snapshot = cfg.snapshot_lines()
        for line in PRESETS[name].strip().splitlines():
            assert line in snapshot, (name, line)


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigError, match="bitcoin-baseline"):
        preset_config("nothing-here")


def test_preset_with_override():
    cfg = preset_config("nano-scaling", ["lattice.accounts=100"])
    assert cfg["lattice.accounts"] == 100


def test_load_config_from_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL_CHAIN)
    cfg = load_config(str(path), ["scenario.horizon_s=20"])
    assert cfg["scenario.horizon_s"] == 20.0
