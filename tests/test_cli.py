"""Command-line verbs and exit statuses."""

import shlex
from pathlib import Path

import pytest

from ledgerlab import cli, metrics
from ledgerlab.cli import EXIT_BREACH, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from ledgerlab.metrics import CSV_HEADER


def test_run_ok(tmp_path, capsys):
    rc = main(["run", "--config", "nano-baseline", "--seeds", "1",
               "--override", "scenario.horizon_s=10", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "nano-baseline seed 1: ok" in out
    assert (tmp_path / "nano-baseline.csv").exists()


def test_run_seed_range(tmp_path, capsys):
    rc = main(["run", "--config", "nano-baseline", "--seeds", "4..5",
               "--override", "scenario.horizon_s=5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "seed 4" in out and "seed 5" in out
    assert "seed 3" not in out


def test_zero_seeds_is_usage_error(capsys):
    rc = main(["run", "--config", "nano-baseline", "--seeds", "0"])
    assert rc == EXIT_USAGE
    assert "no seeds" in capsys.readouterr().err


def test_bad_seed_string(capsys):
    rc = main(["run", "--config", "nano-baseline", "--seeds", "many"])
    assert rc == EXIT_USAGE


def test_unknown_preset(capsys):
    rc = main(["run", "--config", "no-such-thing"])
    assert rc == EXIT_USAGE
    assert "available" in capsys.readouterr().err


def test_missing_config_file(capsys):
    rc = main(["run", "--config", "/nowhere/missing.cfg"])
    assert rc == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_missing_verb_is_usage(capsys):
    assert main([]) == EXIT_USAGE


def test_bad_override(capsys):
    rc = main(["validate", "--config", "nano-baseline",
               "--override", "lattice.bogus=1"])
    assert rc == EXIT_USAGE


def test_negative_gap_buffer_is_usage_error(capsys):
    rc = main(["validate", "--config", "nano-baseline",
               "--override", "lattice.gap_buffer=-1"])
    assert rc == EXIT_USAGE
    assert "lattice.gap_buffer" in capsys.readouterr().err


@pytest.mark.parametrize("preset, overrides, reason", [
    ("nano-baseline", ["lattice.offline_accounts=11"], "overlaps the representatives"),
    ("fork-stress", ["lattice.accounts=3", "lattice.representatives=3"],
     "no eligible attacker"),
    ("bitcoin-baseline", ["chain.tx_weight=3000"], "no transaction fits"),
    # each of these ran, and crashed, failed late or ignored the value
    ("bitcoin-baseline", ["chain.accounts=1"], "chain.accounts: 1 (expected at least 2)"),
    ("bitcoin-baseline", ["chain.max_amount=0"],
     "chain.max_amount: 0 (expected at least 1)"),
    ("nano-baseline", ["lattice.max_amount=0"],
     "lattice.max_amount: 0 (expected at least 1)"),
    ("fork-stress", ["lattice.accounts=2", "lattice.representatives=1"],
     "an attacker needs two other accounts to pay"),
    ("fork-stress", ["lattice.accounts=3", "lattice.representatives=1",
                     "fork.attackers=2"], "a sender has no recipient other than itself"),
    ("bitcoin-baseline", ["chain.confirm_threshold=0"],
     "chain.confirm_threshold: 0 (expected at least 1)"),
    # a removed key is refused by name too: injections take the link's latency
    ("fork-stress", ["fork.delivery_latency_ms=20"],
     "unknown config key: fork.delivery_latency_ms"),
    # the miners are chain.hash_rates' entries, the flavour is chain.consensus
    # and both intervals are chain.block_interval_s
    ("bitcoin-baseline", ["chain.miners=3"], "unknown config key: chain.miners"),
    ("bitcoin-baseline", ["pow.mode=grind"], "unknown config key: pow.mode"),
    ("bitcoin-baseline", ["pow.target_interval_s=2.0"],
     "unknown config key: pow.target_interval_s"),
    ("pos-baseline", ["pos.slot_interval_s=1.0"],
     "unknown config key: pos.slot_interval_s"),
    ("nano-baseline", ["lattice.genesis_amount=-3"],
     "lattice.genesis_amount: -3 (expected at least 0)"),
    ("bitcoin-baseline", ["chain.genesis_amount=-3"],
     "chain.genesis_amount: -3 (expected at least 0)"),
    ("bitcoin-baseline", ["chain.block_reward=-1"],
     "chain.block_reward: -1 (expected at least 0)"),
    ("pos-baseline", ["pos.stakes=0,0,0,0"], "at least one positive stake"),
    ("pos-baseline", ["pos.stakes=100,-5,300,400"], "pos.stakes: -5 (expected at least 0)"),
    # a key outside the schema is refused by name, like a typo
    ("nano-baseline", ["lattice.cement_delay_s=5"],
     "unknown config key: lattice.cement_delay_s"),
    ("bitcoin-baseline", ["net.partitions=1-5:0|9"],
     "net.partitions names node 9, but net.nodes is 4"),
    # the id names the report files and fills the CSV's first field
    ("nano-baseline", ["scenario.id="], "bad value for scenario.id: ''"),
    ("nano-baseline", ["scenario.id=../escaped"],
     "bad value for scenario.id: '../escaped'"),
    ("nano-baseline", ["scenario.id=a,b"], "bad value for scenario.id: 'a,b'"),
    # the miners are the entries of chain.hash_rates, one per node at most
    ("bitcoin-baseline", ["chain.hash_rates="], "at least one positive hash rate"),
    ("bitcoin-baseline", ["chain.hash_rates=0,0,0"], "at least one positive hash rate"),
    ("bitcoin-baseline", ["chain.hash_rates=1,1,1,1,1"],
     "more chain.hash_rates than nodes"),
    # grind mode would retarget to about 32.5 bits and never finish a block
    ("bitcoin-baseline", ["chain.consensus=grind", "chain.hash_rates=1e9,1e9,1e9"],
     "chain.hash_rates"),
])
def test_validate_rejects_what_run_rejects(preset, overrides, reason, capsys):
    args = ["--config", preset, "--override", "scenario.horizon_s=20"]
    for item in overrides:
        args += ["--override", item]
    assert main(["validate"] + args) == EXIT_USAGE
    assert reason in capsys.readouterr().err
    assert main(["run", "--seeds", "1"] + args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and reason in err
    assert "Traceback" not in err


def test_validate_accepts_a_grind_run_that_retargets_under_the_bit_limit(capsys):
    assert main(["validate", "--config", "bitcoin-baseline",
                 "--override", "chain.consensus=grind",
                 "--override", "chain.hash_rates=100,100,100"]) == EXIT_OK


@pytest.mark.parametrize("overrides", [
    ["net.nodes=2", "pos.stakes=100,200"],
    # stake, not hash rate, picks the producers of a pos run
    ["chain.hash_rates=1,2"],
])
def test_a_pos_config_is_held_to_its_stakes_alone(overrides, capsys):
    args = ["--config", "pos-baseline", "--override", "scenario.horizon_s=10"]
    for item in overrides:
        args += ["--override", item]
    assert main(["validate"] + args) == EXIT_OK
    assert main(["run", "--seeds", "1"] + args) == EXIT_OK
    assert "pos-baseline seed 1: ok" in capsys.readouterr().out


def test_an_internal_error_exits_with_status_three(capsys, monkeypatch):
    from ledgerlab import metrics as metrics_mod

    def broken_run(cfg, seed):
        raise RuntimeError("defect under test")

    monkeypatch.setattr(metrics_mod, "run", broken_run)
    rc = main(["run", "--config", "nano-baseline", "--seeds", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_INTERNAL
    assert err.startswith("internal error:")
    assert "RuntimeError: defect under test" in err


@pytest.mark.parametrize("verb", ["run", "inspect"])
def test_horizon_flag_is_a_usage_error(verb, capsys):
    # the run length is the config key scenario.horizon_s, nothing else
    rc = main([verb, "--config", "nano-baseline", "--horizon", "5"])
    assert rc == EXIT_USAGE
    assert "--horizon" in capsys.readouterr().err


def test_validate_echoes_canonical_config(capsys):
    rc = main(["validate", "--config", "pos-baseline"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.startswith("ok\n")
    lines = [l for l in out.splitlines()[1:] if l]
    assert lines == sorted(lines)
    assert any(l.startswith("chain.consensus = pos") for l in lines)


def test_validate_config_file(tmp_path, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text("scenario.id = tiny\nscenario.paradigm = chain\n"
                    "scenario.horizon_s = 5\nnet.nodes = 2\nchain.hash_rates = 1.0\n")
    assert main(["validate", "--config", str(path)]) == EXIT_OK


def test_inspect_chain(capsys):
    rc = main(["inspect", "--config", "bitcoin-baseline",
               "--override", "scenario.horizon_s=10"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "adopted head" in out
    assert "total supply" in out


def test_inspect_lattice(capsys):
    rc = main(["inspect", "--config", "nano-baseline",
               "--override", "scenario.horizon_s=10"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "accounts 12" in out
    assert "bytes lattice_blocks" in out


def test_breach_exits_with_status_two(tmp_path, capsys, monkeypatch):
    from ledgerlab import metrics as metrics_mod
    from ledgerlab.runner import run as real_run

    def breached_run(cfg, seed):
        result = real_run(cfg, seed)
        result.breach = "chain balance conservation"
        return result

    monkeypatch.setattr(metrics_mod, "run", breached_run)
    rc = main(["run", "--config", "nano-baseline", "--seeds", "1",
               "--override", "scenario.horizon_s=5", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_BREACH
    assert "BREACH" in out
    assert "chain balance conservation" in out


def test_compare_two_paradigms(tmp_path, capsys):
    main(["run", "--config", "nano-baseline", "--seeds", "1",
          "--override", "scenario.horizon_s=10", "--out", str(tmp_path)])
    main(["run", "--config", "bitcoin-baseline", "--seeds", "1",
          "--override", "scenario.horizon_s=10", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["compare", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "bitcoin-baseline" in out and "nano-baseline" in out
    assert "chain" in out and "lattice" in out
    assert "orphan-rate" in out and "conflicts" in out
    assert "warning" not in out


def test_compare_single_paradigm_warns(tmp_path, capsys):
    main(["run", "--config", "nano-baseline", "--seeds", "1",
          "--override", "scenario.horizon_s=10", "--out", str(tmp_path)])
    capsys.readouterr()
    rc = main(["compare", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "warning" in out


def test_compare_empty_dir(tmp_path, capsys):
    rc = main(["compare", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "no suite csv" in capsys.readouterr().err


def test_compare_missing_dir(tmp_path):
    assert main(["compare", "--out", str(tmp_path / "void")]) == EXIT_USAGE


@pytest.mark.parametrize("row", ["nano-baseline,one,measured-tps,tx/s,value,1.5",
                                 "nano-baseline,1,measured-tps,tx/s,value,abc",
                                 "nano-baseline,2,measured-tps,tx/s,value"])
def test_compare_malformed_csv_is_a_usage_error(tmp_path, capsys, row):
    path = tmp_path / "broken.csv"
    path.write_text(f"{CSV_HEADER}\nnano-baseline,1,measured-tps,tx/s,value,2.0\n{row}\n")
    rc = main(["compare", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert f"{path} line 3" in err
    assert "Traceback" not in err


def test_compare_names_a_csv_it_skips(tmp_path, capsys):
    (tmp_path / "suite.csv").write_text(
        f"{CSV_HEADER}\nnano-baseline,1,settled-tps,tx/s,value,2.0\n")
    foreign = tmp_path / "other.csv"
    foreign.write_text("a,b\n1,2\n")
    rc = main(["compare", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    assert "nano-baseline" in captured.out
    assert f"skipping {foreign}" in captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_command_lines() -> list[str]:
    """Every `ledgerlab ...` line in the README's code blocks, with
    backslash continuations joined."""
    commands, in_block, pending = [], False, ""
    for raw in README.read_text(encoding="utf-8").splitlines():
        if raw.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("ledgerlab "):
            commands.append(line)
    return commands


def test_readme_command_lines_parse():
    commands = _readme_command_lines()
    assert commands
    parser = cli._build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except cli.UsageError as exc:
            pytest.fail(f"README command does not parse: {line}: {exc}")


def _assert_usage_error_naming(path, rc, capsys):
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_a_directory_given_as_config_is_a_usage_error(tmp_path, capsys):
    _assert_usage_error_naming(
        tmp_path, main(["validate", "--config", str(tmp_path)]), capsys)


def test_a_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"scenario.id = caf\xe9\n")
    _assert_usage_error_naming(
        path, main(["validate", "--config", str(path)]), capsys)


def test_compare_over_a_csv_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\ncaf\xe9,1,settled-tps,tx/s,value,2.0\n")
    _assert_usage_error_naming(path, main(["compare", "--out", str(tmp_path)]), capsys)


def test_run_out_under_a_regular_file_is_a_usage_error(tmp_path, capsys,
                                                         monkeypatch):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "reports"
    runs = []
    real = metrics.run
    monkeypatch.setattr(metrics, "run", lambda *a: runs.append(a) or real(*a))
    rc = main(["run", "--config", "nano-baseline", "--override", "scenario.horizon_s=5",
               "--out", str(out)])
    _assert_usage_error_naming(out, rc, capsys)
    assert runs == []  # the directory is refused before any seed runs
