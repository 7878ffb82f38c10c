"""Acceptance gate: the eleven shipping criteria, one test per line.

Every test here states its tolerance inline and runs the real engine end to
end; nothing is mocked except the one deliberate breach injection in the
conservation test. Numbered names keep the -v output readable as a checklist.
"""

import math
import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from scipy import stats

from ledgerlab.blockchain import (
    Block,
    BlockHeader,
    ChainStore,
    DifficultySchedule,
    LotteryProof,
    Verdict,
    assemble_block,
    fast_sync,
    make_transaction,
)
from ledgerlab.cli import main as cli_main
from ledgerlab.errors import InvariantViolation
from ledgerlab.lattice import BlockKind, LatticeLedger, build_block
from ledgerlab.leader_election import StakeRegistry, pos_select, pos_slash
from ledgerlab.metrics import (
    build_report,
    conflict_outcomes,
    measure_confirmation_survival,
    measure_orphan_rate,
    measured_tps,
    render_report,
    settled_tps,
    survival_curve,
    tps_cap,
)
from ledgerlab.nodes import LatticeNode
from ledgerlab.primitives import digest, identity_for, merkle_root
from ledgerlab.runner import run
from ledgerlab.scenario import (
    PRESETS,
    SCHEMA,
    build_config,
    parse_config_text,
    preset_config,
)


@pytest.fixture(scope="module")
def preset_runs():
    """One full-horizon run of every bundled scenario at seed 1."""
    out = {}
    for name in sorted(PRESETS):
        cfg = preset_config(name)
        result = run(cfg, seed=1)
        report = build_report(result)
        out[name] = (result, render_report(report), report.csv_rows())
    return out


# ---------------------------------------------------------------------------
# 1. Throughput ceilings


def test_criterion_01_throughput_ceilings():
    t0 = time.monotonic()

    assert math.isclose(tps_cap(1_000_000, 500, 600.0), 2000.0 / 600.0, abs_tol=1e-9)
    assert math.isclose(tps_cap(1_000_000, 250, 600.0), 4000.0 / 600.0, abs_tol=1e-9)
    assert math.isclose(tps_cap(6_700_000, 64_000, 15.0), 104.0 / 15.0, abs_tol=1e-9)
    assert math.isclose(tps_cap(6_700_000, 30_000, 15.0), 223.0 / 15.0, abs_tol=1e-9)

    # swept weight ranges stay inside the advertised bands, tolerance 0.01 TPS
    btc = [tps_cap(1_000_000, w, 600.0) for w in range(250, 501)]
    assert min(btc) >= 3.33 - 0.01 and max(btc) <= 6.67 + 0.01
    eth = [tps_cap(6_700_000, w, 15.0) for w in range(30_000, 64_001, 500)]
    assert min(eth) >= 6.9 - 0.01 and max(eth) <= 14.9 + 0.01

    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Simulated cap agreement


def test_criterion_02_simulated_cap_agreement():
    t0 = time.monotonic()
    cfg = preset_config("bitcoin-baseline")
    cap = tps_cap(cfg["chain.capacity_units"], cfg["chain.tx_weight"],
                  cfg["chain.block_interval_s"])

    rates = []
    for seed in range(1, 31):
        result = run(cfg, seed)
        assert result.breach is None
        assert result.nodes[0].store.head_height >= 200, f"seed {seed} too short"
        rates.append(measured_tps(result))

    mean_rate = statistics.fmean(rates)
    assert cap * 0.9 <= mean_rate <= cap * 1.1, (mean_rate, cap)
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. Confirmation confidence

# Two equal miners on a two-node link; 100 ms delay against a 2 s expected
# block interval puts latency/interval at 0.05.
_TWO_MINER_RACE = """
scenario.id = two-miner-race
scenario.paradigm = chain
scenario.horizon_s = 150.0
net.nodes = 2
net.base_latency_ms = 100.0
net.jitter_ms = 0.0
chain.hash_rates = 1.0,1.0
chain.capacity_units = 2500
chain.tx_weight = 250
chain.tx_rate_per_s = 1.0
chain.consensus = lottery
pow.difficulty_bits = 2
chain.block_interval_s = 2.0
"""


def test_criterion_03_confirmation_confidence():
    cfg = build_config(parse_config_text(_TWO_MINER_RACE))
    results = [run(cfg, seed) for seed in range(1, 19)]
    assert all(r.breach is None for r in results)

    six = measure_confirmation_survival(results, depth=6)
    assert six.depth == 6
    assert six.observations >= 1000, six.observations
    assert six.estimate >= 0.999, six.estimate

    curve = survival_curve(results, max_depth=8)
    assert [point.depth for point in curve] == list(range(1, 9))
    for shallow, deep in zip(curve, curve[1:]):
        slack = shallow.std_error + deep.std_error
        assert deep.estimate >= shallow.estimate - slack, (shallow, deep)


# ---------------------------------------------------------------------------
# 4. Fork-rate monotonicity


def test_criterion_04_fork_rate_monotonicity():
    means = []
    for latency_ms in (20.0, 200.0, 1000.0):  # 0.01 / 0.1 / 0.5 of the interval
        cfg = preset_config("bitcoin-baseline", [
            f"net.base_latency_ms={latency_ms}", "net.jitter_ms=0",
            "scenario.horizon_s=120"])
        rates = []
        for seed in range(1, 31):
            result = run(cfg, seed)
            assert result.breach is None
            rates.append(measure_orphan_rate(result))
        means.append(statistics.fmean(rates))
    assert means[0] < means[1] < means[2], means


# ---------------------------------------------------------------------------
# 5. Lattice scalability


def test_criterion_05_lattice_scalability():
    def mean_settled(accounts: int) -> float:
        cfg = preset_config("nano-scaling", [f"lattice.accounts={accounts}"])
        assert cfg["lattice.spam_difficulty_bits"] == 0
        vals = []
        for seed in range(1, 6):
            result = run(cfg, seed)
            assert result.breach is None
            vals.append(settled_tps(result))
        return statistics.fmean(vals)

    small = mean_settled(10)
    large = mean_settled(100)
    assert large >= 8.0 * small, (small, large)

    # the lattice config surface has no throughput-capping knob
    lattice_keys = [k for k in SCHEMA if k.startswith("lattice.")]
    assert not any("capacity" in k or "weight" in k or "interval" in k
                   for k in lattice_keys), lattice_keys


# ---------------------------------------------------------------------------
# 6. Conflict convergence


def test_criterion_06_conflict_convergence():
    for seed in range(1, 31):
        result = run(preset_config("fork-stress"), seed)
        assert result.breach is None

        injected = {subject: (a, b) for _now, subject, a, b
                    in result.recorder.conflicts_injected}
        assert injected, f"seed {seed} injected nothing"

        outcomes = conflict_outcomes(result)
        assert {s for (_acct, s) in outcomes} == set(injected)

        full_nodes = [n for n in result.nodes.values()
                      if isinstance(n, LatticeNode)]
        for (account, subject), by_node in outcomes.items():
            assert len(by_node) == len(full_nodes)
            winners = {winner for winner, _ww, _ru in by_node.values()}
            assert len(winners) == 1, f"seed {seed}: split decision on {account}"
            assert winners.pop() in injected[subject]
            for _winner, winner_weight, runner_up in by_node.values():
                assert winner_weight > runner_up

        for node in full_nodes:
            assert node.ledger.open_conflicts() == []


# ---------------------------------------------------------------------------
# 7. Settlement semantics


def test_criterion_07_conservation_and_breach_status(preset_runs, tmp_path,
                                                     monkeypatch, capsys):
    for name, (result, _text, _rows) in preset_runs.items():
        assert result.breach is None, name

    # the detection predicate fires on genuinely corrupted state
    ledger = LatticeLedger({"a": (60, "a"), "b": (40, "b")})
    ledger.total_pending += 1
    with pytest.raises(InvariantViolation):
        ledger.check_conservation()

    # and a detected breach surfaces as process status 2
    from ledgerlab import metrics as metrics_mod
    from ledgerlab.runner import run as real_run

    def breached_run(cfg, seed):
        result = real_run(cfg, seed)
        result.breach = "lattice balance conservation"
        return result

    monkeypatch.setattr(metrics_mod, "run", breached_run)
    rc = cli_main(["run", "--config", "nano-baseline", "--seeds", "1",
                   "--override", "scenario.horizon_s=5", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 2


# ---------------------------------------------------------------------------
# 8. Pruning equivalence


def _fresh_store():
    return ChainStore(
        genesis_allocation={"alice": 1000, "bob": 500},
        block_reward=50,
        capacity=10_000,
        proof_rule=LotteryProof(),
        schedule=DifficultySchedule(2.0, 16, 1.0),
        reorg_safety=8,
    )


def _adopt_on(stores, block):
    verdicts = []
    for store in stores:
        result = store.validate_block(block)
        verdicts.append(result.verdict)
        if result.ok:
            store.adopt(block, result)
    return verdicts


def test_criterion_08_pruning_equivalence():
    # chain side: archive and soon-to-be-pruned twin ingest the same history
    archive, pruned = _fresh_store(), _fresh_store()
    alice = identity_for("alice")
    seq = 0
    for height in range(1, 41):
        txs = []
        if height % 3 == 0:
            seq += 1
            txs = [make_transaction(alice, "bob", 5, seq, 250)]
        block = assemble_block(archive, archive.adopted_head, txs,
                               producer="miner-0", timestamp=float(height))
        assert _adopt_on([archive, pruned], block) == [Verdict.ACCEPT] * 2

    bytes_before = sum(pruned.ledger_bytes().values())
    pruned.prune(keep_recent=10)
    assert any(sb.transactions is None for sb in pruned.blocks.values())
    assert sum(pruned.ledger_bytes().values()) < bytes_before

    for account in ("alice", "bob", "miner-0", "nobody"):
        assert pruned.head_state.balance(account) == archive.head_state.balance(account)

    # identical subsequent stream, identical verdicts
    good = assemble_block(archive, archive.adopted_head, [], "miner-0", 41.0)
    bad_tx = replace(make_transaction(alice, "bob", 5, seq + 1, 250), amount=6)
    forged = Block(
        header=BlockHeader(
            predecessor=good.digest(), tx_root=merkle_root([bad_tx.digest()]),
            state_root=digest(b"wrong"), height=good.header.height + 1,
            timestamp=42.0, nonce=0, producer="miner-0"),
        transactions=(bad_tx,))
    stray = replace(good, header=replace(good.header,
                                         predecessor=digest(b"nowhere")))
    for block, expected in ((good, Verdict.ACCEPT),
                            (forged, Verdict.BAD_SIGNATURE),
                            (stray, Verdict.UNKNOWN_PARENT)):
        verdicts = _adopt_on([archive, pruned], block)
        assert verdicts == [expected] * 2

    assert (sum(pruned.ledger_bytes().values())
            < sum(archive.ledger_bytes().values()))

    # lattice side: the current-tier twin stays interchangeable after pruning
    genesis = {"a": (600, "a"), "b": (300, "b"), "c": (100, "c")}
    full = LatticeLedger(dict(genesis))
    twin = LatticeLedger(dict(genesis))

    def both(block, votes=()):
        o1 = full.receive_block(block, votes=votes)
        o2 = twin.receive_block(block, votes=votes)
        assert (o1.status, o1.verdict) == (o2.status, o2.verdict)
        return o1

    for i in range(6):
        send = full.create_send("a", "b", 20)
        both(send)
        both(full.create_receive("b", send.digest()))

    bytes_before = sum(twin.ledger_bytes().values())
    twin.prune_to_current()
    assert any(len(c.blocks) < len(c.order) for c in twin.accounts.values())
    assert sum(twin.ledger_bytes().values()) < bytes_before

    for account in genesis:
        assert twin.accounts[account].balance == full.accounts[account].balance

    send = full.create_send("b", "c", 15)
    both(send)
    both(full.create_receive("c", send.digest()))
    # a fork against pruned history must be judged the same way by both
    stale_head = full.accounts["a"].order[-2]
    fork = build_block(identity_for("a"), stale_head, BlockKind.SEND,
                       amount=1, counterparty="c")
    assert full.validate_block(fork) == twin.validate_block(fork)

    assert (sum(twin.ledger_bytes().values())
            < sum(full.ledger_bytes().values()))


# ---------------------------------------------------------------------------
# 9. Fast sync fidelity


def test_criterion_09_fast_sync_fidelity():
    source = _fresh_store()
    alice = identity_for("alice")
    seq = 0
    for height in range(1, 2001):
        txs = []
        if height % 40 == 0:
            seq += 1
            txs = [make_transaction(alice, "bob", 1, seq, 250)]
        block = assemble_block(source, source.adopted_head, txs,
                               producer="miner-0", timestamp=float(height))
        result = source.validate_block(block)
        assert result.ok
        source.adopt(block, result)
    assert source.head_height == 2000

    synced = fast_sync(source, pivot_offset=1024)
    assert synced.adopted_head == source.adopted_head
    assert synced.head_state.root() == source.head_state.root()
    for account in ("alice", "bob", "miner-0"):
        assert synced.head_state.balance(account) == source.head_state.balance(account)
    # headers-only below the pivot: the synced copy must be smaller
    assert (sum(synced.ledger_bytes().values())
            < sum(source.ledger_bytes().values()))


# ---------------------------------------------------------------------------
# 10. Stake-proportional selection


def test_criterion_10_stake_proportional_selection():
    stakes = {"v0": 100, "v1": 200, "v2": 300, "v3": 400}
    registry = StakeRegistry(deposits=dict(stakes))

    counts = {v: 0 for v in stakes}
    for i in range(10_000):
        counts[pos_select(registry, seed=2026, round_index=i)] += 1
    order = sorted(stakes)
    total = sum(stakes.values())
    f_obs = [counts[v] for v in order]
    f_exp = [10_000 * stakes[v] / total for v in order]
    _stat, p = stats.chisquare(f_obs, f_exp)
    assert p > 0.001, (p, counts)

    before = registry.total_stake()
    offending = SimpleNamespace(header=SimpleNamespace(producer="v2"))
    burned = pos_slash(registry, "v2", offending, verdict_fn=lambda b: False)
    assert burned == stakes["v2"]
    assert before - registry.total_stake() == burned


# ---------------------------------------------------------------------------
# 11. Determinism


def test_criterion_11_deterministic_reports(preset_runs):
    for name, (first, text, rows) in preset_runs.items():
        cfg = preset_config(name)
        rerun = run(cfg, seed=1)
        assert rerun.trace == first.trace, name
        report = build_report(rerun)
        assert render_report(report) == text, name
        assert report.csv_rows() == rows, name
