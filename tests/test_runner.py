"""Scenario assembly and end-of-run audits."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from memos import clear_memos

from ledgerlab.blockchain import STATE_LEAVES, ChainStore, ChainTransaction
from ledgerlab.cli import EXIT_BREACH, main
from ledgerlab.codec import NAME_FIELDS
from ledgerlab.errors import ConfigError, InvariantViolation, LedgerError
from ledgerlab.lattice import GENESIS_VALUES, BlockKind, LatticeLedger
from ledgerlab.nodes import ChainNode, LatticeNode
from ledgerlab.metrics import build_report, render_report, tps_cap
from ledgerlab.primitives import _expected_tag
from ledgerlab.recording import OBSERVER, RunRecorder
from ledgerlab.runner import LEDGER_SAMPLES, RunResult, build_simulation, run
from ledgerlab.scenario import account_names, preset_config, representative_names
from ledgerlab.simnet import Simulation


def test_account_names_are_stable():
    assert account_names(3) == ["acct-00", "acct-01", "acct-02"]


def test_representative_names_spread_over_accounts():
    reps = representative_names(12, 3)
    assert reps == ["acct-00", "acct-04", "acct-08"]
    assert representative_names(4, 4) == account_names(4)


def test_representative_names_never_collide():
    for count in range(1, 201):
        for reps in range(1, count + 1):
            names = representative_names(count, reps)
            assert len(set(names)) == reps, (count, reps)


def test_chain_run_result_shape():
    cfg = preset_config("bitcoin-baseline", ["scenario.horizon_s=20"])
    result = run(cfg, seed=5)
    assert result.breach is None
    assert result.config.scenario_id == "bitcoin-baseline"
    assert result.seed == 5
    assert len(result.trace) == 64
    assert result.events > 0
    assert set(result.nodes) == {0, 1, 2, 3}
    assert all(isinstance(n, ChainNode) for n in result.nodes.values())
    store = result.nodes[0].store
    assert store.total_supply() == store.expected_supply()


def test_lattice_run_result_shape():
    cfg = preset_config("nano-baseline", ["scenario.horizon_s=20"])
    result = run(cfg, seed=5)
    assert result.breach is None
    assert all(isinstance(n, LatticeNode) for n in result.nodes.values())
    ledger = result.nodes[0].ledger
    assert ledger.total_balance + ledger.total_pending == ledger.genesis_supply
    assert len(ledger.accounts) == 12


@pytest.mark.parametrize("overrides", [(), ("net.drop_prob=0.2",)],
                         ids=["lossless", "drop-0.2"])
def test_no_chain_transaction_object_is_shared_between_nodes(overrides):
    # a transaction caches its own signature verdict, so one node's check
    # must never stand in for another's: every node decodes its own objects,
    # headers and signatures too, though a broadcast is scanned once for all
    cfg = preset_config("bitcoin-baseline", ["scenario.horizon_s=60", *overrides])
    result = run(cfg, seed=1)
    holder = {}
    for node_id, node in result.nodes.items():
        held = list(node.mempool.values())
        for sb in node.store.blocks.values():
            held.append(sb.header)
            held.extend(sb.transactions or ())
        for block, _missing in node.parked.held.values():
            held.append(block.header)
            held.extend(block.transactions)
        held.extend([obj.signature for obj in held if isinstance(obj, ChainTransaction)])
        assert held
        for obj in held:
            assert holder.setdefault(id(obj), node_id) == node_id


@pytest.mark.parametrize("name", ["nano-baseline", "fork-stress"])
def test_no_lattice_block_or_vote_object_is_shared_between_nodes(name):
    result = run(preset_config(name, ["scenario.horizon_s=30"]), seed=1)
    holder = {}
    for node_id, node in result.nodes.items():
        ledger = node.ledger
        held = [b for chain in ledger.accounts.values() for b in chain.blocks.values()]
        held.extend(v for ballot in ledger.votes.values() for v in ballot.values())
        held.extend(block for block, _missing in ledger.parked.held.values())
        held.extend([obj.signature for obj in held])
        assert held
        for obj in held:
            assert holder.setdefault(id(obj), node_id) == node_id


def test_warm_memos_change_no_chain_run():
    """The process-wide memos hold digests and encodings, never a verdict,
    so a run after another has filled them is the run a fresh process makes."""
    cfg = preset_config("bitcoin-baseline", ["scenario.horizon_s=20"])
    clear_memos()
    cold = run(cfg, seed=1)
    cold_report = render_report(build_report(cold))
    run(preset_config("partition-stress"), seed=1)
    assert STATE_LEAVES and NAME_FIELDS
    warm = run(cfg, seed=1)
    assert warm.trace == cold.trace
    assert render_report(build_report(warm)) == cold_report


def test_warm_memos_change_no_lattice_run():
    """The tag memo holds expected tags, never a verdict, and the genesis
    memo a genesis block's values, so a lattice run that finds what an
    earlier run left in them is the run a fresh process makes."""
    cfg = preset_config("fork-stress", ["scenario.horizon_s=40"])
    clear_memos()
    cold = run(cfg, seed=1)
    cold_report = render_report(build_report(cold))
    cold_hashed = _expected_tag.cache_info().misses
    geneses = dict(GENESIS_VALUES)
    assert geneses
    warm = run(cfg, seed=1)
    assert _expected_tag.cache_info().misses == cold_hashed  # it hashed no tag
    assert GENESIS_VALUES == geneses  # it signed no genesis block
    assert warm.trace == cold.trace
    assert render_report(build_report(warm)) == cold_report


def test_rerun_is_trace_identical():
    cfg = preset_config("pos-baseline", ["scenario.horizon_s=15"])
    assert run(cfg, seed=9).trace == run(cfg, seed=9).trace


# prints each run's trace digest and the SHA-256 of its rendered report
_HASH_SEED_PROBE = """
import hashlib
from ledgerlab.metrics import build_report, render_report
from ledgerlab.runner import run
from ledgerlab.scenario import preset_config
for name, horizon_s in (("nano-baseline", 20), ("fork-stress", 40),
                        ("bitcoin-baseline", 60)):
    result = run(preset_config(name, [f"scenario.horizon_s={horizon_s}"]), 1)
    text = render_report(build_report(result))
    print(name, result.trace, hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def _runs_under_hash_seed(hash_seed: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_runs_do_not_depend_on_the_hash_seed():
    """String hashing is salted per process, so a run that iterated a set or
    dict of names in hash order would change with PYTHONHASHSEED."""
    runs = [_runs_under_hash_seed(seed) for seed in ("0", "1")]
    assert len(runs[0].splitlines()) == 3
    assert runs[0] == runs[1]


def test_shorter_horizon_runs_fewer_events():
    short = run(preset_config("nano-baseline", ["scenario.horizon_s=5"]), seed=1)
    long_ = run(preset_config("nano-baseline", ["scenario.horizon_s=10"]), seed=1)
    assert short.events < long_.events


def test_fork_stress_injects_and_resolves():
    cfg = preset_config("fork-stress", ["scenario.horizon_s=60"])
    result = run(cfg, seed=4)
    rec = result.recorder
    assert rec.conflicts_injected
    assert rec.conflicts_resolved
    for _now, _node, _acct, _subj, _winner, winner_w, runner_up in rec.conflicts_resolved:
        assert winner_w > runner_up


def test_recorded_resolution_weights_stand_against_the_final_ballot():
    # votes keep arriving after a conflict resolves, so the final ballot can
    # only add weight to what the resolution tallied; it must not overturn it
    result = run(preset_config("fork-stress"), seed=1)
    resolved = result.recorder.conflicts_resolved
    assert resolved
    for _now, node, account, subject, winner, winner_w, runner_up in resolved:
        ledger = result.nodes[node].ledger
        tally = {c: 0 for c in ledger.conflicts[(account, subject)].candidates}
        for vote in ledger.votes[subject].values():
            if vote.choice in tally:
                tally[vote.choice] += vote.weight
        others = max((w for c, w in tally.items() if c != winner), default=0)
        assert tally[winner] >= winner_w and others >= runner_up
        assert tally[winner] > others


def test_partitioned_chain_still_audits_clean():
    cfg = preset_config("partition-stress")
    result = run(cfg, seed=6)
    assert result.breach is None
    # partition forces competing branches somewhere in the run
    orphans = [o for _t, _n, _oh, _nh, o, _i in result.recorder.adoptions if o]
    assert orphans


def test_end_of_run_prune_trims_stores():
    cfg = preset_config("bitcoin-baseline", [
        "scenario.horizon_s=120",
        "chain.reorg_safety=16",
        "chain.prune_keep_recent=20",
    ])
    result = run(cfg, seed=1)
    assert result.breach is None
    store = result.nodes[0].store
    assert store.first_full_block_height > 0
    assert store.recount_bytes() == store.ledger_bytes()
    archive = run(preset_config("bitcoin-baseline", ["scenario.horizon_s=120"]),
                  seed=1).nodes[0].store
    assert (sum(store.ledger_bytes().values())
            < sum(archive.ledger_bytes().values()))


def _recount_by_encoding(ledger):
    """The byte totals of `ledger` with each stored object measured by
    encoding it: the recount rule that the field rules replace."""
    if isinstance(ledger, ChainStore):
        blocks = ledger.blocks.values()
        return {"chain_headers": sum(len(sb.header.encode()) for sb in blocks),
                "chain_bodies": sum(4 + sum(len(t.encode()) for t in sb.transactions)
                                    for sb in blocks if sb.transactions is not None),
                "chain_deltas": sum(len(d.encode()) for d in ledger.deltas.values())}
    chains = ledger.accounts.values()
    held = sum(len(b.encode()) for c in chains for b in c.blocks.values())
    index_only = sum(len(c.order) - len(c.blocks) for c in chains)
    return {"lattice_blocks": held + 32 * index_only,
            "lattice_pending": sum(len(p.encode()) for p in ledger.pending.values())}


@pytest.mark.parametrize("name,overrides", [
    ("bitcoin-baseline", ["scenario.horizon_s=60"]),
    ("bitcoin-baseline", ["scenario.horizon_s=60", "chain.reorg_safety=8",
                          "chain.prune_keep_recent=8"]),
    ("nano-scaling", ["scenario.horizon_s=20"]),
    ("fork-stress", ["scenario.horizon_s=40"]),
], ids=["chain", "chain-pruned", "lattice-tiers", "lattice-forks"])
def test_every_node_recounts_by_fields_what_its_objects_encode_to(name, overrides):
    result = run(preset_config(name, overrides), 1)
    assert result.breach is None
    for i, ledger in sorted(result.books.items()):
        assert ledger.recount_bytes() == _recount_by_encoding(ledger), f"node {i}"


def test_a_pruned_series_ends_at_the_pruned_size():
    # the last ledger sample is taken after the books close, so a pruned
    # run's series ends at the size its ledger-* scalars report
    result = run(preset_config("bitcoin-baseline", ["chain.prune_keep_recent=128"]), 1)
    assert result.breach is None
    at, size = result.recorder.ledger_samples[-1]
    assert at == 560.0
    assert size == sum(result.books[OBSERVER].ledger_bytes().values()) == 286_576


def test_offline_accounts_cannot_be_representatives():
    with pytest.raises(ConfigError):
        run(preset_config("nano-baseline", ["lattice.offline_accounts=11"]),
            seed=1)


def _builds_or_is_rejected(preset, overrides):
    """A config either fails build_config or builds a simulation cleanly."""
    try:
        cfg = preset_config(preset, overrides)
    except ConfigError:
        return None
    build_simulation(cfg, 1, RunRecorder())
    return cfg


def test_validation_agrees_with_the_lattice_builder():
    # every layout that validation accepts runs: only a LedgerError may
    # escape run()
    for accounts in range(2, 7):
        for reps in range(1, accounts + 1):
            for offline in range(accounts):
                for attackers in (1, 2, 3):
                    for fork_interval in (0, 2):
                        try:
                            cfg = preset_config("fork-stress", [
                                f"lattice.accounts={accounts}",
                                f"lattice.representatives={reps}",
                                f"lattice.offline_accounts={offline}",
                                f"fork.attackers={attackers}",
                                f"fork.interval_s={fork_interval}",
                                "scenario.horizon_s=6"])
                        except ConfigError:
                            continue
                        try:
                            result = run(cfg, 1)
                        except LedgerError:
                            continue
                        _assert_hosts_vote_on_every_held_block(result)


def _assert_hosts_vote_on_every_held_block(result):
    # a node's representatives vote on every block it applies, the receives
    # it signs in for its own accounts included
    for node in result.nodes.values():
        ballots = node.ledger.votes
        for chain in node.ledger.accounts.values():
            for block in chain.blocks.values():
                if block.kind is BlockKind.GENESIS:
                    continue
                for rep in node.representative_accounts:
                    assert rep in ballots.get(block.predecessor, {})


def _assert_sampled_on_the_grid(monkeypatch, name, node_cls):
    # the runner samples the observer's ledger at the end of each of
    # LEDGER_SAMPLES equal slices of the horizon, the last on the horizon
    cfg = preset_config(name, ["scenario.horizon_s=30"])
    clean = run(cfg, seed=1)
    samples = clean.recorder.ledger_samples
    assert clean.breach is None and len(samples) == LEDGER_SAMPLES == 100
    assert [at for at, _ in samples] == pytest.approx(
        [30 * k / 100 for k in range(1, 101)])
    assert samples[-1][0] == 30.0
    assert samples[-1][1] == sum(clean.books[OBSERVER].ledger_bytes().values())

    # a breach stops the run: the samples taken before it stay, no others
    stopped_at = []
    deliver = node_cls.on_message

    def breach_after_12s(self, sim, now, payload):
        if now > 12.0:
            stopped_at.append(now)
            raise InvariantViolation("monkeypatched breach")
        deliver(self, sim, now, payload)

    monkeypatch.setattr(node_cls, "on_message", breach_after_12s)
    result = run(cfg, seed=1)
    assert "monkeypatched breach" in result.breach
    kept = [s for s in samples if s[0] < stopped_at[0]]
    assert 40 <= len(kept) < 100  # the grid reaches 12 s at its 40th point
    assert result.recorder.ledger_samples == kept


def test_chain_observer_is_sampled_on_the_time_grid(monkeypatch):
    _assert_sampled_on_the_grid(monkeypatch, "bitcoin-baseline", ChainNode)


def test_lattice_observer_is_sampled_on_the_time_grid(monkeypatch):
    _assert_sampled_on_the_grid(monkeypatch, "nano-baseline", LatticeNode)


def test_validation_agrees_with_the_chain_capacity():
    for weight in (2499, 2500, 2501):
        cfg = _builds_or_is_rejected("bitcoin-baseline",
                                     [f"chain.tx_weight={weight}"])
        if cfg is not None:
            assert tps_cap(cfg["chain.capacity_units"], cfg["chain.tx_weight"],
                           cfg["chain.block_interval_s"]) > 0


def test_lattice_tiers_wire_through():
    cfg = preset_config("nano-scaling", ["scenario.horizon_s=10"])
    result = run(cfg, seed=1)
    heads_only = [all(list(chain.blocks) == [chain.head]
                      for chain in result.nodes[i].ledger.accounts.values())
                  for i in range(6)]
    assert heads_only == [False] * 5 + [True]


def test_current_tier_nodes_keep_the_bodies_a_cascading_rollback_needs():
    # a current-tier node prunes at the horizon, not as blocks land: rolling
    # back a settled send walks the recipient back past the receive's body
    cfg = preset_config("fork-stress", [
        "lattice.tiers=" + ",".join(["current"] * 6), "fork.interval_s=3",
        "scenario.horizon_s=120", "lattice.send_rate_per_account_s=1.0",
        "net.jitter_ms=10"])
    result = run(cfg, seed=1)
    assert result.breach is None
    for node in result.nodes.values():
        for chain in node.ledger.accounts.values():
            assert list(chain.blocks) == [chain.head]


# -- detected breaches ------------------------------------------------------
# Each case breaks one ledger through a monkeypatched method; run() must catch
# the InvariantViolation and name the invariant in the result.


def _one_byte_more(recount):
    def skewed(self):
        out = recount(self)
        key = min(out)
        return {**out, key: out[key] + 1}
    return skewed


def test_in_run_supply_check_stops_the_run(monkeypatch):
    cfg = preset_config("bitcoin-baseline", ["scenario.horizon_s=60"])
    clean = run(cfg, seed=1)
    expected_supply = ChainStore.expected_supply
    monkeypatch.setattr(ChainStore, "expected_supply",
                        lambda self: expected_supply(self) + 1)
    result = run(cfg, seed=1)
    assert "chain balance conservation" in result.breach
    assert result.events < clean.events  # stopped at the first head move
    first_miner = result.recorder.blocks_mined[0][1]
    assert f"node {first_miner}: " in result.breach


def test_in_run_lattice_supply_check_names_its_node(monkeypatch):
    add_pending = LatticeLedger._add_pending

    def mint_on_pending(self, send_digest, recipient, amount):
        add_pending(self, send_digest, recipient, amount)
        self.total_pending += 1

    monkeypatch.setattr(LatticeLedger, "_add_pending", mint_on_pending)
    result = run(preset_config("nano-baseline", ["scenario.horizon_s=10"]), 1)
    assert "lattice balance conservation" in result.breach
    first_sender = result.recorder.sends_created[0][1]
    assert f"node {first_sender}: " in result.breach


def test_final_audit_catches_a_chain_byte_miscount(monkeypatch):
    monkeypatch.setattr(ChainStore, "recount_bytes",
                        _one_byte_more(ChainStore.recount_bytes))
    result = run(preset_config("bitcoin-baseline", ["scenario.horizon_s=20"]), 1)
    assert "ledger size accounting" in result.breach


def test_final_audit_checks_the_bytes_a_chain_prune_drops(monkeypatch):
    prune = ChainStore.prune

    def prune_keeping_body_bytes(self, keep_recent):
        bodies = self.ledger_bytes()["chain_bodies"]
        prune(self, keep_recent)
        self._bytes["chain_bodies"] = bodies

    monkeypatch.setattr(ChainStore, "prune", prune_keeping_body_bytes)
    result = run(preset_config("bitcoin-baseline", [
        "scenario.horizon_s=60", "chain.reorg_safety=8",
        "chain.prune_keep_recent=8"]), 1)
    assert "ledger size accounting" in result.breach
    assert "node 0: " in result.breach


def test_final_audit_catches_a_lattice_byte_miscount(monkeypatch):
    monkeypatch.setattr(LatticeLedger, "recount_bytes",
                        _one_byte_more(LatticeLedger.recount_bytes))
    result = run(preset_config("nano-baseline", ["scenario.horizon_s=10"]), 1)
    assert "ledger size accounting" in result.breach


def test_final_audit_names_the_node_of_a_supply_breach(monkeypatch):
    sim_run = Simulation.run

    def run_then_mint(self, horizon_s):
        sim_run(self, horizon_s)
        if horizon_s < 20:  # the loop runs in slices: mint after the last
            return
        for node in self.nodes.values():
            balances = node.store.head_state.balances
            balances[min(balances)] += 1

    monkeypatch.setattr(Simulation, "run", run_then_mint)
    result = run(preset_config("bitcoin-baseline", ["scenario.horizon_s=20"]), 1)
    assert "chain balance conservation" in result.breach
    assert "node 0:" in result.breach


def test_zero_gap_buffer_drops_gap_blocks_and_completes():
    cfg = preset_config("nano-baseline", [
        "lattice.gap_buffer=0", "net.drop_prob=0.2", "scenario.horizon_s=20"])
    result = run(cfg, 1)
    assert isinstance(result, RunResult)
    assert result.breach is None


def test_weight_rescan_breach_exits_with_status_two(monkeypatch, tmp_path, capsys):
    recompute = LatticeLedger.recompute_weights
    monkeypatch.setattr(LatticeLedger, "recompute_weights",
                        lambda self: {**recompute(self), "nobody": 1})
    result = run(preset_config("nano-baseline", ["scenario.horizon_s=10"]), 1)
    assert "delegated weight tracking" in result.breach

    rc = main(["run", "--config", "nano-baseline", "--seeds", "1",
               "--override", "scenario.horizon_s=10", "--out", str(tmp_path)])
    assert rc == EXIT_BREACH
    assert "delegated weight tracking" in capsys.readouterr().out
