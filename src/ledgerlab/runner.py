"""Builds a live simulation out of a config and drives it to the horizon."""

from __future__ import annotations

from dataclasses import dataclass, field

from .blockchain import ChainStore, GrindProof, LotteryProof, PosProof
from .errors import InvariantViolation
from .lattice import LatticeLedger
from .leader_election import DifficultySchedule, StakeRegistry
from .nodes import (
    ChainNode,
    ChainTxDriver,
    CMD_CHAIN_TX,
    CMD_FORK_INJECT,
    CMD_LATTICE_SEND,
    ForkInjectionDriver,
    LatticeNode,
    LatticeSendDriver,
    MultiDriver,
)
from .recording import OBSERVER, RunRecorder
from .scenario import Config, account_names
from .simnet import LinkModel, Simulation, mesh_adjacency, ring_adjacency

# The observer's ledger size is sampled at the end of each of this many
# equal slices of the horizon, the same way in both paradigms.
LEDGER_SAMPLES = 100


@dataclass
class RunResult:
    seed: int
    config: Config
    recorder: RunRecorder
    trace: str
    events: int
    breach: str | None = None
    nodes: dict = field(default_factory=dict)
    books: dict = field(default_factory=dict)  # node id -> its ChainStore or LatticeLedger


def _link_model(cfg: Config) -> LinkModel:
    return LinkModel(
        base_latency_s=cfg["net.base_latency_ms"] / 1000.0,
        jitter_s=cfg["net.jitter_ms"] / 1000.0,
        drop_prob=cfg["net.drop_prob"],
        partitions=cfg["net.partitions"],
    )


def _adjacency(cfg: Config) -> dict[int, list[int]]:
    n = cfg["net.nodes"]
    if cfg["net.topology"] == "mesh":
        return mesh_adjacency(n)
    return ring_adjacency(n)


def _build_chain(cfg: Config, seed: int,
                 recorder: RunRecorder) -> tuple[dict, dict]:
    n = cfg["net.nodes"]
    consensus = cfg["chain.consensus"]
    interval = cfg["chain.block_interval_s"]
    genesis = {name: cfg["chain.genesis_amount"]
               for name in account_names(cfg["chain.accounts"])}

    # one proof rule names the flavour; stateless, so every store shares it
    if consensus == "pos":
        registry = StakeRegistry(
            deposits={f"val-{i}": s for i, s in enumerate(cfg["pos.stakes"])})
        rule = PosProof(registry, seed, interval)
        producers, rates = list(registry.deposits), []
    else:
        rule = GrindProof() if consensus == "grind" else LotteryProof()
        rates = list(cfg["chain.hash_rates"])
        producers = [f"miner-{i}" for i in range(len(rates))]

    schedule = DifficultySchedule(
        target_interval_s=interval,
        retarget_window=cfg["pow.retarget_window"],
        difficulty=float(2 ** cfg["pow.difficulty_bits"]),
    )

    nodes: dict[int, ChainNode] = {}
    for i in range(n):
        store = ChainStore(genesis, cfg["chain.block_reward"],
                           cfg["chain.capacity_units"], proof_rule=rule,
                           schedule=schedule,
                           reorg_safety=cfg["chain.reorg_safety"])
        nodes[i] = ChainNode(
            i, store, recorder, seed,
            producer_id=producers[i] if i < len(producers) else "",
            hash_rate=rates[i] if i < len(rates) else 0.0)

    drivers = {
        CMD_CHAIN_TX: ChainTxDriver(
            seed,
            senders=account_names(cfg["chain.accounts"]),
            rate_per_s=cfg["chain.tx_rate_per_s"],
            tx_weight=cfg["chain.tx_weight"],
            max_amount=cfg["chain.max_amount"]),
    }
    return nodes, drivers


def _build_lattice(cfg: Config, seed: int, recorder: RunRecorder) -> tuple[dict, dict]:
    n = cfg["net.nodes"]
    roles = cfg.lattice_roles
    reps = roles.representatives
    genesis = {name: (cfg["lattice.genesis_amount"], reps[i % len(reps)])
               for i, name in enumerate(roles.names)}

    host_of = {name: i % n for i, name in enumerate(roles.names)}

    nodes: dict[int, LatticeNode] = {}
    for i in range(n):
        ledger = LatticeLedger(
            genesis, spam_bits=cfg["lattice.spam_difficulty_bits"],
            quorum_fraction=cfg["lattice.quorum_fraction"],
            gap_buffer=cfg["lattice.gap_buffer"])
        hosted = tuple(a for a in roles.names if host_of[a] == i)
        nodes[i] = LatticeNode(
            i, ledger, recorder,
            receivers=frozenset(a for a in hosted if a not in roles.offline),
            representative_accounts=tuple(a for a in hosted if a in reps))

    drivers: dict[int, object] = {
        CMD_LATTICE_SEND: LatticeSendDriver(
            recorder, seed, senders=roles.senders, recipients=roles.recipients,
            host_of=host_of,
            rate_per_s=cfg["lattice.send_rate_per_account_s"] * len(roles.senders),
            max_amount=cfg["lattice.max_amount"]),
    }
    if roles.attackers:
        drivers[CMD_FORK_INJECT] = ForkInjectionDriver(
            recorder, seed, attackers=roles.attackers, host_of=host_of,
            interval_s=cfg["fork.interval_s"],
            max_amount=cfg["lattice.max_amount"],
            stop_after_s=cfg["scenario.horizon_s"] - cfg["fork.interval_s"])
    return nodes, drivers


def build_simulation(cfg: Config, seed: int, recorder: RunRecorder) -> Simulation:
    build = _build_chain if cfg.paradigm == "chain" else _build_lattice
    nodes, drivers = build(cfg, seed, recorder)
    driver = MultiDriver(drivers)
    sim = Simulation(seed, _link_model(cfg), _adjacency(cfg),
                     nodes=nodes, driver=driver)
    for i in sorted(nodes):
        nodes[i].start(sim)
    driver.start(sim)
    return sim


def run(cfg: Config, seed: int) -> RunResult:
    """One deterministic run; an invariant breach stops it and is reported.

    The loop runs in `LEDGER_SAMPLES` slices, the last ending on the horizon,
    and the observer's ledger size is taken after each, the last after the
    books close. Slicing pops the same events in the same order, so the
    trace does not depend on it."""
    recorder = RunRecorder()
    sim = build_simulation(cfg, seed, recorder)
    horizon = cfg["scenario.horizon_s"]
    chain = cfg.paradigm == "chain"
    books = {i: node.store if chain else node.ledger for i, node in sim.nodes.items()}
    breach = None
    try:
        for k in range(1, LEDGER_SAMPLES + 1):
            at = horizon if k == LEDGER_SAMPLES else horizon * k / LEDGER_SAMPLES
            sim.run(at)
            if k == LEDGER_SAMPLES:
                _close_books(cfg, books)
            recorder.ledger_samples.append(
                (at, sum(books[OBSERVER].ledger_bytes().values())))
    except InvariantViolation as exc:
        breach = str(exc)
    return RunResult(
        seed=seed, config=cfg,
        recorder=recorder, trace=sim.trace_digest(),
        events=sim.events_executed, breach=breach, nodes=dict(sim.nodes),
        books=books)


def _close_books(cfg: Config, books: dict) -> None:
    """Prune each node's ledger in `books` (by node id), then audit it, so
    the audit recounts what pruning dropped; a breach names its node. A
    chain node keeps `chain.prune_keep_recent` blocks of bodies and deltas
    (0 keeps all); a `current` lattice node keeps each undisputed account's
    head body."""
    chain = cfg.paradigm == "chain"
    keep = cfg["chain.prune_keep_recent"]
    tiers = cfg["lattice.tiers"]
    for i in sorted(books):
        try:
            if chain:
                if keep:
                    books[i].prune(keep)
            elif tiers and tiers[i] == "current":
                books[i].prune_to_current()
            books[i].audit()
        except InvariantViolation as exc:
            raise exc.at_node(i) from exc
