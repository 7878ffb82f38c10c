"""Measurements and reports over completed runs.

All chain and lattice quantities are read from one designated observer node
(`recording.OBSERVER`) rather than averaged across possibly divergent views.
Reports are pure functions of the run, so re-rendering the same (scenario,
seed) yields byte-identical text.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, LedgerError
from .primitives import DIGEST_ALGORITHM
from .recording import OBSERVER
from .runner import RunResult, run
from .scenario import Config


class ZeroCapacityError(LedgerError):
    """A single transaction cannot fit in one block."""


class WrongParadigmError(LedgerError):
    """The metric does not apply to this scenario's paradigm."""


def tps_cap(capacity_units: float, tx_weight: float, interval_s: float) -> float:
    """Whole transactions per block, over the block interval."""
    if capacity_units <= 0 or tx_weight <= 0 or interval_s <= 0:
        raise ConfigError("capacity, weight and interval must all be positive")
    if tx_weight > capacity_units:
        raise ZeroCapacityError(
            f"one transaction of weight {tx_weight} exceeds capacity {capacity_units}")
    return math.floor(capacity_units / tx_weight) / interval_s


# ---------------------------------------------------------------------------
# Series and summaries

@dataclass
class MetricSeries:
    name: str
    unit: str
    samples: list[tuple[float, float]] = field(default_factory=list)

    def add(self, at: float, value: float) -> None:
        if self.samples and at < self.samples[-1][0]:
            raise ValueError(f"non-monotonic sample time in {self.name}")
        self.samples.append((at, value))

    def values(self) -> list[float]:
        return [v for _, v in self.samples]

    def summary(self) -> dict[str, float]:
        return summarize(self.values())


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a non-empty list."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict[str, float]:
    if not values:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": float(len(values)),
        "mean": sum(values) / len(values),
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "max": max(values),
    }


# ---------------------------------------------------------------------------
# Chain measurements

def _observer(result: RunResult, paradigm: str):
    """The observer's ledger, its `ChainStore` or `LatticeLedger`; the run
    must be of the given paradigm."""
    if result.config.paradigm != paradigm:
        raise WrongParadigmError(
            f"{result.config.scenario_id} is a {result.config.paradigm} scenario")
    return result.books[OBSERVER]


def measure_orphan_rate(result: RunResult) -> float:
    """Mined blocks absent from the observer's final adopted chain."""
    store = _observer(result, "chain")
    mined = {rec[2] for rec in result.recorder.blocks_mined}
    if not mined:
        return 0.0
    final = set(store.adopted_chain())
    return len(mined - final) / len(mined)


def measured_tps(result: RunResult) -> float:
    """Transactions on the observer's final adopted chain, per second, as
    mined, so a body pruned at the horizon still counts (genesis has none)."""
    store = _observer(result, "chain")
    tx_count = {rec[2]: rec[4] for rec in result.recorder.blocks_mined}
    total = sum(tx_count.get(d, 0) for d in store.adopted_chain())
    return total / result.config["scenario.horizon_s"]


@dataclass(frozen=True)
class BlockFate:
    """One adopted block's deepest confirmation and final branch membership."""

    digest: bytes
    peak_depth: int
    survived: bool


def block_fates(result: RunResult) -> list[BlockFate]:
    """Reconstructs per-block confirmation history from adoption records.

    The adopted head only ever moves to strictly greater heights, so a
    block's deepest confirmation during a stay on the adopted branch is
    fixed by the head height right before it leaves (or the final height).
    Incoming blocks run ancestor first up to the new head, which gives each
    its height; a leaving block's height is the one stored when it came in.
    """
    on_branch: dict[bytes, int] = {}  # digest -> height
    peak: dict[bytes, int] = {}
    final_height = 0
    for now, node, old_h, new_h, orphaned, incoming in result.recorder.adoptions:
        if node != OBSERVER:
            continue
        for d in orphaned:
            h = on_branch.pop(d, None)
            if h is not None:
                peak[d] = max(peak.get(d, 0), old_h - h + 1)
        first = new_h - len(incoming) + 1
        for i, d in enumerate(incoming):
            on_branch[d] = first + i
        final_height = max(final_height, new_h)
    out = []
    for d, h in on_branch.items():
        peak[d] = max(peak.get(d, 0), final_height - h + 1)
    for d, depth in peak.items():
        out.append(BlockFate(digest=d, peak_depth=depth, survived=d in on_branch))
    return out


@dataclass(frozen=True)
class SurvivalPoint:
    depth: int
    observations: int
    survivors: int
    estimate: float
    low_confidence: bool  # fewer than 100 observations at this depth

    @property
    def std_error(self) -> float:
        if self.observations == 0:
            return 1.0
        p = self.estimate
        return math.sqrt(max(p * (1.0 - p), 1e-12) / self.observations)


def measure_confirmation_survival(results: list[RunResult],
                                  depth: int) -> SurvivalPoint:
    """P(still on the final adopted chain | once confirmed `depth` deep)."""
    if depth < 1:
        raise ConfigError("confirmation depth starts at 1")
    observations = survivors = 0
    for result in results:
        for fate in block_fates(result):
            if fate.peak_depth >= depth:
                observations += 1
                if fate.survived:
                    survivors += 1
    estimate = survivors / observations if observations else 0.0
    return SurvivalPoint(depth=depth, observations=observations,
                         survivors=survivors, estimate=estimate,
                         low_confidence=observations < 100)


def survival_curve(results: list[RunResult],
                   max_depth: int = 8) -> list[SurvivalPoint]:
    return [measure_confirmation_survival(results, d)
            for d in range(1, max_depth + 1)]


def heads_in_agreement(result: RunResult) -> int:
    """How many nodes share the observer's adopted head."""
    head = _observer(result, "chain").adopted_head
    return sum(1 for store in result.books.values() if store.adopted_head == head)


# ---------------------------------------------------------------------------
# Lattice measurements

def measure_settlement_latency(result: RunResult) -> tuple[MetricSeries, list[bytes]]:
    """Send creation to receive adoption at the observer; unsettled listed apart."""
    _observer(result, "lattice")
    recorder = result.recorder
    created_at: dict[bytes, float] = {}
    for now, _node, send_digest, _acct, _rcpt, _amt in recorder.sends_created:
        created_at.setdefault(send_digest, now)
    series = MetricSeries(name="settlement-latency", unit="s")
    settled: set[bytes] = set()
    for now, node, send_digest, _receive_digest in recorder.receives_applied:
        if node != OBSERVER or send_digest in settled:
            continue
        if send_digest in created_at:
            settled.add(send_digest)
            series.add(now, now - created_at[send_digest])
    unsettled = sorted(d for d in created_at if d not in settled)
    return series, unsettled


def settled_tps(result: RunResult) -> float:
    _observer(result, "lattice")
    seen: set[bytes] = set()
    for _now, node, send_digest, _rd in result.recorder.receives_applied:
        if node == OBSERVER:
            seen.add(send_digest)
    return len(seen) / result.config["scenario.horizon_s"]


def conflict_outcomes(result: RunResult) -> dict[tuple, dict[int, tuple]]:
    """(account, subject) -> per-node (winner, winner_weight, runner_up)."""
    _observer(result, "lattice")
    out: dict[tuple, dict[int, tuple]] = {}
    for rec in result.recorder.conflicts_resolved:
        now, node, account, subject, winner, winner_weight, runner_up = rec
        out.setdefault((account, subject), {})[node] = (
            winner, winner_weight, runner_up)
    return out


# ---------------------------------------------------------------------------
# Reports

@dataclass
class ScenarioReport:
    scenario_id: str
    seed: int
    digest_algorithm: str
    config_lines: list[str]
    series: list[MetricSeries]
    scalars: list[tuple[str, str, float]]  # (metric, unit, value)
    flags: list[str]
    trace: str
    events: int
    breach: str | None

    def csv_rows(self) -> list[str]:
        rows = []
        for metric, unit, value in self.scalars:
            rows.append(f"{self.scenario_id},{self.seed},{metric},{unit},"
                        f"value,{_fmt(value)}")
        for s in self.series:
            for stat, value in sorted(s.summary().items()):
                rows.append(f"{self.scenario_id},{self.seed},{s.name},{s.unit},"
                            f"{stat},{_fmt(value)}")
        return rows


CSV_HEADER = "scenario,seed,metric,unit,stat,value"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6f}"


def build_report(result: RunResult) -> ScenarioReport:
    cfg = result.config
    scalars: list[tuple[str, str, float]] = []
    series: list[MetricSeries] = []
    flags: list[str] = []

    ledger_series = MetricSeries(name="ledger-bytes", unit="bytes")
    for at, total in result.recorder.ledger_samples:
        ledger_series.add(at, float(total))

    if cfg.paradigm == "chain":
        cap = tps_cap(cfg["chain.capacity_units"], cfg["chain.tx_weight"],
                      cfg["chain.block_interval_s"])
        scalars.append(("tps-cap", "tx/s", cap))
        scalars.append(("measured-tps", "tx/s", measured_tps(result)))
        scalars.append(("orphan-rate", "ratio", measure_orphan_rate(result)))
        scalars.append(("blocks-mined", "blocks",
                        float(len(result.recorder.blocks_mined))))
        height = _observer(result, "chain").head_height
        scalars.append(("adopted-height", "blocks", float(height)))
        scalars.append(("heads-in-agreement", "nodes",
                        float(heads_in_agreement(result))))
        threshold = cfg["chain.confirm_threshold"]
        if height > 0:
            scalars.append(("confirm-latency", "s",
                            threshold * cfg["scenario.horizon_s"] / height))
        point = measure_confirmation_survival([result], threshold)
        scalars.append((f"survival-d{threshold}", "ratio", point.estimate))
        scalars.append((f"survival-d{threshold}-observations", "blocks",
                        float(point.observations)))
        if point.low_confidence:
            flags.append(f"survival-d{threshold}: low confidence "
                         f"({point.observations} observations)")
    else:
        scalars.append(("settled-tps", "tx/s", settled_tps(result)))
        latency, unsettled = measure_settlement_latency(result)
        series.append(latency)
        scalars.append(("sends-created", "blocks",
                        float(len(result.recorder.sends_created))))
        scalars.append(("unsettled-at-horizon", "transfers",
                        float(len(unsettled))))
        opened = {(a, s) for _n, node, a, s in result.recorder.conflicts_opened
                  if node == OBSERVER}
        scalars.append(("conflicts-opened", "conflicts", float(len(opened))))
        scalars.append(("conflicts-injected", "conflicts",
                        float(len(result.recorder.conflicts_injected))))
        resolved = sum(OBSERVER in by_node
                       for by_node in conflict_outcomes(result).values())
        scalars.append(("conflicts-resolved", "conflicts", float(resolved)))
        ties = _observer(result, "lattice").flagged_ties
        scalars.append(("undecided-ties", "conflicts", float(len(ties))))
        for key in ties:
            flags.append(f"tie left undecided on {key[0]}")

    for category, total in sorted(result.books[OBSERVER].ledger_bytes().items()):
        scalars.append((f"ledger-{category.replace('_', '-')}", "bytes",
                        float(total)))
    if ledger_series.samples:
        series.append(ledger_series)

    if result.breach is not None:
        flags.append(f"invariant breach: {result.breach}")

    return ScenarioReport(
        scenario_id=cfg.scenario_id, seed=result.seed,
        digest_algorithm=DIGEST_ALGORITHM,
        config_lines=cfg.snapshot_lines(),
        series=series, scalars=scalars, flags=flags,
        trace=result.trace, events=result.events, breach=result.breach)


def render_report(report: ScenarioReport) -> str:
    lines = [
        f"scenario: {report.scenario_id}",
        f"seed: {report.seed}",
        f"digest-algorithm: {report.digest_algorithm}",
        f"trace: {report.trace}",
        f"events: {report.events}",
        f"breach: {report.breach or 'none'}",
        "",
        "[config]",
    ]
    lines.extend(report.config_lines)
    lines.append("")
    lines.append("[metrics]")
    width = max((len(m) for m, _, _ in report.scalars), default=10)
    for metric, unit, value in report.scalars:
        lines.append(f"{metric:<{width}}  {_fmt(value):>14}  {unit}")
    for s in report.series:
        lines.append("")
        lines.append(f"[series {s.name} ({s.unit}); n={len(s.samples)}]")
        for stat, value in sorted(s.summary().items()):
            lines.append(f"{stat:<6} {_fmt(value)}")
    if report.flags:
        lines.append("")
        lines.append("[flags]")
        lines.extend(report.flags)
    lines.append("")
    return "\n".join(lines)


def run_scenario_suite(cfg: Config, seeds: list[int], out_dir: str | None = None
                       ) -> tuple[list[ScenarioReport], bool]:
    """One report per seed; returns (reports, any-invariant-breached)."""
    if not seeds:
        raise ConfigError("no seeds")
    if out_dir is not None:  # an unusable directory fails before any run
        os.makedirs(out_dir, exist_ok=True)
    reports = []
    breached = False
    for seed in seeds:
        result = run(cfg, seed)
        report = build_report(result)
        reports.append(report)
        breached = breached or (result.breach is not None)
    if out_dir is not None:
        for report in reports:
            path = os.path.join(out_dir,
                                f"{report.scenario_id}-seed{report.seed}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_report(report))
        csv_path = os.path.join(out_dir, f"{cfg.scenario_id}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for report in reports:
                for row in report.csv_rows():
                    fh.write(row + "\n")
    return reports, breached
