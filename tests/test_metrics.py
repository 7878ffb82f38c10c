"""Throughput caps, survival estimation, reports."""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ledgerlab.errors import ConfigError
from ledgerlab.metrics import (
    CSV_HEADER,
    MetricSeries,
    WrongParadigmError,
    ZeroCapacityError,
    block_fates,
    build_report,
    conflict_outcomes,
    heads_in_agreement,
    measure_confirmation_survival,
    measure_orphan_rate,
    measure_settlement_latency,
    measured_tps,
    percentile,
    render_report,
    run_scenario_suite,
    settled_tps,
    summarize,
    survival_curve,
    tps_cap,
)
from ledgerlab.recording import RunRecorder
from ledgerlab.runner import RunResult, run
from ledgerlab.scenario import preset_config

# one short run per paradigm, reused across this module
_CHAIN_CFG = preset_config("bitcoin-baseline", ["scenario.horizon_s=40"])
_LATTICE_CFG = preset_config("nano-baseline", ["scenario.horizon_s=40"])


@pytest.fixture(scope="module")
def chain_result():
    return run(_CHAIN_CFG, seed=3)


@pytest.fixture(scope="module")
def lattice_result():
    return run(_LATTICE_CFG, seed=3)


# -- tps cap ----------------------------------------------------------------


def test_tps_cap_flooring_and_examples():
    assert tps_cap(1_000_000, 250, 600) == pytest.approx(4000 / 600)
    assert tps_cap(1_000_000, 500, 600) == pytest.approx(2000 / 600)
    assert tps_cap(6_700_000, 30_000, 15) == pytest.approx(223 / 15)
    assert tps_cap(6_700_000, 64_000, 15) == pytest.approx(104 / 15)
    assert tps_cap(999, 500, 1) == 1.0  # floor, not round


def test_tps_cap_error_paths():
    with pytest.raises(ZeroCapacityError):
        tps_cap(100, 500, 1)
    with pytest.raises(ConfigError):
        tps_cap(0, 1, 1)
    with pytest.raises(ConfigError):
        tps_cap(100, 0, 1)
    with pytest.raises(ConfigError):
        tps_cap(100, 1, 0)


@given(st.integers(min_value=1, max_value=10**7),
       st.integers(min_value=1, max_value=10**5),
       st.integers(min_value=1, max_value=10**5))
@settings(max_examples=60, deadline=None)
def test_tps_cap_monotone_in_weight(capacity, weight, bump):
    if weight + bump > capacity:
        return
    heavier = tps_cap(capacity, weight + bump, 10.0)
    lighter = tps_cap(capacity, weight, 10.0)
    assert heavier <= lighter


# -- summaries --------------------------------------------------------------


def test_percentile_nearest_rank():
    vals = [float(x) for x in range(1, 11)]
    assert percentile(vals, 0.50) == 5.0
    assert percentile(vals, 0.95) == 10.0
    assert percentile(vals, 0.01) == 1.0
    assert percentile([7.0], 0.95) == 7.0


def test_summarize_shape():
    s = summarize([3.0, 1.0, 2.0])
    assert s["count"] == 3
    assert s["mean"] == pytest.approx(2.0)
    assert s["p50"] == 2.0
    assert s["max"] == 3.0
    empty = summarize([])
    assert empty["count"] == 0 and empty["mean"] == 0.0


def test_series_requires_monotone_time():
    series = MetricSeries(name="x", unit="u")
    series.add(1.0, 5.0)
    series.add(1.0, 6.0)
    with pytest.raises(ValueError):
        series.add(0.5, 7.0)


# -- survival from synthetic adoption records -------------------------------


def _synthetic_result():
    rec = RunRecorder()
    b = lambda i: bytes([i]) * 32
    # heights: b1=1 b2=2 side=2 b3=3
    rec.blocks_mined.append((1.0, 0, b(1), 1, 0))
    rec.adoptions.append((1.0, 0, 0, 1, (), (b(1),)))
    rec.blocks_mined.append((2.0, 0, b(2), 2, 0))
    rec.adoptions.append((2.0, 0, 1, 2, (), (b(2),)))
    # a competing branch of length 3 replaces b2 at head height 2
    rec.adoptions.append((3.0, 0, 2, 3, (b(2),), (b(10), b(11))))
    return RunResult(seed=1, config=None, recorder=rec, trace="", events=3)


def test_block_fates_peak_depth_rules():
    fates = {f.digest: f for f in block_fates(_synthetic_result())}
    # b2 orphaned when the head stood at 2: peak depth 2 - 2 + 1 = 1
    assert not fates[bytes([2]) * 32].survived
    assert fates[bytes([2]) * 32].peak_depth == 1
    # b1 stayed: final height 3, mined at 1 -> depth 3
    assert fates[bytes([1]) * 32].survived
    assert fates[bytes([1]) * 32].peak_depth == 3
    assert fates[bytes([11]) * 32].peak_depth == 1


def test_survival_point_math():
    point = measure_confirmation_survival([_synthetic_result()], 1)
    # four blocks reached depth 1; the orphan is the only casualty
    assert point.observations == 4
    assert point.survivors == 3
    assert point.estimate == pytest.approx(0.75)
    assert point.low_confidence
    assert point.std_error == pytest.approx((0.75 * 0.25 / 4) ** 0.5)
    with pytest.raises(ConfigError):
        measure_confirmation_survival([_synthetic_result()], 0)


def test_survival_curve_monotone_observations(chain_result):
    curve = survival_curve([chain_result], max_depth=8)
    obs = [p.observations for p in curve]
    assert obs == sorted(obs, reverse=True)
    assert all(0.0 <= p.estimate <= 1.0 for p in curve)


# -- paradigm guards --------------------------------------------------------


def test_chain_metrics_reject_lattice_runs(lattice_result):
    with pytest.raises(WrongParadigmError):
        measure_orphan_rate(lattice_result)
    with pytest.raises(WrongParadigmError):
        measured_tps(lattice_result)
    with pytest.raises(WrongParadigmError):
        heads_in_agreement(lattice_result)


def test_lattice_metrics_reject_chain_runs(chain_result):
    with pytest.raises(WrongParadigmError):
        settled_tps(chain_result)
    with pytest.raises(WrongParadigmError):
        measure_settlement_latency(chain_result)


# -- real-run sanity --------------------------------------------------------


def test_chain_run_measurements(chain_result):
    rate = measure_orphan_rate(chain_result)
    assert 0.0 <= rate < 0.5
    tps = measured_tps(chain_result)
    assert 0.0 < tps <= tps_cap(2500, 250, 2.0)
    assert heads_in_agreement(chain_result) == 4


def test_lattice_run_measurements(lattice_result):
    series, unsettled = measure_settlement_latency(lattice_result)
    assert series.values() and min(series.values()) >= 0.0
    created = {d for _n, _nd, d, _a, _r, _amt in
               lattice_result.recorder.sends_created}
    settled = {d for _n, _nd, d, _rd in lattice_result.recorder.receives_applied}
    assert len(series.values()) == len(created & settled)
    assert set(unsettled) == created - settled
    assert settled_tps(lattice_result) == pytest.approx(
        len(created & settled) / 40.0)


def test_conflict_outcomes_empty_without_forks(lattice_result):
    assert conflict_outcomes(lattice_result) == {}


def test_conflict_counts_are_taken_at_the_observer(lattice_result):
    recorder = copy.deepcopy(lattice_result.recorder)
    seen_here, elsewhere = ("acct-01", bytes(32)), ("acct-02", bytes(32))
    for node, key in ((0, seen_here), (1, elsewhere)):
        recorder.conflicts_opened.append((1.0, node, *key))
        recorder.conflicts_resolved.append((2.0, node, *key, bytes(32), 1, 0))
    result = replace(lattice_result, recorder=recorder)
    scalars = {metric: value for metric, _unit, value in build_report(result).scalars}
    assert scalars["conflicts-opened"] == scalars["conflicts-resolved"] == 1
    assert set(conflict_outcomes(result)) == {seen_here, elsewhere}


def test_conflict_outcomes_cover_all_nodes():
    cfg = preset_config("fork-stress", ["scenario.horizon_s=60"])
    result = run(cfg, seed=2)
    outcomes = conflict_outcomes(result)
    assert outcomes
    for key, per_node in outcomes.items():
        assert set(per_node) == set(range(6))
        winners = {w for w, _ww, _ru in per_node.values()}
        assert len(winners) == 1


# -- reports ----------------------------------------------------------------


def test_report_renders_identically_for_same_result(chain_result):
    a = render_report(build_report(chain_result))
    b = render_report(build_report(chain_result))
    assert a == b
    assert "scenario: bitcoin-baseline" in a
    assert "[config]" in a and "[metrics]" in a


def test_report_scalars_recompute(chain_result):
    report = build_report(chain_result)
    scalars = {m: v for m, _u, v in report.scalars}
    assert scalars["measured-tps"] == pytest.approx(
        measured_tps(chain_result))
    assert scalars["orphan-rate"] == pytest.approx(
        measure_orphan_rate(chain_result))
    assert scalars["tps-cap"] == pytest.approx(tps_cap(2500, 250, 2.0))


@pytest.mark.parametrize("name, tps", [
    ("bitcoin-baseline", 4.616071), ("ethereum-baseline", 9.083333),
    ("pos-baseline", 6.09), ("partition-stress", 3.358333)])
def test_measured_tps_does_not_depend_on_pruning(name, tps):
    # pruning at the horizon drops old bodies, not the mined blocks' counts
    kept = measured_tps(run(preset_config(name), 1))
    pruned = measured_tps(run(preset_config(name, ["chain.prune_keep_recent=128"]), 1))
    assert kept == pruned
    assert round(kept, 6) == tps


def test_csv_rows_shape(lattice_result):
    report = build_report(lattice_result)
    assert CSV_HEADER == "scenario,seed,metric,unit,stat,value"
    for row in report.csv_rows():
        assert len(row.split(",")) == 6
        assert row.startswith("nano-baseline,3,")


def test_suite_writes_reports(tmp_path):
    cfg = preset_config("nano-baseline", ["scenario.horizon_s=10"])
    reports, breached = run_scenario_suite(cfg, [1, 2], out_dir=str(tmp_path))
    assert len(reports) == 2
    assert not breached
    assert (tmp_path / "nano-baseline-seed1.txt").exists()
    assert (tmp_path / "nano-baseline-seed2.txt").exists()
    csv = (tmp_path / "nano-baseline.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert {line.split(",")[1] for line in csv[1:]} == {"1", "2"}


def test_suite_requires_seeds():
    with pytest.raises(ConfigError, match="no seeds"):
        run_scenario_suite(_LATTICE_CFG, [])
