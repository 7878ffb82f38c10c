"""Golden pins: every bundled preset at seed 1, and a few variants.

A run is a pure function of (config, seed), so the rendered report of each
pinned run is fixed text, and its `trace:` line carries the full event-trace
digest. Each report is checked in under `tests/pins/`; a run that no longer
renders it fails with a unified diff. A change that moves a report re-pins
with `tests/repin.py` and says why.

All pins render in one pass that traces the package, and the statements it
leaves unreached must match `tests/unreached.txt` (see `unreached.py`).
"""

import difflib
from pathlib import Path

import pytest
import unreached
from memos import clear_memos

from ledgerlab.metrics import build_report, render_report
from ledgerlab.runner import run
from ledgerlab.scenario import PRESETS, preset_config

PIN_DIR = Path(__file__).parent / "pins"

# Paths no preset runs: grind-mode mining, at 3 bits and retargeting up from
# there, a miner with zero hash rate, lossy links that keep blocks parked on
# a missing dependency (the lattice runs also evict from a small gap buffer,
# one during open conflicts), a fork-stress run with five representatives,
# jitter and a fork every 4 s, and a chain run that prunes old bodies at the
# horizon.
# (preset, overrides)
VARIANTS = (
    ("bitcoin-baseline", ("chain.consensus=grind", "scenario.horizon_s=120")),
    ("bitcoin-baseline", ("chain.hash_rates=1,0,2", "scenario.horizon_s=120")),
    ("nano-baseline", ("lattice.gap_buffer=4", "net.drop_prob=0.2")),
    ("fork-stress", ("lattice.gap_buffer=2", "net.drop_prob=0.1")),
    ("bitcoin-baseline", ("net.drop_prob=0.2", "scenario.horizon_s=120")),
    ("fork-stress", ("lattice.representatives=5", "net.jitter_ms=40",
                     "fork.interval_s=4")),
    ("bitcoin-baseline", ("chain.consensus=grind", "chain.hash_rates=100,100,100",
                          "scenario.horizon_s=120")),
    ("bitcoin-baseline", ("chain.prune_keep_recent=128",)),
)

PINNED = [(name, ()) for name in sorted(PRESETS)] + list(VARIANTS)


def pin_path(name: str, overrides: tuple[str, ...]) -> Path:
    stem = f"{name}@{','.join(overrides)}" if overrides else name
    return PIN_DIR / f"{stem}.txt"


def render_pin(name: str, overrides: tuple[str, ...]) -> str:
    """The seed-1 report of a pinned run, rendered by this tree."""
    return render_report(build_report(run(preset_config(name, list(overrides)), 1)))


def render_pins_traced():
    """The report of every pinned run, by (name, overrides), from one pass
    that traces the package; and the lines that ran, by file name."""
    clear_memos()  # so each memo's miss path runs, as in a fresh process
    return unreached.trace(lambda: {pin: render_pin(*pin) for pin in PINNED})


@pytest.fixture(scope="module")
def traced_pass():
    return render_pins_traced()


def _assert_matches_pin(pin, reports):
    path = pin_path(*pin)
    pinned = path.read_bytes().decode("utf-8")
    text = reports[pin]
    if text != pinned:
        diff = difflib.unified_diff(pinned.splitlines(keepends=True),
                                    text.splitlines(keepends=True),
                                    str(path), "this tree")
        pytest.fail("report moved from its pin:\n" + "".join(diff), pytrace=False)


def test_every_preset_is_pinned():
    # one file per pinned run, and no file for a run that is not pinned
    assert sorted(PIN_DIR.glob("*.txt")) == sorted(pin_path(*p) for p in PINNED)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_seed_one_matches_pin(name, traced_pass):
    _assert_matches_pin((name, ()), traced_pass[0])


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: ",".join(v[1]))
def test_variant_seed_one_matches_pin(variant, traced_pass):
    _assert_matches_pin(variant, traced_pass[0])


def test_unreached_statements_match_the_list(traced_pass):
    diff = unreached.difference(unreached.unreached(traced_pass[1]),
                                unreached.listed())
    if diff:
        pytest.fail("the pinned runs' unreached statements moved from "
                    "tests/unreached.txt (+ newly unreached, - listed but "
                    "now run):\n" + "\n".join(diff), pytrace=False)
