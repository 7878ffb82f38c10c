"""Golden pins: every bundled preset at seed 1, trace and report.

A run is a pure function of (config, seed), so the full event-trace digest
and the rendered report text of each preset are fixed values. A change that
moves either one changes what the simulator does or reports; such a change
re-pins here and says why.
"""

import hashlib

import pytest

from ledgerlab.metrics import build_report, render_report
from ledgerlab.runner import run
from ledgerlab.scenario import PRESETS, preset_config

# preset -> (trace digest, sha256 of the rendered report)
PINS = {
    "bitcoin-baseline": (
        "46061c79f55405f115e9ba1bc9ccd21d7d24239b390f7c4286ec49b3ea604845",
        "e9ae89ecfadb89fa3b6998ac84fb837d64fc62d56cede348961be9d6dc01a42c"),
    "ethereum-baseline": (
        "448c7431ee9e069b03e88970c6199fe9bc17f93108ed9572e9448e049012033f",
        "7b623f92965f5deb3a6b614ff40cba17df53f9179b39d76c96559886d454f144"),
    "fork-stress": (
        "ccd005d5b99e8b8490cf0fe71bd1aa9680aae226e876fdcbca1d9a0d0021c248",
        "401ea263bb010d6d9c73f64f1b3168aeaadc00f25f6dbaf5731db0b3f87e3168"),
    "nano-baseline": (
        "3fee6b71ccd914d79ea1f77dc0991c5edd6b27889613ad362484ff506c9d9fba",
        "de050f4e85aab82d77a52322f60cea7f70fb0929312c4e5dca76bbff786ab68a"),
    "nano-scaling": (
        "3d6f79b785fdb87bfa5512c0e661f3244304ee493c3ba105e29905e2d78a1871",
        "56c04264d578732b7a0e09de2daf6fd886afa05ff63b324d601c49e3590fbdea"),
    "partition-stress": (
        "0b8b5bc192738485bc81ea19174bb1600d95d186d96482be92049b42c4e46eac",
        "003bfc6b007a775a96bd9281bf7baa5158ec0b9861ffc2074ac309922cf9753e"),
    "pos-baseline": (
        "bfe39e36fcfd68431ca4dae74efbc2170eeb1bdd3ee7d6460390869f4a70b714",
        "62ed1c854e33c177bd133c47b2f3b756023476feb77eef6bc8b273c00e571400"),
}

# Paths no preset runs: grind-mode mining, a miner with zero hash rate, and
# lossy links that keep blocks parked on a missing dependency (the lattice
# runs also evict from a small gap buffer, one during open conflicts), and a
# fork-stress run with five representatives, jitter and a fork every 4 s.
# (preset, overrides) -> (trace digest, sha256 of the rendered report)
VARIANT_PINS = {
    ("bitcoin-baseline", ("pow.mode=grind", "scenario.horizon_s=120")): (
        "9de5f7babf2a523789a820119e5c9e8a94c0aae58e03d6d3371b24bedb4c0dda",
        "a69e721a8d0f63975d0a62ce92293817158c5aeeee37c84ca6985d9476d70442"),
    ("bitcoin-baseline", ("chain.hash_rates=1,0,2", "scenario.horizon_s=120")): (
        "5f3d08a942e48f0e15f9ff7fc0cffacf9b90c354cc9a158d2e78881129f2f437",
        "670237534b748e7cd8a504116f4ef5d93fe94ec32ef4d865db44fae648e09b6a"),
    ("nano-baseline", ("lattice.gap_buffer=4", "net.drop_prob=0.2")): (
        "951943081cf3c288679608b015c0cf7c242ea1d845127a42ddb7eb4e29d14c2e",
        "179f6c8c9ac76fbd61f9822ea83055250f5c835cf961cae30c92940ae62ce228"),
    ("fork-stress", ("lattice.gap_buffer=2", "net.drop_prob=0.1")): (
        "4fcaae2011e6676255e5584f5db150f378473fc3ed346e9a6854687b49e08772",
        "8fa330470cc2eca70c31e4d5c47282c16729ab8a9e8467d9132279cd92e53856"),
    ("bitcoin-baseline", ("net.drop_prob=0.2", "scenario.horizon_s=120")): (
        "4a23f254bb06134d9482c5b11893b407cdf10ff509fba1a00b945ffd81a51834",
        "7fa9fb85323d6873c44625e7b6cf98ea3617d57489814bc21c15db66d10c8670"),
    ("fork-stress", ("lattice.representatives=5", "net.jitter_ms=40",
                     "fork.interval_s=4")): (
        "d7d29239874fe62618865ca9e2d3028bf632b437b9bc96b95e69b3105b484ecc",
        "06f715cac3ba9e4bbd27e5b675e776405f688e875a8be6749485a8b2b95aa127"),
}


def _trace_and_report_sha(cfg):
    result = run(cfg, 1)
    text = render_report(build_report(result))
    return result.trace, hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_preset_is_pinned():
    assert sorted(PINS) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_preset_seed_one_matches_pin(name):
    assert _trace_and_report_sha(preset_config(name)) == PINS[name]


@pytest.mark.parametrize("variant", sorted(VARIANT_PINS),
                         ids=lambda v: ",".join(v[1]))
def test_variant_seed_one_matches_pin(variant):
    name, overrides = variant
    cfg = preset_config(name, list(overrides))
    assert _trace_and_report_sha(cfg) == VARIANT_PINS[variant]
