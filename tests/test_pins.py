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
        "899940222a0a0aebbd618e93e58466d5b83e557865e20cfbf7e99a521454cbf6",
        "909dbe03c269bb9481129dcbb8c7225afbedff080e62d5268044308082a95f0a"),
    "nano-baseline": (
        "18377ef36a373c00ac121b063fe1895955e315f7676978f074e7e23c7d7bb079",
        "d72535ebca78804edc2e697e4a909db4ab164bd1233c25c5916484481f18391b"),
    "nano-scaling": (
        "8456b1d906a6f2a7dc104ce034994b5e80829fcbf7dab080c45f7b1bd6f13ebd",
        "842cbd72ae0cb6aac5eade32e1952de7fc548cfeaa5f306c9a79429511d6d1d7"),
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
        "4dab5cc1c8aeb7a26918a7ff06276afdd356b2e8115c9a1adc378010f4d6a216",
        "575db2b8b039e19735cdb1fe4b492cc7de8d715ad08596230c8a043bcdd36656"),
    ("fork-stress", ("lattice.gap_buffer=2", "net.drop_prob=0.1")): (
        "a8e2cfba99888301bb12390a84fbe6931606881d4ec59eeca4893dac93a9e93d",
        "f217e8f0778750e1b7b82fdc2781118ea442f5716f7b45c92e6eb4e584066a26"),
    ("bitcoin-baseline", ("net.drop_prob=0.2", "scenario.horizon_s=120")): (
        "4a23f254bb06134d9482c5b11893b407cdf10ff509fba1a00b945ffd81a51834",
        "7fa9fb85323d6873c44625e7b6cf98ea3617d57489814bc21c15db66d10c8670"),
    ("fork-stress", ("lattice.representatives=5", "net.jitter_ms=40",
                     "fork.interval_s=4")): (
        "a65c4b8f4c818323021990b833aaf4f33a75c9f9f37ea4c12a798ffcd0746b34",
        "67537a6adc6fffb946a229db923c4f043466b6dd3477c3cf8f74e536fe2e2f05"),
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
