"""Work lottery, difficulty retargeting, stake slots, slashing."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ledgerlab.errors import NotFoundError
from ledgerlab.leader_election import (
    DifficultySchedule,
    MiningBudgetError,
    NoLeaderError,
    SlashRejectedError,
    StakeRegistry,
    WorkCounter,
    antispam_pow,
    check_pow,
    mine,
    pos_select,
    pos_slash,
    retarget,
)
from ledgerlab.primitives import digest

SIGNIFICANCE = 0.001


@given(st.binary(min_size=32, max_size=32),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_mine_solves_its_own_puzzle(header, bits, seed):
    nonce = mine(header, bits, seed)
    assert check_pow(header, nonce, bits)


def test_mine_sixteen_bit_fixture():
    header = digest(b"sixteen-bit fixture")
    nonce = mine(header, 16, seed=42)
    assert check_pow(header, nonce, 16)
    # harder target, same nonce almost surely fails; verify explicitly
    assert not check_pow(header, nonce, 40)


def test_mine_deterministic_per_seed():
    header = digest(b"det")
    assert mine(header, 8, seed=1) == mine(header, 8, seed=1)
    # different seeds start the walk elsewhere; collision at 8 bits is
    # possible but not for this pair (checked once, frozen)
    assert mine(header, 8, seed=1) != mine(header, 8, seed=2)


def test_mine_budget_exhaustion():
    with pytest.raises(MiningBudgetError):
        mine(digest(b"hard"), 64, seed=1, budget=10)


def test_work_counter_tracks_evaluations():
    counter = WorkCounter()
    mine(digest(b"count me"), 4, seed=3, counter=counter)
    assert counter.evaluations >= 1
    before = counter.evaluations
    check_pow(digest(b"count me"), 0, 4, counter=counter)
    assert counter.evaluations == before + 1


def test_antispam_cost_scales_with_bits():
    # mean attempts at b bits is ~2^b; check within a generous factor
    for bits, lo, hi in [(0, 1, 1), (4, 2, 80), (8, 16, 1400)]:
        total = 0
        for i in range(40):
            counter = WorkCounter()
            antispam_pow(digest(b"spam-%d" % i), bits, counter=counter)
            total += counter.evaluations
        mean = total / 40
        assert lo <= mean <= hi, (bits, mean)


def test_antispam_is_a_function_of_the_block():
    d = digest(b"same block")
    assert antispam_pow(d, 6) == antispam_pow(d, 6)


# -- difficulty -------------------------------------------------------------


def test_difficulty_bits_mapping():
    mk = lambda diff: DifficultySchedule(2.0, 16, diff)
    assert mk(0.5).difficulty_bits == 0
    assert mk(1.0).difficulty_bits == 0
    assert mk(2.0).difficulty_bits == 1
    assert mk(256.0).difficulty_bits == 8
    assert mk(300.0).difficulty_bits == 8  # log2(300) = 8.23 rounds down
    assert mk(363.0).difficulty_bits == 9  # log2(363) = 8.504 rounds up


def test_retarget_fixed_point():
    sched = DifficultySchedule(2.0, 16, 64.0)
    ideal = 2.0 * 16
    after = retarget(sched, ideal)
    assert after.difficulty == pytest.approx(64.0)


def test_retarget_direction_and_clamp():
    sched = DifficultySchedule(2.0, 16, 64.0)
    ideal = 32.0
    faster = retarget(sched, ideal / 2)  # blocks came twice too fast
    assert faster.difficulty == pytest.approx(128.0)
    slower = retarget(sched, ideal * 2)
    assert slower.difficulty == pytest.approx(32.0)
    # clamp at 4x regardless of how extreme the window was
    assert retarget(sched, ideal / 100).difficulty == pytest.approx(256.0)
    assert retarget(sched, ideal * 100).difficulty == pytest.approx(16.0)
    with pytest.raises(ValueError):
        retarget(sched, 0.0)


def test_retarget_converges_to_hash_rate():
    # window duration implied by difficulty D and aggregate rate R is W*D/R;
    # iterate 10 windows from a 16x-wrong start, expect within 10% of R*target
    rate = 12.0
    sched = DifficultySchedule(2.0, 16, 384.0)  # equilibrium is 24.0
    for _ in range(10):
        observed = sched.retarget_window * sched.difficulty / rate
        sched = retarget(sched, observed)
    assert abs(sched.difficulty - rate * 2.0) / (rate * 2.0) < 0.10


# -- weighted draws ---------------------------------------------------------


def _chi_square_ok(counts, weights):
    total = sum(counts.values())
    keys = sorted(weights)
    f_obs = [counts.get(k, 0) for k in keys]
    wsum = sum(weights.values())
    f_exp = [total * weights[k] / wsum for k in keys]
    _stat, p = stats.chisquare(f_obs, f_exp)
    return p > SIGNIFICANCE


def test_pos_draw_distribution():
    registry = StakeRegistry(deposits={"v0": 100, "v1": 200, "v2": 300, "v3": 400})
    counts = {k: 0 for k in registry.deposits}
    for i in range(10_000):
        counts[pos_select(registry, seed=7, round_index=i)] += 1
    assert _chi_square_ok(counts, {k: float(v) for k, v in registry.deposits.items()})


def test_single_weight_binomial_bound():
    # 30% stake over n draws: observed count within 3 standard deviations
    registry = StakeRegistry(deposits={"a": 3, "b": 7})
    n = 10_000
    hits = sum(1 for i in range(n) if pos_select(registry, 5, i) == "a")
    p = 0.3
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma


def test_draws_deterministic_and_seed_sensitive():
    registry = StakeRegistry(deposits={"v0": 1, "v1": 1})
    seq_a = [pos_select(registry, 11, i) for i in range(50)]
    seq_b = [pos_select(registry, 11, i) for i in range(50)]
    seq_c = [pos_select(registry, 12, i) for i in range(50)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_pos_select_requires_stake():
    with pytest.raises(NoLeaderError):
        pos_select(StakeRegistry(deposits={"v0": 0}), 1, 0)


# -- slashing ---------------------------------------------------------------


def _block(producer):
    return SimpleNamespace(header=SimpleNamespace(producer=producer))


def test_slash_burns_exact_stake():
    registry = StakeRegistry(deposits={"v0": 250, "v1": 750})
    burned = pos_slash(registry, "v0", _block("v0"), verdict_fn=lambda b: False)
    assert burned == 250
    assert registry.deposits["v0"] == 0
    assert registry.burned == 250
    assert registry.total_stake() == 750
    assert "v0" not in registry.active()


def test_slash_twice_is_not_found():
    registry = StakeRegistry(deposits={"v0": 100})
    pos_slash(registry, "v0", _block("v0"), verdict_fn=lambda b: False)
    with pytest.raises(NotFoundError):
        pos_slash(registry, "v0", _block("v0"), verdict_fn=lambda b: False)


def test_slash_refuses_valid_block():
    registry = StakeRegistry(deposits={"v0": 100})
    with pytest.raises(SlashRejectedError):
        pos_slash(registry, "v0", _block("v0"), verdict_fn=lambda b: True)
    assert registry.deposits["v0"] == 100


def test_slash_refuses_foreign_block():
    registry = StakeRegistry(deposits={"v0": 100, "v1": 100})
    with pytest.raises(SlashRejectedError):
        pos_slash(registry, "v0", _block("v1"), verdict_fn=lambda b: False)
