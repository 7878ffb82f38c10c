"""Who gets to produce the next block: PoW puzzles, difficulty retargeting,
and stake-weighted selection with slashing.

Two proof-of-work modes exist. `grind` literally enumerates nonces against a
leading-zero-bit target and is only allowed at small difficulties (see
GRIND_BITS_LIMIT); it is there to validate the puzzle mechanics.
`lottery` skips the hashing: each miner node draws its next block interval
from an exponential whose rate is proportional to its hashpower, which is what
large scenarios use. Both are deterministic under a seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from . import codec
from .errors import LedgerError, NotFoundError
from .primitives import digest, leading_zero_bits

# Retarget clamp: one adjustment never moves difficulty by more than 4x either way.
RETARGET_CLAMP = 4.0

# The one bound on a nonce search, so that desk-scale literal mining stays
# tractable: the config caps genesis and antispam bits at it, and the bits a
# grind run can retarget to. A retarget window may overshoot by the clamp,
# two bits, and mine()'s budget covers that.
GRIND_BITS_LIMIT = 24


class MiningBudgetError(LedgerError):
    """Nonce search exhausted its attempt budget without a solution."""


class NoLeaderError(LedgerError):
    """Every participant has zero rate/stake; nobody can be drawn."""


class SlashRejectedError(LedgerError):
    """Slashing evidence did not hold up (the block is actually valid)."""


class WorkCounter:
    """Counts digest evaluations spent on puzzle solving."""

    def __init__(self) -> None:
        self.evaluations = 0

    def add(self, n: int = 1) -> None:
        self.evaluations += n


def check_pow(header_digest: bytes, nonce: int, difficulty_bits: int,
              counter: WorkCounter | None = None) -> bool:
    """True iff digest(header_digest || nonce) has >= difficulty_bits leading zeros."""
    d = digest(header_digest + codec.enc_u64(nonce))
    if counter is not None:
        counter.add()
    return leading_zero_bits(d) >= difficulty_bits


def mine(header_digest: bytes, difficulty_bits: int, seed: int,
         budget: int | None = None, counter: WorkCounter | None = None) -> int:
    """Find a nonce satisfying check_pow, deterministically for a given seed.

    Enumeration starts at a seed-derived 64-bit offset and walks upward, so the
    first solution in that order is a pure function of (header, bits, seed).
    Raises MiningBudgetError when the attempt budget runs out.
    """
    if budget is None:
        budget = max(4096, 64 << difficulty_bits)
    start = random.Random(seed).getrandbits(64)
    for i in range(budget):
        nonce = (start + i) & codec.U64_MAX
        if check_pow(header_digest, nonce, difficulty_bits, counter):
            return nonce
    raise MiningBudgetError(
        f"no nonce within {budget} attempts at {difficulty_bits} bits")


def antispam_pow(block_digest: bytes, difficulty_bits: int,
                 counter: WorkCounter | None = None) -> int:
    """Per-block spam throttle: same puzzle as mine(), seeded from the block itself."""
    seed = int.from_bytes(block_digest[:8], "big")
    return mine(block_digest, difficulty_bits, seed, counter=counter)


# ---------------------------------------------------------------------------
# Difficulty

@dataclass(frozen=True)
class DifficultySchedule:
    """Difficulty as expected hash count, with the retarget parameters."""

    target_interval_s: float
    retarget_window: int
    difficulty: float

    @property
    def difficulty_bits(self) -> int:
        # expected-hash-count -> leading-zero bits, by rounding log2
        if self.difficulty <= 1.0:
            return 0
        return round(math.log2(self.difficulty))


def retarget(schedule: DifficultySchedule, observed_window_s: float) -> DifficultySchedule:
    """New difficulty = old * (target * window) / observed, clamped to [1/4, 4]x.

    observed_window_s is the duration the last retarget_window blocks took.
    """
    if observed_window_s <= 0:
        raise ValueError("observed window duration must be positive")
    ideal = schedule.target_interval_s * schedule.retarget_window
    factor = ideal / observed_window_s
    factor = min(RETARGET_CLAMP, max(1.0 / RETARGET_CLAMP, factor))
    return DifficultySchedule(
        target_interval_s=schedule.target_interval_s,
        retarget_window=schedule.retarget_window,
        difficulty=schedule.difficulty * factor,
    )


# ---------------------------------------------------------------------------
# Proof of stake

@dataclass
class StakeRegistry:
    """Validator deposits plus the cumulative burned total."""

    deposits: dict[str, int] = field(default_factory=dict)
    burned: int = 0

    def total_stake(self) -> int:
        return sum(self.deposits.values())

    def active(self) -> dict[str, int]:
        return {v: s for v, s in self.deposits.items() if s > 0}


def pos_select(registry: StakeRegistry, seed: int, round_index: int) -> str:
    """Stake-weighted validator draw for one slot, deterministic per (seed, round)."""
    # the stream is pinned to (seed, round): every node draws the same leader
    material = digest(codec.enc_u64(seed & codec.U64_MAX) + b"/pos-slot"
                      + codec.enc_u64(round_index))
    rng = random.Random(int.from_bytes(material, "big"))
    active = registry.active()
    if not active:
        raise NoLeaderError("no validator has positive stake")
    ids = sorted(active)
    total = 0.0
    for v in ids:
        total += float(active[v])
    point = rng.random() * total
    acc = 0.0
    for v in ids:
        acc += float(active[v])
        if point < acc:
            return v
    return ids[-1]  # float edge: point == total


def pos_slash(registry: StakeRegistry, validator_id: str, offending_block,
              verdict_fn: Callable[[object], bool]) -> int:
    """Burn a validator's entire deposit over an invalid block it produced.

    verdict_fn(offending_block) must report whether the block is valid; valid
    evidence is refused with SlashRejectedError. Returns the burned amount.
    Slashing an unknown (or already-slashed) validator raises NotFoundError.
    """
    stake = registry.deposits.get(validator_id, 0)
    if stake <= 0:
        raise NotFoundError(f"validator {validator_id} has no active stake")
    producer = getattr(getattr(offending_block, "header", offending_block), "producer", None)
    if producer != validator_id:
        raise SlashRejectedError(f"block was not produced by {validator_id}")
    if verdict_fn(offending_block):
        raise SlashRejectedError("offending block is valid; nothing to slash")
    registry.deposits[validator_id] = 0
    registry.burned += stake
    return stake
