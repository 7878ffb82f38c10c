"""Observation stream captured during a run, consumed by the metrics layer.

Records are plain tuples, in the field order each list documents, that the
nodes, drivers and runner append in execution order, so the recorder is as
deterministic as the simulation feeding it. Nothing here feeds back into
protocol behavior; metrics can be added without perturbing a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The node every report reads its chain and lattice figures from.
OBSERVER = 0


@dataclass
class RunRecorder:
    # (now, node, digest, height, transaction count)
    blocks_mined: list[tuple] = field(default_factory=list)
    # (now, node, old_height, new_height, orphaned digests, incoming digests);
    # incoming runs ancestor first and ends at new_height
    adoptions: list[tuple] = field(default_factory=list)
    # (now, node, send_digest, account, recipient, amount)
    sends_created: list[tuple] = field(default_factory=list)
    # (now, node, send_digest, receive_digest)
    receives_applied: list[tuple] = field(default_factory=list)
    # (now, node, account, subject)
    conflicts_opened: list[tuple] = field(default_factory=list)
    # (now, node, account, subject, winner, winner_weight, runner_up_weight)
    conflicts_resolved: list[tuple] = field(default_factory=list)
    # (now, subject, candidate_a, candidate_b)
    conflicts_injected: list[tuple] = field(default_factory=list)
    # (at, total_bytes): the observer's ledger size at the end of each of the
    # runner's equal slices of the horizon (runner.LEDGER_SAMPLES)
    ledger_samples: list[tuple] = field(default_factory=list)
