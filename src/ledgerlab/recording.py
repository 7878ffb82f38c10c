"""Observation stream captured during a run, consumed by the metrics layer.

Records are plain tuples appended in execution order, so the recorder is as
deterministic as the simulation feeding it. Nothing here feeds back into
protocol behavior; metrics can be added without perturbing a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The node every report reads its chain and lattice figures from.
OBSERVER = 0


@dataclass
class RunRecorder:
    # (now, node, digest, height)
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
    # (now, node, total_bytes)
    ledger_samples: list[tuple] = field(default_factory=list)

    def block_mined(self, now: float, node: int, d: bytes, height: int) -> None:
        self.blocks_mined.append((now, node, d, height))

    def adoption(self, now: float, node: int, old_height: int, new_height: int,
                 orphaned: tuple, incoming: tuple) -> None:
        self.adoptions.append((now, node, old_height, new_height, orphaned, incoming))

    def send_created(self, now: float, node: int, send_digest: bytes,
                     account: str, recipient: str, amount: int) -> None:
        self.sends_created.append((now, node, send_digest, account, recipient, amount))

    def receive_applied(self, now: float, node: int, send_digest: bytes,
                        receive_digest: bytes) -> None:
        self.receives_applied.append((now, node, send_digest, receive_digest))

    def conflict_opened(self, now: float, node: int, account: str, subject: bytes) -> None:
        self.conflicts_opened.append((now, node, account, subject))

    def conflict_resolved(self, now: float, node: int, account: str, subject: bytes,
                          winner: bytes, winner_weight: int, runner_up: int) -> None:
        self.conflicts_resolved.append(
            (now, node, account, subject, winner, winner_weight, runner_up))

    def conflict_injected(self, now: float, subject: bytes,
                          candidate_a: bytes, candidate_b: bytes) -> None:
        self.conflicts_injected.append((now, subject, candidate_a, candidate_b))

    def ledger_sample(self, now: float, node: int, total_bytes: int) -> None:
        self.ledger_samples.append((now, node, total_bytes))
