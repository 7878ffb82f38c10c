"""Deterministic discrete-event network simulation.

Events are totally ordered by (time, sequence) where sequence is a global
scheduling counter, so identical inputs replay byte-for-byte. All randomness
flows from one run seed, split into per-purpose streams by digest derivation;
adding a new consumer of randomness never perturbs existing streams.

Messages are canonical-encoded payloads delivered after sampled latency
(base + uniform jitter), can be dropped by link probability or an active
partition window, and are never retransmitted by the transport. Recovery,
where a protocol wants it, is the protocol's own rebroadcast/fetch logic.

An event entry is a plain (at, sequence, kind, destination, payload) tuple.
Every message enters through `Simulation.send`, which queues its own entry,
since a latency is never negative; `schedule` serves timers and driver
commands only, and refuses a time before now. Entries wait in one of two
queues: a message over a jitter-free link joins a FIFO lane, since now never
decreases and its latency is the constant base, so the lane is already in
(at, sequence) order; a jittered message, a timer and a command go on a heap.
`run` takes the smaller head of the two, so the total order is the same as
one heap's.

The trace digest chains one fixed-size record per event: its time,
sequence, kind and destination and the digest of its payload. `run` packs
the records into a buffer and hashes it a batch at a time, and the rest on
its way out, a handler that raises included, so the digest after a run is
the one a hash per event would give.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import random
import struct
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

from . import codec
from .errors import LedgerError
from .primitives import digest


class SchedulingError(LedgerError):
    """An event was scheduled before the current simulation time."""


class SimEventKind(enum.Enum):
    MESSAGE = 0
    TIMER = 1
    COMMAND = 2


_MESSAGE = SimEventKind.MESSAGE

DRIVER_DESTINATION = 0xFFFF_FFFF

# Trace record: enc_f64(at) + enc_u64(sequence) + enc_u8(kind)
# + enc_u64(destination) + the payload's digest, packed in one step.
_TRACE_RECORD = struct.Struct(">dQBQ32s")
# records `run` packs before it hashes them
_TRACE_BATCH = 256


@dataclass(frozen=True)
class Partition:
    """During [start, end) nothing crosses between side_a and side_b."""

    start_s: float
    end_s: float
    side_a: frozenset[int]
    side_b: frozenset[int]

    def severs(self, now: float, u: int, v: int) -> bool:
        if not (self.start_s <= now < self.end_s):
            return False
        return ((u in self.side_a and v in self.side_b)
                or (u in self.side_b and v in self.side_a))


@dataclass(frozen=True)
class LinkModel:
    base_latency_s: float = 0.0
    jitter_s: float = 0.0          # uniform half-width around the base
    drop_prob: float = 0.0
    partitions: tuple[Partition, ...] = ()

    def severed(self, now: float, u: int, v: int) -> bool:
        return any(p.severs(now, u, v) for p in self.partitions)


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent stream for (seed, label); stable across runs and platforms."""
    material = digest(codec.enc_u64(seed & codec.U64_MAX) + label.encode("utf-8"))
    return random.Random(int.from_bytes(material, "big"))


class SimNode(Protocol):  # pragma: no cover - structural type only
    def on_message(self, sim: "Simulation", now: float, payload: bytes) -> None: ...
    def on_timer(self, sim: "Simulation", now: float, payload: bytes) -> None: ...


class Simulation:
    """Wires nodes, driver and link model into one event queue and run loop."""

    def __init__(self, seed: int, link: LinkModel,
                 adjacency: dict[int, list[int]],
                 nodes: Optional[dict[int, SimNode]] = None,
                 driver=None):
        self.link = link
        self.adjacency = adjacency
        self.nodes: dict[int, SimNode] = nodes if nodes is not None else {}
        self.driver = driver
        self.now = 0.0
        self._seq = 0
        # (at, sequence, kind, destination, payload): tuples compare field by
        # field and sequence is unique, so the heap orders by (at, sequence)
        # and never compares the later fields; commands go to DRIVER_DESTINATION
        self._heap: list[tuple] = []
        self._lane: deque[tuple] = deque()  # jitter-free messages, in order
        self._net_rng = {u: derive_rng(seed, f"net/{u}") for u in sorted(adjacency)}
        self._trace = hashlib.sha256()
        self.events_executed = 0

    # -- scheduling primitives ---------------------------------------------

    def schedule(self, at: float, kind: SimEventKind, destination: int,
                 payload: bytes) -> None:
        if at < self.now:
            raise SchedulingError(f"cannot schedule {at:.6f} before now {self.now:.6f}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, destination, payload))

    def set_timer(self, node_id: int, delay_s: float, payload: bytes) -> None:
        self.schedule(self.now + delay_s, SimEventKind.TIMER, node_id, payload)

    def schedule_command(self, delay_s: float, payload: bytes) -> None:
        self.schedule(self.now + delay_s, SimEventKind.COMMAND,
                      DRIVER_DESTINATION, payload)

    def send(self, src: int, dst: int, payload: bytes) -> bool:
        """Unicast with latency/drop/partition applied; True if queued.

        Over a jitter-free link the entry joins the lane, whose entries all
        share the latency; a jittered one goes on the heap."""
        link = self.link
        if link.partitions and link.severed(self.now, src, dst):
            return False
        if link.drop_prob > 0 and self._net_rng[src].random() < link.drop_prob:
            return False
        self._seq += 1  # latency >= 0, so no past-time check is needed
        jitter = link.jitter_s
        if jitter > 0:
            latency = max(link.base_latency_s
                          + self._net_rng[src].uniform(-jitter, jitter), 0.0)
            heapq.heappush(self._heap, (self.now + latency, self._seq,
                                        _MESSAGE, dst, payload))
        else:
            self._lane.append((self.now + link.base_latency_s, self._seq,
                               _MESSAGE, dst, payload))
        return True

    def broadcast(self, src: int, payload: bytes) -> None:
        """Send to every peer of src, one `codec.Broadcast` for them all; a
        payload that is one already goes as it is, with what it carries."""
        if type(payload) is not codec.Broadcast:
            payload = codec.Broadcast(payload)
        send = self.send
        for dst in self.adjacency[src]:
            send(src, dst, payload)

    # -- the loop -----------------------------------------------------------

    def run(self, horizon_s: float) -> None:
        """Execute events in (at, sequence) order until the horizon or drain.

        An event counts as executed, and is in the trace, once popped, even
        if its handler raises."""
        heap, lane = self._heap, self._lane
        pop, take = heapq.heappop, lane.popleft
        size = _TRACE_RECORD.size
        batch = bytearray(size * _TRACE_BATCH)
        pack, full = _TRACE_RECORD.pack_into, len(batch)
        nodes = self.nodes
        message, timer = _MESSAGE, SimEventKind.TIMER
        executed = offset = 0
        try:
            while True:
                if lane and not (heap and heap[0] < lane[0]):
                    if lane[0][0] > horizon_s:
                        break
                    at, sequence, kind, destination, payload = take()
                elif heap and heap[0][0] <= horizon_s:
                    at, sequence, kind, destination, payload = pop(heap)
                else:
                    break
                self.now = at
                pack(batch, offset, at, sequence, kind._value_, destination,
                     digest(payload))
                offset += size
                if offset == full:
                    self._trace.update(batch)
                    offset = 0
                executed += 1
                if kind is message:
                    nodes[destination].on_message(self, at, payload)
                elif kind is timer:
                    nodes[destination].on_timer(self, at, payload)
                else:
                    self.driver.on_command(self, at, payload)
        finally:
            self._trace.update(memoryview(batch)[:offset])
            self.events_executed += executed

    def trace_digest(self) -> str:
        return self._trace.hexdigest()


def mesh_adjacency(n: int) -> dict[int, list[int]]:
    return {u: [v for v in range(n) if v != u] for u in range(n)}


def ring_adjacency(n: int) -> dict[int, list[int]]:
    return {u: sorted({(u - 1) % n, (u + 1) % n} - {u}) for u in range(n)}
