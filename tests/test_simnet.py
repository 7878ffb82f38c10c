"""Discrete-event network: ordering, links, partitions, reproducibility."""

import hashlib
import heapq
import struct

import pytest

from ledgerlab import codec
from ledgerlab.metrics import build_report, render_report
from ledgerlab.primitives import digest
from ledgerlab.runner import run
from ledgerlab.scenario import preset_config
from ledgerlab.simnet import (
    DRIVER_DESTINATION,
    LinkModel,
    Partition,
    SchedulingError,
    SimEventKind,
    Simulation,
    derive_rng,
    mesh_adjacency,
    ring_adjacency,
)


class Recorder:
    """Node that logs every delivery it sees."""

    def __init__(self):
        self.log = []

    def on_message(self, sim, now, payload):
        self.log.append(("msg", now, payload))

    def on_timer(self, sim, now, payload):
        self.log.append(("timer", now, payload))


class EchoDriver:
    def __init__(self):
        self.log = []

    def on_command(self, sim, now, payload):
        self.log.append((now, payload))


def _sim(n=3, seed=1, **link_kw):
    link = LinkModel(base_latency_s=link_kw.pop("base", 0.1),
                     jitter_s=link_kw.pop("jitter", 0.0),
                     drop_prob=link_kw.pop("drop", 0.0),
                     partitions=link_kw.pop("partitions", ()))
    nodes = {i: Recorder() for i in range(n)}
    sim = Simulation(seed, link, mesh_adjacency(n), nodes, EchoDriver())
    return sim, nodes


def test_adjacency_shapes():
    assert mesh_adjacency(3) == {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    ring = ring_adjacency(4)
    assert ring[0] == [1, 3]
    assert ring[2] == [1, 3]
    assert ring_adjacency(2) == {0: [1], 1: [0]}


def test_events_run_in_time_then_fifo_order():
    sim, nodes = _sim(1)
    sim.set_timer(0, 2.0, b"late")
    sim.set_timer(0, 1.0, b"early")
    sim.set_timer(0, 1.0, b"early-second")  # same instant: insertion order
    sim.set_timer(0, 1.0, b"a-third")  # even when the payload sorts first
    sim.run(10.0)
    assert [p for _, _, p in nodes[0].log] == [b"early", b"early-second",
                                               b"a-third", b"late"]
    assert sim.events_executed == 4


def test_horizon_cuts_off_later_events():
    sim, nodes = _sim(1)
    sim.set_timer(0, 1.0, b"in")
    sim.set_timer(0, 5.0, b"out")
    sim.run(2.0)
    assert [p for _, _, p in nodes[0].log] == [b"in"]


def test_scheduling_into_the_past_is_an_error():
    sim, _ = _sim(1)
    sim.set_timer(0, 1.0, b"tick")
    sim.run(10.0)
    with pytest.raises(SchedulingError):
        sim.schedule(0.5, SimEventKind.TIMER, 0, b"stale")


def test_send_applies_base_latency():
    sim, nodes = _sim(2)
    sim.send(0, 1, b"hello")
    sim.run(1.0)
    kind, at, payload = nodes[1].log[0]
    assert (kind, payload) == ("msg", b"hello")
    assert at == pytest.approx(0.1)


def test_jitter_spreads_but_never_goes_negative():
    sim, nodes = _sim(2, base=0.05, jitter=0.2, seed=3)
    for _ in range(50):
        sim.send(0, 1, b"x")
    sim.run(10.0)
    arrivals = [at for _, at, _ in nodes[1].log]
    assert len(arrivals) == 50
    assert min(arrivals) >= 0.0
    assert len(set(round(a, 9) for a in arrivals)) > 1


def test_jitter_wider_than_the_base_never_schedules_before_now():
    sim, nodes = _sim(2, base=0.05, jitter=0.2, seed=3)
    sim.set_timer(0, 2.0, b"poke")
    sim.run(2.0)  # now is 2.0, so a latency clamped to zero lands on it
    for _ in range(50):
        sim.send(0, 1, b"x")
    assert min(at for at, *_ in sim._heap) == 2.0
    sim.run(10.0)
    arrivals = [at for kind, at, _ in nodes[1].log if kind == "msg"]
    assert len(arrivals) == 50
    assert min(arrivals) == 2.0  # some draws fall below -base and clamp
    assert max(arrivals) > 2.05


def test_an_event_whose_handler_raises_still_counts_as_executed():
    class Fragile(Recorder):
        def on_timer(self, sim, now, payload):
            super().on_timer(sim, now, payload)
            if payload == b"boom":
                raise RuntimeError("handler failed")

    sim = Simulation(1, LinkModel(), mesh_adjacency(1), {0: Fragile()},
                     EchoDriver())
    for i, payload in enumerate([b"a", b"b", b"boom", b"later"]):
        sim.set_timer(0, 1.0 + i, payload)
    sim.run(1.5)
    with pytest.raises(RuntimeError):
        sim.run(10.0)  # raises in the middle of this slice
    assert sim.events_executed == 3  # the one that raised included
    assert sim.now == 3.0
    sim.run(10.0)
    assert sim.events_executed == 4


def test_drop_probability_loses_messages():
    sim, nodes = _sim(2, drop=0.5, seed=5)
    sent = sum(1 for _ in range(400) if sim.send(0, 1, b"x"))
    sim.run(10.0)
    assert len(nodes[1].log) == sent
    assert 120 < sent < 280  # binomial(400, .5) well inside 6 sigma


def test_partition_window_severs_both_directions():
    part = Partition(start_s=1.0, end_s=2.0, side_a=frozenset({0}),
                     side_b=frozenset({1}))
    sim, nodes = _sim(2, partitions=(part,))
    assert sim.send(0, 1, b"before")
    sim.run(0.5)  # delivery at 0.1 becomes now

    sim.set_timer(0, 1.4, b"poke")  # lands at 1.5, inside the window
    sim.run(1.6)
    assert sim.now == pytest.approx(1.5)
    assert not sim.send(0, 1, b"during")
    assert not sim.send(1, 0, b"during-back")

    sim.set_timer(0, 1.0, b"poke2")  # lands at 2.5, window closed
    sim.run(2.6)
    assert sim.send(0, 1, b"after")


def test_partition_spares_same_side_links():
    part = Partition(1.0, 2.0, frozenset({0, 1}), frozenset({2}))
    sim, _ = _sim(3, partitions=(part,))
    sim.set_timer(0, 1.5, b"poke")
    sim.run(1.5)
    assert sim.send(0, 1, b"same side")
    assert not sim.send(0, 2, b"cross")


def test_broadcast_counts_deliveries():
    sim, nodes = _sim(4)
    sim.broadcast(0, b"all")
    sim.run(1.0)
    assert all(len(nodes[i].log) == 1 for i in (1, 2, 3))
    assert not nodes[0].log


def test_driver_commands_arrive():
    sim, _ = _sim(2)
    sim.schedule_command(0.5, b"inject")
    sim.run(1.0)
    assert sim.driver.log == [(0.5, b"inject")]


def test_trace_digest_reproducible_and_seed_sensitive():
    def run_once(seed):
        sim, _ = _sim(3, seed=seed, jitter=0.02)
        for i in range(20):
            sim.schedule_command(0.1 * i, b"c%d" % i)
            sim.broadcast(i % 3, b"b%d" % i)
        sim.run(5.0)
        return sim.trace_digest()

    assert run_once(1) == run_once(1)
    assert run_once(1) != run_once(2)


def test_trace_digest_hashes_each_event_record():
    sim, _ = _sim(2)
    sim.set_timer(1, 0.75, b"tick")
    sim.schedule_command(0.25, b"")
    sim.send(0, 1, b"hello")  # base latency 0.1
    sim.run(1.0)

    expected = hashlib.sha256()
    for at, seq, kind, dest, payload in [
            (0.1, 3, SimEventKind.MESSAGE, 1, b"hello"),
            (0.25, 2, SimEventKind.COMMAND, DRIVER_DESTINATION, b""),
            (0.75, 1, SimEventKind.TIMER, 1, b"tick")]:
        expected.update(struct.pack(">d", at) + codec.enc_u64(seq)
                        + codec.enc_u8(kind.value) + codec.enc_u64(dest)
                        + digest(payload))
    assert sim.trace_digest() == expected.hexdigest()
    assert sim.events_executed == 3


class Relay:
    """Node that logs every delivery in one shared log, answers a message
    with a timer and a timer with a send to the next node, so the schedule
    grows as it runs."""

    def __init__(self, node_id, log):
        self.node_id, self.log = node_id, log

    def on_message(self, sim, now, payload):
        self.log.append((self.node_id, "msg", now, payload))
        sim.set_timer(self.node_id, 0.5, payload)

    def on_timer(self, sim, now, payload):
        self.log.append((self.node_id, "timer", now, payload))
        sim.send(self.node_id, (self.node_id + 1) % 3, payload)


def test_running_in_slices_executes_the_same_schedule():
    def schedule(bounds):
        log = []
        # latencies and timers are multiples of 0.25 s, exact in binary
        link = LinkModel(base_latency_s=0.25, jitter_s=0.0, drop_prob=0.05,
                         partitions=())
        sim = Simulation(7, link, mesh_adjacency(3),
                         {i: Relay(i, log) for i in range(3)}, EchoDriver())
        for i in range(8):
            sim.set_timer(i % 3, 0.25 * i, b"relay-%d" % i)
        sim.schedule_command(1.0, b"c")
        for bound in bounds:
            sim.run(bound)
        return sim.trace_digest(), sim.events_executed, log

    whole = schedule([10.0])
    bounds = [0.5 * k for k in range(1, 21)]
    sliced = schedule(bounds)
    assert set(bounds) <= {at for _, _, at, _ in whole[2]}  # on event times
    assert whole[1] > 100
    assert sliced == whole


def _per_event_trace(events):
    """The trace digest of (at, sequence, kind, destination, payload)
    events, hashed one record at a time."""
    expected = hashlib.sha256()
    for at, seq, kind, dest, payload in events:
        expected.update(struct.pack(">d", at) + codec.enc_u64(seq)
                        + codec.enc_u8(kind.value) + codec.enc_u64(dest)
                        + digest(payload))
    return expected.hexdigest()


def test_a_trace_of_many_batches_is_the_per_event_trace():
    sim, _ = _sim(2)
    events = []
    for i in range(1000):  # several batches and a partial one
        sim.set_timer(i % 2, 0.25 * i, b"t%d" % i)
        events.append((0.25 * i, i + 1, SimEventKind.TIMER, i % 2, b"t%d" % i))
    sim.run(100.0)
    sim.run(300.0)
    assert sim.events_executed == 1000
    assert sim.trace_digest() == _per_event_trace(events)


def test_a_handler_that_raises_leaves_its_event_in_the_trace():
    class Fragile(Recorder):
        def on_timer(self, sim, now, payload):
            if payload == b"boom":
                raise RuntimeError("handler failed")

    sim = Simulation(1, LinkModel(), mesh_adjacency(1), {0: Fragile()},
                     EchoDriver())
    payloads = [b"a", b"boom", b"later"]
    for i, payload in enumerate(payloads):
        sim.set_timer(0, 1.0 + i, payload)
    with pytest.raises(RuntimeError):
        sim.run(10.0)
    events = [(1.0 + i, i + 1, SimEventKind.TIMER, 0, p)
              for i, p in enumerate(payloads)]
    assert sim.trace_digest() == _per_event_trace(events[:2])
    sim.run(10.0)
    assert sim.trace_digest() == _per_event_trace(events)


# ---------------------------------------------------------------------------
# The FIFO lane: messages over a jitter-free link


def test_jitter_free_messages_queue_on_the_lane_and_the_rest_on_the_heap():
    sim, _ = _sim(2)
    sim.send(0, 1, b"m")
    sim.set_timer(0, 1.0, b"t")
    assert [entry[4] for entry in sim._lane] == [b"m"]
    assert [entry[4] for entry in sim._heap] == [b"t"]
    jittered, _ = _sim(2, jitter=0.05)
    jittered.send(0, 1, b"m")
    assert not jittered._lane and [entry[4] for entry in jittered._heap] == [b"m"]


def test_a_lane_message_and_a_timer_at_one_time_pop_in_sequence_order():
    # latency and timer delays are multiples of 0.25 s, exact in binary
    sim, nodes = _sim(2, base=0.25)
    sim.set_timer(1, 0.25, b"timer-first")
    sim.send(0, 1, b"message")
    sim.set_timer(1, 0.25, b"timer-after")
    sim.send(0, 1, b"message-after")
    sim.run(1.0)
    assert [(kind, at, p) for kind, at, p in nodes[1].log] == [
        ("timer", 0.25, b"timer-first"), ("msg", 0.25, b"message"),
        ("timer", 0.25, b"timer-after"), ("msg", 0.25, b"message-after")]


class Sender(Recorder):
    """Sends its timer's payload to node 1 when the timer fires."""

    def on_timer(self, sim, now, payload):
        super().on_timer(sim, now, payload)
        sim.send(0, 1, payload)


def test_a_horizon_between_lane_entries_stops_and_resumes_losing_nothing():
    def schedule(bounds):
        nodes = {0: Sender(), 1: Recorder()}
        sim = Simulation(1, LinkModel(base_latency_s=1.0), mesh_adjacency(2),
                         nodes, EchoDriver())
        for i in range(4):  # sends at 0.25 i land at 1.0 + 0.25 i
            sim.set_timer(0, 0.25 * i, b"m%d" % i)
        for bound in bounds:
            sim.run(bound)
            assert all(entry[0] > bound for entry in sim._lane)
        return sim.trace_digest(), sim.events_executed, nodes[1].log

    whole = schedule([5.0])
    assert [p for _, _, p in whole[2]] == [b"m0", b"m1", b"m2", b"m3"]
    # 1.1 and 1.4 fall between lane entries, 1.25 is on one
    assert schedule([1.1, 1.25, 1.4, 5.0]) == whole
    assert whole[1] == 8


def _heap_only_send(sim, src, dst, payload):
    """`Simulation.send` as it was before the lane: every message on the heap."""
    rng = sim._net_rng[src]
    link = sim.link
    if link.partitions and link.severed(sim.now, src, dst):
        return False
    if link.drop_prob > 0 and rng.random() < link.drop_prob:
        return False
    latency = link.base_latency_s
    if link.jitter_s > 0:
        latency = max(latency + rng.uniform(-link.jitter_s, link.jitter_s), 0.0)
    sim._seq += 1
    heapq.heappush(sim._heap, (sim.now + latency, sim._seq,
                               SimEventKind.MESSAGE, dst, payload))
    return True


@pytest.mark.parametrize("overrides", [
    (), ("net.drop_prob=0.2",), ("net.partitions=5-15:0,1,2|3,4,5",)],
    ids=["lossless", "drop-0.2", "partition"])
def test_the_lane_changes_no_jitter_free_run(monkeypatch, overrides):
    cfg = preset_config("nano-scaling", ["scenario.horizon_s=30", *overrides])
    assert cfg["net.jitter_ms"] == 0
    sends = []  # (queued, joined the lane) per send
    lane_send = Simulation.send

    def spy(sim, src, dst, payload):
        waiting = len(sim._lane)
        queued = lane_send(sim, src, dst, payload)
        sends.append((queued, len(sim._lane) == waiting + 1))
        return queued

    monkeypatch.setattr(Simulation, "send", spy)
    with_lane = run(cfg, 1)
    monkeypatch.setattr(Simulation, "send", _heap_only_send)
    heap_only = run(cfg, 1)

    assert all(queued == laned for queued, laned in sends)
    assert any(queued for queued, _ in sends)
    assert all(queued for queued, _ in sends) == (not overrides)  # drops, cuts
    assert with_lane.breach is None and with_lane.events > 1000
    assert with_lane.trace == heap_only.trace
    assert (render_report(build_report(with_lane))
            == render_report(build_report(heap_only)))


def test_derive_rng_streams_are_independent():
    a = derive_rng(1, "net/0")
    b = derive_rng(1, "net/1")
    again = derive_rng(1, "net/0")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [again.random() for _ in range(5)]
    assert seq_a != [b.random() for _ in range(5)]
