"""Discrete-event network: ordering, links, partitions, reproducibility."""

import hashlib
import struct

import pytest

from ledgerlab import codec
from ledgerlab.primitives import digest
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


def test_derive_rng_streams_are_independent():
    a = derive_rng(1, "net/0")
    b = derive_rng(1, "net/1")
    again = derive_rng(1, "net/0")
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [again.random() for _ in range(5)]
    assert seq_a != [b.random() for _ in range(5)]
