"""Per-layer tracing of a ledgerlab run, installed from outside the program.

`Tracer.install()` replaces functions and methods of the `ledgerlab` modules
with timing wrappers; `uninstall()` puts the originals back. Nothing inside
`ledgerlab` changes and the wrappers pass every argument and result through
untouched, so a traced run keeps its trace digest and report.

Two kinds of wrapper:

* spans, for the coarse boundaries (event handler -> store or ledger call ->
  decode). Each call appends `[name, start, end, parent, covered]` to
  `Tracer.spans`, where `parent` is the index of the enclosing span (-1 at
  the top) and `covered` is the time its traced children took;
* fine calls, for the hot functions (`digest`, `verify`, `encode`, ...).
  They keep a call count and summed time only, so a function called 700k
  times does not produce 700k spans.

A function imported by name into several modules is wrapped in every module
that binds it: each `ledgerlab` module attribute that *is* the original is
replaced. A layer's self time is its span's duration minus `covered`.
"""

from __future__ import annotations

import gc
import importlib
import sys
from collections import Counter
from time import perf_counter

# (name, unit, better, exact). `exact` marks values that must repeat
# bit-for-bit across repetitions of one (workload, seed).
METRICS = [
    ("simnet.events.message", "count", "lower", True),
    ("simnet.events.timer", "count", "lower", True),
    ("simnet.events.command", "count", "lower", True),
    ("simnet.loop_self_s", "s", "lower", False),
    ("simnet.trace_digest_calls", "count", "lower", True),
    ("simnet.trace_digest_s", "s", "lower", False),
    ("simnet.send_s", "s", "lower", False),
    ("simnet.sends.delivered", "count", "lower", True),
    ("simnet.sends.dropped", "count", "lower", True),
    ("simnet.sends.severed", "count", "lower", True),
    ("simnet.wire_bytes.chain_tx", "bytes", "lower", True),
    ("simnet.wire_bytes.chain_block", "bytes", "lower", True),
    ("simnet.wire_bytes.chain_req", "bytes", "lower", True),
    ("simnet.wire_bytes.chain_resp", "bytes", "lower", True),
    ("simnet.wire_bytes.lat_block", "bytes", "lower", True),
    ("codec.decode_calls", "count", "lower", True),
    ("codec.decode_s", "s", "lower", False),
    ("codec.decodes_per_delivery", "ratio", "lower", True),
    ("codec.encode_calls", "count", "lower", True),
    ("codec.encode_s", "s", "lower", False),
    ("primitives.digest_calls", "count", "lower", True),
    ("primitives.digest_s", "s", "lower", False),
    ("primitives.verify_calls", "count", "lower", True),
    ("primitives.verify_s", "s", "lower", False),
    ("primitives.identity_calls", "count", "lower", True),
    ("leader_election.pow_evaluations", "count", "lower", True),
    ("leader_election.check_pow_calls", "count", "lower", True),
    ("leader_election.antispam_s", "s", "lower", False),
    ("blockchain.validate_calls", "count", "lower", True),
    ("blockchain.validate_s", "s", "lower", False),
    ("blockchain.accept_ratio", "ratio", "higher", True),
    ("blockchain.state_at_calls", "count", "lower", True),
    ("blockchain.state_at_s", "s", "lower", False),
    ("blockchain.adopt_calls", "count", "lower", True),
    ("blockchain.adopt_s", "s", "lower", False),
    ("blockchain.reorgs", "count", "lower", True),
    ("blockchain.reorg_depth_max", "count", "lower", True),
    ("blockchain.assemble_calls", "count", "lower", True),
    ("blockchain.assemble_s", "s", "lower", False),
    ("lattice.receive_calls", "count", "lower", True),
    ("lattice.receive_s", "s", "lower", False),
    ("lattice.receive_status.applied", "count", "higher", True),
    ("lattice.receive_status.duplicate", "count", "lower", True),
    ("lattice.receive_status.parked", "count", "lower", True),
    ("lattice.receive_status.conflict", "count", "lower", True),
    ("lattice.receive_status.rejected", "count", "lower", True),
    ("lattice.receive_applied_ratio", "ratio", "higher", True),
    ("lattice.vote_calls", "count", "lower", True),
    ("lattice.vote_s", "s", "lower", False),
    ("lattice.create_calls", "count", "lower", True),
    ("lattice.create_s", "s", "lower", False),
    ("lattice.conflicts_opened", "count", "lower", True),
    ("lattice.rollbacks", "count", "lower", True),
    ("nodes.handler_calls", "count", "lower", True),
    ("nodes.handler_self_s", "s", "lower", False),
    ("nodes.handler_p50_us", "us", "lower", False),
    ("nodes.handler_p99_us", "us", "lower", False),
    ("nodes.driver_s", "s", "lower", False),
    ("nodes.mempool_peak", "count", "lower", True),
    ("runner.build_s", "s", "lower", False),
    ("runner.audit_s", "s", "lower", False),
    ("metrics.report_s", "s", "lower", False),
    ("gc.pause_s", "s", "lower", False),
    ("gc.collections_gen2", "count", "lower", False),
    ("trace.overhead_ratio", "ratio", "lower", False),
]

UNITS = {name: unit for name, unit, _, _ in METRICS}
EXACT = [name for name, _, _, exact in METRICS if exact]

HANDLER_SPANS = ("nodes.on_message", "nodes.on_timer", "nodes.on_command")
WIRE_TAGS = {"MSG_CHAIN_TX": "chain_tx", "MSG_CHAIN_BLOCK": "chain_block",
             "MSG_CHAIN_REQ": "chain_req", "MSG_CHAIN_RESP": "chain_resp",
             "MSG_LAT_BLOCK": "lat_block"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans, fine-call statistics and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.fine: dict[str, list] = {}       # name -> [calls, seconds]
        self.counts: Counter = Counter()
        self.reorg_depth_max = 0
        self.mempool_peak = 0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self.patches: list[tuple] = []        # (owner, attribute, original)
        self._stack: list[int] = []           # indices of open spans
        self._fine_depth = [0]
        self._groups: dict[str, list] = {}    # outermost-only nesting depth
        self._gc_start = 0.0
        self._wire_tags: dict[int, str] = {}

    # -- wrappers -----------------------------------------------------------

    def _group(self, name: str | None) -> list | None:
        return None if name is None else self._groups.setdefault(name, [0])

    def span(self, name: str, fn, after=None, group: str | None = None):
        """Wrap fn in a span; with a group, only the outermost call counts."""
        spans, stack, depth = self.spans, self._stack, self._group(group)

        def wrapper(*args, **kwargs):
            if depth is not None:
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - start
                if depth is not None:
                    depth[0] = 0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def fine_call(self, name: str, fn, after=None, group: str | None = None):
        """Wrap fn with a call count and summed time, and no span.

        Only the outermost fine call adds its time to the enclosing span's
        covered time. No wrapped fine call encloses a span, so each child
        is subtracted from its parent once.
        """
        stat = self.fine.setdefault(name, [0, 0.0])
        spans, stack, fine_depth = self.spans, self._stack, self._fine_depth
        depth = self._group(group)

        def wrapper(*args, **kwargs):
            if depth is not None:
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
            outermost = fine_depth[0] == 0
            fine_depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                fine_depth[0] -= 1
                stat[0] += 1
                stat[1] += elapsed
                if outermost and stack:
                    spans[stack[-1]][4] += elapsed
                if depth is not None:
                    depth[0] = 0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @staticmethod
    def hook(fn, after):
        """Observe fn's arguments and result without timing it."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    @staticmethod
    def modules() -> list:
        importlib.import_module("ledgerlab.cli")  # not imported by the package
        return [m for name, m in sorted(sys.modules.items())
                if name == "ledgerlab" or name.startswith("ledgerlab.")]

    def _function(self, original, make) -> None:
        """Replace `original` in every ledgerlab module that binds it."""
        for module in self.modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    short = module.__name__.rsplit(".", 1)[-1]
                    setattr(module, attr, make(original, short))
                    self.patches.append((module, attr, original))

    def _method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(cls, attr, wrapped)
        self.patches.append((cls, attr, original))

    def install(self) -> None:
        from ledgerlab import (blockchain, lattice, leader_election, metrics,
                               nodes, primitives, runner, simnet)

        span, fine = self.span, self.fine_call

        for cls in (nodes.ChainNode, nodes.LatticeNode):
            self._method(cls, "on_message", lambda f: span(
                "nodes.on_message", f, self._after_handler, group="handler"))
            self._method(cls, "on_timer", lambda f: span(
                "nodes.on_timer", f, self._after_handler, group="handler"))
        for driver in (nodes.MultiDriver, nodes.ChainTxDriver,
                       nodes.LatticeSendDriver, nodes.ForkInjectionDriver):
            self._method(driver, "on_command", lambda f: span(
                "nodes.on_command", f, self._after_handler, group="handler"))

        self._method(simnet.Simulation, "run", lambda f: span("simnet.run", f))
        self._method(simnet.Simulation, "send",
                     lambda f: fine("simnet.send", f, self._after_send))
        self._function(primitives.digest,
                       lambda f, mod: fine(f"digest@{mod}", f))
        self._function(primitives.verify,
                       lambda f, mod: fine("primitives.verify", f))
        self._function(primitives.identity_for,
                       lambda f, mod: fine("primitives.identity", f))

        for cls in (blockchain.Block, blockchain.ChainTransaction,
                    lattice.LatticeBlock, lattice.VoteRecord):
            self._method(cls, "decode",
                         lambda f: span("codec.decode", f, group="decode"))
        for cls in (blockchain.Block, blockchain.BlockHeader,
                    blockchain.ChainTransaction, blockchain.StateDelta,
                    blockchain.AccountChange, lattice.LatticeBlock,
                    lattice.VoteRecord, lattice.PendingSend,
                    primitives.Signature):
            self._method(cls, "encode",
                         lambda f: fine("codec.encode", f, group="encode"))

        self._function(leader_election.check_pow,
                       lambda f, mod: fine("leader_election.check_pow", f))
        self._function(leader_election.antispam_pow,
                       lambda f, mod: fine("leader_election.antispam", f))

        store = blockchain.ChainStore
        self._method(store, "validate_block", lambda f: span(
            "blockchain.validate", f, self._after_validate))
        self._method(store, "state_at",
                     lambda f: span("blockchain.state_at", f))
        self._method(store, "adopt",
                     lambda f: span("blockchain.adopt", f, self._after_adopt))
        self._function(blockchain.assemble_block,
                       lambda f, mod: span("blockchain.assemble", f))

        ledger = lattice.LatticeLedger
        self._method(ledger, "receive_block", lambda f: span(
            "lattice.receive", f, self._after_receive))
        self._method(ledger, "add_vote",
                     lambda f: self.hook(f, self._after_add_vote))
        # every vote, carried on a block or cast locally, passes through here
        self._method(ledger, "_record_vote",
                     lambda f: fine("lattice.vote", f))
        for attr in ("create_send", "create_receive", "create_rep_change"):
            self._method(ledger, attr, lambda f: span("lattice.create", f))

        self._function(runner.run, lambda f, mod: span("runner.run", f))
        self._function(runner.build_simulation,
                       lambda f, mod: span("runner.build", f))
        self._function(metrics.build_report,
                       lambda f, mod: span("metrics.build_report", f))
        self._function(metrics.render_report,
                       lambda f, mod: span("metrics.render_report", f))

        self._wire_tags = {getattr(nodes, k): v for k, v in WIRE_TAGS.items()}
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- counters fed by the wrappers ---------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def _after_handler(self, args, result) -> None:
        # sampled between events: the largest pool any chain node holds
        for node in args[1].nodes.values():
            pool = getattr(node, "mempool", None)
            if pool is not None and len(pool) > self.mempool_peak:
                self.mempool_peak = len(pool)

    def _after_send(self, args, delivered) -> None:
        sim, src, dst, payload = args
        counts = self.counts
        if delivered:
            counts["sends.delivered"] += 1
        elif sim.link.severed(sim.now, src, dst):
            counts["sends.severed"] += 1
        else:
            counts["sends.dropped"] += 1
        counts["wire." + self._wire_tags.get(payload[0], "other")] += len(payload)

    def _after_validate(self, args, result) -> None:
        if result.ok:
            self.counts["validate.accepted"] += 1

    def _after_adopt(self, args, report) -> None:
        if report.orphaned:
            self.counts["reorgs"] += 1
            self.reorg_depth_max = max(self.reorg_depth_max, len(report.orphaned))

    def _count_rollbacks(self, outcome) -> None:
        self.counts["rollbacks"] += sum(1 for r in outcome.resolutions if r.discarded)

    def _after_receive(self, args, outcome) -> None:
        self.counts["receive." + outcome.status.value] += 1
        self._count_rollbacks(outcome)

    def _after_add_vote(self, args, outcome) -> None:
        self._count_rollbacks(outcome)

    # -- derived metrics ----------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        out: dict[str, list] = {}
        for name, start, end, _parent, covered in self.spans:
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - covered
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self, result) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_ratio, for one RunResult."""
        from ledgerlab.metrics import percentile

        totals = self.span_totals()
        calls = lambda n: totals.get(n, (0, 0.0, 0.0))[0]
        incl = lambda n: totals.get(n, (0, 0.0, 0.0))[1]
        own = lambda n: totals.get(n, (0, 0.0, 0.0))[2]
        fine_calls = lambda n: self.fine.get(n, [0, 0.0])[0]
        fine_s = lambda n: self.fine.get(n, [0, 0.0])[1]
        digests = [k for k in self.fine if k.startswith("digest@")]
        counts = self.counts
        messages = calls("nodes.on_message")
        handler_us = [(end - start) * 1e6 for name, start, end, _, _ in self.spans
                      if name in HANDLER_SPANS]
        pow_evaluations = sum(n.work.evaluations for n in result.nodes.values())
        statuses = {s: counts[f"receive.{s}"] for s in
                    ("applied", "duplicate", "parked", "conflict", "rejected")}

        m = {
            "simnet.events.message": messages,
            "simnet.events.timer": calls("nodes.on_timer"),
            "simnet.events.command": calls("nodes.on_command"),
            "simnet.loop_self_s": own("simnet.run"),
            "simnet.trace_digest_calls": fine_calls("digest@simnet"),
            "simnet.trace_digest_s": fine_s("digest@simnet"),
            "simnet.send_s": fine_s("simnet.send"),
            "simnet.sends.delivered": counts["sends.delivered"],
            "simnet.sends.dropped": counts["sends.dropped"],
            "simnet.sends.severed": counts["sends.severed"],
            "codec.decode_calls": calls("codec.decode"),
            "codec.decode_s": incl("codec.decode"),
            "codec.decodes_per_delivery": _ratio(calls("codec.decode"), messages),
            "codec.encode_calls": fine_calls("codec.encode"),
            "codec.encode_s": fine_s("codec.encode"),
            "primitives.digest_calls": sum(fine_calls(k) for k in digests),
            "primitives.digest_s": sum(fine_s(k) for k in digests),
            "primitives.verify_calls": fine_calls("primitives.verify"),
            "primitives.verify_s": fine_s("primitives.verify"),
            "primitives.identity_calls": fine_calls("primitives.identity"),
            "leader_election.pow_evaluations": pow_evaluations,
            "leader_election.check_pow_calls": fine_calls("leader_election.check_pow"),
            "leader_election.antispam_s": fine_s("leader_election.antispam"),
            "blockchain.validate_calls": calls("blockchain.validate"),
            "blockchain.validate_s": incl("blockchain.validate"),
            "blockchain.accept_ratio": _ratio(counts["validate.accepted"],
                                              calls("blockchain.validate")),
            "blockchain.state_at_calls": calls("blockchain.state_at"),
            "blockchain.state_at_s": incl("blockchain.state_at"),
            "blockchain.adopt_calls": calls("blockchain.adopt"),
            "blockchain.adopt_s": incl("blockchain.adopt"),
            "blockchain.reorgs": counts["reorgs"],
            "blockchain.reorg_depth_max": self.reorg_depth_max,
            "blockchain.assemble_calls": calls("blockchain.assemble"),
            "blockchain.assemble_s": incl("blockchain.assemble"),
            "lattice.receive_calls": calls("lattice.receive"),
            "lattice.receive_s": incl("lattice.receive"),
            "lattice.receive_applied_ratio": _ratio(statuses["applied"],
                                                    calls("lattice.receive")),
            "lattice.vote_calls": fine_calls("lattice.vote"),
            "lattice.vote_s": fine_s("lattice.vote"),
            "lattice.create_calls": calls("lattice.create"),
            "lattice.create_s": incl("lattice.create"),
            "lattice.conflicts_opened": len(result.recorder.conflicts_opened),
            "lattice.rollbacks": counts["rollbacks"],
            "nodes.handler_calls": len(handler_us),
            "nodes.handler_self_s": sum(own(n) for n in HANDLER_SPANS),
            "nodes.handler_p50_us": percentile(handler_us, 0.50) if handler_us else 0.0,
            "nodes.handler_p99_us": percentile(handler_us, 0.99) if handler_us else 0.0,
            "nodes.driver_s": incl("nodes.on_command"),
            "nodes.mempool_peak": self.mempool_peak,
            "runner.build_s": incl("runner.build"),
            # the run span minus build and loop: the end-of-run audit sweeps
            "runner.audit_s": incl("runner.run") - incl("runner.build")
                              - incl("simnet.run"),
            "metrics.report_s": incl("metrics.build_report")
                                + incl("metrics.render_report"),
            "gc.pause_s": self.gc_pause_s,
            "gc.collections_gen2": self.gc_gen2,
        }
        for tag in WIRE_TAGS.values():
            m[f"simnet.wire_bytes.{tag}"] = counts[f"wire.{tag}"]
        for status, n in statuses.items():
            m[f"lattice.receive_status.{status}"] = n
        return m

    def write_spans(self, path) -> None:
        """One span per line: name,start,end,parent (parent -1 at the top)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
