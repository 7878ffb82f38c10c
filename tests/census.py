"""Count the node-neutral work of one run: digests, signature checks, scans.

    PYTHONPATH=src python tests/census.py PRESET [--seed N] [KEY=VALUE ...]

runs PRESET with the given overrides (`lattice.accounts=100`,
`scenario.horizon_s=20`, ...) at seed N (1 by default), from cleared memos
as a fresh process would, and prints:

* the calls to `primitives.digest` by call site (the function that called
  it), each with the number of distinct inputs it hashed;
* the calls to `primitives.verify`, with the distinct (signer, payload
  digest) pairs they checked;
* the scans made by type (`codec.scan_frame`'s steps), each with the number
  of distinct objects scanned: distinct byte spans;
* the messages queued by `Simulation.send` on the FIFO lane (jitter-free
  links) and on the event heap;
* the blocks lattice nodes forwarded: relayed as the message received,
  rebuilt around the block as received (the votes held differ), or
  encoded (a block the node made, released or settled by a vote).

A count above its distinct inputs is work that the nodes of one process
repeat on the same value. Only this script's wrappers see the calls; the
run's trace and report are the ones an unwatched run makes.
"""

import argparse
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from memos import clear_memos  # noqa: E402

from ledgerlab import codec, nodes, primitives, simnet  # noqa: E402
from ledgerlab.runner import run  # noqa: E402
from ledgerlab.scenario import preset_config  # noqa: E402


RELAYS = ("as received", "rebuilt", "encoded")


class Census:
    """Calls and distinct inputs: `digests` by call site, `verifies`, and
    `scans` by scan type, each a [calls, set of distinct keys] pair; and
    the messages `queued` by queue and the lattice `relays` by path."""

    def __init__(self):
        self.digests: dict[str, list] = {}
        self.verifies: list = [0, set()]
        self.scans: dict[str, list] = {}
        self.queued = {"lane": 0, "heap": 0}
        self.relays = dict.fromkeys(RELAYS, 0)


def _scan_types() -> list[type]:
    """Every scan type of the framing table, in table order."""
    out: list[type] = []
    for framing in nodes.FRAMING.values():
        for step in framing:
            step = step[0] if type(step) is list else step
            if step not in out:
                out.append(step)
    return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "ledgerlab" or name.startswith("ledgerlab.")]


@contextmanager
def counting():
    """A `Census` that counts while the block runs; every patch is undone
    on the way out."""
    census, undo = Census(), []
    digest, verify = primitives.digest, primitives.verify

    def counted_digest(payload):
        out = digest(payload)
        code = sys._getframe(1).f_code
        site = f"{Path(code.co_filename).stem}.{code.co_qualname}"
        entry = census.digests.setdefault(site, [0, set()])
        entry[0] += 1
        entry[1].add(out)  # distinct outputs are distinct inputs
        return out

    def counted_verify(signature, signer, payload_digest):
        census.verifies[0] += 1
        census.verifies[1].add((signer, payload_digest))
        return verify(signature, signer, payload_digest)

    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            for original, wrapper in ((digest, counted_digest), (verify, counted_verify)):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def counted_init(cls, init):
        entry = census.scans.setdefault(cls.__name__, [0, set()])

        def wrapper(self, data, start):
            init(self, data, start)
            entry[0] += 1
            entry[1].add(hashlib.sha256(data[start:self.end]).digest())
        return wrapper

    for cls in _scan_types():
        init = cls.__dict__["__init__"]
        cls.__init__ = counted_init(cls, init)
        undo.append((cls, "__init__", init))

    sim_class, node_class = simnet.Simulation, nodes.LatticeNode
    send, broadcast = sim_class.send, sim_class.broadcast
    forward = node_class._forward
    forwarding = []  # the arrival of each forward under way

    def counted_send(sim, src, dst, payload):
        waiting = len(sim._lane)
        queued = send(sim, src, dst, payload)
        if queued:
            census.queued["lane" if len(sim._lane) > waiting else "heap"] += 1
        return queued

    def counted_forward(node, sim, block, arrival=None):
        forwarding.append(arrival)
        try:
            forward(node, sim, block, arrival)
        finally:
            forwarding.pop()

    def counted_broadcast(sim, src, payload):
        if forwarding:
            arrival = forwarding[-1]
            if arrival is None:
                path = "encoded"
            elif payload.scanned[2] is arrival[1]:  # the arrival's own scans
                path = "as received"
            else:
                path = "rebuilt"
            census.relays[path] += 1
        broadcast(sim, src, payload)

    for owner, attr, wrapper in ((sim_class, "send", counted_send),
                                 (sim_class, "broadcast", counted_broadcast),
                                 (node_class, "_forward", counted_forward)):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    try:
        yield census
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def take(preset: str, overrides: list[str], seed: int) -> Census:
    """The census of one run, from cleared memos."""
    cfg = preset_config(preset, overrides)
    clear_memos()
    with counting() as census:
        run(cfg, seed)
    return census


def render(census: Census) -> str:
    lines = [f"{'digest calls by call site':44} {'calls':>9} {'distinct':>9}"]
    digests = sorted(census.digests.items(), key=lambda kv: (-kv[1][0], kv[0]))
    for site, (calls, keys) in digests:
        lines.append(f"  {site:42} {calls:9,} {len(keys):9,}")
    total = sum(calls for calls, _ in census.digests.values())
    distinct = len(set().union(*(keys for _, keys in census.digests.values())))
    lines.append(f"  {'all':42} {total:9,} {distinct:9,}")
    calls, pairs = census.verifies
    lines.append(f"{'verify calls, (signer, payload digest) pairs':44} "
                 f"{calls:9,} {len(pairs):9,}")
    lines.append(f"{'scans by type':44} {'scans':>9} {'distinct':>9}")
    for name, (scans, keys) in sorted(census.scans.items()):
        lines.append(f"  {name:42} {scans:9,} {len(keys):9,}")
    lines.append(f"{'messages queued':44} {'messages':>9} {'share':>9}")
    lines += _shares(census.queued)
    lines.append(f"{'lattice blocks forwarded':44} {'relays':>9} {'share':>9}")
    lines += _shares(census.relays)
    return "\n".join(lines)


def _shares(counts: dict[str, int]) -> list[str]:
    total = sum(counts.values())
    return [f"  {name:42} {n:9,} {n / total if total else 0:9.1%}"
            for name, n in counts.items()]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"census of {args.preset} at seed {args.seed}"
          + (f" with {' '.join(args.overrides)}" if args.overrides else ""))
    print(render(take(args.preset, args.overrides, args.seed)))


if __name__ == "__main__":
    main()
