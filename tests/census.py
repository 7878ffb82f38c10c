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
  of distinct objects scanned: distinct byte spans.

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

from ledgerlab import codec, nodes, primitives  # noqa: E402
from ledgerlab.runner import run  # noqa: E402
from ledgerlab.scenario import preset_config  # noqa: E402


class Census:
    """Calls and distinct inputs: `digests` by call site, `verifies`, and
    `scans` by scan type, each a [calls, set of distinct keys] pair."""

    def __init__(self):
        self.digests: dict[str, list] = {}
        self.verifies: list = [0, set()]
        self.scans: dict[str, list] = {}


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
    return "\n".join(lines)


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
