"""Rewrite the pinned seed-1 reports under tests/pins/ from this tree.

    PYTHONPATH=src python tests/repin.py

Each rewritten pin is printed with what moved in it: the run itself (its
`trace:` or `events:` line, so the event schedule changed) or the report
text only, and the report sections whose lines changed (`head` for the
lines above `[config]`). `git diff tests/pins` then shows the lines; a
change that re-pins says why and names those sections in CHANGES.md.
Files of runs that are no longer pinned are removed, each named as it goes,
so a renamed pin reads as a removal plus a new pin.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_pins import PIN_DIR, PINNED, pin_path, render_pin  # noqa: E402


def run_lines(text: str) -> list[str]:
    """The lines of a pinned report that fix its run's event schedule."""
    return [line for line in text.splitlines()
            if line.startswith(("trace:", "events:"))]


def sections(text: str) -> dict[str, list[str]]:
    """The lines of a pinned report by section: `head` for those above the
    first bracketed heading, then each heading (`[config]`, `[metrics]`,
    `[series ...]`, `[flags]`) with the lines under it."""
    out: dict[str, list[str]] = {"head": []}
    name = "head"
    for line in text.splitlines():
        if line.startswith("["):
            name = line
            out[name] = []
        else:
            out[name].append(line)
    return out


def moved_sections(old: str, new: str) -> list[str]:
    """The sections, in report order, whose lines differ between two reports."""
    before, after = sections(old), sections(new)
    names = list(after) + [name for name in before if name not in after]
    return [name for name in names if before.get(name) != after.get(name)]


def main() -> None:
    PIN_DIR.mkdir(exist_ok=True)
    keep = {pin_path(*p) for p in PINNED}
    for stale in sorted(set(PIN_DIR.glob("*.txt")) - keep):
        stale.unlink()
        print(f"removed stale pin {stale.name}")
    for name, overrides in PINNED:
        path = pin_path(name, overrides)
        text = render_pin(name, overrides)
        old = path.read_bytes().decode("utf-8") if path.exists() else None
        if old == text:
            continue
        path.write_bytes(text.encode("utf-8"))
        if old is None:
            print(f"re-pinned {path.name}: new pin")
            continue
        if run_lines(old) != run_lines(text):
            moved = "run moved (trace/events)"
        else:
            moved = "report text only"
        print(f"re-pinned {path.name}: {moved}; sections: "
              f"{', '.join(moved_sections(old, text))}")


if __name__ == "__main__":
    main()
