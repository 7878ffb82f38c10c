"""Rewrite the pinned seed-1 reports under tests/pins/ from this tree.

    PYTHONPATH=src python tests/repin.py

Each rewritten pin is printed with what moved in it: the run itself (its
`trace:` or `events:` line, so the event schedule changed) or the report
text only. `git diff tests/pins` then shows the lines; a change that
re-pins says why in CHANGES.md. Files of runs that are no longer pinned
are removed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_pins import PIN_DIR, PINNED, pin_path, render_pin  # noqa: E402


def run_lines(text: str) -> list[str]:
    """The lines of a pinned report that fix its run's event schedule."""
    return [line for line in text.splitlines()
            if line.startswith(("trace:", "events:"))]


def main() -> None:
    PIN_DIR.mkdir(exist_ok=True)
    keep = {pin_path(*p) for p in PINNED}
    for stale in set(PIN_DIR.glob("*.txt")) - keep:
        stale.unlink()
    for name, overrides in PINNED:
        path = pin_path(name, overrides)
        text = render_pin(name, overrides)
        old = path.read_bytes().decode("utf-8") if path.exists() else None
        if old == text:
            continue
        path.write_bytes(text.encode("utf-8"))
        if old is None:
            moved = "new pin"
        elif run_lines(old) != run_lines(text):
            moved = "run moved (trace/events)"
        else:
            moved = "report text only"
        print(f"re-pinned {path.name}: {moved}")


if __name__ == "__main__":
    main()
