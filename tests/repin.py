"""Rewrite the pinned seed-1 reports under tests/pins/ from this tree.

    PYTHONPATH=src python tests/repin.py

`git diff tests/pins` then shows what moved; a change that re-pins says
why in CHANGES.md. Files of runs that are no longer pinned are removed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_pins import PIN_DIR, PINNED, pin_path, render_pin  # noqa: E402


def main() -> None:
    PIN_DIR.mkdir(exist_ok=True)
    keep = {pin_path(*p) for p in PINNED}
    for stale in set(PIN_DIR.glob("*.txt")) - keep:
        stale.unlink()
    for name, overrides in PINNED:
        path = pin_path(name, overrides)
        text = render_pin(name, overrides)
        if not path.exists() or path.read_bytes() != text.encode("utf-8"):
            path.write_bytes(text.encode("utf-8"))
            print(f"re-pinned {path.name}")


if __name__ == "__main__":
    main()
