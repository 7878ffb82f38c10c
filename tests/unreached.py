"""List the statements of the package that no pinned run executes.

    PYTHONPATH=src python tests/unreached.py

Traces every run in `test_pins.PINNED` at seed 1 with `sys.settrace`, from
the package's import to the rendered report, and prints `file:line` and the
source text of each statement under `src/ledgerlab` that none of them
executed. `raise` statements and docstrings are skipped: a guard that no
run trips is expected. A listed statement is either code that only tests
reach, or a path the pins do not cover yet; each is worth a look.

The check sees statements only: a parameter, a return value or a branch
that a run passes through but no caller reads does not show. The tests in
`test_hygiene.py` check names instead. A full trace takes about 40 s on a
2-vCPU host.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgerlab"


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own text: a compound one ends before its body."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def _is_inert(node: ast.stmt) -> bool:
    """A statement that runs no code: a docstring, a bare `...` or a bare
    annotation."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return isinstance(node.value.value, str) or node.value.value is Ellipsis
    return isinstance(node, ast.AnnAssign) and node.value is None


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that a run could execute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or _is_inert(node):
            continue
        if isinstance(node, ast.Raise | ast.Try | ast.TryStar):
            continue  # a try runs when its body does
        out.append((node.lineno, _header_end(node)))
    return out


def trace_pinned_runs() -> tuple[dict[str, set[int]], int]:
    """File name -> lines executed while importing the package and rendering
    every pinned run at seed 1, and the number of runs."""
    executed: dict[str, set[int]] = {}
    tracers = {}  # file name -> its line tracer, None outside the package

    def tracer_for(filename: str):
        lines = executed.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            path = Path(filename).resolve()
            tracers[filename] = (tracer_for(str(path))
                                 if path.parent == PACKAGE else None)
            return tracers[filename]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.settrace(on_call)
    try:
        from test_pins import PINNED, render_pin  # imports the package traced
        for name, overrides in PINNED:
            render_pin(name, overrides)
    finally:
        sys.settrace(None)
    return executed, len(PINNED)


def main() -> None:
    executed, runs = trace_pinned_runs()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in sorted(statements(path)):
            if not ran.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements unreached by {runs} pinned runs", file=sys.stderr)


if __name__ == "__main__":
    main()
