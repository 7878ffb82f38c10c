"""The statements of the package that no pinned run executes, checked
against the list in `tests/unreached.txt`.

    PYTHONPATH=src python tests/unreached.py

renders every run in `test_pins.PINNED` at seed 1 in one traced pass and
prints how the statements it left unreached differ from the list: `+` for a
statement that is newly unreached, `-` for a listed one that now runs.
`tests/test_pins.py` makes the same pass in tier-1, checks each pin against
its report, and fails on any difference.

What is checked: each statement inside a function under `src/ledgerlab`.
`raise` statements, docstrings, bare `...` and bare annotations are not: a
guard that no run trips is expected. Module and class bodies are not either:
they run at import, before the pass starts. A listed statement is either a
path the pins do not cover, or code that only tests reach; the list gives
each group's reason. The check sees statements only: a parameter, a value or
a branch that a run passes through but no caller reads does not show. The
tests in `test_hygiene.py` check names instead.

An entry is keyed by file, qualified name and the statement's text, with
comments dropped and whitespace collapsed, so an edit elsewhere leaves it as
it is:

    blockchain.py::ChainState.apply_tx: return Verdict.DOUBLE_SPEND, "non-positive amount"

A function none of whose statements ran is one entry (`lattice.py::
LatticeLedger.create_rep_change`), and so is a module none of whose
functions ran (`cli.py`). The list and the pass compare as multisets, so
two equal statements in one function are two entries.

The 15 pins render in about 7 s untraced and about 22 s traced on a 2-vCPU
host (the old line tracer took 28 s): a code object stops being traced once
each of its checked statements has run, so what remains is the hot
functions that hold a statement no run reaches, such as a rejection.
"""

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgerlab"
LIST = Path(__file__).resolve().parent / "unreached.txt"

_FUNCTION = ast.FunctionDef | ast.AsyncFunctionDef


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own text: a compound one ends before its body."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return max(node.lineno, body[0].lineno - 1)
    return node.end_lineno


def _is_checked(node: ast.AST) -> bool:
    """A statement that runs code of its own: not a docstring, a bare `...`,
    a bare annotation, a `raise`, or a `try`, which runs when its body does."""
    if not isinstance(node, ast.stmt) or isinstance(node, ast.Raise | ast.Try | ast.TryStar):
        return False
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return not (isinstance(node.value.value, str) or node.value.value is Ellipsis)
    return not (isinstance(node, ast.AnnAssign) and node.value is None)


def _functions(node: ast.AST, owner: str = ""):
    """(qualified name, node) of each function that a module or class body
    defines, nested functions aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTION | ast.ClassDef):
            qualified = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.ClassDef):
                yield from _functions(child, qualified)
            else:
                yield qualified, child
        elif isinstance(child, ast.stmt):
            yield from _functions(child, owner)


def _own(func: ast.AST) -> tuple[list[ast.stmt], list[ast.AST]]:
    """A function's checked statements, down to but not into the functions
    it nests, and those nested functions."""
    own, nested = [], []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if _is_checked(node):
            own.append(node)
        if isinstance(node, _FUNCTION):
            nested.append(node)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return own, nested


def _all_checked(func: ast.AST) -> list[ast.stmt]:
    return [n for n in ast.walk(func) if n is not func and _is_checked(n)]


def line_owners(source: str) -> dict[int, int]:
    """Line -> first line of the checked statement whose text holds it."""
    owners = {}
    for _, func in _functions(ast.parse(source)):
        for node in _all_checked(func):
            for line in range(node.lineno, _header_end(node) + 1):
                owners[line] = node.lineno
    return owners


def entries(name: str, source: str, ran: set[int]) -> list[str]:
    """The entries of module `name` whose statements none of the lines in
    `ran` belong to."""
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:  # a comment is no part of the key
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    functions = list(_functions(ast.parse(source)))

    def reached(node: ast.stmt) -> bool:
        return not ran.isdisjoint(range(node.lineno, _header_end(node) + 1))

    def text(node: ast.stmt) -> str:
        return " ".join(" ".join(lines[node.lineno - 1:_header_end(node)]).split())

    if not any(reached(n) for _, func in functions for n in _all_checked(func)):
        return [name] if any(_all_checked(func) for _, func in functions) else []
    out = []
    while functions:
        qualified, func = functions.pop()
        checked = _all_checked(func)
        if checked and not any(reached(n) for n in checked):
            out.append(f"{name}::{qualified}")
            continue
        own, nested = _own(func)
        out.extend(f"{name}::{qualified}: {text(n)}" for n in own if not reached(n))
        functions.extend((f"{qualified}.{n.name}", n) for n in nested)
    return sorted(out)


def unreached(ran: dict[str, set[int]]) -> list[str]:
    """Every entry of the package, given the lines that ran in each file."""
    return [entry for path in sorted(PACKAGE.glob("*.py"))
            for entry in entries(path.name, path.read_text(encoding="utf-8"),
                                 ran.get(path.name, set()))]


def trace(fn):
    """Call `fn()` with the package traced; return its result and, by file
    name, the first lines of the checked statements that ran.

    A code object is traced only while some checked statement of its own
    has not run yet. The trace function in place before is restored.
    """
    owners = {str(path): (path.name, line_owners(path.read_text(encoding="utf-8")))
              for path in PACKAGE.glob("*.py")}
    ran: dict[str, set[int]] = {name: set() for name, _ in owners.values()}
    tracers = {}  # code object -> its line tracer, None once nothing is left

    def tracer_for(code):
        name, owner_of = owners.get(str(Path(code.co_filename).resolve()), (None, None))
        if name is None:
            return None
        seen = ran[name]
        pending = {owner_of[line] for _, _, line in code.co_lines()
                   if line in owner_of} - seen
        if not pending:
            return None

        def on_line(frame, event, arg):  # any event's line has run
            first = owner_of.get(frame.f_lineno)
            if first in pending:
                pending.discard(first)
                seen.add(first)
                if not pending:
                    tracers[code] = None
                    frame.f_trace_lines = False
            return on_line
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code]
        except KeyError:
            tracers[code] = tracer_for(code)
            return tracers[code]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return result, ran


def groups(text: str) -> list[tuple[str, list[str]]]:
    """(reason, entries) of each group of the list. A group is a paragraph:
    its `#` lines give the reason, its other lines are entries. A paragraph
    of `#` lines alone is a comment."""
    out = []
    for paragraph in text.split("\n\n"):
        lines = [line for line in paragraph.splitlines() if line.strip()]
        reason = " ".join(line.lstrip("#").strip() for line in lines if line.startswith("#"))
        members = [line for line in lines if not line.startswith("#")]
        if members and not reason:
            raise ValueError(f"no reason given for: {members[0]}")
        if members:
            out.append((reason, members))
    return out


def listed() -> list[str]:
    return [entry for _, members in groups(LIST.read_text(encoding="utf-8"))
            for entry in members]


def difference(found: list[str], listed: list[str]) -> list[str]:
    """`+ entry` for each newly unreached statement, `- entry` for each
    listed one that ran; empty when the two agree as multisets."""
    found_count, listed_count = Counter(found), Counter(listed)
    return ([f"+ {e}" for e in sorted((found_count - listed_count).elements())]
            + [f"- {e}" for e in sorted((listed_count - found_count).elements())])


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_pins import render_pins_traced
    _, ran = render_pins_traced()
    found = unreached(ran)
    for line in difference(found, listed()):
        print(line)
    print(f"{len(found)} entries unreached by the pinned runs", file=sys.stderr)


if __name__ == "__main__":
    main()
