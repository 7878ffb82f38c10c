"""Source hygiene: no dead imports and no config key that nothing reads.

Both checks parse the package with `ast`, so they see the code as written,
not as imported.
"""

import ast
from pathlib import Path

from ledgerlab.scenario import SCHEMA

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ledgerlab"

# keys the rest of the package reads through a Config property
READ_VIA_PROPERTY = {"scenario.id": "scenario_id", "scenario.paradigm": "paradigm"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.extend(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _annotations(tree: ast.Module) -> list[ast.expr]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation:
            out.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            out.append(node.returns)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")  # e.g. "Simulation"
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def _strings_and_attributes(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue  # the package namespace re-exports by design
        used = _used_names(tree)
        unused.extend(f"{name}: {imported}" for imported in _imported_names(tree)
                      if imported not in used)
    assert unused == []


def test_every_config_key_is_read_outside_the_schema():
    seen = set()
    for name, tree in _modules().items():
        if name != "scenario":
            seen |= _strings_and_attributes(tree)
    unread = [key for key in SCHEMA
              if READ_VIA_PROPERTY.get(key, key) not in seen]
    assert unread == []
