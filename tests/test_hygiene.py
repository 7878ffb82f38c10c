"""Source hygiene: no dead imports, no config key that nothing reads, and
no definition that only tests reach.

The checks parse the package with `ast`, so they see the code as written,
not as imported.
"""

import ast
from pathlib import Path

from ledgerlab.scenario import SCHEMA

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ledgerlab"

# keys the rest of the package reads through a Config property
READ_VIA_PROPERTY = {"scenario.id": "scenario_id", "scenario.paradigm": "paradigm"}

# Definitions that no other package code names, and why each stays.
TEST_FACING = {
    "fast_sync": "header-first bootstrap of a store; acceptance criterion 09",
    "LatticeLedger.prune_to_current": "current-tier pruning; acceptance criterion 08",
    "pos_slash": "stake slashing; acceptance criterion 10",
    "StakeRegistry.total_stake": "stake conservation; acceptance criterion 10",
    "survival_curve": "confirmation confidence; acceptance criterion 03",
    "SurvivalPoint.std_error": "confirmation confidence; acceptance criterion 03",
    "ChainStore.confirmations": "a transaction's k-deep confirmation count",
    "Reader.expect_end": "rejects trailing bytes when a whole message is decoded",
    "LatticeLedger.create_rep_change": "the benchmark tracer wraps it by name",
    "_Parser.error": "argparse calls it on a usage error",
}


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


def _definitions(tree: ast.Module, owner: str = "") -> list[tuple[str, str]]:
    """(qualified name, name) of every function, method and class."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            qualified = f"{owner}.{node.name}" if owner else node.name
            out.append((qualified, node.name))
            out.extend(_definitions(node, qualified))
    return out


def _unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """Definitions whose name no code in these modules loads or looks up."""
    named = set()
    for tree in modules.values():
        named |= _used_names(tree)
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(qualified for tree in modules.values()
                  for qualified, name in _definitions(tree)
                  if name not in named
                  and not (name.startswith("__") and name.endswith("__")))


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


def test_no_definition_is_reached_only_from_tests():
    unreferenced = _unreferenced(_modules())
    assert [q for q in unreferenced if q not in TEST_FACING] == []
    # an entry whose definition is gone, or is now used, goes too
    assert [q for q in TEST_FACING if q not in unreferenced] == []


def test_an_unreferenced_definition_is_caught():
    modules = _modules()
    modules["extra"] = ast.parse(
        "class Probe:\n"
        "    def __repr__(self):\n        return helper()\n"
        "    def orphan_method(self):\n        pass\n"
        "def helper():\n    pass\n"
        "def orphan():\n    pass\n")
    assert set(_unreferenced(modules)) - set(TEST_FACING) == {
        "Probe", "Probe.orphan_method", "orphan"}
