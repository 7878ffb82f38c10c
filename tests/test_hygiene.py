"""Source hygiene: no dead imports, no config key that nothing reads, no
definition that only tests reach, no class field that only tests read, no
parameter that its function never reads, no message tag that lacks a
framing or a handler, no message queued past `Simulation.send`, and no
process-wide memo that `memos.clear_memos` leaves filled.

The checks parse the package with `ast`, so they see the code as written,
not as imported; the last two read the message tables and the memos as
imported.
"""

import ast
import importlib
import sys
from pathlib import Path

from memos import clear_memos

from ledgerlab import blockchain, codec, lattice, nodes
from ledgerlab.runner import run
from ledgerlab.scenario import SCHEMA, preset_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgerlab"

# keys the rest of the package reads through a Config property
READ_VIA_PROPERTY = {"scenario.id": "scenario_id", "scenario.paradigm": "paradigm",
                     "lattice.accounts": "lattice_roles",
                     "lattice.representatives": "lattice_roles",
                     "lattice.offline_accounts": "lattice_roles",
                     "fork.attackers": "lattice_roles"}

# Definitions that no other package code names, and why each stays.
TEST_FACING = {
    "fast_sync": "header-first bootstrap of a store; acceptance criterion 09",
    "pos_slash": "stake slashing; acceptance criterion 10",
    "StakeRegistry.total_stake": "stake conservation; acceptance criterion 10",
    "survival_curve": "confirmation confidence; acceptance criterion 03",
    "SurvivalPoint.std_error": "confirmation confidence; acceptance criterion 03",
    "LatticeLedger.create_rep_change": "the benchmark tracer wraps it by name",
    "_Parser.error": "argparse calls it on a usage error",
}


# Class fields that no package or benchmark code reads by name, and why
# each stays.
UNREAD_FIELDS = {
    "StakeRegistry.burned": "the stake a slash destroys; acceptance criterion 10",
    "SurvivalPoint.depth": "a survival curve's x axis; acceptance criterion 03",
    "SurvivalPoint.survivors": "the count behind each estimate; acceptance criterion 03",
}


# Parameters that their function never reads, and why each stays: every
# implementation of an interface takes what the caller passes to all of them.
INTERFACE_PARAMS = {
    "ProofRule.check(store, block)": "the proof rule interface; subclasses read them",
    "LotteryProof.check(store, block)": "ChainStore.validate_block calls every rule alike",
    "PosProof.check(store)": "ChainStore.validate_block calls every rule alike",
    "LatticeNode.start(sim)": "the runner starts every node alike",
    "LatticeNode.on_timer(sim, now, payload)": "Simulation.run fires every node's timers alike",
    "SimNode.on_message(sim, now, payload)": "the node interface; subclasses read them",
    "SimNode.on_timer(sim, now, payload)": "the node interface; subclasses read them",
    "ChainTxDriver.on_command(now, payload)": "MultiDriver calls every driver alike",
    "LatticeSendDriver.on_command(payload)": "MultiDriver calls every driver alike",
    "ForkInjectionDriver.on_command(payload)": "MultiDriver calls every driver alike",
    "ChainNode._on_transaction(sim, now, sender)": "on_message calls every handler alike",
    "ChainNode._on_fetch(now, data)": "on_message calls every handler alike",
    "LatticeNode._on_block(sender)": "on_message calls every handler alike",
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


def _definitions(tree: ast.AST, owner: str = "") -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of every function, method and class."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            qualified = f"{owner}.{node.name}" if owner else node.name
            out.append((qualified, node))
            out.extend(_definitions(node, qualified))
    return out


def _unreferenced(modules: dict[str, ast.Module]) -> list[str]:
    """Definitions whose name no code in these modules loads or looks up."""
    named = set()
    for tree in modules.values():
        named |= _used_names(tree)
        named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(qualified for tree in modules.values()
                  for qualified, node in _definitions(tree)
                  if node.name not in named
                  and not (node.name.startswith("__") and node.name.endswith("__")))


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


def _fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(Class.field, field) of every annotated class-body field and of every
    attribute a class's `__init__` sets on self."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.append((f"{cls.name}.{node.target.id}", node.target.id))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                out.extend((f"{cls.name}.{n.attr}", n.attr) for n in ast.walk(node)
                           if isinstance(n, ast.Attribute)
                           and isinstance(n.ctx, ast.Store)
                           and isinstance(n.value, ast.Name) and n.value.id == "self")
    return out


def _read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names the code loads, by dot or through getattr/hasattr."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            out.add(node.args[1].value)
    return out


def _readers() -> list[ast.Module]:
    """The package and the benchmark: a field that only tests read is unread."""
    return list(_modules().values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _unread_fields(modules: dict[str, ast.Module],
                   readers: list[ast.Module]) -> list[str]:
    read = set().union(*(_read_attributes(tree) for tree in readers))
    return sorted({qualified for tree in modules.values()
                   for qualified, name in _fields(tree) if name not in read})


def test_every_class_field_is_read():
    unread = _unread_fields(_modules(), _readers())
    assert [q for q in unread if q not in UNREAD_FIELDS] == []
    # an entry whose field is gone, or is now read, goes too
    assert [q for q in UNREAD_FIELDS if q not in unread] == []


def test_an_unread_field_is_caught():
    modules = _modules()
    modules["extra"] = ast.parse(
        "class Probe:\n"
        "    shown: int\n"
        "    stored_only: int\n"
        "    tested_only: int\n"
        "    def __init__(self):\n        self.counter = 0\n        self.counter += 1\n"
        "    def show(self):\n        return self.shown\n")
    a_test = ast.parse("def test_probe(probe):\n    assert probe.tested_only\n")
    unread = _unread_fields(modules, _readers() + [modules["extra"]])
    assert "tested_only" in _read_attributes(a_test)  # a reader that does not count
    assert set(unread) - set(UNREAD_FIELDS) == {
        "Probe.stored_only", "Probe.tested_only", "Probe.counter"}


def _unread_params(modules: dict[str, ast.Module]) -> list[str]:
    """Each function with a parameter, other than self or cls, that its body
    never loads, as "function(param, ...)"."""
    out = []
    for tree in modules.values():
        for qualified, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [v for v in (args.vararg, args.kwarg) if v]]
            loaded = {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread = [p for p in params if p not in loaded and p not in ("self", "cls")]
            if unread:
                out.append(f"{qualified}({', '.join(unread)})")
    return sorted(out)


def test_no_parameter_is_unread():
    unread = _unread_params(_modules())
    assert [q for q in unread if q not in INTERFACE_PARAMS] == []
    # an entry whose parameter is gone, or is now read, goes too
    assert [q for q in INTERFACE_PARAMS if q not in unread] == []


def test_an_unread_parameter_is_caught():
    modules = _modules()
    modules["extra"] = ast.parse(
        "class Probe:\n"
        "    def method(self, used, carried):\n        return used\n"
        "    @classmethod\n    def make(cls, *args, **kw):\n        return cls(*args)\n"
        "def helper(a, b=0, *, c):\n"
        "    def inner():\n        return a\n"
        "    return inner\n")
    assert set(_unread_params(modules)) - set(INTERFACE_PARAMS) == {
        "Probe.method(carried)", "Probe.make(kw)", "helper(b, c)"}


def test_every_framed_message_tag_has_a_handler_and_every_handler_a_framing():
    node_types = [cls for cls in vars(nodes).values()
                  if isinstance(cls, type) and "HANDLERS" in vars(cls)]
    assert {nodes.ChainNode, nodes.LatticeNode} <= set(node_types)
    handled = set().union(*(cls.HANDLERS for cls in node_types))
    assert set(nodes.FRAMING) <= handled  # no message that no node type takes
    assert handled <= set(nodes.FRAMING)  # no handler for a message never scanned


def _message_queuers(modules: dict[str, ast.Module]) -> list[str]:
    """The modules that name the MESSAGE event kind, so could queue one."""
    return sorted(name for name, tree in modules.items()
                  if any(isinstance(n, ast.Attribute) and n.attr == "MESSAGE"
                         and isinstance(n.value, ast.Name)
                         and n.value.id == "SimEventKind" for n in ast.walk(tree)))


def test_every_message_enters_the_network_through_send():
    # only `Simulation.send` applies the link's latency, drops and partitions
    modules = _modules()
    assert _message_queuers(modules) == ["simnet"]
    modules["probe"] = ast.parse(
        "sim.schedule(at, SimEventKind.MESSAGE, dst, payload)\n")
    assert _message_queuers(modules) == ["probe", "simnet"]


def _functools_caches() -> dict[str, object]:
    """Every functools cache bound in a package module's globals, by name."""
    importlib.import_module("ledgerlab.cli")  # not imported by the package
    return {f"{name}.{attr}": value
            for name, module in sorted(sys.modules.items())
            if name == "ledgerlab" or name.startswith("ledgerlab.")
            for attr, value in vars(module).items()
            if callable(getattr(value, "cache_info", None))}


def test_clearing_the_memos_leaves_no_process_memo_filled():
    run(preset_config("bitcoin-baseline", ["scenario.horizon_s=20"]), 1)
    run(preset_config("nano-baseline", ["scenario.horizon_s=10"]), 1)
    caches = _functools_caches()
    dicts = {"codec.NAME_FIELDS": codec.NAME_FIELDS,
             "blockchain.STATE_LEAVES": blockchain.STATE_LEAVES,
             "lattice.GENESIS_VALUES": lattice.GENESIS_VALUES}
    for name in ("ledgerlab.primitives.identity_for", "ledgerlab.primitives._tree_root",
                 "ledgerlab.primitives._expected_tag"):
        assert caches[name].cache_info().currsize, name  # the runs filled it
    assert all(dicts.values())
    clear_memos()
    filled = [name for name, cache in caches.items() if cache.cache_info().currsize]
    filled += [name for name, memo in dicts.items() if memo]
    assert filled == []
