"""Self-tests of the unreached-statement check in `unreached.py`, on
synthetic source and without tracing: a set of lines stands for what a run
executed."""

import pytest
import unreached

SOURCE = '''\
def pick(x):
    """Docstrings and raises are not checked."""
    if x is None:
        raise ValueError("no x")
    if x:
        return 1
    return 2


class Box:
    def put(self, item):
        self.item = item

    def never(self):
        return None
'''


def _ran(source: str, *statements: str) -> set[int]:
    """The lines of `source` whose text, stripped, is one of `statements`."""
    return {n for n, line in enumerate(source.splitlines(), start=1)
            if line.strip() in statements}


RAN = ("if x is None:", "if x:", "return 2", "self.item = item")


def test_entries_name_statements_functions_and_modules():
    assert unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN)) == [
        "m.py::Box.never", "m.py::pick: return 1"]
    assert unreached.entries("m.py", SOURCE, set()) == ["m.py"]


def test_an_added_unused_branch_is_reported():
    listed = unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN))
    mutated = SOURCE.replace("    return 2\n",
                             "    if x == 2:\n        x = 3\n    return 2\n")
    found = unreached.entries("m.py", mutated, _ran(mutated, *RAN, "if x == 2:"))
    assert unreached.difference(found, listed) == ["+ m.py::pick: x = 3"]


def test_a_listed_statement_that_now_runs_is_reported():
    listed = unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN))
    found = unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN, "return 1"))
    assert unreached.difference(found, listed) == ["- m.py::pick: return 1"]


def test_equal_statements_count_as_a_multiset():
    twice = SOURCE.replace("        return 1\n", "        return 1\n    if x < 0:\n"
                           "        return 1\n")
    found = unreached.entries("m.py", twice, _ran(twice, *RAN, "if x < 0:"))
    listed = unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN))
    assert found.count("m.py::pick: return 1") == 2
    assert unreached.difference(found, listed) == ["+ m.py::pick: return 1"]


def test_lines_inserted_above_a_function_leave_its_keys_alone():
    shifted = ("import os\n\n\ndef helper():\n    return os.sep\n\n\n"
               + SOURCE.replace("return 1", "return 1  # a new comment"))
    assert (unreached.entries("m.py", shifted, _ran(shifted, *RAN, "return os.sep"))
            == unreached.entries("m.py", SOURCE, _ran(SOURCE, *RAN)))


def test_every_listed_entry_has_a_reason_and_none_is_test_only():
    text = unreached.LIST.read_text(encoding="utf-8")
    groups = unreached.groups(text)
    assert sum(len(members) for _, members in groups) == len(unreached.listed())
    assert [reason for reason, _ in groups if "test-only" in reason.lower()] == []
    with pytest.raises(ValueError):
        unreached.groups(text + "\nm.py::pick: return 1\n")  # no reason given
