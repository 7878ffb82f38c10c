"""The benchmark's tracer self-test, run with the rest of the suite.

`perfbench/test_tracer.py` checks that the tracer wraps every module binding
of the functions it times and restores them, that a traced run keeps its
trace digest and report, and that each delivery decodes at least once and
each event hashes its payload into the trace. A change to how the program
binds, memoises or schedules those functions breaks it before it breaks a
benchmark run. Standalone:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import unittest
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_tracer_selftest_passes():
    if not (PERFBENCH / "test_tracer.py").is_file():
        pytest.skip("no perfbench/ beside the tests")
    suite = unittest.defaultTestLoader.discover(str(PERFBENCH), pattern="test_*.py")
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    problems = [f"{test.id()}\n{trace}" for test, trace in result.failures + result.errors]
    assert not problems, "\n\n".join(problems)
    assert result.testsRun > 0
