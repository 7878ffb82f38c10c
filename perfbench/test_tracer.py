"""Self-test of the benchmark's tracer, at a fifth of each workload's horizon.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ledgerlab import metrics, scenario  # noqa: E402
from probe import load_workloads, output_problems, run_suite, workload_config  # noqa: E402
from tracer import HANDLER_SPANS, METRICS, Tracer  # noqa: E402

HORIZON_SHARE = 0.2


def _run(cfg, seed: int, tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.install()
    try:
        result, report, breached, _, _ = run_suite(metrics, cfg, seed)
        text = metrics.render_report(report)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"result": result, "breached": breached,
            "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for name, workload in load_workloads().items():
            short = dict(workload, horizon_s=workload["horizon_s"] * HORIZON_SHARE)
            cfg = workload_config(scenario, short)
            seed = workload["default_seed"]
            tracer = Tracer()
            cls.runs[name] = (_run(cfg, seed, None), _run(cfg, seed, tracer), tracer)

    def test_every_binding_is_wrapped_and_restored(self):
        tracer = Tracer()
        tracer.install()
        patches = list(tracer.patches)  # uninstall() empties the list
        try:
            originals = {id(orig) for _, _, orig in patches}
            for module in Tracer.modules():
                for attr, value in vars(module).items():
                    if id(value) in originals:
                        self.fail(f"{module.__name__}.{attr} left unwrapped")
            for owner, attr, original in patches:
                self.assertIsNot(vars(owner)[attr], original)
            bound = {}
            for owner, attr, original in patches:
                bound.setdefault(getattr(original, "__name__", attr), set()).add(
                    owner.__name__.rsplit(".", 1)[-1])
            self.assertLessEqual({"primitives", "simnet", "blockchain", "lattice",
                                  "leader_election"}, bound["digest"])
            self.assertLessEqual({"runner", "metrics", "cli"}, bound["run"])
            self.assertLessEqual({"blockchain", "nodes"}, bound["assemble_block"])
        finally:
            tracer.uninstall()
        for owner, attr, original in patches:
            self.assertIs(vars(owner)[attr], original)

    def test_tracing_changes_neither_trace_nor_report(self):
        for name, (plain, traced, _) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(plain["result"].trace, traced["result"].trace)
                self.assertEqual(plain["report_sha256"], traced["report_sha256"])
                self.assertEqual(output_problems(traced["result"], traced["breached"]), [])

    def test_child_spans_lie_inside_parents(self):
        for name, (_, _, tracer) in self.runs.items():
            with self.subTest(workload=name):
                self.assertTrue(tracer.spans)
                for _, start, end, parent, covered in tracer.spans:
                    self.assertLessEqual(start, end)
                    self.assertLessEqual(covered, end - start + 1e-9)
                    if parent >= 0:
                        _, p_start, p_end, _, _ = tracer.spans[parent]
                        self.assertLessEqual(p_start, start)
                        self.assertLessEqual(end, p_end)

    def test_span_counts_agree_with_counters(self):
        for name, (_, traced, tracer) in self.runs.items():
            with self.subTest(workload=name):
                result = traced["result"]
                m = tracer.layer_metrics(result)
                self.assertEqual(m["nodes.handler_calls"], result.events)
                self.assertEqual(sum(m[f"simnet.events.{k}"]
                                     for k in ("message", "timer", "command")),
                                 result.events)
                self.assertEqual(m["lattice.receive_calls"],
                                 sum(v for k, v in m.items()
                                     if k.startswith("lattice.receive_status.")))
                self.assertEqual(tracer.fine["simnet.send"][0],
                                 sum(v for k, v in m.items()
                                     if k.startswith("simnet.sends.")))
                self.assertGreaterEqual(m["codec.decode_calls"],
                                        m["simnet.events.message"])
                self.assertGreaterEqual(m["simnet.trace_digest_calls"], result.events)
                self.assertGreaterEqual(m["primitives.digest_calls"],
                                        m["simnet.trace_digest_calls"])
                self.assertGreaterEqual(m["blockchain.validate_calls"],
                                        m["blockchain.adopt_calls"])
                totals = tracer.span_totals()
                self.assertEqual(sum(totals[n][0] for n in HANDLER_SPANS
                                     if n in totals), result.events)
                paradigm_calls = (m["blockchain.validate_calls"]
                                  if result.config.paradigm == "chain"
                                  else m["lattice.receive_calls"])
                self.assertGreater(paradigm_calls, 0)

    def test_metric_names_match_benchmark_json(self):
        spec = HERE.parent / "BENCHMARK.json"
        if not spec.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        bench = json.loads(spec.read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [(name, unit, better) for name, unit, better, _ in METRICS])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(load_workloads()))
        _, traced, tracer = self.runs["lattice-fork"]
        emitted = set(tracer.layer_metrics(traced["result"])) | {"trace.overhead_ratio"}
        self.assertEqual(emitted, {name for name, _, _, _ in METRICS})


if __name__ == "__main__":
    unittest.main()
