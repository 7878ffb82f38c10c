"""One fresh-process sample of a benchmark workload.

    python3 perfbench/probe.py --workload NAME --seed N [--trace --spans PATH]
    python3 perfbench/probe.py --warm

A sample sets up once (import ledgerlab, resolve the config, build the
simulation), then times one `metrics.run_scenario_suite(cfg, [seed])`, checks
its output, and prints one JSON object on its last line. Both are timed on a
`SteadyClock`. With `--trace` the run goes through `tracer.Tracer` instead,
untimed by the clock; the per-layer metrics are added to the object and the
spans are written to PATH. `--warm` only imports everything, so later samples
load compiled bytecode.

Each sample runs in its own process, so workloads and samples do not inherit
each other's heap, and `peak_rss_mb` is this process's own peak.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
TICK_PERIOD_S = 0.01
# How long reference_loop() takes on this benchmark's reference host (an
# Intel Xeon vCPU, Python 3.11) when nothing else loads it; see SteadyClock.
REFERENCE_TICK_S = 0.0002


def reference_loop() -> None:
    """A fixed stretch of interpreter work: hashing and small-dict stores."""
    h = b"ledgerlab"
    table = {}
    for i in range(300):
        h = hashlib.sha256(h).digest()
        table[h[:4]] = i


class SteadyClock:
    """Wall time, and wall time rescaled to the reference host speed.

    Neighbours on a shared host slow this process by up to 1.8x, in bursts
    from milliseconds to minutes long, with CPU time equal to wall time. While
    the clock runs, a timer interrupts the process every TICK_PERIOD_S and
    times `reference_loop()`; the loop's slow-down at that moment is taken
    as the program's. `span()` returns the wall time of an interval with the
    ticks taken out, and that time multiplied by the mean of
    REFERENCE_TICK_S / tick duration over the ticks inside it: the
    interval's length on a quiet reference host. The handler touches no
    program state, so runs keep their trace digests.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.ticks.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [start, end) without ticks."""
        inside = [d for at, d in self.ticks if start <= at < end]
        wall = end - start - sum(inside)
        if not inside:
            return wall, wall
        speed = sum(REFERENCE_TICK_S / d for d in inside) / len(inside)
        return wall, wall * speed


def load_workloads() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def workload_config(scenario, workload: dict):
    """The preset with the workload's overrides and fixed horizon."""
    overrides = [*workload["overrides"],
                 f"scenario.horizon_s={workload['horizon_s']}"]
    return scenario.preset_config(workload["preset"], overrides)


def output_problems(result, breached: bool) -> list[str]:
    """Why a run's output is wrong; empty when it passes the check."""
    problems = []
    if breached or result.breach is not None:
        problems.append(f"invariant breach: {result.breach}")
    if result.events <= 0:
        problems.append("no events executed")
    if result.config.paradigm == "lattice":
        ledger = result.nodes[0].ledger  # the observer
        unresolved = ledger.open_conflicts()
        if unresolved:
            problems.append(f"{len(unresolved)} conflicts unresolved at the observer")
        # flagged_ties keeps a tie that a later vote broke, so a tie counts
        # as undecided only while its conflict is unresolved
        undecided = [k for k in ledger.flagged_ties
                     if ledger.conflicts[k].resolved is None]
        if undecided:
            problems.append(f"{len(undecided)} ties left undecided at the observer")
        if result.config["fork.interval_s"] > 0 and not ledger.conflicts:
            problems.append("fork injection opened no conflict at the observer")
    return problems


def run_suite(metrics, cfg, seed: int):
    """Run `metrics.run_scenario_suite(cfg, [seed])`, keeping its RunResult.

    Returns (result, report, breached, start, end) with perf_counter times.
    """
    results = []
    suite_run = metrics.run

    def capture(*args, **kwargs):
        result = suite_run(*args, **kwargs)
        results.append(result)
        return result

    metrics.run = capture
    try:
        start = time.perf_counter()
        reports, breached = metrics.run_scenario_suite(cfg, [seed])
        end = time.perf_counter()
    finally:
        metrics.run = suite_run
    return results[0], reports[0], breached, start, end


def sample(workload_name: str, seed: int, trace: bool,
           spans_path: str | None) -> dict:
    workload = load_workloads()[workload_name]
    clock = SteadyClock()
    clock.start()
    start = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    from ledgerlab import metrics, runner, scenario
    from ledgerlab.recording import RunRecorder

    cfg = workload_config(scenario, workload)
    runner.build_simulation(cfg, seed, RunRecorder())
    setup_wall_s, setup_s = clock.span(start, time.perf_counter())
    gc.collect()  # the set-up simulation's garbage is not the run's

    tracer = None
    if trace:  # traced samples are timed by the tracer, without ticks
        clock.stop()
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result, report, breached, run_start, run_end = run_suite(metrics, cfg, seed)
    clock.stop()
    seed_wall_s, seed_s = clock.span(run_start, run_end)
    text = metrics.render_report(report)
    if tracer is not None:
        tracer.uninstall()
    problems = output_problems(result, breached)
    out = {
        "ok": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "seed_s": seed_s,
        "seed_wall_s": seed_wall_s,
        "events": result.events,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": result.trace,
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stats": {name: value for name, _unit, value in report.scalars},
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(result)
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    if args.warm:
        sys.path.insert(0, str(SOURCE))
        import ledgerlab.cli  # noqa: F401  (compiles every module)
        import tracer  # noqa: F401
        print("{}")
        return 0
    try:
        out = sample(args.workload, args.seed, args.trace, args.spans)
    except Exception as exc:  # a crashing run is a failed sample, not a crash
        traceback.print_exc()
        out = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
