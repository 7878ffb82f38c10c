"""ledgerlab's benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Without `--workload` every workload in
`perfbench/reference.json` runs in turn, each at its default seed unless
`--seed` is given. Each sample is a fresh `probe.py` process, and samples
run one at a time until `--seconds` have passed (at least three samples).

`--trace 0` reports the end-to-end metrics as medians over the samples:
`seed_s`, `events_per_s`, `setup_s` and `peak_rss_mb`. Times are taken on
`probe.SteadyClock`, which rescales wall time to a quiet reference host; the
raw wall times are printed beside them as `seed_wall_s` and `setup_wall_s`.
`--trace 1` alternates untraced and traced samples and reports the per-layer
metrics (times as medians over the traced samples), with
`trace.overhead_ratio`, the traced wall time over the untraced one.

A workload's result is correct when every sample passes the output check
(no exception, no invariant breach, events executed, and on lattice
workloads every conflict opened at the observer resolved with no tie), every
sample of the (workload, seed) has the same trace digest and report hash,
and, traced, every count-valued per-layer metric repeats exactly. The trace
digest, report hash and simulated statistics are printed as identity fields
and not gated on. The last line of output is one JSON object per workload
with `correct`, `attempted`, `failed` and `metrics`; the exit status is 0
when every workload is correct, 1 when one is not, and 2 when the ledgerlab
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from probe import load_workloads  # noqa: E402
from tracer import EXACT, UNITS  # noqa: E402

END_TO_END = {"seed_s": "s", "events_per_s": "events/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
MIN_SAMPLES = 3
TIME_LIMIT_S = 170  # a run ends within this, whatever --seconds says


def probe(workload: str, seed: int, deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.csv")]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"sample timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "problems": [
            f"sample exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    return json.loads(lines[-1])


def warm(deadline: float) -> None:
    """Compile bytecode once, so set-up is not timed with a cold cache."""
    subprocess.run([sys.executable, str(HERE / "probe.py"), "--warm"], cwd=ROOT,
                   capture_output=True, timeout=max(1.0, deadline - time.perf_counter()),
                   check=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def identity_problems(samples: list[dict]) -> list[str]:
    seen = {(s["trace"], s["report_sha256"]) for s in samples if s["ok"]}
    if len(seen) > 1:
        return [f"{len(seen)} different (trace, report) pairs for one seed"]
    return []


def finish(workload: str, seed: int, samples: list[dict], problems: list[str],
           metrics: dict) -> dict:
    """Print the identity fields and failures; return the result object."""
    good = [s for s in samples if s["ok"]]
    if good:
        first = good[0]
        print(json.dumps({"identity": {
            "workload": workload, "seed": seed, "trace": first["trace"],
            "report_sha256": first["report_sha256"], "events": first["events"],
            "stats": first["stats"]}}, sort_keys=True))
    for s in samples:
        for problem in s["problems"]:
            print(f"failed sample: {problem}")
    for problem in problems:
        print(f"check failed: {problem}")
    return {"correct": bool(good) and len(good) == len(samples) and not problems,
            "attempted": len(samples), "failed": len(samples) - len(good),
            "metrics": metrics}


def end_to_end(workload: str, seed: int, seconds: float, start: float) -> dict:
    deadline = start + TIME_LIMIT_S
    samples: list[dict] = []
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline - 1:
            break
        samples.append(probe(workload, seed, deadline))
    good = [s for s in samples if s["ok"]]
    problems = identity_problems(samples)
    metrics = {}
    if good:
        events = good[0]["events"]
        values = {
            "seed_s": [s["seed_s"] for s in good],
            "events_per_s": [events / s["seed_s"] for s in good],
            "setup_s": [s["setup_s"] for s in good],
            "peak_rss_mb": [s["peak_rss_mb"] for s in good],
            "seed_wall_s": [s["seed_wall_s"] for s in good],
            "setup_wall_s": [s["setup_wall_s"] for s in good],
        }
        for name, series in values.items():
            q1, med, q3 = quartiles(series)
            unit = END_TO_END.get(name, "s")
            print(f"{workload:16} {name:14} {med:14.6f} {unit:9} "
                  f"quartiles {q1:.6f}..{q3:.6f}  n={len(series)}")
            if name in END_TO_END:
                metrics[name] = {"value": med, "unit": unit}
    return finish(workload, seed, samples, problems, metrics)


def per_layer(workload: str, seed: int, seconds: float, start: float) -> dict:
    deadline = start + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        if time.perf_counter() > deadline - 1:
            break
        plain.append(probe(workload, seed, deadline))
        traced.append(probe(workload, seed, deadline, trace=True))
    samples = plain + traced
    good = [s for s in traced if s["ok"]]
    problems = identity_problems(samples)
    metrics = {}
    if good:
        layers = [s["layers"] for s in good]
        for name in EXACT:
            if len({layer[name] for layer in layers}) > 1:
                problems.append(f"{name} differs between repetitions")
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            value = values[0] if name in EXACT else statistics.median(values)
            metrics[name] = {"value": value, "unit": UNITS[name]}
        plain_s = [s["seed_wall_s"] for s in plain if s["ok"]]
        if plain_s:
            ratio = (statistics.median(s["seed_wall_s"] for s in good)
                     / statistics.median(plain_s))
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        for name in sorted(metrics):
            print(f"{workload:16} {name:34} {metrics[name]['value']:16.6f} "
                  f"{metrics[name]['unit']}")
    return finish(workload, seed, samples, problems, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = load_workloads()
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ledgerlab" / "__init__.py").is_file():
        print(f"error: no ledgerlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads)
    all_correct = True
    for name in names:
        start = time.perf_counter()
        warm(start + TIME_LIMIT_S)
        seed = args.seed if args.seed is not None else workloads[name]["default_seed"]
        measure = per_layer if args.trace else end_to_end
        result = measure(name, seed, args.seconds, start)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result, sort_keys=True))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
