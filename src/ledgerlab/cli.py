"""Command-line front end.

Exit statuses are a stable contract: 0 all good, 1 usage or configuration
problem, 2 an invariant was breached during a run, 3 an internal error (a
defect in ledgerlab itself; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .errors import ConfigError, LedgerError
from .metrics import CSV_HEADER, run_scenario_suite
from .nodes import ChainNode, LatticeNode
from .recording import OBSERVER
from .runner import run
from .scenario import PRESETS, load_config, preset_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BREACH = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with status 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ledgerlab",
                     description="Deterministic ledger-paradigm laboratory")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="preset name or path to a key=value file")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="config override, repeatable")

    p_run = sub.add_parser("run", help="run a scenario over seeds")
    common(p_run)
    p_run.add_argument("--seeds", default="1",
                       help="either N (seeds 1..N) or A..B inclusive")
    p_run.add_argument("--out", default=None, help="report output directory")

    p_val = sub.add_parser("validate", help="check a config and echo it")
    common(p_val)

    p_ins = sub.add_parser("inspect", help="run one seed, dump the observer ledger")
    common(p_ins)
    p_ins.add_argument("--seeds", default="1", help="seed to inspect (first used)")

    p_cmp = sub.add_parser("compare", help="side-by-side paradigm table")
    p_cmp.add_argument("--out", required=True, dest="report_dir",
                       help="directory holding suite csv reports")
    return parser


def _parse_seeds(raw: str) -> list[int]:
    raw = raw.strip()
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = list(range(1, int(raw) + 1))
    except ValueError as exc:
        raise UsageError(f"bad --seeds value {raw!r}") from exc
    if not seeds:
        raise UsageError("no seeds to run")
    return seeds


def _load(config_arg: str, overrides: list[str]):
    if config_arg in PRESETS:
        return preset_config(config_arg, overrides)
    if os.path.exists(config_arg):
        return load_config(config_arg, overrides)
    if any(sep in config_arg for sep in "/\\.") or config_arg.endswith(".cfg"):
        raise ConfigError(f"config file not found: {config_arg}")
    raise ConfigError(
        f"unknown preset {config_arg!r}; available: {', '.join(sorted(PRESETS))}")


def _cmd_run(args) -> int:
    cfg = _load(args.config, args.override)
    seeds = _parse_seeds(args.seeds)
    reports, breached = run_scenario_suite(cfg, seeds, out_dir=args.out)
    for report in reports:
        status = "BREACH" if report.breach else "ok"
        print(f"{report.scenario_id} seed {report.seed}: {status} "
              f"({report.events} events, trace {report.trace[:16]})")
        if report.breach:
            print(f"  failed invariant: {report.breach}")
    if args.out:
        print(f"reports written to {args.out}")
    return EXIT_BREACH if breached else EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args.config, args.override)
    print("ok")
    for line in cfg.snapshot_lines():
        print(line)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    cfg = _load(args.config, args.override)
    seed = _parse_seeds(args.seeds)[0]
    result = run(cfg, seed)
    print(f"scenario {cfg.scenario_id} seed {seed}")
    print(f"trace {result.trace}")
    observer = result.nodes[OBSERVER]
    if isinstance(observer, ChainNode):
        store = observer.store
        print(f"adopted head {store.adopted_head.hex()} at height "
              f"{store.head_height}")
        print(f"total supply {store.total_supply()}")
        print(f"known blocks {len(store.blocks)}, mempool {len(observer.mempool)}")
    elif isinstance(observer, LatticeNode):
        ledger = observer.ledger
        print(f"accounts {len(ledger.accounts)}, settled {ledger.total_balance}, "
              f"pending {ledger.total_pending} over {len(ledger.pending)} sends")
        resolved = sum(c.resolved is not None for c in ledger.conflicts.values())
        print(f"open conflicts {len(ledger.open_conflicts())}, resolved {resolved}")
    for category, total in sorted(result.books[OBSERVER].ledger_bytes().items()):
        print(f"bytes {category} {total}")
    if result.breach:
        print(f"failed invariant: {result.breach}")
        return EXIT_BREACH
    return EXIT_OK


# -- compare ----------------------------------------------------------------

_CHAIN_MARKERS = {"measured-tps", "orphan-rate"}


def _read_csv_rows(path: str) -> list[tuple]:
    """The rows of a suite CSV; none, with a warning, for any other CSV.

    A row without six fields, or whose seed or value does not parse, is a
    ConfigError naming the file and line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            print(f"warning: skipping {path}: not a suite csv report",
                  file=sys.stderr)
            return []
        for ln, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 6:
                raise ConfigError(
                    f"{path} line {ln}: expected 6 fields, got {len(parts)}")
            scenario, seed, metric, unit, stat, value = parts
            try:
                rows.append((scenario, int(seed), metric, unit, stat, float(value)))
            except ValueError as exc:
                raise ConfigError(f"{path} line {ln}: {exc}") from exc
    return rows


def _mean_of(rows: list[tuple], metric: str, stat: str = "value"):
    values = [v for _s, _sd, m, _u, st, v in rows if m == metric and st == stat]
    if not values:
        return None
    return sum(values) / len(values)


def _cmd_compare(args) -> int:
    directory = args.report_dir
    if not os.path.isdir(directory):
        raise ConfigError(f"not a directory: {directory}")
    by_scenario: dict[str, list[tuple]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(directory, name)
        try:
            rows = _read_csv_rows(path)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from exc
        for row in rows:
            by_scenario.setdefault(row[0], []).append(row)
    if not by_scenario:
        raise ConfigError(f"no suite csv reports found in {directory}")

    columns = ["scenario", "paradigm", "throughput tx/s", "latency s",
               "forks", "ledger bytes"]
    table = []
    paradigms = set()
    for scenario in sorted(by_scenario):
        rows = by_scenario[scenario]
        metrics_present = {m for _s, _sd, m, _u, _st, _v in rows}
        if metrics_present & _CHAIN_MARKERS:
            paradigm = "chain"
            tput = _mean_of(rows, "measured-tps")
            latency = _mean_of(rows, "confirm-latency")
            forks = _mean_of(rows, "orphan-rate")
            fork_cell = f"orphan-rate {forks:.3f}" if forks is not None else "n/a"
            latency_cell = f"{latency:.2f}" if latency is not None else "n/a"
        else:
            paradigm = "lattice"
            tput = _mean_of(rows, "settled-tps")
            latency = _mean_of(rows, "settlement-latency", stat="p50")
            conflicts = _mean_of(rows, "conflicts-opened")
            fork_cell = (f"conflicts {conflicts:.1f}"
                         if conflicts is not None else "n/a")
            latency_cell = f"{latency:.3f}" if latency is not None else "n/a"
        paradigms.add(paradigm)
        ledger_total = sum(
            v for _s, _sd, m, _u, st, v in rows
            if m.startswith("ledger-") and st == "value") / max(
                1, len({sd for _s, sd, _m, _u, _st, _v in rows}))
        table.append([scenario, paradigm,
                      f"{tput:.3f}" if tput is not None else "n/a",
                      latency_cell, fork_cell, f"{ledger_total:.0f}"])

    widths = [max(len(str(row[i])) for row in [columns] + table)
              for i in range(len(columns))]
    def fmt(row):
        return "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
    print(fmt(columns))
    print(fmt(["-" * w for w in widths]))
    for row in table:
        print(fmt(row))
    if len(paradigms) < 2:
        print("warning: reports cover a single paradigm; "
              "comparison columns are one-sided")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "validate":
            return _cmd_validate(args)
        if args.verb == "inspect":
            return _cmd_inspect(args)
        return _cmd_compare(args)
    except (UsageError, LedgerError, OSError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
