"""Scenario configuration: flat key = value text, presets, overrides.

A config is a flat mapping of dotted keys to typed values, each parsed from
text: a file or a preset holds one `key = value` pair per line (`#` starts a
comment), and an override is one `key=value` pair. Every key must appear in
the schema; anything else, or a value that is not text, is rejected by name
so typos fail loudly instead of silently running a default. Each value must
lie in its key's domain in `SCHEMA`, whichever paradigm runs; rules that tie
keys together follow.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ConfigError
from .leader_election import GRIND_BITS_LIMIT
from .simnet import Partition

_MISSING = object()


def _parse_partitions(raw: str) -> tuple[Partition, ...]:
    """Syntax: "start-end:ids|ids" with ";" between windows, e.g. "30-60:0,1|2,3"."""
    raw = raw.strip()
    if not raw:
        return ()
    out = []
    for chunk in raw.split(";"):
        try:
            window, sides = chunk.split(":", 1)
            start, end = (float(x) for x in window.split("-", 1))
            a, b = sides.split("|", 1)
            side_a = frozenset(int(x) for x in a.split(",") if x != "")
            side_b = frozenset(int(x) for x in b.split(",") if x != "")
        except ValueError as exc:
            raise ValueError(f"bad partition window {chunk!r}") from exc
        if not start < end or not side_a or not side_b or side_a & side_b:
            raise ValueError(f"bad partition window {chunk!r}")
        out.append(Partition(start_s=start, end_s=end,
                             side_a=side_a, side_b=side_b))
    return tuple(out)


def _bound_text(bound: float) -> str:
    """`bound` in the fewest decimals that parse back exactly, at most 1,074 for
    a double, with no exponent (the window syntax splits on "-"): "30", "30.5"."""
    places = next(n for n in range(1075) if float(f"{bound:.{n}f}") == bound)
    return f"{bound:.{places}f}"


def _parse_list(kind: type):
    """A parser of comma-separated `kind` values; a blank value is empty."""
    def parse(raw: str) -> tuple:
        raw = raw.strip()
        return tuple(kind(x.strip()) for x in raw.split(",")) if raw else ()
    return parse


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low, f"at least {low}")


def _within(low: float, high: float) -> tuple:
    return (lambda v: low <= v <= high, f"in [{low}, {high}]")


_POSITIVE = (lambda v: v > 0, "positive")

# key -> (parser, default, domain). A _MISSING default must be supplied by
# the preset or config file. A domain is the set of allowed values or a
# (test, phrase) pair; _coerce rejects a value outside it, or a list value
# with an element outside it. None leaves the parser's syntax as the whole
# domain.
SCHEMA: dict[str, tuple] = {
    # names the report files and fills the CSV's first field
    "scenario.id": (str, _MISSING,
                    (lambda v: re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", v),
                     "a name of letters, digits, '.', '_' and '-' that "
                     "starts with a letter or digit")),
    "scenario.paradigm": (str, _MISSING, {"chain", "lattice"}),
    "scenario.horizon_s": (float, 60.0, _POSITIVE),

    "net.nodes": (int, 4, _at_least(1)),
    "net.topology": (str, "mesh", {"mesh", "ring"}),
    "net.base_latency_ms": (float, 50.0, _at_least(0)),
    "net.jitter_ms": (float, 0.0, _at_least(0)),
    "net.drop_prob": (float, 0.0, (lambda v: 0 <= v < 1, "in [0, 1)")),
    "net.partitions": (_parse_partitions, (), None),

    "chain.consensus": (str, "lottery", {"lottery", "grind", "pos"}),
    "chain.block_interval_s": (float, 2.0, _POSITIVE),  # PoW target or PoS slot
    # one entry per miner, under lottery and grind
    "chain.hash_rates": (_parse_list(float), (1.0, 1.0, 1.0), _at_least(0)),
    "chain.capacity_units": (int, 2500, _at_least(1)),
    "chain.tx_weight": (int, 250, _at_least(1)),
    "chain.block_reward": (int, 50, _at_least(0)),
    "chain.confirm_threshold": (int, 6, _at_least(1)),
    "chain.prune_keep_recent": (int, 0, _at_least(0)),  # 0 = keep everything
    "chain.reorg_safety": (int, 128, _at_least(0)),
    "chain.accounts": (int, 20, _at_least(2)),  # a sender pays another account
    "chain.genesis_amount": (int, 1_000_000, _at_least(0)),
    "chain.tx_rate_per_s": (float, 6.0, _at_least(0)),
    "chain.max_amount": (int, 5, _at_least(1)),

    "pow.difficulty_bits": (int, 3, _within(0, 255)),
    "pow.retarget_window": (int, 16, _at_least(1)),

    "pos.stakes": (_parse_list(int), (), _at_least(0)),  # one deposit per validator

    "lattice.accounts": (int, 12, _at_least(2)),
    "lattice.representatives": (int, 3, _at_least(1)),
    "lattice.genesis_amount": (int, 1_000_000, _at_least(0)),
    "lattice.spam_difficulty_bits": (int, 0, _within(0, GRIND_BITS_LIMIT)),
    "lattice.quorum_fraction": (float, 0.5, (lambda v: 0 < v < 1, "in (0, 1)")),
    "lattice.gap_buffer": (int, 10_000, _at_least(0)),
    "lattice.send_rate_per_account_s": (float, 0.2, _at_least(0)),
    "lattice.max_amount": (int, 5, _at_least(1)),
    "lattice.offline_accounts": (int, 0, _at_least(0)),
    # per node; empty = all historical
    "lattice.tiers": (_parse_list(str), (), {"historical", "current"}),

    "fork.interval_s": (float, 0.0, _at_least(0)),  # 0 = no injected conflicts
    "fork.attackers": (int, 0, _at_least(0)),
}


def account_names(count: int) -> list[str]:
    return [f"acct-{i:02d}" for i in range(count)]


def representative_names(count: int, reps: int) -> list[str]:
    """Representatives spread evenly through the account list; for reps <=
    count the points i * count / reps lie 1 or more apart, so none collide."""
    names = account_names(count)
    return [names[round(i * count / reps)] for i in range(reps)]


@dataclass(frozen=True)
class LatticeRoles:
    """The account names of a lattice run, grouped by the part each plays."""
    names: list[str]
    representatives: list[str]
    offline: frozenset[str]
    attackers: list[str]
    senders: list[str]
    recipients: list[str]


@dataclass(frozen=True)
class Config:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def scenario_id(self) -> str:
        return self.values["scenario.id"]

    @property
    def paradigm(self) -> str:
        return self.values["scenario.paradigm"]

    @property
    def lattice_roles(self) -> LatticeRoles:
        """Who holds which role in a lattice run; the last accounts go offline.

        Attackers only equivocate. Scripted sends or receives on the same
        account would race the injected pair and hand representatives a third
        candidate; single-round voting cannot recover from a three-way split.
        """
        count = self.values["lattice.accounts"]
        names = account_names(count)
        reps = representative_names(count, self.values["lattice.representatives"])
        offline = frozenset(names[count - self.values["lattice.offline_accounts"]:])
        attackers: list[str] = []
        if self.values["fork.interval_s"] > 0:
            attackers = [a for a in names if a not in offline and a not in reps]
            attackers = attackers[:self.values["fork.attackers"]]
        return LatticeRoles(
            names=names, representatives=reps, offline=offline,
            attackers=attackers,
            senders=[a for a in names if a not in offline and a not in attackers],
            recipients=[a for a in names if a not in attackers])

    def snapshot_lines(self) -> list[str]:
        """The full effective config, one canonical line per key."""
        out = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple) and val and isinstance(val[0], Partition):
                val = ";".join(
                    f"{_bound_text(p.start_s)}-{_bound_text(p.end_s)}:"
                    f"{','.join(str(i) for i in sorted(p.side_a))}|"
                    f"{','.join(str(i) for i in sorted(p.side_b))}"
                    for p in val)
            elif isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            out.append(f"{key} = {val}")
        return out


def _coerce(key: str, raw: str) -> object:
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key: {key}")
    if not isinstance(raw, str):
        raise ConfigError(f"bad value for {key}: {raw!r} (expected text)")
    parser, _, domain = SCHEMA[key]
    try:
        value = parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    items = value if isinstance(value, tuple) else (value,)
    for item in items:
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"bad value for {key}: {item!r} (expected a finite number)")
    if domain is not None:
        test, phrase = ((domain.__contains__, f"one of {sorted(domain)}")
                        if isinstance(domain, set) else domain)
        for item in items:
            if not test(item):
                raise ConfigError(
                    f"bad value for {key}: {item!r} (expected {phrase})")
    return value


def build_config(base: dict[str, str], overrides: list[str] = ()) -> Config:
    values = {}
    for key, (_, default, _) in SCHEMA.items():
        values[key] = default
    for key, raw in base.items():
        values[key] = _coerce(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw)
    missing = [k for k, v in values.items() if v is _MISSING]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(sorted(missing))}")
    cfg = Config(values=values)
    for window in cfg["net.partitions"]:
        for node in sorted(window.side_a | window.side_b):
            if not 0 <= node < cfg["net.nodes"]:
                raise ConfigError(f"net.partitions names node {node}, "
                                  f"but net.nodes is {cfg['net.nodes']}")
    if cfg.paradigm == "chain":
        _cross_validate_chain(cfg)
    else:
        _cross_validate_lattice(cfg)
    return cfg


# Rules that tie two or more keys together; each key's own domain is in SCHEMA.

def _cross_validate_chain(cfg: Config) -> None:
    consensus = cfg["chain.consensus"]
    if consensus == "pos":
        stakes = cfg["pos.stakes"]
        if not stakes:
            raise ConfigError("pos.stakes is required for pos consensus")
        if len(stakes) > cfg["net.nodes"]:
            raise ConfigError("more pos.stakes than nodes to host them")
        if not any(stakes):
            raise ConfigError("pos consensus needs at least one positive stake")
    else:
        rates = cfg["chain.hash_rates"]
        if len(rates) > cfg["net.nodes"]:
            raise ConfigError("more chain.hash_rates than nodes to host them")
        if not any(rates):  # empty, or no miner could ever find a block
            raise ConfigError(f"{consensus} consensus needs at least one positive hash rate")
    if consensus == "grind":
        if cfg["pow.difficulty_bits"] > GRIND_BITS_LIMIT:
            raise ConfigError(
                f"pow.difficulty_bits above {GRIND_BITS_LIMIT} is not "
                f"searchable in grind mode")
        # Retargeting settles near log2(total hash rate * target interval)
        # bits, so that product is bounded too. A config under the bound can
        # still be slow, as a 24-bit genesis already is: each block mined at
        # 24 bits takes about 2**24 hashes.
        total_rate = sum(cfg["chain.hash_rates"])
        interval = cfg["chain.block_interval_s"]
        if total_rate * interval > 2 ** GRIND_BITS_LIMIT:
            raise ConfigError(
                f"chain.hash_rates total {total_rate:g} times chain.block_interval_s "
                f"{interval:g} exceeds 2**{GRIND_BITS_LIMIT}: grind mode would "
                f"retarget past {GRIND_BITS_LIMIT} bits")
    if cfg["chain.tx_weight"] > cfg["chain.capacity_units"]:
        raise ConfigError(
            "chain.tx_weight exceeds chain.capacity_units: no transaction fits a block")
    keep = cfg["chain.prune_keep_recent"]
    if keep and keep < cfg["chain.reorg_safety"]:
        raise ConfigError(
            "chain.prune_keep_recent must be 0 or at least chain.reorg_safety")


def _cross_validate_lattice(cfg: Config) -> None:
    if cfg["lattice.representatives"] > cfg["lattice.accounts"]:
        raise ConfigError("more representatives than accounts")
    if cfg["lattice.offline_accounts"] >= cfg["lattice.accounts"]:
        raise ConfigError("lattice.offline_accounts must leave active accounts")
    tiers = cfg["lattice.tiers"]
    if tiers and len(tiers) != cfg["net.nodes"]:
        raise ConfigError("lattice.tiers length must equal net.nodes")
    if cfg["fork.interval_s"] > 0 and cfg["fork.attackers"] < 1:
        raise ConfigError("fork.interval_s needs fork.attackers >= 1")
    roles = cfg.lattice_roles
    if roles.offline & set(roles.representatives):
        raise ConfigError("offline account range overlaps the representatives")
    if cfg["fork.interval_s"] > 0 and not roles.attackers:
        raise ConfigError("no eligible attacker accounts for fork injection")
    if roles.attackers and len(roles.names) < 3:
        raise ConfigError("an attacker needs two other accounts to pay")
    if any(set(roles.recipients) <= {s} for s in roles.senders):
        raise ConfigError("a sender has no recipient other than itself")


def parse_config_text(text: str) -> dict:
    """Raw key=value lines -> string dict; no schema checks yet."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key}")
        out[key] = raw.strip()
    return out


def load_config(path: str, overrides: list[str] = ()) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    return build_config(parse_config_text(text), overrides)


# ---------------------------------------------------------------------------
# Presets

# Config-file text, each line as `Config.snapshot_lines` prints it.
PRESETS: dict[str, str] = {
    # Lottery mining tuned to a 2 s target; saturated mempool, mild forking.
    "bitcoin-baseline": """
scenario.id = bitcoin-baseline
scenario.paradigm = chain
scenario.horizon_s = 560.0
net.nodes = 4
net.base_latency_ms = 100.0
net.jitter_ms = 20.0
chain.capacity_units = 2500
chain.tx_weight = 250
chain.tx_rate_per_s = 6.0
pow.difficulty_bits = 3
""",
    # Same engine, smaller blocks arriving faster.
    "ethereum-baseline": """
scenario.id = ethereum-baseline
scenario.paradigm = chain
scenario.horizon_s = 300.0
net.nodes = 4
net.base_latency_ms = 100.0
net.jitter_ms = 20.0
chain.block_interval_s = 1.0
chain.capacity_units = 210000
chain.tx_weight = 21000
chain.block_reward = 5
chain.tx_rate_per_s = 12.0
pow.difficulty_bits = 2
""",
    # Stake-weighted slot leaders instead of work.
    "pos-baseline": """
scenario.id = pos-baseline
scenario.paradigm = chain
scenario.horizon_s = 200.0
net.nodes = 5
net.base_latency_ms = 50.0
chain.consensus = pos
chain.block_interval_s = 1.0
chain.capacity_units = 2500
chain.tx_weight = 250
chain.block_reward = 10
chain.tx_rate_per_s = 6.0
pos.stakes = 100,200,300,400
""",
    # Block lattice at rest: steady small transfers, no adversary.
    "nano-baseline": """
scenario.id = nano-baseline
scenario.paradigm = lattice
scenario.horizon_s = 120.0
net.nodes = 6
net.base_latency_ms = 50.0
net.jitter_ms = 10.0
lattice.accounts = 12
lattice.representatives = 3
lattice.spam_difficulty_bits = 4
lattice.send_rate_per_account_s = 0.2
lattice.offline_accounts = 1
""",
    # Ledger growth and throughput as the account population widens;
    # sweep lattice.accounts via --override.
    "nano-scaling": """
scenario.id = nano-scaling
scenario.paradigm = lattice
scenario.horizon_s = 80.0
net.nodes = 6
net.base_latency_ms = 50.0
lattice.accounts = 10
lattice.representatives = 3
lattice.spam_difficulty_bits = 0
lattice.send_rate_per_account_s = 0.25
lattice.tiers = historical,historical,historical,historical,historical,current
""",
    # Deliberate equivocation under a split delivery schedule.
    "fork-stress": """
scenario.id = fork-stress
scenario.paradigm = lattice
scenario.horizon_s = 100.0
net.nodes = 6
net.base_latency_ms = 50.0
net.jitter_ms = 10.0
lattice.accounts = 12
lattice.representatives = 3
lattice.spam_difficulty_bits = 2
lattice.send_rate_per_account_s = 0.1
fork.interval_s = 10.0
fork.attackers = 2
""",
    # A healed network split and the reorg that follows it.
    "partition-stress": """
scenario.id = partition-stress
scenario.paradigm = chain
scenario.horizon_s = 120.0
net.nodes = 4
net.base_latency_ms = 100.0
net.partitions = 30-60:0,1|2,3
chain.hash_rates = 1.0,1.0,1.0,1.0
chain.capacity_units = 2500
chain.tx_weight = 250
chain.tx_rate_per_s = 4.0
pow.difficulty_bits = 3
""",
}


def preset_config(name: str, overrides: list[str] = ()) -> Config:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return build_config(parse_config_text(PRESETS[name]), overrides)
