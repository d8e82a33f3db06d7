"""Run configuration: INI-style config files for experiments.

A config file has sections [run], [trust], [difficulty], [csc], [sac],
[simulation], [population], and optionally [sensing-experiment] and
[demo]. Every bundled preset under configs/ is a complete example.
OPTIONS lists the options each section accepts; an option left out takes
the default of the dataclass field it names (TrustParams,
DifficultyParams, SimConfig or RunConfig), and any other option in these
sections is rejected.

Population entries are `kind = count, p_d, p_f, participation, attack_period`,
one line per node kind.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .consensus import DifficultyParams
from .simnet import (
    NodeKind,
    NodeProfile,
    PopulationGroup,
    SelectionScheme,
    SimConfig,
)
from .trust import TrustParams, check_onoff_resistance

EXPERIMENTS = ("mining-cost", "sensing", "onoff", "demo-round")

KIND_BY_NAME = {
    "rnode": NodeKind.RNODE,
    "oonode": NodeKind.OONODE,
    "lnode": NodeKind.LNODE,
    "uanode": NodeKind.UANODE,
}


class ConfigInvalid(Exception):
    """Names the offending config field in its message."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass
class RunConfig:
    experiment: str
    sim: SimConfig
    output_dir: str = "out"
    n1_sweep: tuple[int, ...] = (3, 5, 7, 20)
    rounds_per_point: int = 500
    pu_force: str = "idle"          # demo-round only

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid("run.experiment",
                                f"must be one of {', '.join(EXPERIMENTS)}")
        if not self.sim.population:
            raise ConfigInvalid("population", "at least one node kind required")
        trust = self.sim.trust
        try:
            trust.validate()
        except ValueError as exc:
            raise ConfigInvalid("trust", str(exc)) from exc
        try:
            self.sim.difficulty.validate()
        except ValueError as exc:
            raise ConfigInvalid("difficulty", str(exc)) from exc
        for group in self.sim.population:
            try:
                group.profile.validate()
            except ValueError as exc:
                raise ConfigInvalid("population", str(exc)) from exc
            if group.count < 1:
                raise ConfigInvalid("population", "count must be >= 1")
        if self.experiment != "demo-round" and not check_onoff_resistance(
                trust.rho, trust.eta):
            raise ConfigInvalid(
                "trust.rho",
                f"on-off resistance requires rho > eta/(1-exp(-eta)) - eta; "
                f"rho={trust.rho} fails the bound for eta={trust.eta}")
        if self.experiment == "sensing" and not self.n1_sweep:
            raise ConfigInvalid("sensing-experiment.n1_sweep", "empty sweep")
        if self.pu_force not in ("none", "idle"):
            raise ConfigInvalid("demo.pu_force", "must be 'none' or 'idle'")
        sim = self.sim
        ranges = (
            ("run.rounds", sim.rounds >= 0, "must be >= 0"),
            ("simulation.warmup_rounds",
             sim.warmup_rounds is None or sim.warmup_rounds >= 0, "must be >= 0"),
            ("csc.n1", sim.n1 >= 1, "must be >= 1"),
            ("csc.tv_thr", 0.0 <= sim.tv_thr <= 1.0, "outside [0, 1]"),
            ("csc.d_s", sim.d_s > 0, "must be > 0"),
            ("sac.n2", sim.n2 >= 1, "must be >= 1"),
            ("sac.d_a", sim.d_a > 0, "must be > 0"),
            ("sac.commit_cap", sim.commit_cap >= 1, "must be >= 1"),
            ("simulation.p_active", 0.0 <= sim.p_active <= 1.0, "outside [0, 1]"),
            ("simulation.bid_min", sim.bid_min >= 0, "must be >= 0"),
            ("simulation.bid_max", sim.bid_max >= sim.bid_min,
             "must be >= simulation.bid_min"),
        )
        for name, ok, message in ranges:
            if not ok:
                raise ConfigInvalid(name, message)


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


_PROFILE_FIELDS = (("p_d", float), ("p_f", float), ("participation", float),
                   ("attack_period", int))


def _population(parser) -> tuple[PopulationGroup, ...]:
    if not parser.has_section("population"):
        raise ConfigInvalid("population", "missing section")
    groups = []
    for key, raw in parser.items("population"):
        kind = KIND_BY_NAME.get(key.lower())
        if kind is None:
            raise ConfigInvalid(f"population.{key}", "unknown node kind")
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) not in (3, 4, 5):
            raise ConfigInvalid(f"population.{key}",
                                "expect count, p_d, p_f[, participation[, attack_period]]")
        try:
            count = int(parts[0])
            profile = {name: conv(part) for (name, conv), part
                       in zip(_PROFILE_FIELDS, parts[1:])}
        except ValueError as exc:
            raise ConfigInvalid(f"population.{key}", f"bad value in {raw!r}") from exc
        groups.append(PopulationGroup(profile=NodeProfile(kind=kind, **profile),
                                      count=count))
    return tuple(groups)


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


# section -> option -> converter. Every option is named after the
# dataclass field it sets; [population] lines are parsed by _population.
OPTIONS = {
    "run": {"seed": int, "experiment": str, "rounds": int, "output_dir": str},
    "trust": {"rho": float, "eta": float, "window": int, "k1": int, "k2": int,
              "r1": float, "r2": float},
    "difficulty": {"beta0": int, "t0_ms": int, "beta_min": int},
    "csc": {"n1": int, "tv_thr": float, "d_s": int, "reward_sensing": int},
    "sac": {"n2": int, "d_a": int, "commit_cap": int},
    "simulation": {"selection": SelectionScheme, "warmup_rounds": int,
                   "reward_mining": int, "p_active": float,
                   "initial_balance": int, "chain_beta": int, "rsa_bits": int,
                   "bid_probability": float, "bid_min": int, "bid_max": int,
                   "inject_forks": _bool},
    "sensing-experiment": {"n1_sweep": _int_list, "rounds_per_point": int},
    "demo": {"pu_force": str},
}
_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))


def _section(parser, section: str) -> dict:
    """The options the file sets in `section`, converted; blank means unset."""
    if not parser.has_section(section):
        return {}
    converters = OPTIONS[section]
    values = {}
    for option, raw in parser.items(section):
        conv = converters.get(option)
        if conv is None:
            raise ConfigInvalid(f"{section}.{option}", "unknown option")
        if not raw:
            continue
        try:
            values[option] = conv(raw)
        except ValueError as exc:
            raise ConfigInvalid(f"{section}.{option}", f"bad value {raw!r}") from exc
    return values


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid("config", f"file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigInvalid("config", f"parse error: {exc}") from exc

    values = {section: _section(parser, section) for section in OPTIONS}
    trust = TrustParams(**values.pop("trust"))
    difficulty = DifficultyParams(**values.pop("difficulty"))
    run_kw, sim_kw = {}, {}
    for section_values in values.values():
        for option, value in section_values.items():
            (run_kw if option in _RUN_FIELDS else sim_kw)[option] = value
    if "experiment" not in run_kw:
        raise ConfigInvalid("run.experiment", "missing required option")
    sim = SimConfig(trust=trust, difficulty=difficulty,
                    population=_population(parser), **sim_kw)
    cfg = RunConfig(sim=sim, **run_kw)
    cfg.validate()
    return cfg
