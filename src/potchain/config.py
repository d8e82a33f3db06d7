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
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .consensus import DifficultyParams
from .ledger import U16
from .simnet import (
    DEMO_BIDS,
    DEMO_TRUSTS,
    NodeKind,
    NodeProfile,
    PopulationGroup,
    SelectionScheme,
    SettingInvalid,
    SimConfig,
    recovery_probe,
)
from .trust import TrustParams, check_onoff_resistance

EXPERIMENTS = ("mining-cost", "sensing", "onoff", "demo-round")
AC4_POINTS = (3, 5, 7)      # the n1 whose pd AC4 compares across schemes

KIND_BY_NAME = {
    "rnode": NodeKind.RNODE,
    "oonode": NodeKind.OONODE,
    "lnode": NodeKind.LNODE,
    "uanode": NodeKind.UANODE,
}


class ConfigInvalid(SettingInvalid):
    """Names the offending config field in its message."""


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
        _validate_sim(self.sim)
        trust = self.sim.trust
        if self.experiment != "demo-round" and not check_onoff_resistance(
                trust.rho, trust.eta):
            raise ConfigInvalid(
                "trust.rho",
                f"on-off resistance requires rho > eta/(1-exp(-eta)) - eta; "
                f"rho={trust.rho} fails the bound for eta={trust.eta}")
        kinds = {group.profile.kind for group in self.sim.population}
        if self.experiment == "mining-cost" and (NodeKind.RNODE not in kinds or len(kinds) < 2):
            raise ConfigInvalid("population", "a mining-cost run compares the Rnodes' "
                                "cost with the other kinds', so it needs both")
        if self.experiment == "mining-cost" and self.sim.rounds <= self.sim.warmup:
            raise ConfigInvalid(
                "run.rounds", f"a mining-cost run averages the rounds after its "
                f"{self.sim.warmup} warm-up rounds, so it needs more than {self.sim.warmup}")
        if any(not 1 <= n1 < U16 for n1 in self.n1_sweep):
            raise ConfigInvalid("sensing-experiment.n1_sweep", "an n1 outside [1, 2^16)")
        if self.rounds_per_point < 1:
            raise ConfigInvalid("sensing-experiment.rounds_per_point", "must be >= 1")
        # each World an experiment builds checks the settings again at its own length
        if self.experiment == "sensing":
            _validate_sim(replace(self.sim, rounds=self.sim.warmup + self.rounds_per_point))
        if self.experiment == "onoff":
            _validate_sim(replace(self.sim, rounds=recovery_probe(self.sim)[1]))
        population = sum(group.count for group in self.sim.population)
        if self.experiment == "sensing" and not (set(AC4_POINTS) & set(self.n1_sweep)
                                                 or max(self.n1_sweep, default=0) >= population):
            raise ConfigInvalid(
                "sensing-experiment.n1_sweep", f"holds no n1 in {AC4_POINTS} and none that "
                f"seats all {population} nodes, so every AC4 check would be skipped")
        if self.pu_force not in ("none", "idle"):
            raise ConfigInvalid("demo.pu_force", "must be 'none' or 'idle'")
        if self.experiment == "demo-round":
            scripted = [1.0] * len(DEMO_TRUSTS) + [0.0] * len(DEMO_BIDS)
            if population != len(scripted) or scripted != [
                    group.profile.participation for group in self.sim.population
                    for _ in range(group.count)]:
                raise ConfigInvalid(
                    "population", f"demo-round scripts {len(DEMO_TRUSTS)} sensors "
                    f"(participation 1) then {len(DEMO_BIDS)} bidders (participation 0)")


def _validate_sim(sim: SimConfig) -> None:
    try:
        sim.validate()
    except SettingInvalid as exc:
        section = _SECTION_OF.get(exc.field_name)
        name = f"{section}.{exc.field_name}" if section else exc.field_name
        raise ConfigInvalid(name, exc.message) from exc


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
    "difficulty": {"beta0": int},
    "csc": {"n1": int, "tv_thr": float, "d_s": int, "reward_sensing": int},
    "sac": {"n2": int, "d_a": int},
    "simulation": {"selection": SelectionScheme, "warmup_rounds": int,
                   "p_active": float, "initial_balance": int, "rsa_bits": int,
                   "bid_probability": float, "inject_forks": _bool},
    "sensing-experiment": {"n1_sweep": _int_list, "rounds_per_point": int},
    "demo": {"pu_force": str},
}
_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))
_SECTION_OF = {option: section for section, options in OPTIONS.items()
               for option in options}


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
    parser = configparser.ConfigParser(interpolation=None)     # a value is its text, % and all
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
