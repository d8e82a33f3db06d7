"""Config loading, validation gates, CLI commands, artifact determinism."""

import configparser
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from potchain import cli, consensus, crypto, pool
from potchain.config import OPTIONS, ConfigInvalid, RunConfig, load_config
from potchain.consensus import DifficultyParams
from potchain.simnet import SimConfig
from potchain.trust import TrustParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[run]
seed = 3
experiment = {experiment}
rounds = 4
output_dir = out

[trust]
rho = {rho}
eta = {eta}

[difficulty]
beta0 = 262144

[csc]
n1 = 4
tv_thr = 0.0
d_s = 100
reward_sensing = 150

[sac]
n2 = 4
d_a = 100

[simulation]
rsa_bits = 64
warmup_rounds = 1

[population]
rnode = 3, 0.9, 0.15
lnode = 2, 0.5, 0.5
"""


def write_cfg(tmp_path, experiment="mining-cost", rho="1.0", eta="1.0"):
    path = tmp_path / "test.cfg"
    path.write_text(MINIMAL.format(experiment=experiment, rho=rho, eta=eta))
    return path


# =============================================================================
# config loading
# =============================================================================

def test_bundled_configs_all_validate():
    for name in ("mining_cost.cfg", "sensing_schemes.cfg", "trust_curves.cfg",
                 "demo_round.cfg", "smoke.cfg"):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.experiment in ("mining-cost", "sensing", "onoff", "demo-round")


def test_config_population_parsed():
    cfg = load_config(CONFIG_DIR / "mining_cost.cfg")
    counts = {g.profile.kind.value: g.count for g in cfg.sim.population}
    assert counts == {"Rnode": 12, "OOnode": 3, "Lnode": 3, "UAnode": 2}
    oo = next(g.profile for g in cfg.sim.population
              if g.profile.kind.value == "OOnode")
    assert oo.attack_period == 3
    ua = next(g.profile for g in cfg.sim.population
              if g.profile.kind.value == "UAnode")
    assert ua.participation == 0.5


def test_config_missing_experiment(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nseed = 1\n[population]\nrnode = 2, 0.9, 0.1\n")
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert "run.experiment" in str(err.value)


def test_config_unknown_scheme(tmp_path):
    path = write_cfg(tmp_path)
    text = path.read_text().replace("[simulation]\nrsa_bits = 64",
                                    "[simulation]\nrsa_bits = 64\nselection = best")
    path.write_text(text)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert "simulation.selection" in str(err.value)


def test_config_theorem_gate_names_bound(tmp_path):
    path = write_cfg(tmp_path, rho="0.3", eta="1.0")
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    message = str(err.value)
    assert "trust.rho" in message
    assert "rho > eta/(1-exp(-eta)) - eta" in message


def test_config_missing_file():
    with pytest.raises(ConfigInvalid):
        load_config("/nonexistent/path.cfg")


def test_config_bad_population_line(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("rnode = 3, 0.9, 0.15",
                                             "rnode = lots"))
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert "population.rnode" in str(err.value)


def test_config_defaults_come_from_the_dataclasses(tmp_path):
    path = tmp_path / "bare.cfg"
    path.write_text("[run]\nexperiment = mining-cost\n"
                    "[population]\nrnode = 2, 0.9, 0.1\nlnode = 1, 0.5, 0.5\n")
    cfg = load_config(path)
    assert cfg.sim.trust == TrustParams()
    assert cfg.sim.difficulty == DifficultyParams()
    assert cfg.sim.rsa_bits == crypto.DEFAULT_RSA_BITS
    assert cfg.sim == SimConfig(population=cfg.sim.population)
    assert cfg == RunConfig(experiment="mining-cost", sim=cfg.sim)


U64 = str(1 << 64)

REJECTED = [
    ("sac", {"n2": "0"}, "sac.n2"),
    ("sac", {"n2": "65536"}, "sac.n2"),
    ("sac", {"d_a": "0"}, "sac.d_a"),
    ("sac", {"d_a": U64}, "sac.d_a"),
    ("csc", {"n1": "65536"}, "csc.n1"),
    ("csc", {"tv_thr": "1.5"}, "csc.tv_thr"),
    ("csc", {"d_s": "0"}, "csc.d_s"),
    ("csc", {"d_s": U64}, "csc.d_s"),
    ("csc", {"reward_sensing": "-1"}, "csc.reward_sensing"),
    ("simulation", {"initial_balance": "-1"}, "simulation.initial_balance"),
    # no room for the rewards of rounds = 4
    ("simulation", {"initial_balance": str((1 << 64) - 1)}, "simulation.initial_balance"),
    ("difficulty", {"beta0": "1"}, "difficulty.beta0"),
    ("simulation", {"rsa_bits": "2041"}, "simulation.rsa_bits"),
    ("simulation", {"warmup_rounds": "-1"}, "simulation.warmup_rounds"),
    ("simulation", {"rsa_bit": "64"}, "simulation.rsa_bit"),
    ("simulation", {"stochastic_mining": "true"}, "simulation.stochastic_mining"),
    # deleted options fail the load, as any unknown option does
    ("difficulty", {"t0_ms": "7"}, "difficulty.t0_ms"),
    ("difficulty", {"beta_min": "2"}, "difficulty.beta_min"),
    ("sac", {"commit_cap": "1"}, "sac.commit_cap"),
    ("simulation", {"chain_beta": "16"}, "simulation.chain_beta"),
    ("simulation", {"reward_mining": "50"}, "simulation.reward_mining"),
    ("simulation", {"bid_min": "50"}, "simulation.bid_min"),
    ("simulation", {"bid_max": "300"}, "simulation.bid_max"),
    # a sweep point or length the sensing run would refuse mid-run
    ("sensing-experiment", {"n1_sweep": "0, 5"}, "sensing-experiment.n1_sweep"),
    ("sensing-experiment", {"n1_sweep": "70000"}, "sensing-experiment.n1_sweep"),
    ("sensing-experiment", {"rounds_per_point": "-20"}, "sensing-experiment.rounds_per_point"),
    ("sensing-experiment", {"rounds_per_point": "0"}, "sensing-experiment.rounds_per_point"),
    ("simulation", {"bid_probability": "7"}, "simulation.bid_probability"),
    ("simulation", {"bid_probability": "nan"}, "simulation.bid_probability"),
    # judged by the on-off bound, which reads 1 at the tiniest eta, not a division by zero
    ("trust", {"eta": "1e-17"}, "trust.rho"),
]


def case_ids(cases):
    """Each case's field name, plus its value where an earlier case names
    the same field."""
    seen, ids = set(), []
    for _section, options, field_name in cases:
        ids.append(f"{field_name}={','.join(options.values())}"
                   if field_name in seen else field_name)
        seen.add(field_name)
    return ids


def write_cfg_with(tmp_path, section, options):
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL.format(experiment="mining-cost", rho="1.0", eta="1.0"))
    if not parser.has_section(section):
        parser.add_section(section)
    for option, value in options.items():
        parser.set(section, option, value)
    path = tmp_path / "test.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize("section, options, field_name", REJECTED,
                         ids=case_ids(REJECTED))
def test_config_rejects_bad_setting(tmp_path, capsys, section, options, field_name):
    path = write_cfg_with(tmp_path, section, options)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == field_name
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"config invalid - {field_name}: ")
    assert "Traceback" not in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["rho", "eta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_demo_round_refuses_a_non_finite_trust_coefficient(tmp_path, capsys, option, value):
    """A demo round skips the on-off bound, the only check a NaN rho used
    to fail; the trust section refuses it, naming the coefficient."""
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "demo_round.cfg")
    parser.set("trust", option, value)
    path = tmp_path / "demo.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    message = f"{option} must be positive and finite"
    assert (err.value.field_name, err.value.message) == ("trust", message)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config invalid - trust: {message}\n"


def test_a_percent_sign_in_a_value_is_plain_text(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("output_dir = out", "output_dir = out/100%"))
    assert load_config(path).output_dir == "out/100%"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POTCHAIN_OUT", raising=False)
    assert cli.main(["run", str(path)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
    assert (tmp_path / "out" / "100%" / "summary.txt").exists()


# Text an edit may set any option or population field to: values that
# straddle the bounds (NaN, infinities, negatives, zero, the tiniest
# positive, the edges of [0, 1], 2^64 and past), wrong case, blanks, and
# text with a percent sign.
EDGES = ("", "nan", "NaN", "inf", "-inf", "-1", "-0.0", "0", "5e-324", "1e-17", "0.5",
         "1", "1.5", "7", "3", "20", str(1 << 64), "1e400", "out/100%", "%(seed)s", "True",
         "OFF", "idle", "Idle", "Trust-Value", "random", "MINING-COST", "demo-round",
         "3, 5", "4, 19")
PRESETS = tuple((CONFIG_DIR / name).read_text() for name in (
    "mining_cost.cfg", "sensing_schemes.cfg", "trust_curves.cfg", "demo_round.cfg", "smoke.cfg"))
KINDS = ("rnode", "Rnode", "OONODE", "lnode", "uanode", "xnode")


@st.composite
def edited_presets(draw):
    """The text of a bundled preset with one to three edits, each setting or
    deleting one option, or setting a population line, or one field of one."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(draw(st.sampled_from(PRESETS)))
    slots = [(section, option) for section, options in OPTIONS.items() for option in options]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            section, option = draw(st.sampled_from(slots))
            if not parser.has_section(section):
                parser.add_section(section)
        else:
            section, option = "population", draw(st.sampled_from(KINDS)).lower()
        value = draw(st.sampled_from((None,) + EDGES))
        if section == "population" and value is not None and parser.has_option(section, option):
            parts = parser.get(section, option).split(",")
            i = draw(st.integers(0, len(parts)))      # len(parts): a field past the last
            value = ",".join(parts[:i] + [value] + parts[i + 1:])
        if value is None:
            parser.remove_option(section, option)
        else:
            parser.set(section, option, value)
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=edited_presets())
def test_loading_an_edited_preset_gives_a_config_or_names_the_field(tmp_path, text):
    """`load_config` of any edited preset returns a RunConfig whose floats
    are finite and whose probabilities lie in [0, 1], or raises
    ConfigInvalid naming a section or <section>.<option>; never another
    exception."""
    path = tmp_path / "edited.cfg"
    path.write_text(text)
    try:
        cfg = load_config(path)
    except ConfigInvalid as exc:
        section, _, option = exc.field_name.partition(".")
        assert section in (*OPTIONS, "population")
        assert not option or section == "population" or option in OPTIONS[section]
        return
    sim, trust = cfg.sim, cfg.sim.trust
    profiles = [group.profile for group in sim.population]
    probabilities = [sim.tv_thr, sim.p_active, sim.bid_probability, trust.r1, trust.r2,
                     *(p for profile in profiles
                       for p in (profile.p_d, profile.p_f, profile.participation))]
    assert all(0.0 <= p <= 1.0 for p in probabilities)
    assert all(math.isfinite(x) for x in (trust.rho, trust.eta, *probabilities))


@pytest.mark.parametrize("z", [1, 9, 28])
def test_config_accepts_every_beta0_calibrate_recommends(tmp_path, z):
    """`potchain calibrate` recommends beta0 = 2^z for z in [1, 28]; 512 is
    below the chain's floor of 1024, which no config sets."""
    path = write_cfg_with(tmp_path, "difficulty", {"beta0": str(1 << z)})
    assert load_config(path).sim.difficulty.beta0 == 1 << z
    if z == 9:      # it runs; four rounds need not pass the AC3 band
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) in (0, 2)
        assert (tmp_path / "o" / "summary.txt").exists()


@pytest.mark.parametrize("rounds", ["12", "0"])
def test_a_mining_run_with_no_round_after_warmup_is_refused(tmp_path, capsys, rounds):
    """smoke.cfg warms up for 12 rounds; a run of 12 or fewer has no round
    to average, and is refused rather than skipping its checks."""
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "smoke.cfg")
    parser.set("run", "rounds", rounds)
    path = tmp_path / "short.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "run.rounds"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config invalid - run.rounds: ")
    assert not (tmp_path / "o").exists()
    parser.set("run", "rounds", "13")
    with path.open("w") as fh:
        parser.write(fh)
    assert load_config(path).sim.rounds == 13


@pytest.mark.parametrize("dropped", ["lnode = 2, 0.5, 0.5\n", "rnode = 3, 0.9, 0.15\n"],
                         ids=["rnode-only", "no-rnode"])
def test_a_mining_population_without_rnodes_and_another_kind_is_refused(
        tmp_path, capsys, dropped):
    """AC3 compares the Rnodes' mean cost with the other kinds': a
    population without both would check nothing, so it is refused rather
    than exiting 0."""
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace(dropped, ""))
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "population"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config invalid - population: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rnodes, loads", [(2 ** 64, False), (2 ** 16 - 8, False),
                                           (2 ** 16 - 9, True)],
                         ids=["2^64+8", "2^16", "2^16-1"])
def test_a_population_too_large_for_the_ring_size_field_is_refused(tmp_path, rnodes, loads):
    """Warm-up seats every node in one ring, whose size a ring signature
    writes in 2 bytes: with the preset's 8 other nodes, a population of
    2^16 or more is refused at load, and one node fewer loads."""
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "mining_cost.cfg")
    parser.set("population", "rnode", f"{rnodes}, 0.90, 0.15")
    path = tmp_path / "large.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    if loads:
        assert sum(group.count for group in load_config(path).sim.population) == 2 ** 16 - 1
        return
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "population"


def sensing_cfg(tmp_path, n1_sweep: str, rounds_per_point: str = "500"):
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "sensing_schemes.cfg")
    parser.set("sensing-experiment", "n1_sweep", n1_sweep)
    parser.set("sensing-experiment", "rounds_per_point", rounds_per_point)
    path = tmp_path / "sweep.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize("n1_sweep", ["10", "4, 19"])
def test_a_sweep_that_skips_every_ac4_check_is_refused(tmp_path, capsys, n1_sweep):
    """None of n1 = 3, 5, 7 and no n1 that seats all 20 nodes: the run
    would check nothing, so it is refused rather than exiting 0."""
    path = sensing_cfg(tmp_path, n1_sweep)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "sensing-experiment.n1_sweep"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config invalid - sensing-experiment.n1_sweep: ")
    assert not (tmp_path / "o").exists()
    for kept in ("20", "10, 7"):
        assert load_config(sensing_cfg(tmp_path, kept)).n1_sweep


def test_a_sweep_names_each_ac4_check_it_skips(tmp_path, capsys):
    path = sensing_cfg(tmp_path, "3", rounds_per_point="2")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) in (0, 2)
    lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == lines
    assert [line.split(":")[0] for line in lines if line.startswith("AC4")] == [
        "AC4-dominance-n3", "AC4-dominance-n5", "AC4-dominance-n7", "AC4-pd-at-5",
        "AC4-convergence"]
    assert "AC4-dominance-n5: SKIP (n1=5 not in the sweep)" in lines
    assert "AC4-dominance-n7: SKIP (n1=7 not in the sweep)" in lines
    assert "AC4-pd-at-5: SKIP (n1=5 not in the sweep)" in lines
    assert "AC4-convergence: SKIP (no n1 in the sweep seats the whole population of 20)" in lines
    assert not any(line.startswith("AC4-dominance-n3: SKIP") for line in lines)


@pytest.mark.parametrize("preset, edits, rounds", [
    ("sensing_schemes.cfg", {"simulation": {"initial_balance": "18446744073709550000"},
                             "sensing-experiment": {"n1_sweep": "5", "rounds_per_point": "2"}},
     12 + 2),
    ("trust_curves.cfg", {"run": {"rounds": "10"},
                          "simulation": {"initial_balance": "18446744073709546616"}},
     30 + 15 + 3 * 10 + 5),
], ids=["sensing-point", "recovery-probe"])
def test_a_balance_without_room_for_a_world_the_experiment_builds_is_refused(
        tmp_path, capsys, preset, edits, rounds):
    """The balance leaves room for the rewards of [run] rounds, but not for
    those of a longer World the experiment builds: a sensing point runs
    warm-up plus rounds_per_point rounds, and the on-off recovery probe
    runs past rounds = 10. The load refuses it, naming that length, so no
    run starts and fails midway."""
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / preset)
    for section, options in edits.items():
        for option, value in options.items():
            parser.set(section, option, value)
    path = tmp_path / preset
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "simulation.initial_balance"
    assert f"2^64 - {rounds} rounds" in err.value.message
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("config invalid - simulation.initial_balance: ")
    assert "Traceback" not in stderr
    assert not (tmp_path / "o").exists()


def test_an_onoff_run_names_the_node_type_it_lacks(tmp_path, capsys):
    path = write_cfg(tmp_path, experiment="onoff")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "AC6-ordering: FAIL (no OOnode in the population)" in capsys.readouterr().out


# =============================================================================
# CLI commands
# =============================================================================

def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_demo_exits_zero(tmp_path, capsys):
    rc = cli.main(["run", str(CONFIG_DIR / "demo_round.cfg"),
                   "--out", str(tmp_path / "demo")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "AC7-second-price: PASS" in out
    assert (tmp_path / "demo" / "summary.txt").exists()


@pytest.mark.parametrize("edit", ["drop-bidders", "bidders-sense", "extra-sensor"])
def test_run_demo_rejects_a_population_it_does_not_script(tmp_path, capsys, edit):
    parser = configparser.ConfigParser()
    parser.read(CONFIG_DIR / "demo_round.cfg")
    if edit == "drop-bidders":
        parser.remove_option("population", "uanode")
    elif edit == "bidders-sense":
        parser.set("population", "uanode", "2, 1.0, 0.0, 1.0")
    else:
        parser.set("population", "rnode", "6, 1.0, 0.0")
    path = tmp_path / "demo.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigInvalid) as err:
        load_config(path)
    assert err.value.field_name == "population"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "demo")]) == 1
    assert capsys.readouterr().err.startswith("config invalid - population: ")
    assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("config", ["demo_round.cfg", "smoke.cfg"])
def test_run_out_naming_a_file_is_an_io_error(tmp_path, capsys, config):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    assert cli.main(["run", str(CONFIG_DIR / config), "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("io error - ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert blocker.read_text() == "a file, not a directory\n"


def test_module_run_gives_no_runpy_warning():
    """`python -m potchain.cli` finds no potchain.cli already imported."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "potchain.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout


def test_run_small_experiment_writes_artifacts(tmp_path, capsys):
    path = write_cfg(tmp_path)
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "o1")])
    capsys.readouterr()
    # 4 rounds cannot land the cost-ratio band: expectation failure, exit 2
    assert rc == 2
    assert (tmp_path / "o1" / "mining.csv").exists()
    summary = (tmp_path / "o1" / "summary.txt").read_text()
    assert "AC3-ordering: PASS" in summary
    assert "AC3-ratio: FAIL" in summary


def test_run_invalid_config_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, rho="0.1")
    rc = cli.main(["run", str(path)])
    capsys.readouterr()
    assert rc == 1


def test_run_seed_override_changes_artifacts(tmp_path, capsys):
    path = write_cfg(tmp_path)
    cli.main(["run", str(path), "--out", str(tmp_path / "a"), "--seed", "1"])
    cli.main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "2"])
    capsys.readouterr()
    assert sha(tmp_path / "a" / "mining.csv") != sha(tmp_path / "b" / "mining.csv")


def test_env_var_overrides_output_dir(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path)
    monkeypatch.setenv("POTCHAIN_OUT", str(tmp_path / "env-out"))
    rc = cli.main(["run", str(path)])
    capsys.readouterr()
    assert rc in (0, 2)
    assert (tmp_path / "env-out" / "mining.csv").exists()


@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_an_explicit_out_beats_the_env_var(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("POTCHAIN_OUT", str(tmp_path / "env-out"))
    args = ([str(write_cfg(tmp_path))] if command == "run"
            else ["--max-z", "2", "--runs", "1"])
    rc = cli.main([command, *args, "--out", str(tmp_path / "flag-out")])
    capsys.readouterr()
    assert rc in (0, 2)
    written = "mining.csv" if command == "run" else "calibration.csv"
    assert (tmp_path / "flag-out" / written).exists()
    assert not (tmp_path / "env-out").exists()


def test_same_seed_twice_hash_identical(tmp_path, capsys):
    path = write_cfg(tmp_path)
    cli.main(["run", str(path), "--out", str(tmp_path / "r1")])
    cli.main(["run", str(path), "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    assert sha(tmp_path / "r1" / "mining.csv") == sha(tmp_path / "r2" / "mining.csv")
    assert sha(tmp_path / "r1" / "summary.txt") == sha(tmp_path / "r2" / "summary.txt")


def test_calibrate_writes_artifacts(tmp_path, capsys):
    rc = cli.main(["calibrate", "--max-z", "6", "--runs", "5",
                   "--out", str(tmp_path / "cal")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recommended base difficulty" in out
    runs = (tmp_path / "cal" / "mining_runs.csv").read_text().splitlines()
    assert runs[0] == "leading_zero_bits,run_index,trials,wall_ms"
    assert len(runs) == 1 + 6 * 5
    summary = (tmp_path / "cal" / "calibration.csv").read_text().splitlines()
    assert summary[0] == "z,mean_wall_ms,mean_trials"


def test_calibrate_mean_trials_tracks_expectation(tmp_path, capsys):
    rc = cli.main(["calibrate", "--max-z", "8", "--runs", "30",
                   "--out", str(tmp_path / "cal2")])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "cal2" / "calibration.csv").read_text().splitlines()[1:]
    for row in rows:
        z, _wall, mean_trials = row.split(",")
        z = int(z)
        if z >= 4:     # tiny z means are noisy at 30 runs
            assert abs(float(mean_trials) - 2 ** z) / 2 ** z < 0.5


def test_calibrate_starts_the_pool_before_its_first_timed_search(one_worker, tmp_path,
                                                                capsys, monkeypatch):
    pool.stop()
    pools, search = [], consensus.mine

    def mine(*args, **kwargs):
        pools.append((pool._workers_pid, len(pool._workers)))
        return search(*args, **kwargs)

    monkeypatch.setattr(consensus, "mine", mine)
    rc = cli.main(["calibrate", "--max-z", "2", "--runs", "2", "--out", str(tmp_path / "c")])
    capsys.readouterr()
    assert rc == 0
    assert pools[0] == (os.getpid(), 1)


def test_calibrate_rejects_silly_z(capsys):
    assert cli.main(["calibrate", "--max-z", "40"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_calibrate_rejects_no_runs(tmp_path, capsys, runs):
    rc = cli.main(["calibrate", "--max-z", "2", "--runs", runs,
                   "--out", str(tmp_path / "cal0")])
    assert rc == 1
    assert "--runs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "cal0").exists()


@pytest.mark.parametrize("t0_ms", ["0", "-5"])
def test_calibrate_rejects_a_non_positive_block_interval(tmp_path, capsys, t0_ms):
    rc = cli.main(["calibrate", "--max-z", "2", "--runs", "1", "--t0-ms", t0_ms,
                   "--out", str(tmp_path / "cal0")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "--t0-ms must be positive" in captured.err
    assert "recommended" not in captured.out
    assert not (tmp_path / "cal0").exists()


def test_calibrate_unwritable_output_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    rc = cli.main(["calibrate", "--max-z", "2", "--runs", "1", "--out", str(blocker)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("io error - ")
    assert "recommended" not in captured.out
    assert blocker.read_text() == "a file, not a directory\n"


def test_calibrate_wall_time_grows_with_target(tmp_path, capsys):
    # two-point isotonic check: 2^12 trials dwarf 2^8, noise cannot flip it
    rc = cli.main(["calibrate", "--max-z", "12", "--runs", "8",
                   "--out", str(tmp_path / "cal3")])
    capsys.readouterr()
    assert rc == 0
    rows = (tmp_path / "cal3" / "calibration.csv").read_text().splitlines()[1:]
    wall = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert wall[12] > wall[8]


def test_mine_z1_under_a_millisecond():
    import time
    best = min(
        (lambda s: (cli.consensus.mine(b"fast", 1), time.perf_counter() - s)[1])(
            time.perf_counter())
        for _ in range(3))
    assert best < 0.001
