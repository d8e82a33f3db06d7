"""Config loading, validation gates, CLI commands, artifact determinism."""

import configparser
import hashlib
from pathlib import Path

import pytest

from potchain import cli, crypto
from potchain.config import ConfigInvalid, RunConfig, load_config
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
                    "[population]\nrnode = 2, 0.9, 0.1\n")
    cfg = load_config(path)
    assert cfg.sim.trust == TrustParams()
    assert cfg.sim.difficulty == DifficultyParams()
    assert cfg.sim.rsa_bits == crypto.DEFAULT_RSA_BITS
    assert cfg.sim == SimConfig(population=cfg.sim.population)
    assert cfg == RunConfig(experiment="mining-cost", sim=cfg.sim)


REJECTED = [
    ("sac", {"commit_cap": "0"}, "sac.commit_cap"),
    ("sac", {"n2": "0"}, "sac.n2"),
    ("sac", {"d_a": "0"}, "sac.d_a"),
    ("csc", {"tv_thr": "1.5"}, "csc.tv_thr"),
    ("csc", {"d_s": "0"}, "csc.d_s"),
    ("simulation", {"bid_min": "-1"}, "simulation.bid_min"),
    ("simulation", {"bid_min": "301", "bid_max": "300"}, "simulation.bid_max"),
    ("simulation", {"warmup_rounds": "-1"}, "simulation.warmup_rounds"),
    ("simulation", {"rsa_bit": "64"}, "simulation.rsa_bit"),
    ("simulation", {"stochastic_mining": "true"}, "simulation.stochastic_mining"),
]


def write_cfg_with(tmp_path, section, options):
    parser = configparser.ConfigParser()
    parser.read_string(MINIMAL.format(experiment="mining-cost", rho="1.0", eta="1.0"))
    for option, value in options.items():
        parser.set(section, option, value)
    path = tmp_path / "test.cfg"
    with path.open("w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize("section, options, field_name", REJECTED,
                         ids=[r[2] for r in REJECTED])
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


def test_calibrate_rejects_silly_z(capsys):
    assert cli.main(["calibrate", "--max-z", "40"]) == 1
    capsys.readouterr()


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
