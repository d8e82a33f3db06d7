"""Pinned artifacts: outputs a refactor of the simulator must leave
byte-for-byte unchanged. A change meant to alter them updates the pins
and says why.
"""

import hashlib
from pathlib import Path
from random import Random

import pytest

from potchain import cli, crypto

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMOKE_MINING_SHA256 = "1f20770d49926a9a9d34a9c6dd6a8b279286c715ded6d72e774fefb7aef5e4fd"

DEMO_SUMMARY_HEAD = [
    "seed: 7",
    "experiment: demo-round",
    "selected sensor trusts: [0.92, 0.93, 0.94]",
    "rejected: sensor3",
]

DEMO_SUMMARIES = {
    "idle": DEMO_SUMMARY_HEAD + [
        "fusion result: 0",
        "settlement sensor2: consistent, reward 150, deposit returned 100",
        "settlement sensor4: consistent, reward 150, deposit returned 100",
        "settlement sensor5: consistent, reward 150, deposit returned 100",
        "AC-demo-selection: PASS (top-3 by trust = [0.92, 0.93, 0.94])",
        "AC7-second-price: PASS (winner bidder2 pays 100 wei)",
    ],
    "none": DEMO_SUMMARY_HEAD + [
        "fusion result: 1",
        "settlement sensor2: consistent, reward 150, deposit returned 100",
        "settlement sensor4: inconsistent, reward 0, deposit returned 0",
        "settlement sensor5: consistent, reward 150, deposit returned 100",
        "AC-demo-selection: PASS (top-3 by trust = [0.92, 0.93, 0.94])",
        "AC-demo-busy-path: PASS (fusion=1, auction skipped)",
    ],
}


def run_summary(config: Path, out: Path) -> list[str]:
    """`potchain run` summary lines, without the echoed config path."""
    cli.main(["run", str(config), "--out", str(out)])
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[0] == f"config: {config}"
    return lines[1:]


def test_smoke_mining_csv_is_pinned(tmp_path, capsys):
    assert cli.main(["run", str(CONFIG_DIR / "smoke.cfg"),
                     "--out", str(tmp_path)]) in (0, 2)
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "mining.csv").read_bytes()).hexdigest()
    assert digest == SMOKE_MINING_SHA256


def test_demo_summaries_are_pinned(tmp_path, capsys):
    preset = (CONFIG_DIR / "demo_round.cfg").read_text()
    assert "pu_force = idle" in preset
    for pu_force, expected in DEMO_SUMMARIES.items():
        config = tmp_path / f"demo_{pu_force}.cfg"
        config.write_text(preset.replace("pu_force = idle", f"pu_force = {pu_force}"))
        assert run_summary(config, tmp_path / pu_force) == expected
    capsys.readouterr()


# Short runs of the sensing and on-off presets: all three selection schemes
# (so the draws of the `select` stream) and the AC6 recovery probe's
# flipped report (`World.force_flip`), which no other pin covers.
SENSING_SHORT_SHA256 = "49cb9c87bd5184ea77ca63f925103344b44cd0b66512b5071f43b3cd7713671c"
ONOFF_SHORT_SHA256 = "ce6ab8d36b4305249a96d5659719e84d43b51071349ca8e0f7c01f9b8e791c6c"
ONOFF_SHORT_RECOVERY = (
    "AC6-recovery: PASS (recovered in 9 rounds (window 10), residual 0.0000)")


def edited_preset(tmp_path: Path, name: str, line: str, edited: str) -> Path:
    """The bundled preset `name` with its one `line` replaced, in `tmp_path`."""
    preset = (CONFIG_DIR / name).read_text()
    assert preset.count(line) == 1
    config = tmp_path / name
    config.write_text(preset.replace(line, edited))
    return config


def test_a_short_sensing_sweep_csv_is_pinned(tmp_path, capsys):
    config = edited_preset(tmp_path, "sensing_schemes.cfg",
                           "rounds_per_point = 500", "rounds_per_point = 20")
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) in (0, 2)
    capsys.readouterr()
    csv = (tmp_path / "out" / "sensing.csv").read_bytes()
    assert csv.count(b"\n") == 1 + 3 * 4      # three schemes at four n1 values
    assert hashlib.sha256(csv).hexdigest() == SENSING_SHORT_SHA256


def test_short_trust_curves_and_their_recovery_are_pinned(tmp_path, capsys):
    config = edited_preset(tmp_path, "trust_curves.cfg", "rounds = 500", "rounds = 60")
    lines = run_summary(config, tmp_path / "out")
    capsys.readouterr()
    csv = (tmp_path / "out" / "onoff.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == ONOFF_SHORT_SHA256
    assert [line for line in lines if line.startswith("AC6-recovery")] == [
        ONOFF_SHORT_RECOVERY]


# Node identities, which every chain, CSV and benchmark pin is built on: per
# modulus size, a digest over three seeds' ring keys (n, e, d, p, q in
# decimal) and Ed25519 public keys. 64 and 128 bits cover the sizes the
# presets seat; 512 is `crypto.DEFAULT_RSA_BITS`, whose 256-bit primes lie
# above the bound below which `crypto._is_probable_prime` proves with fixed
# bases.
IDENTITY_SHA256 = {
    64: "db112982d6c169bfcf7fb4e80142f68cd743924f313e03f0d4aa493f5e19eb38",
    128: "8c6a6bd91ad0fab719f98b7be2180758624086172eab66bdd02f5430f27e82c6",
    512: "274419093005560c34cfbda4871d5000ee5e3f07f1b2564ae13a625d3f66a88f",
}


@pytest.mark.parametrize("bits", sorted(IDENTITY_SHA256))
def test_identities_are_pinned(bits):
    lines = []
    for seed in (1, 2, 3):
        ident = crypto.make_identity(Random(seed), rsa_bits=bits)
        sk = ident.ring_sk
        lines.append(f"{sk.n} {sk.e} {sk.d} {sk.p} {sk.q} {ident.sig_pk.hex()}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == IDENTITY_SHA256[bits]
