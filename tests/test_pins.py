"""Pinned artifacts: outputs a refactor of the simulator must leave
byte-for-byte unchanged. A change meant to alter them updates the pins
and says why.
"""

import hashlib
from pathlib import Path

from potchain import cli

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
