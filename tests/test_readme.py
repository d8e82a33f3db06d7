"""README's tables name what the code holds: every config option and module."""

import re
from pathlib import Path

from potchain import config

ROOT = Path(__file__).resolve().parent.parent


def table_rows(prefix):
    """(first cell, second cell) of each README table row whose first cell
    starts with `prefix`."""
    rows = []
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split(" | ")]
        if line.startswith("| ") and cells[0].startswith(prefix):
            rows.append((cells[0], cells[1]))
    return rows


def test_the_config_table_names_every_option_of_every_section():
    table = {first.strip("`[]"): set(re.findall(r"`(\w+)`", second))
             for first, second in table_rows("`[")}
    table.pop("population")     # a line per node kind, not a fixed option set
    assert table == {section: set(options) for section, options in config.OPTIONS.items()}


def test_the_module_table_names_every_module():
    table = [first.strip("`") for first, _ in table_rows("`potchain.")]
    modules = {path.stem for path in (ROOT / "src" / "potchain").glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(f"potchain.{name}" for name in modules)
