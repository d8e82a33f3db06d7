"""Rewrite pins.json: the correctness pins of every workload at PIN_SEED.

    python3 perfbench/pin.py

Run this only after a change that is meant to alter the simulator's
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import PIN_SEED, PINS_PATH, TIMED_ROUNDS_MIN, Clock, make_workload  # noqa: E402


def main() -> None:
    pins: dict = {}
    for name in ("mining-n20", "sensing-n5"):
        workload = make_workload(name, PIN_SEED)
        clock = Clock(workload.kernel, workload.kernel_nominal_s)
        workload.setup(clock)
        for _ in range(TIMED_ROUNDS_MIN):
            workload.step(clock)
        pins[name] = workload.digests
    chain = make_workload("chain-replay", PIN_SEED)
    chain.setup(Clock(chain.kernel, chain.kernel_nominal_s))
    pins["chain-replay"] = {"tip": chain.tip, "height": chain.height}
    pow_search = make_workload("pow-search", PIN_SEED)
    clock = Clock(pow_search.kernel, pow_search.kernel_nominal_s)
    pow_search.setup(clock)
    for _ in pow_search.searches:
        pow_search.step(clock)
    pins["pow-search"] = pow_search.trials
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
