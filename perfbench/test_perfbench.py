"""Checks on the benchmark itself: tracing must not change what the
simulator computes, and the seed must.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from potchain import crypto, ledger, simnet  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Clock, load_pins, make_workload  # noqa: E402

ROUNDS = 3


def _digests(seed: int, tracer: Tracer | None = None) -> list[str]:
    workload = make_workload("sensing-n5", seed, load_pins())
    clock = Clock(workload.kernel, workload.kernel_nominal_s)
    if tracer:
        tracer.install()
    try:
        workload.setup(clock)
        if tracer:
            tracer.phase = "timed"
        steps = [workload.step(clock) for _ in range(ROUNDS)]
    finally:
        if tracer:
            tracer.uninstall()
    assert not workload.setup_errors
    assert all(step.failed == 0 for step in steps)
    return workload.digests


def test_tracing_leaves_digests_unchanged_and_seed_changes_them():
    tracer = Tracer()
    untraced = _digests(11)
    traced = _digests(11, tracer)
    assert traced == untraced
    assert untraced == load_pins()["sensing-n5"][:len(untraced)]
    assert _digests(12) != untraced

    # Self times partition the outermost spans: nothing counted twice or lost.
    totals = tracer.layer_totals()
    for phase in ("setup", "timed"):
        self_ns = sum(ns for (_, ph), (_, ns) in totals.items() if ph == phase)
        assert self_ns == tracer.root_ns(phase)
    assert totals[("simnet.World.run_round", "timed")][0] == ROUNDS
    assert totals[("crypto.ring_sign", "timed")][0] > 0


def test_uninstall_restores_every_patched_name():
    before = (crypto.sign, ledger.Chain.append_block, simnet.update_trust,
              simnet.World.run_round)
    tracer = Tracer()
    tracer.install()
    assert crypto.sign is not before[0]
    tracer.uninstall()
    assert (crypto.sign, ledger.Chain.append_block, simnet.update_trust,
            simnet.World.run_round) == before
