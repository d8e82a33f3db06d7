"""potchain benchmark: one workload per invocation, one thread, closed loop.

    python3 perfbench/run.py --workload mining-n20 --seed 11 --seconds 10 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it instead alternates traced and untraced steps and reports
the per-layer metrics from the traced ones, plus the tracing overhead.
Metric names and units come from BENCHMARK.json at the repository root.
Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Result
and span files are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "potchain").is_dir():   # never measure an installed copy
    sys.exit(f"potchain sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Clock, load_pins, make_workload  # noqa: E402

OUT_DIR = HERE / "out"
KERNEL_SPAN = "perfbench.kernel"
UNIT_ALIASES = {"round": "rounds", "block": "blocks", "1000 trials": "hashes"}


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Set up several times, then step until `seconds` of wall time pass.

    With a tracer, every other step (and every set-up) is traced; index 1
    of the per-mode lists holds the traced steps, index 0 the others.
    """
    setup_clock = Clock(workload.setup_kernel, workload.setup_kernel_nominal_s)
    clock = Clock(workload.kernel, workload.kernel_nominal_s)
    traced_kernel = tracer.wrap(KERNEL_SPAN, workload.kernel) if tracer else None

    def trace(on: bool) -> None:
        if on:
            tracer.install()
            clock.kernel = traced_kernel
        elif tracer:
            tracer.uninstall()
            clock.kernel = workload.kernel

    run = {"setup_s": [], "attempted": 0, "failed": 0, "errors": [],
           "peak_rss_mb": None, "unit_ms": [], "units": [0.0, 0.0],
           "raw_seconds": [0.0, 0.0], "seconds": [0.0, 0.0], "ops": [0, 0]}
    for _ in range(workload.setups):
        trace(tracer is not None)
        try:
            run["setup_s"].append(workload.setup(setup_clock))
        finally:
            trace(False)

    if tracer:
        tracer.phase = "timed"
    start = perf_counter()
    n = 0
    min_steps = 2 if tracer else 1      # a traced run needs a traced step
    while (n < min_steps or perf_counter() - start < seconds
           or run["attempted"] < workload.min_ops):
        traced = int(tracer is not None and n % 2 == 1)
        n += 1
        trace(bool(traced))
        try:
            step = workload.step(clock)
        except Exception:  # a raising operation counts as failed; keep going
            run["errors"].append(traceback.format_exc())
            run["attempted"] += workload.ops_per_step
            run["failed"] += workload.ops_per_step
            continue
        finally:
            trace(False)
        run["attempted"] += step.ops
        run["failed"] += step.failed
        run["units"][traced] += step.units
        run["raw_seconds"][traced] += step.raw_seconds
        run["seconds"][traced] += step.seconds
        run["ops"][traced] += step.ops
        if not traced:
            run["unit_ms"].extend(step.unit_ms)
        # Peak RSS after the minimum work, so it does not depend on speed.
        if run["peak_rss_mb"] is None and run["attempted"] >= workload.min_ops:
            run["peak_rss_mb"] = peak_rss_mb()
    run["scale"] = {"setup": [setup_clock.scale_min, setup_clock.scale_max],
                    "timed": [clock.scale_min, clock.scale_max]}
    return run


def end_to_end(run: dict) -> dict[str, float]:
    unit_ms = run["unit_ms"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "units_per_s": run["units"][0] / run["seconds"][0],
        "unit_ms_p50": statistics.median(unit_ms),
        "unit_ms_p90": statistics.quantiles(unit_ms, n=10)[8],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: dict, tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Per-layer figures of the traced steps, per operation."""
    ops = run["ops"][1]
    setups = len(run["setup_s"])
    totals = tracer.layer_totals()
    counts = tracer.counts
    out: dict[str, float] = {}
    for layer in {name for name, _ in totals}:
        calls, self_ns = totals.get((layer, "timed"), (0, 0))
        out[f"{layer}.calls"] = calls / ops
        out[f"{layer}.self_ms"] = self_ns / 1e6 / ops
        out[f"{layer}.setup_ms"] = totals.get((layer, "setup"), (0, 0))[1] / 1e6 / setups
        out[f"{layer}.failed"] = counts.get((layer, "failed", "timed"), 0) / ops

    def per_call(layer, stat, phases=("timed",)):
        total = sum(counts.get((layer, stat, p), 0) for p in phases)
        calls = sum(totals.get((layer, p), (0, 0))[0] for p in phases)
        return total / calls if calls else 0.0

    out["crypto.ring_sign.ring_members"] = per_call("crypto.ring_sign", "ring_members")
    out["crypto.ring_verify.ring_members"] = per_call("crypto.ring_verify", "ring_members")
    out["consensus.mine.trials"] = counts.get(("consensus.mine", "trials", "timed"), 0) / ops
    out["ledger.txs_per_block"] = per_call("ledger.Chain.append_block", "txs")
    out["ledger.export_bytes"] = per_call("ledger.export_chain", "bytes", ("setup", "timed"))
    for (layer, stat, phase), value in counts.items():
        if layer == "contracts.rejected" and phase == "timed":
            out[f"contracts.rejected.{stat}"] = value / ops

    traced_rate = run["units"][1] / run["seconds"][1]
    untraced_rate = run["units"][0] / run["seconds"][0]
    out["trace.units_per_s"] = traced_rate
    out["trace.untraced_units_per_s"] = untraced_rate
    out["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100
    out["trace.wall_ms"] = run["raw_seconds"][1] * 1e3 / ops
    out["trace.self_ms_sum"] = sum(
        self_ns for (layer, phase), (_, self_ns) in totals.items()
        if phase == "timed" and layer != KERNEL_SPAN) / 1e6 / ops
    return {name: out.get(name, 0.0) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = make_workload(args.workload, args.seed, load_pins())
    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    for err in workload.setup_errors + run["errors"][:3]:
        print("error: " + err.rstrip(), file=sys.stderr)
    correct = (run["failed"] == 0 and not workload.setup_errors
               and not run["errors"] and run["attempted"] > 0)
    if tracer:
        values = per_layer(run, tracer, list(units))
    else:
        values = end_to_end(run)

    env = environment()
    alias = UNIT_ALIASES[workload.unit]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"unit of work: {workload.unit}")
    print("env " + json.dumps(env))
    print(f"error_rate {run['failed'] / max(run['attempted'], 1)!r} "
          f"({run['failed']} of {run['attempted']} operations failed)")
    if not tracer:
        scale = 1000 if alias == "hashes" else 1
        print(f"{alias}_per_s {values['units_per_s'] * scale!r} 1/s at nominal host speed; "
              f"unscaled {run['units'][0] * scale / run['raw_seconds'][0]!r} 1/s "
              f"({run['units'][0] * scale:.0f} {alias} in {run['raw_seconds'][0]:.3f} s)")
        print(f"latency samples {len(run['unit_ms'])}; {len(run['setup_s'])} set-ups "
              f"{min(run['setup_s']):.6f} .. {max(run['setup_s']):.6f} s")
    print("scale factors " + ", ".join(f"{phase} {lo:.3f} .. {hi:.3f}"
                                        for phase, (lo, hi) in run["scale"].items()))
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "setup_s": run["setup_s"], "scale": run["scale"], **result},
        indent=1) + "\n")
    if tracer:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
