"""Command-line entry point.

    potchain run CONFIG [--seed N] [--out DIR]
    potchain calibrate [--max-z N] [--runs N] [--seed N] [--t0-ms MS] [--out DIR]

`run` executes the experiment named in the config, writes its CSV
artifact plus a summary.txt whose PASS/FAIL lines are keyed to the
built-in expectations (greppable as `AC<n>...: PASS`). Exit code 0 when
all expectations hold, 2 when any fails, 1 on configuration or I/O
errors.

`calibrate` benchmarks real nonce searches per leading-zero count and
recommends a base difficulty for the block interval --t0-ms.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import consensus, pool, simnet
from .config import AC4_POINTS, ConfigInvalid, RunConfig, load_config


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class Summary:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.failed = False

    def info(self, text: str) -> None:
        self.lines.append(text)

    def check(self, key: str, ok: bool, detail: str) -> None:
        self.lines.append(f"{key}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            self.failed = True

    def skip(self, key: str, reason: str) -> None:
        self.lines.append(f"{key}: SKIP ({reason})")


# =============================================================================
# run
# =============================================================================

def _run_mining(cfg: RunConfig, out: Path, summary: Summary) -> None:
    lines, stats = simnet.experiment_mining_cost(cfg.sim)
    _write(out / "mining.csv", lines)
    means = stats["means"]
    summary.info("experiment: mining-cost")
    summary.info(f"post-warmup slots: {max(0, cfg.sim.rounds - cfg.sim.warmup)} "
                 f"(warm-up {cfg.sim.warmup} rounds excluded from means)")
    for kind in sorted(means):
        summary.info(f"mean expected cost {kind}: {means[kind]:.1f}")
    ratio = stats["ratio"]
    summary.check("AC3-ordering", stats["ordering_ok"],
                  "Rnode mean below every other type"
                  if stats["ordering_ok"] else "Rnode not cheapest")
    summary.check("AC3-ratio", 0.2 <= ratio <= 0.5,
                  f"Rnode/min(others) = {ratio:.3f}, band [0.2, 0.5]")


def _run_sensing(cfg: RunConfig, out: Path, summary: Summary) -> None:
    schemes = list(simnet.SelectionScheme)
    lines, stats = simnet.experiment_sensing(cfg.sim, list(cfg.n1_sweep),
                                             schemes, cfg.rounds_per_point)
    _write(out / "sensing.csv", lines)
    table = stats["table"]
    summary.info("experiment: sensing")
    for (scheme, n1), (pd, pf) in sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        summary.info(f"n1={n1} {scheme}: pd={pd:.4f} pf={pf:.4f}")
    tv = simnet.SelectionScheme.TRUST_VALUE.value
    for n1 in AC4_POINTS:
        if n1 not in cfg.n1_sweep:
            summary.skip(f"AC4-dominance-n{n1}", f"n1={n1} not in the sweep")
            continue
        dominant = all(table[(tv, n1)][0] >= table[(other.value, n1)][0]
                       for other in schemes if other.value != tv)
        summary.check(f"AC4-dominance-n{n1}", dominant,
                      f"trust-value pd {table[(tv, n1)][0]:.4f} vs others")
    if 5 in cfg.n1_sweep:
        pd5 = table[(tv, 5)][0]
        summary.check("AC4-pd-at-5", pd5 >= 0.98, f"pd={pd5:.4f} >= 0.98")
    else:
        summary.skip("AC4-pd-at-5", "n1=5 not in the sweep")
    population = sum(g.count for g in cfg.sim.population)
    full = [n1 for n1 in cfg.n1_sweep if n1 >= population]
    if full:
        n1 = max(full)
        pds = [table[(s.value, n1)][0] for s in schemes]
        spread = max(pds) - min(pds)
        summary.check("AC4-convergence", spread <= 0.03,
                      f"pd spread {spread:.4f} at n1={n1}, limit 0.03")
    else:
        summary.skip("AC4-convergence",
                     f"no n1 in the sweep seats the whole population of {population}")


def _run_onoff(cfg: RunConfig, out: Path, summary: Summary) -> None:
    lines, stats = simnet.experiment_onoff(cfg.sim)
    _write(out / "onoff.csv", lines)
    steady = stats["steady"]
    summary.info("experiment: onoff")
    for kind in sorted(steady):
        summary.info(f"steady-state mean tv {kind}: {steady[kind]:.4f}")
    missing = [k for k in ("Rnode", "OOnode", "Lnode") if k not in steady]
    ordered = not missing and steady["Rnode"] > steady["OOnode"] > steady["Lnode"]
    summary.check("AC6-ordering", ordered,
                  "steady tv Rnode > OOnode > Lnode" if ordered
                  else f"no {', '.join(missing)} in the population" if missing
                  else "ordering broken")
    oo_peak = stats["peak"].get("OOnode")
    if oo_peak is not None:
        summary.info(f"OOnode peak mean tv: {oo_peak:.4f} "
                     f"({'stays below' if oo_peak < 0.9 else 'reaches'} 0.90)")
    # paired-run recovery probe: one flipped report for node 0
    window = cfg.sim.trust.window
    rec = simnet.injected_error_recovery(cfg.sim)
    ok = (rec["fusion_stable"] and rec["recovered_within"] is not None
          and rec["recovered_within"] <= window
          and rec["max_dev_after_window"] <= simnet.RECOVERY_TOLERANCE)
    summary.check("AC6-recovery", ok,
                  f"recovered in {rec['recovered_within']} rounds "
                  f"(window {window}), residual {rec['max_dev_after_window']:.4f}")


def _run_demo(cfg: RunConfig, out: Path, summary: Summary) -> None:
    result = simnet.demo_round(cfg.sim, cfg.pu_force)
    summary.info("experiment: demo-round")
    summary.info(f"selected sensor trusts: {result['selected_trusts']}")
    summary.info(f"rejected: {', '.join(result['rejected']) or 'none'}")
    summary.info(f"fusion result: {result['fusion']}")
    for who, (outcome, reward, returned) in sorted(result["settlement"].items()):
        summary.info(f"settlement {who}: {outcome}, reward {reward}, "
                     f"deposit returned {returned}")
    expected_selection = result["selected_trusts"] == [0.92, 0.93, 0.94]
    summary.check("AC-demo-selection", expected_selection,
                  f"top-3 by trust = {result['selected_trusts']}")
    if cfg.pu_force == "idle":
        ok = result["winner"] == "bidder2" and result["price"] == 100
        summary.check("AC7-second-price", ok,
                      f"winner {result['winner']} pays {result['price']} wei")
    else:
        summary.check("AC-demo-busy-path", result["fusion"] == 1,
                      f"fusion={result['fusion']}, auction skipped")


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigInvalid as exc:
        print(f"config invalid - {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.sim = replace(cfg.sim, seed=args.seed)
    out_dir = os.environ.get("POTCHAIN_OUT") or args.out or cfg.output_dir
    out = Path(out_dir)

    summary = Summary()
    summary.info(f"config: {args.config}")
    summary.info(f"seed: {cfg.sim.seed}")
    try:
        out.mkdir(parents=True, exist_ok=True)      # fail before the experiment, not after
        if cfg.experiment == "mining-cost":
            _run_mining(cfg, out, summary)
        elif cfg.experiment == "sensing":
            _run_sensing(cfg, out, summary)
        elif cfg.experiment == "onoff":
            _run_onoff(cfg, out, summary)
        else:
            _run_demo(cfg, out, summary)
        _write(out / "summary.txt", summary.lines)
    except OSError as exc:
        print(f"io error - {exc}", file=sys.stderr)
        return 1
    for line in summary.lines:
        print(line)
    return 2 if summary.failed else 0


# =============================================================================
# calibrate
# =============================================================================

def cmd_calibrate(args) -> int:
    if not 1 <= args.max_z <= 28:
        print("--max-z must be within [1, 28]", file=sys.stderr)
        return 1
    if args.runs < 1:
        print("--runs must be at least 1", file=sys.stderr)
        return 1
    if args.t0_ms <= 0:
        print("--t0-ms must be positive", file=sys.stderr)
        return 1
    out = Path(os.environ.get("POTCHAIN_OUT") or args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)      # fail before the searches, not after
    except OSError as exc:
        print(f"io error - {exc}", file=sys.stderr)
        return 1
    runs_lines = ["leading_zero_bits,run_index,trials,wall_ms"]
    summary_lines = ["z,mean_wall_ms,mean_trials"]
    means = []
    pool.start()                # so that no timed search pays for the fork
    for z in range(1, args.max_z + 1):
        trials_sum = 0
        wall_sum = 0.0
        for run in range(args.runs):
            preimage = f"calibrate:{args.seed}:{z}:{run}".encode()
            start = time.perf_counter()
            result = consensus.mine(preimage, z)
            wall_ms = (time.perf_counter() - start) * 1000.0
            trials_sum += result.trials
            wall_sum += wall_ms
            runs_lines.append(f"{z},{run},{result.trials},{wall_ms:.3f}")
        mean_trials = trials_sum / args.runs
        mean_wall = wall_sum / args.runs
        means.append((z, mean_wall, mean_trials))
        summary_lines.append(f"{z},{mean_wall:.3f},{mean_trials:.1f}")
        print(f"z={z:2d} mean_trials={mean_trials:10.1f} "
              f"(expected {consensus.expected_cost(z):8d}) "
              f"mean_wall={mean_wall:10.3f} ms")
    try:
        _write(out / "mining_runs.csv", runs_lines)
        _write(out / "calibration.csv", summary_lines)
    except OSError as exc:
        print(f"io error - {exc}", file=sys.stderr)
        return 1
    best = min(means, key=lambda m: abs(m[1] - args.t0_ms))
    print(f"recommended base difficulty: beta0 = 2^{best[0]} = {1 << best[0]} "
          f"(mean wall {best[1]:.1f} ms vs target {args.t0_ms} ms)")
    return 0


# =============================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potchain",
        description="Proof-of-Trust chain and spectrum-sensing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to a .cfg file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override [run] seed")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.set_defaults(func=cmd_run)

    cal_p = sub.add_parser("calibrate", help="benchmark the hash puzzle")
    cal_p.add_argument("--max-z", type=int, default=16)
    cal_p.add_argument("--runs", type=int, default=20)
    cal_p.add_argument("--seed", type=int, default=42)
    cal_p.add_argument("--t0-ms", type=int, default=1000)
    cal_p.add_argument("--out", default="out")
    cal_p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
