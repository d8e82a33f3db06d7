"""The four potchain benchmark workloads.

Each workload is a closed loop on one thread: `step()` starts the next
operation only after the previous one has finished. `setup()` builds the
workload's state from the seed and may be called several times; the last
state is the one stepped. Every step times only the calls into potchain and
then checks their output, so the correctness gates stay outside the
measured interval.

The host this benchmark was sized on drifts by 20-70% in speed over
seconds to minutes (other tenants; the guest sees no steal time), which
moves every timing of a 10 s run by as much. So each timed call runs
under a `Clock` lap: the workload's calibration kernel is timed between
laps, and every lap is scaled by the ratio of the kernel's nominal time to
the median of its last few times, the one just after the lap included, so
one kernel sample that the host preempted does not skew a lap. Timings are
thus reported at the speed of a quiet host; the unscaled times are kept
beside them, and the run records the smallest and largest scale factor.

The program is driven only through `potchain.config`, `potchain.simnet`,
`potchain.ledger` and `potchain.consensus`.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import statistics
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from potchain import config, consensus, ledger, simnet

ROOT = Path(__file__).resolve().parent.parent
MINING_CFG = ROOT / "configs" / "mining_cost.cfg"
SENSING_CFG = ROOT / "configs" / "sensing_schemes.cfg"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
PIN_SEED = 11                # pins.json holds the outputs of this seed

TIMED_ROUNDS_MIN = 100       # p90 over >= 100 rounds
CHAIN_ROUNDS = 100           # chain-replay replays a 101-block chain
TV_GRID = tuple(i / 20 for i in range(20))   # pow-search trust values, 0 .. 0.95
HEADER_PREIMAGE_BYTES = 138  # length of ledger.BlockHeader.preimage()
SEARCH_SLICE = 1 << 12       # nonces per consensus.mine call in pow-search
MAX_SEARCH_TRIALS = 1 << 30  # consensus.mine's own default cap
KERNEL_WINDOW = 3            # kernel samples whose median scales a lap

# Calibration kernels. Each does the kinds of work one workload does, in
# roughly its proportions, without potchain code, so that a busy host slows
# kernel and workload alike. A workload's kernel_nominal_s is about its
# kernel's fastest time on the shared 2-core Xeon VM the benchmark was sized on.
_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PK = _KEY.public_key().public_bytes_raw()
_SIG = _KEY.sign(bytes(100))
_HEADER = bytes(HEADER_PREIMAGE_BYTES)
_RECORD = json.dumps({
    "txs": [{"kind": 3, "payload": "ab" * 120, "signer": "cd" * 32,
             "signature": "ef" * 64} for _ in range(24)],
    "accounts": [{"id": "01" * 32, "pk": "02" * 32, "n": str(3 ** 80),
                  "balance": 10 ** 6, "tv": 9000, "wrong": [1, 2]} for _ in range(12)],
}, separators=(",", ":"))


def round_kernel() -> float:
    """SHA-256 and 127-bit modular powers as in ring signing, header
    hashing, one Ed25519 key parse, sign and verify, one JSON parse."""
    t0 = perf_counter()
    acc = 0
    for i in range(100):
        acc ^= int.from_bytes(hashlib.sha256(i.to_bytes(64, "big")).digest(), "big")
        acc = pow(acc, 65537, (1 << 127) - 1)
    for i in range(200):
        digest = hashlib.sha256(_HEADER + i.to_bytes(8, "big")).digest()
        acc += int.from_bytes(digest, "big").bit_length()
    Ed25519PrivateKey.from_private_bytes(bytes(range(32))).sign(bytes(100))
    Ed25519PublicKey.from_public_bytes(_PK).verify(_SIG, bytes(100))
    json.loads(_RECORD)
    return perf_counter() - t0


def chain_kernel() -> float:
    """JSON parsing and hex decoding of a block-like record, a merkle root
    over its leaves, and Ed25519 key parses and verifies."""
    t0 = perf_counter()
    obj = json.loads(_RECORD)
    leaves = [bytes.fromhex(t["payload"]) + bytes.fromhex(t["signature"])
              for t in obj["txs"]]
    leaves += [bytes.fromhex(a["id"]) + int(a["n"]).to_bytes(16, "big")
               for a in obj["accounts"]]
    layer = [hashlib.sha256(leaf).digest() for leaf in leaves]
    while len(layer) > 1:
        layer.append(layer[-1])
        layer = [hashlib.sha256(layer[i] + layer[i + 1]).digest()
                 for i in range(0, len(layer) - 1, 2)]
    for _ in range(6):
        Ed25519PublicKey.from_public_bytes(_PK).verify(_SIG, bytes(100))
    return perf_counter() - t0


def pow_kernel() -> float:
    """Header-sized SHA-256 with a leading-zero count, as in the nonce search."""
    t0 = perf_counter()
    acc = 0
    for i in range(700):
        digest = hashlib.sha256(_HEADER + i.to_bytes(8, "big")).digest()
        acc += int.from_bytes(digest, "big").bit_length()
    return perf_counter() - t0


def config_kernel() -> float:
    """Two INI parses of a preset and a draw of random bytes, as in the
    pow-search set-up, which is mostly potchain.config parsing."""
    t0 = perf_counter()
    for _ in range(2):
        parser = configparser.ConfigParser()
        parser.read(MINING_CFG)
        {name: dict(parser[name]) for name in parser.sections()}
    Random(0).randbytes(20 * HEADER_PREIMAGE_BYTES)
    return perf_counter() - t0


class Clock:
    """Wall time scaled to the nominal host speed by a calibration kernel."""

    def __init__(self, kernel: Callable[[], float], nominal_s: float):
        self.kernel = kernel             # the tracer swaps in a traced copy
        self.nominal_s = nominal_s
        self.samples = deque((kernel() for _ in range(KERNEL_WINDOW)),
                             maxlen=KERNEL_WINDOW)
        self.scale_min, self.scale_max = float("inf"), 0.0

    def close(self, raw: float) -> float:
        """Scale an interval of `raw` seconds that has just ended."""
        self.samples.append(self.kernel())
        scale = self.nominal_s / statistics.median(self.samples)
        self.scale_min = min(self.scale_min, scale)
        self.scale_max = max(self.scale_max, scale)
        return raw * scale

    def lap(self, fn: Callable, *args):
        """Run fn(*args); return (result, raw seconds, scaled seconds)."""
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        return result, raw, self.close(raw)


@dataclass
class Step:
    """What one step did: ops attempted and failed, and how long it took."""
    ops: int
    failed: int
    units: float             # work done: rounds, blocks, or thousands of trials
    raw_seconds: float       # time inside potchain calls
    seconds: float           # the same, scaled to nominal host speed
    unit_ms: list[float]     # scaled latency of each unit of work in the step


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def round_digest(report: simnet.RoundReport) -> str:
    """Fusion, miner and every node's mining trust, target and tokens."""
    parts = [str(report.round), str(report.pu_truth), str(report.fusion_result),
             report.miner]
    parts += [f"{row.node}:{row.tv_mining!r}:{row.z_bits}:{row.tokens}"
              for row in report.rows]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def mining_sim(seed: int) -> simnet.SimConfig:
    return replace(config.load_config(MINING_CFG).sim, seed=seed)


def sensing_sim(seed: int) -> simnet.SimConfig:
    return replace(config.load_config(SENSING_CFG).sim, seed=seed, n1=5)


class RoundWorkload:
    """One simulator round per step, after the trust warm-up."""

    unit = "round"
    kernel, kernel_nominal_s = staticmethod(round_kernel), 1.0e-3
    setup_kernel, setup_kernel_nominal_s = kernel, kernel_nominal_s
    ops_per_step = 1
    setups = 3
    min_ops = TIMED_ROUNDS_MIN

    def __init__(self, make_sim, seed: int, pinned: list[str] | None):
        self.make_sim = make_sim
        self.seed = seed
        self.pinned = pinned
        self.world: simnet.World | None = None
        self.digests: list[str] = []
        self.setup_errors: list[str] = []

    def _record_digest(self, report: simnet.RoundReport) -> bool:
        """Keep the round's digest; False if it differs from the pin."""
        digest = round_digest(report)
        self.digests.append(digest)
        r = report.round
        return self.pinned is None or r >= len(self.pinned) or self.pinned[r] == digest

    def setup(self, clock: Clock) -> float:
        """Load the config, make the keys, run the warm-up; scaled seconds."""
        previous, self.digests = self.digests, []
        sim, _, spent = clock.lap(self.make_sim, self.seed)
        self.world, _, seconds = clock.lap(simnet.World, sim)
        spent += seconds
        for r in range(sim.warmup):
            report, _, seconds = clock.lap(self.world.run_round, r)
            spent += seconds
            if not self._record_digest(report):
                self.setup_errors.append(f"warm-up round {r} digest differs from pin")
        if previous and previous != self.digests:
            self.setup_errors.append("repeated set-ups disagree")
        if len(self.world.chain.blocks) != sim.warmup + 1:
            self.setup_errors.append("chain height after warm-up")
        return spent

    def step(self, clock: Clock) -> Step:
        world = self.world
        r = len(world.reports)
        report, raw, seconds = clock.lap(world.run_round, r)
        ok = self._record_digest(report) and len(world.chain.blocks) == r + 2
        return Step(ops=1, failed=0 if ok else 1, units=1, raw_seconds=raw,
                    seconds=seconds, unit_ms=[seconds * 1e3])


class ChainReplay:
    """Import of an exported mining-n20 chain per step."""

    unit = "block"
    kernel, kernel_nominal_s = staticmethod(chain_kernel), 1.0e-3
    # Set-up builds the chain round by round.
    setup_kernel, setup_kernel_nominal_s = staticmethod(round_kernel), 1.0e-3
    setups = 3
    min_ops = 1

    def __init__(self, seed: int, pinned: dict | None):
        self.seed = seed
        self.pinned = pinned
        self.text = ""
        self.setup_errors: list[str] = []

    def setup(self, clock: Clock) -> float:
        """Build and export a CHAIN_ROUNDS-round mining-n20 chain."""
        sim, _, spent = clock.lap(mining_sim, self.seed)
        world, _, seconds = clock.lap(simnet.World, sim)
        spent += seconds
        for r in range(CHAIN_ROUNDS):
            spent += clock.lap(world.run_round, r)[2]
        text, _, seconds = clock.lap(ledger.export_chain, world.chain)
        spent += seconds
        if self.text and text != self.text:
            self.setup_errors.append("repeated set-ups exported different chains")
        self.text, self.params = text, world.chain.params
        self.tip = world.chain.tip.header.header_hash().hex()
        self.height = len(world.chain.blocks)
        self.ops_per_step = self.height - 1
        if self.pinned is not None and (self.tip, self.height) != (
                self.pinned["tip"], self.pinned["height"]):
            self.setup_errors.append("built chain differs from pin")
        return spent

    def step(self, clock: Clock) -> Step:
        # A block's latency runs from the previous append_block return (or
        # the start of the import) to its own: parsing plus verification.
        # The clock re-times its kernel at every return, outside the interval.
        raw_ms: list[float] = []
        block_ms: list[float] = []
        mark = [0.0]
        original = ledger.Chain.__dict__["append_block"]

        def stamped(chain, block):
            result = original(chain, block)
            raw = perf_counter() - mark[0]
            raw_ms.append(raw * 1e3)
            block_ms.append(clock.close(raw) * 1e3)
            mark[0] = perf_counter()
            return result

        ledger.Chain.append_block = stamped
        try:
            mark[0] = perf_counter()
            chain = ledger.import_chain(self.text, self.params)
            tail = perf_counter() - mark[0]
        finally:
            ledger.Chain.append_block = original
        raw = sum(raw_ms) / 1e3 + tail
        seconds = sum(block_ms) / 1e3 + clock.close(tail)
        blocks = self.ops_per_step
        ok = (chain.tip.header.header_hash().hex() == self.tip
              and len(chain.blocks) == self.height and len(block_ms) == blocks)
        return Step(ops=blocks, failed=0 if ok else blocks, units=blocks,
                    raw_seconds=raw, seconds=seconds, unit_ms=block_ms)


class PowSearch:
    """One nonce search per step, cycling over a fixed, seeded search list."""

    unit = "1000 trials"
    kernel, kernel_nominal_s = staticmethod(pow_kernel), 0.8e-3
    setup_kernel, setup_kernel_nominal_s = staticmethod(config_kernel), 0.7e-3
    ops_per_step = 1
    setups = 72        # one set-up takes under a millisecond
    min_ops = len(TV_GRID)

    def __init__(self, seed: int, pinned: list[int] | None):
        self.seed = seed
        self.pinned = pinned
        self.trials: list[int] = []       # trials of the first pass, per search
        self.done = 0
        self.setup_errors: list[str] = []

    def _searches(self) -> list[tuple[bytes, int]]:
        beta0 = config.load_config(MINING_CFG).sim.difficulty.beta0
        rng = Random(f"{self.seed}:pow-search")
        return [(rng.randbytes(HEADER_PREIMAGE_BYTES),
                 consensus.mining_target(tv, beta0).leading_zero_bits)
                for tv in TV_GRID]

    def setup(self, clock: Clock) -> float:
        """Load the difficulty curve and draw the preimages."""
        self.searches, _, spent = clock.lap(self._searches)
        return spent

    @staticmethod
    def _slice(preimage: bytes, z: int, start: int):
        try:
            return consensus.mine(preimage, z, nonce_start=start, max_trials=SEARCH_SLICE)
        except consensus.Exhausted:
            return None

    def step(self, clock: Clock) -> Step:
        # The search runs in slices, as a miner polling for a new tip would,
        # so the clock re-times its kernel every few ms even on a z = 18 search.
        # Latency is sampled per full slice: a fixed amount of work, and over
        # a thousand samples per run where there are only a few dozen searches.
        i = self.done % len(self.searches)
        self.done += 1
        preimage, z = self.searches[i]
        raw = seconds = 0.0
        slice_ms: list[float] = []
        for start in range(0, MAX_SEARCH_TRIALS, SEARCH_SLICE):
            found, slice_raw, slice_seconds = clock.lap(self._slice, preimage, z, start)
            raw += slice_raw
            seconds += slice_seconds
            if found is not None:
                break
            slice_ms.append(slice_seconds * 1e3 / (SEARCH_SLICE / 1000))
        else:
            raise consensus.Exhausted(f"no nonce within {MAX_SEARCH_TRIALS} trials")
        trials = start + found.trials
        digest = hashlib.sha256(preimage + found.nonce.to_bytes(8, "big")).digest()
        if len(self.trials) == i:
            self.trials.append(trials)
        ok = (consensus.meets_target(digest, z) and trials == self.trials[i]
              and (self.pinned is None or trials == self.pinned[i]))
        kilo = trials / 1000
        return Step(ops=1, failed=0 if ok else 1, units=kilo, raw_seconds=raw,
                    seconds=seconds, unit_ms=slice_ms)


WORKLOADS = ("mining-n20", "sensing-n5", "chain-replay", "pow-search")


def make_workload(name: str, seed: int, pins: dict | None = None):
    """Build a workload; pins apply only at PIN_SEED."""
    pinned = pins.get(name) if pins is not None and seed == PIN_SEED else None
    if name == "mining-n20":
        return RoundWorkload(mining_sim, seed, pinned)
    if name == "sensing-n5":
        return RoundWorkload(sensing_sim, seed, pinned)
    if name == "chain-replay":
        return ChainReplay(seed, pinned)
    if name == "pow-search":
        return PowSearch(seed, pinned)
    raise ValueError(f"unknown workload {name!r}")
