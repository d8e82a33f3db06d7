"""Proof-of-Trust consensus: per-node difficulty, the leading-zero hash
puzzle, base-difficulty adaptation, expected-cost accounting, and the
trust-first fork choice rule.

A node's difficulty shrinks with its trust value:

    D = beta_n * (1 - sin(pi/2 * tv))        (floored at 1.0)

and is discretized into a leading-zero-bit target

    z = clamp(ceil(log2(max(D, 2))), 1, 256)

over the 256-bit system hash. Expected cost of finding a qualifying
nonce is 2^z hash trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import crypto

MAX_TARGET_BITS = 256


class Exhausted(Exception):
    """Nonce search hit max_trials; retry with a fresh preimage."""


@dataclass(frozen=True)
class DifficultyParams:
    beta0: int = 262144           # ~2^18, desk-calibrated initial base difficulty
    t0_ms: int = 1000             # ideal inter-block interval
    beta_min: int = 1024


@dataclass(frozen=True)
class MiningTarget:
    difficulty: float
    leading_zero_bits: int


def difficulty(tv: float, beta_n: float) -> float:
    """Per-node difficulty; strictly decreasing in tv on (0, 1)."""
    if not 0.0 <= tv <= 1.0:
        raise ValueError("trust value outside [0, 1]")
    if beta_n <= 0:
        raise ValueError("base difficulty must be positive")
    return max(1.0, beta_n * (1.0 - math.sin(math.pi / 2.0 * tv)))


def target_from_difficulty(d: float) -> int:
    """Discretize a difficulty into a leading-zero-bit count."""
    if d < 1.0:
        raise ValueError("difficulty below 1")
    z = math.ceil(math.log2(max(d, 2.0)))
    return min(max(z, 1), MAX_TARGET_BITS)


def mining_target(tv: float, beta_n: float) -> MiningTarget:
    d = difficulty(tv, beta_n)
    return MiningTarget(difficulty=d, leading_zero_bits=target_from_difficulty(d))


def leading_zero_bits(digest: bytes) -> int:
    return 8 * len(digest) - int.from_bytes(digest, "big").bit_length()


def meets_target(digest: bytes, z: int) -> bool:
    return leading_zero_bits(digest) >= z


def target_bound(z: int) -> bytes:
    """2^(256-z) as 32 big-endian bytes: a 32-byte digest has at least z
    leading zero bits exactly when it compares below this bound."""
    return (1 << (MAX_TARGET_BITS - z)).to_bytes(32, "big")


@dataclass(frozen=True)
class MineResult:
    nonce: int
    trials: int


def mine(header_preimage: bytes, z: int, nonce_start: int = 0,
         max_trials: int = 1 << 30) -> MineResult:
    """Search nonces until H(preimage || nonce_be8) has >= z leading zero bits.

    Nonces run from `nonce_start` upward and wrap at 2^64. The scan is
    `crypto.scan_nonces_batch` against `target_bound(z)`, worked on every
    CPU, so the nonce and the trial count are those of the sequential search.
    """
    if not 1 <= z <= MAX_TARGET_BITS:
        raise ValueError("target bits outside [1, 256]")
    trials = crypto.scan_nonces_batch(header_preimage, target_bound(z), nonce_start,
                                      max_trials)
    if trials is None:
        raise Exhausted(f"no nonce within {max_trials} trials at z={z}")
    return MineResult(nonce=(nonce_start + trials - 1) % crypto.NONCE_SPACE, trials=trials)


def expected_cost(z: int) -> int:
    """Expected hash trials to clear z leading zero bits: 2^z."""
    if not 1 <= z <= MAX_TARGET_BITS:
        raise ValueError("target bits outside [1, 256]")
    return 1 << z


def adapt_base(beta_prev: int, t_prev_ms: int, t_prev2_ms: int,
               params: DifficultyParams) -> int:
    """Lower the base difficulty when blocks arrive slower than t0.

    q = floor(interval / t0), g = floor(beta_prev / 128),
    beta_n = max(beta_prev - q*g, beta_min). The rule never raises beta.
    """
    if t_prev_ms <= t_prev2_ms:
        raise ValueError("block timestamps must be strictly increasing")
    q = (t_prev_ms - t_prev2_ms) // params.t0_ms
    g = beta_prev // 128
    return max(beta_prev - q * g, params.beta_min)


def fork_rank(header) -> tuple:
    """Sort key: highest trust, then earliest timestamp, then smallest hash."""
    return (-header.miner_trust, header.timestamp_ms, header.header_hash())


def resolve_fork(candidates: Sequence) -> object:
    """Pick the winning header among same-parent candidates."""
    if not candidates:
        raise ValueError("no candidates")
    return min(candidates, key=fork_rank)
