"""Trust-value model for sensing nodes.

Implements:
1. The base trust value tv1 = exp(-rho*N_w) * (1 - exp(-eta*N_r)).
2. The windowed wrong count: each wrong entry fades linearly, losing 1/P of
   its weight per sensing round the node takes part in, and drops out of the
   window after P such rounds.
3. The inactivity penalty f(r_sleep): piecewise linear, 1.0 at zero sleep,
   r1 at k1 consecutive missed rounds, r2 at k2, constant r2 beyond.
4. The three-case update (consistent / inconsistent / inactive) over an
   immutable TrustState.
5. The on-off resistance check rho > eta/(1-exp(-eta)) - eta and the rate
   magnitudes behind it.

The wrong-entry window is indexed by the node's own sensing-round counter
(participations), not by global rounds: a wrong result fades as the node
keeps sensing, and merely sleeping does not launder it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class Outcome(Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    INACTIVE = "inactive"


class StaleRound(Exception):
    """Update round is not newer than the state's last round."""


@dataclass(frozen=True)
class TrustParams:
    """Model coefficients; defaults satisfy the on-off resistance bound."""
    rho: float = 1.0
    eta: float = 1.0
    window: int = 10
    k1: int = 5
    k2: int = 20
    r1: float = 0.9
    r2: float = 0.5

    def validate(self) -> None:
        for name in ("rho", "eta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.window < 1:
            raise ValueError("window must be a positive integer")
        if not 0 < self.k1 < self.k2:
            raise ValueError("need 0 < k1 < k2")
        if not 0 < self.r2 < self.r1 < 1:
            raise ValueError("need 0 < r2 < r1 < 1")


@dataclass(frozen=True, slots=True)
class TrustState:
    """Per-account trust accumulators.

    wrong_rounds holds sensing-round indices (see module docstring); only
    entries within the last `window` sensing rounds are kept.
    """
    tv: float = 0.0
    n_right: int = 0
    wrong_rounds: tuple[int, ...] = ()
    r_sleep: int = 0
    last_round: int = -1
    sensing_rounds: int = 0


TV_SCALE = 10_000       # the chain commits tv in ten-thousandths


def quantize_tv(tv: float) -> int:
    """Trust value as an integer number of ten-thousandths."""
    return min(TV_SCALE, max(0, round(tv * TV_SCALE)))


def grid_tv(fixed: int) -> float:
    """`quantize_tv`'s inverse: the trust value `fixed` ten-thousandths stand for."""
    return fixed / TV_SCALE


def effective_wrong_count(wrong_rounds, n: int, window: int) -> float:
    """Linearly faded wrong count at round n: sum of (1 - age/P).

    Entries older than the window contribute nothing.
    """
    total = 0.0
    for m in wrong_rounds:
        if m > n:
            raise ValueError("wrong entry in the future")
        age = n - m
        if age < window:
            total += 1.0 - age / window
    return total


def _prune(wrong_rounds, n: int, window: int) -> tuple[int, ...]:
    return tuple(m for m in wrong_rounds if n - m < window)


def tv1(n_right: float, n_wrong_effective: float, params: TrustParams) -> float:
    return math.exp(-params.rho * n_wrong_effective) * (
        1.0 - math.exp(-params.eta * n_right))


def sleep_decay(r_sleep: int, params: TrustParams) -> float:
    """Inactivity multiplier f(r_sleep) in (0, 1]."""
    k1, k2, r1, r2 = params.k1, params.k2, params.r1, params.r2
    if r_sleep <= k1:
        return (k1 - r_sleep) / k1 * (1.0 - r1) + r1
    if r_sleep <= k2:
        return (r_sleep - k2) / (k1 - k2) * (r1 - r2) + r2
    return r2


def _clamp(tv: float) -> float:
    return min(1.0, max(0.0, tv))


def update_trust(state: TrustState, outcome: Outcome, n: int,
                 params: TrustParams) -> TrustState:
    """Apply one round's outcome and return the new state.

    Consistent: one more right result; a positive increment toward the
    fresh base value is damped by f(r_sleep), a negative one snaps to it.
    Inconsistent: record the wrong entry and snap to the fresh base value.
    Inactive: multiply by f(r_sleep) evaluated before the sleep counter
    grows, so the first missed round costs nothing.
    """
    if n <= state.last_round:
        raise StaleRound(f"round {n} <= last seen {state.last_round}")

    if outcome is Outcome.INACTIVE:
        decay = sleep_decay(state.r_sleep, params)
        return replace(state, tv=_clamp(state.tv * decay),
                       r_sleep=state.r_sleep + 1, last_round=n)

    clock = state.sensing_rounds  # this participation's index
    if outcome is Outcome.INCONSISTENT:
        wrongs = _prune(state.wrong_rounds + (clock,), clock, params.window)
        fresh = tv1(state.n_right, effective_wrong_count(wrongs, clock, params.window),
                    params)
        return TrustState(tv=_clamp(fresh), n_right=state.n_right,
                          wrong_rounds=wrongs, r_sleep=0, last_round=n,
                          sensing_rounds=clock + 1)

    # consistent
    wrongs = _prune(state.wrong_rounds, clock, params.window)
    n_right = state.n_right + 1
    fresh = tv1(n_right, effective_wrong_count(wrongs, clock, params.window), params)
    delta = fresh - state.tv
    if delta > 0:
        tv = state.tv + delta * sleep_decay(state.r_sleep, params)
    else:
        tv = fresh
    return TrustState(tv=_clamp(tv), n_right=n_right, wrong_rounds=wrongs,
                      r_sleep=0, last_round=n, sensing_rounds=clock + 1)


# =============================================================================
# On-off attack resistance (drop rate must dominate gain rate)
# =============================================================================

def onoff_threshold(eta: float) -> float:
    return eta / -math.expm1(-eta) - eta     # expm1: no division by zero at the tiniest eta


def check_onoff_resistance(rho: float, eta: float) -> bool:
    """True iff rho strictly exceeds eta/(1-exp(-eta)) - eta."""
    if rho <= 0 or eta <= 0:
        raise ValueError("rho and eta must be positive")
    return rho > onoff_threshold(eta)


def onoff_drop_rate(n_right: float, n_wrong: float, params: TrustParams) -> float:
    """|d tv1 / d N_w|: how fast one marginal wrong result pulls trust down."""
    return params.rho * math.exp(-params.rho * n_wrong) * (
        1.0 - math.exp(-params.eta * n_right))


def onoff_gain_rate(n_right: float, n_wrong: float, params: TrustParams) -> float:
    """|d tv1 / d N_r|: how fast one marginal right result pushes trust up."""
    return params.eta * math.exp(-params.rho * n_wrong) * math.exp(
        -params.eta * n_right)
