"""Packet reception processes for the V2V link.

Two models: i.i.d. Bernoulli reception, and the two-state Gilbert burst-noise
chain (Good delivers everything, Bad delivers a fraction q).  Within a slot
the chain first transitions, then emits; both draws are consumed every slot
even when the outcome is forced, so reception streams stay aligned and runs
are bit-reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, StationaryDistributionError

__all__ = [
    "Regime",
    "GilbertParams",
    "ChannelState",
    "channel_step",
    "gamma_analytic",
    "gamma_estimate",
    "iid_channel",
    "stationary_good_probability",
    "initial_state",
    "simulate_reception",
]


class Regime(enum.Enum):
    GOOD = "good"
    BAD = "bad"


@dataclass(frozen=True)
class GilbertParams:
    """Gilbert chain parameters, all per packet slot.

    p_gb: transition probability Good -> Bad; p_bg: Bad -> Good; q: success
    probability while in Bad.  p_gb and p_bg are typically small so the
    states persist over many slots (bursts).
    """

    p_gb: float
    p_bg: float
    q: float

    def __post_init__(self) -> None:
        for name in ("p_gb", "p_bg", "q"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise InvalidInputError(f"{name} must be in [0, 1], got {val}")


@dataclass(frozen=True)
class ChannelState:
    regime: Regime = Regime.GOOD


def stationary_good_probability(params: GilbertParams) -> float:
    """Stationary probability of the Good regime, Q/(P+Q).

    The degenerate chain P = Q = 0 never transitions; its starting regime is
    a modeling choice and this returns 1.0 (start Good).
    """
    total = params.p_gb + params.p_bg
    if total == 0.0:
        return 1.0
    return params.p_bg / total


def initial_state(params: GilbertParams, rng: np.random.Generator) -> ChannelState:
    """Draw the initial regime from the stationary distribution.

    A stationary start removes transient bias from mean-trajectory studies.
    """
    good = rng.random() < stationary_good_probability(params)
    return ChannelState(Regime.GOOD if good else Regime.BAD)


def channel_step(
    state: ChannelState, params: GilbertParams, rng: np.random.Generator
) -> tuple[ChannelState, bool]:
    """Advance the chain one slot: transition, then draw the reception.

    Good always delivers; Bad delivers with probability q.  Exactly two
    uniforms are consumed per slot regardless of regime.
    """
    u_t = rng.random()
    u_e = rng.random()
    if state.regime is Regime.GOOD:
        regime = Regime.BAD if u_t < params.p_gb else Regime.GOOD
    else:
        regime = Regime.GOOD if u_t < params.p_bg else Regime.BAD
    received = True if regime is Regime.GOOD else bool(u_e < params.q)
    return ChannelState(regime), received


def gamma_analytic(params: GilbertParams) -> float:
    """Stationary packet reception probability 1 - P(1-q)/(P+Q)."""
    total = params.p_gb + params.p_bg
    if total == 0.0:
        raise StationaryDistributionError(
            "p_gb + p_bg = 0: the chain never transitions and has no unique "
            "stationary distribution"
        )
    return 1.0 - params.p_gb * (1.0 - params.q) / total


def gamma_estimate(reception_log: Sequence[bool] | Iterable[bool]) -> float:
    """Sample mean of a reception log.

    For i.i.d. slots the standard error is sqrt(g*(1-g)/n); burst correlation
    inflates it, so treat the i.i.d. figure as a lower bound.
    """
    log = np.asarray(list(reception_log) if not isinstance(reception_log, np.ndarray) else reception_log)
    if log.size == 0:
        raise InsufficientDataError("reception log is empty")
    return float(np.mean(log.astype(float)))


def iid_channel(gamma: float, rng: np.random.Generator) -> bool:
    """Single Bernoulli(gamma) reception draw."""
    if not (0.0 <= gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in [0, 1], got {gamma}")
    return bool(rng.random() < gamma)


def simulate_reception(
    params: GilbertParams,
    n_slots: int,
    rng: np.random.Generator,
    start: ChannelState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one chain for n_slots; returns (regimes_good, received) bool arrays.

    Draw-for-draw equivalent to looping channel_step (two uniforms per slot),
    just batched for speed.  When start is None the initial regime is drawn
    from the stationary distribution, consuming one extra leading uniform.
    """
    if n_slots <= 0:
        raise InvalidInputError(f"n_slots must be positive, got {n_slots}")
    if start is None:
        start = initial_state(params, rng)
    u = rng.random((n_slots, 2))
    good = np.empty(n_slots, dtype=bool)
    cur = start.regime is Regime.GOOD
    p_gb, p_bg = params.p_gb, params.p_bg
    ut = u[:, 0]
    for k in range(n_slots):
        cur = (ut[k] >= p_gb) if cur else (ut[k] < p_bg)
        good[k] = cur
    received = good | (u[:, 1] < params.q)
    return good, received

