"""Packet reception processes for the V2V link.

Two models: i.i.d. Bernoulli reception, and the two-state Gilbert burst-noise
chain (Good delivers everything, Bad delivers a fraction q).  Within a slot
the chain first transitions, then emits; both draws are consumed every slot
even when the outcome is forced, so reception streams stay aligned and runs
are bit-reproducible.  These scalar draws are the specification: the Monte
Carlo engine's batched reception stream reproduces them draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, StationaryDistributionError

__all__ = [
    "GilbertParams",
    "channel_step",
    "gamma_analytic",
    "iid_channel",
    "stationary_good_probability",
    "initial_state",
]


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


def stationary_good_probability(params: GilbertParams) -> float:
    """Stationary probability of the Good regime, Q/(P+Q).

    The degenerate chain P = Q = 0 never transitions; its starting regime is
    a modeling choice and this returns 1.0 (start Good).
    """
    total = params.p_gb + params.p_bg
    if total == 0.0:
        return 1.0
    return params.p_bg / total


def initial_state(params: GilbertParams, rng: np.random.Generator) -> bool:
    """Draw the initial regime from the stationary distribution; True is Good.

    A stationary start removes transient bias from mean-trajectory studies.
    """
    return bool(rng.random() < stationary_good_probability(params))


def channel_step(good: bool, params: GilbertParams, rng: np.random.Generator) -> tuple[bool, bool]:
    """Advance the chain one slot: transition, then draw the reception.

    good is the regime (True: Good); returns (good, received).  Good always
    delivers; Bad delivers with probability q.  Exactly two uniforms are
    consumed per slot regardless of regime.
    """
    u_t = rng.random()
    u_e = rng.random()
    if good:
        good = not u_t < params.p_gb
    else:
        good = u_t < params.p_bg
    received = True if good else u_e < params.q
    return good, received


def gamma_analytic(params: GilbertParams) -> float:
    """Stationary packet reception probability 1 - P(1-q)/(P+Q)."""
    total = params.p_gb + params.p_bg
    if total == 0.0:
        raise StationaryDistributionError(
            "p_gb + p_bg = 0: the chain never transitions and has no unique "
            "stationary distribution"
        )
    return 1.0 - params.p_gb * (1.0 - params.q) / total


def iid_channel(gamma: float, rng: np.random.Generator) -> bool:
    """Single Bernoulli(gamma) reception draw."""
    if not (0.0 <= gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in [0, 1], got {gamma}")
    return bool(rng.random() < gamma)
