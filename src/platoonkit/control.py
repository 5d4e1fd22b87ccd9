"""ACC and CACC constant-time-headway control laws and headway calculators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .dynamics import VehicleParams, VehicleState, spacing_error
from .errors import InvalidInputError, require_finite

__all__ = [
    "ControllerConfig",
    "cacc_control",
    "acc_control",
    "saturate",
    "min_headway",
]

Mode = Literal["acc", "cacc"]


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and headway of the constant-time-headway law.

    k_a scales the communicated predecessor acceleration (CACC only),
    k_v the velocity error, k_p the spacing error; h_w is the time headway.
    """

    k_a: float
    k_v: float
    k_p: float
    h_w: float
    mode: Mode = "cacc"

    def __post_init__(self) -> None:
        require_finite(self, ("k_a", "k_v", "k_p", "h_w"), InvalidInputError)
        if not (self.k_v > 0):
            raise InvalidInputError(f"k_v must be positive, got {self.k_v}")
        if not (self.k_p > 0):
            raise InvalidInputError(f"k_p must be positive, got {self.k_p}")
        if not (self.h_w > 0):
            raise InvalidInputError(f"h_w must be positive, got {self.h_w}")
        if self.k_a < 0:
            raise InvalidInputError(f"k_a must be nonnegative, got {self.k_a}")
        if self.mode not in ("acc", "cacc"):
            raise InvalidInputError(f"mode must be 'acc' or 'cacc', got {self.mode!r}")


def cacc_control(
    own: VehicleState,
    pred: VehicleState,
    received_accel: float | None,
    cfg: ControllerConfig,
    d: float,
) -> float:
    """CACC command; received_accel is None when the packet was dropped.

    A dropped packet zeroes the feed-forward term exactly (reception
    indicator 0), leaving the ACC part of the law.
    """
    if cfg.mode != "cacc":
        raise InvalidInputError("cacc_control requires cfg.mode == 'cacc'")
    ff = cfg.k_a * received_accel if received_accel is not None else 0.0
    return ff - cfg.k_v * (own.v - pred.v) - cfg.k_p * spacing_error(own, pred, cfg.h_w, d)


def acc_control(own: VehicleState, pred: VehicleState, cfg: ControllerConfig, d: float) -> float:
    """ACC command: the CACC law with the communicated term removed."""
    if cfg.mode != "acc":
        raise InvalidInputError("acc_control requires cfg.mode == 'acc'")
    return -cfg.k_v * (own.v - pred.v) - cfg.k_p * spacing_error(own, pred, cfg.h_w, d)


def saturate(u: float, params: VehicleParams) -> float:
    """Clamp a command to the vehicle's braking/acceleration capability."""
    return min(max(u, -params.decel_limit), params.accel_limit)


def min_headway(tau: float, gamma: float, k_a: float) -> float:
    """Minimum employable time headway 2*tau/(1 + gamma*k_a).

    gamma is the packet reception probability; gamma = 0 recovers the ACC
    limit 2*tau, gamma = 1 the lossless CACC limit.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise InvalidInputError(f"tau must be positive and finite, got {tau}")
    if not (0.0 <= gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in [0, 1], got {gamma}")
    if not (k_a >= 0 and math.isfinite(k_a)):
        raise InvalidInputError(f"k_a must be nonnegative and finite, got {k_a}")
    return 2.0 * tau / (1.0 + gamma * k_a)
