"""Frequency-domain string-stability analysis and the worst-case error bound.

The per-hop spacing-error transfer function of the deterministic-equivalent
CACC string is

    H(s) = (g*Ka*s^2 + Kv*s + Kp) / (tau*s^3 + s^2 + (Kv + Kp*hw)*s + Kp)

with g the packet reception probability; H(0) = 1, so string stability is the
usual peak condition ||H||_inf <= 1.  The bound machinery chains the per-hop
L2 relation through a Lyapunov-based L2->Linf gain to dominate the maximum
spacing error of every vehicle by a constant independent of string length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .control import ControllerConfig, min_headway
from .errors import (
    InsufficientHorizonWarning,
    InvalidInputError,
    NonHurwitzError,
    PoleOnAxisError,
    UnstableLoopError,
)

__all__ = [
    "TransferFunction",
    "ErrorSystem",
    "BoundReport",
    "HinfResult",
    "StringStabilityReport",
    "cacc_error_tf",
    "lead_input_tf",
    "freq_response_mag",
    "parseval_energies",
    "cacc_system_matrix",
    "hinf_norm",
    "impulse_l1",
    "lyapunov_solve",
    "l2_norm_signal",
    "build_error_system",
    "uniform_error_bound",
    "is_string_stable",
]

HINF_WMIN = 1e-3
HINF_WMAX = 1e3
HINF_POINTS = 2000
STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function; coefficients in ascending powers of s."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        if not den or not num:
            raise InvalidInputError("num and den must be non-empty")
        if not all(map(math.isfinite, num + den)):
            raise InvalidInputError("coefficients must be finite")
        if den[-1] == 0.0:
            raise InvalidInputError("den leading (highest-order) coefficient must be nonzero")
        if len(num) > len(den):
            raise InvalidInputError("transfer function must be proper (deg num <= deg den)")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def poles(self) -> np.ndarray:
        if len(self.den) == 1:
            return np.array([])
        return np.roots(self.den[::-1])

    def is_stable(self) -> bool:
        """Strictly Hurwitz denominator (all pole real parts negative)."""
        p = self.poles()
        return bool(p.size == 0 or np.max(p.real) < 0.0)


def _polyval_jw(coeffs: tuple[float, ...], omega: float | np.ndarray) -> np.ndarray:
    """Evaluate an ascending-coefficient polynomial at s = j*omega."""
    s = 1j * np.asarray(omega, dtype=float)
    out = np.zeros_like(s, dtype=complex)
    for c in reversed(coeffs):
        out = out * s + c
    return out


def freq_response_mag(tf: TransferFunction, omega):
    """|H(j*omega)| at a nonnegative float or array of omega, in the same shape."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise InvalidInputError(f"omega must be nonnegative, got min {w.min()}")
    den = np.abs(_polyval_jw(tf.den, w))
    if np.any(den == 0):
        raise PoleOnAxisError(f"denominator vanishes at omega = {w[den == 0].flat[0]}")
    return (np.abs(_polyval_jw(tf.num, w)) / den)[()]


def cacc_error_tf(cfg: ControllerConfig, tau: float, gamma: float) -> TransferFunction:
    """Spacing-error propagation H(s) of the deterministic-equivalent string.

    Derived by Laplace-transforming the per-vehicle closed loop: the position
    transfer X_i/X_{i-1} equals the spacing-error transfer E_i/E_{i-1} because
    E_i = (1 + hw*s)X_i - X_{i-1}.  Raises if the per-vehicle loop itself is
    not Hurwitz (Routh test, exact for the cubic).
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise InvalidInputError(f"tau must be positive and finite, got {tau}")
    if not (0.0 <= gamma <= 1.0):
        raise InvalidInputError(f"gamma must be in [0, 1], got {gamma}")
    ka = cfg.k_a if cfg.mode == "cacc" else 0.0
    num = (cfg.k_p, cfg.k_v, gamma * ka)
    z = cfg.k_v + cfg.k_p * cfg.h_w
    den = (cfg.k_p, z, 1.0, tau)
    # Routh for tau*s^3 + s^2 + z*s + kp: positives plus 1*z > tau*kp.
    if not (z > tau * cfg.k_p):
        raise UnstableLoopError(
            f"vehicle-following loop is not Hurwitz: k_v + k_p*h_w = {z:.6g} "
            f"<= tau*k_p = {tau * cfg.k_p:.6g}"
        )
    return TransferFunction(num, den)


def lead_input_tf(cfg: ControllerConfig, tau: float, gamma: float) -> TransferFunction:
    """Transfer from lead-vehicle acceleration to the first spacing error.

    Same denominator as the per-hop transfer; numerator
    (g*Ka*hw - tau)*s + (g*Ka + Kv*hw - 1).
    """
    hop = cacc_error_tf(cfg, tau, gamma)
    ka = cfg.k_a if cfg.mode == "cacc" else 0.0
    g1 = gamma * ka * cfg.h_w - tau
    g0 = gamma * ka + cfg.k_v * cfg.h_w - 1.0
    return TransferFunction((g0, g1), hop.den)


def parseval_energies(
    err: np.ndarray, dt: float, tf: TransferFunction
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parseval energies sum(e^2)*dt of err along axis -2, total and inside Omega+ of tf.

    Returns (total, in_band, omega_band): energies from the rFFT of the
    record, the same restricted to the bins of Omega+ = {w : |H(jw)| > 1},
    and those bins' angular frequencies.
    """
    n = err.shape[-2]
    spec = np.fft.rfft(err, axis=-2)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    weight = np.full(omega.size, 2.0)   # one-sided spectrum: count +-w once each
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    density = (weight[:, None] * dt / n) * np.abs(spec) ** 2
    band = freq_response_mag(tf, omega) > 1.0
    return density.sum(axis=-2), density[..., band, :].sum(axis=-2), omega[band]


def cacc_system_matrix(cfg: ControllerConfig, tau: float, receptions) -> np.ndarray:
    """Stacked platoon system matrix with explicit reception indicators.

    State ordering (x_0, v_0, a_0, x_1, v_1, a_1, ...); receptions[i] is the
    indicator (or its expectation) on the link into follower i+1.  The
    standstill gap enters the affine input term only, never this matrix.
    """
    w = np.asarray(receptions, dtype=float)
    n_follow = len(w)
    m = 3 * (n_follow + 1)
    A = np.zeros((m, m))
    A[0, 1] = 1.0
    A[1, 2] = 1.0
    A[2, 2] = -1.0 / tau
    for i in range(1, n_follow + 1):
        r = 3 * i
        A[r, r + 1] = 1.0
        A[r + 1, r + 2] = 1.0
        A[r + 2, r - 3] = cfg.k_p / tau                       # x_{i-1}
        A[r + 2, r - 2] = cfg.k_v / tau                       # v_{i-1}
        A[r + 2, r - 1] = w[i - 1] * cfg.k_a / tau            # a_{i-1} (communicated)
        A[r + 2, r] = -cfg.k_p / tau                          # x_i
        A[r + 2, r + 1] = -(cfg.k_v + cfg.k_p * cfg.h_w) / tau  # v_i
        A[r + 2, r + 2] = -1.0 / tau                          # a_i
    return A


@dataclass(frozen=True)
class HinfResult:
    """Peak gain with the grid metadata that bounds its resolution."""

    norm: float
    omega_peak: float
    grid_points: int
    wmin: float
    wmax: float

    def __float__(self) -> float:
        return self.norm


def _grid_sup(
    magfn: Callable[[np.ndarray], np.ndarray],
    wmin: float = HINF_WMIN,
    wmax: float = HINF_WMAX,
    points: int = HINF_POINTS,
) -> tuple[float, float]:
    """Sup of a magnitude function over {0} + log grid, golden-refined at the argmax."""
    grid = np.concatenate([[0.0], np.logspace(math.log10(wmin), math.log10(wmax), points)])
    mags = magfn(grid)
    k = int(np.argmax(mags))
    best, w_best = float(mags[k]), float(grid[k])
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k + 1] if k + 1 < grid.size else grid[-1]
    if hi > lo:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = float(magfn(np.array([c]))[0])
        fd = float(magfn(np.array([d]))[0])
        for _ in range(80):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = float(magfn(np.array([c]))[0])
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = float(magfn(np.array([d]))[0])
        w_ref = 0.5 * (a + b)
        f_ref = float(magfn(np.array([w_ref]))[0])
        if f_ref > best:
            best, w_best = f_ref, w_ref
    return best, w_best


def hinf_norm(
    tf: TransferFunction,
    wmin: float = HINF_WMIN,
    wmax: float = HINF_WMAX,
    points: int = HINF_POINTS,
) -> HinfResult:
    """Peak of |H(j*omega)| over a log grid with local golden-section refinement.

    The grid always includes omega = 0 and the high-frequency limit, so DC
    peaks (H(0) = 1 for these strings) and biproper gains are caught exactly.
    """
    if not tf.is_stable():
        raise UnstableLoopError("hinf_norm requires a stable transfer function")
    best, w_best = _grid_sup(lambda w: freq_response_mag(tf, w), wmin, wmax, points)
    if len(tf.num) == len(tf.den):  # biproper: check the omega -> inf limit
        hf = abs(tf.num[-1] / tf.den[-1])
        if hf > best:
            best, w_best = hf, math.inf
    return HinfResult(best, w_best, points, wmin, wmax)


def _strictly_proper_ss(tf: TransferFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Controllable-canonical realization of the strictly proper part, plus feedthrough."""
    den = np.asarray(tf.den, dtype=float)
    num = np.zeros(len(den))
    num[: len(tf.num)] = tf.num
    den_monic = den / den[-1]
    num = num / den[-1]
    d_term = num[-1]
    num_sp = num[:-1] - d_term * den_monic[:-1]
    n = len(den_monic) - 1
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), float(d_term)
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den_monic[:-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = num_sp.reshape(1, n)
    return A, B, C, float(d_term)


def impulse_l1(tf: TransferFunction, horizon: float | None = None, dt: float | None = None) -> float:
    """L1 norm of the impulse response, integrated from a state-space simulation.

    Defaults pick the horizon as 40 slow time constants and dt as a fiftieth
    of the fast one.  Warns when the estimated truncated tail exceeds 1% of
    the integral.  A biproper feedthrough contributes |d| (its impulse).
    """
    if not tf.is_stable():
        raise UnstableLoopError("impulse_l1 requires a strictly stable transfer function")
    A, B, C, d_term = _strictly_proper_ss(tf)
    if A.shape[0] == 0:
        return abs(d_term)
    re = np.abs(np.linalg.eigvals(A).real)
    t_slow = 1.0 / re.min()
    t_fast = 1.0 / re.max()
    if horizon is None:
        horizon = 40.0 * t_slow
    if dt is None:
        dt = min(t_fast / 50.0, horizon / 2000.0)
    if not (horizon > 0 and dt > 0 and horizon > dt):
        raise InvalidInputError("horizon and dt must be positive with horizon > dt")
    n_steps = int(math.ceil(horizon / dt))
    Ad = scipy.linalg.expm(A * dt)
    x = B[:, 0].copy()
    h = np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        h[k] = (C @ x).item()
        x = Ad @ x
    total = float(np.trapezoid(np.abs(h), dx=dt))
    # oscillatory tails can hit a node at the horizon; gauge the final stretch
    tail_amp = float(np.abs(h[-max(2, n_steps // 50):]).max())
    tail = tail_amp * t_slow * 2.0
    if total > 0 and tail > 0.01 * total:
        warnings.warn(
            f"impulse tail beyond horizon estimated at {tail:.3g} "
            f"(> 1% of integral {total:.3g}); increase horizon",
            InsufficientHorizonWarning,
            stacklevel=2,
        )
    return total + abs(d_term)


def lyapunov_solve(A: np.ndarray, Qm: np.ndarray) -> np.ndarray:
    """Unique P >= 0 with A P + P A^T + Qm = 0, for Hurwitz A and PSD symmetric Qm.

    Backed by the Bartels-Stewart solver; the residual is checked against
    1e-9 * ||Qm|| and the result symmetrized.
    """
    A = np.asarray(A, dtype=float)
    Qm = np.asarray(Qm, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != Qm.shape:
        raise InvalidInputError("A and Qm must be square matrices of equal shape")
    if not np.allclose(Qm, Qm.T, atol=1e-12 * max(1.0, float(np.abs(Qm).max()))):
        raise InvalidInputError("Qm must be symmetric")
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) >= 0.0:
        raise NonHurwitzError(
            f"A is not Hurwitz (max Re eig = {np.max(eigs.real):.6g}); no unique PSD solution"
        )
    P = scipy.linalg.solve_continuous_lyapunov(A, -Qm)
    P = 0.5 * (P + P.T)
    q_norm = float(np.linalg.norm(Qm))
    residual = float(np.linalg.norm(A @ P + P @ A.T + Qm))
    if q_norm > 0 and residual > 1e-9 * q_norm:
        raise NonHurwitzError(f"Lyapunov residual {residual:.3g} exceeds 1e-9*||Qm|| = {1e-9 * q_norm:.3g}")
    return P


def l2_norm_signal(samples, dt: float) -> float:
    """Rectangle-rule L2 norm sqrt(sum(s^2) * dt) of a sampled signal."""
    if not (dt > 0):
        raise InvalidInputError(f"dt must be positive, got {dt}")
    arr = np.asarray(samples, dtype=float)
    return float(math.sqrt(float(np.sum(arr * arr)) * dt))


@dataclass(frozen=True)
class ErrorSystem:
    """Per-vehicle error-propagation realization (chained string form).

    zeta_1' = A0 zeta_1 + D w0   (w0: lead-vehicle acceleration)
    zeta_i' = A0 zeta_i + B y_{i-1},  y_i = C zeta_i  (y_i: spacing error)

    Observer canonical form, so coupling enters through the input matrix and
    the output is the first state; A0 must be Hurwitz.
    """

    A0: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        A0 = np.atleast_2d(np.asarray(self.A0, dtype=float))
        n = A0.shape[0]
        B = np.asarray(self.B, dtype=float).reshape(n, 1)
        C = np.asarray(self.C, dtype=float).reshape(1, n)
        D = np.asarray(self.D, dtype=float).reshape(n, 1)
        if A0.shape != (n, n):
            raise InvalidInputError("A0 must be square")
        eigs = np.linalg.eigvals(A0)
        if np.max(eigs.real) >= 0.0:
            raise UnstableLoopError(f"A0 is not Hurwitz (max Re eig = {np.max(eigs.real):.6g})")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def order(self) -> int:
        return self.A0.shape[0]


def build_error_system(cfg: ControllerConfig, tau: float, gamma: float) -> ErrorSystem:
    """Realize the error chain for a controller configuration.

    Both the per-hop transfer C(sI-A0)^{-1}B and the lead transfer
    C(sI-A0)^{-1}D share the loop denominator, so a single observer-form A0
    carries both numerators in B and D.
    """
    hop = cacc_error_tf(cfg, tau, gamma)
    lead = lead_input_tf(cfg, tau, gamma)
    kp, z, _, t = hop.den  # (kp, kv + kp*hw, 1, tau) ascending
    a0, a1, a2 = kp / t, z / t, 1.0 / t
    A0 = np.array([[-a2, 1.0, 0.0], [-a1, 0.0, 1.0], [-a0, 0.0, 0.0]])
    b0, b1, b2 = (c / t for c in hop.num)
    B = np.array([[b2], [b1], [b0]])
    g0, g1 = (c / t for c in lead.num)
    D = np.array([[0.0], [g1], [g0]])
    C = np.array([[1.0, 0.0, 0.0]])
    return ErrorSystem(A0, B, C, D)


@dataclass(frozen=True)
class BoundReport:
    """Constants of the worst-case spacing-error bound.

    bound = (j_star*beta2 + eta)*alpha_star + j_star*gamma2*w0_l2, where
    j_star is the L2->Linf gain candidate, beta2 the IC->L2 constant, gamma2
    the lead L2->L2 gain and eta the IC->Linf constant.
    """

    j_star: float
    beta2: float
    gamma2: float
    eta: float
    alpha_star: float
    w0_l2: float
    bound: float
    j_star_variant: str = "trace"


def _eta_sup(A0: np.ndarray, C: np.ndarray) -> float:
    """sup_t ||C exp(A0 t)||_2 on a time grid with a Richardson-style refinement pad."""
    re = np.abs(np.linalg.eigvals(A0).real)
    t_max = 40.0 / re.min()

    def sup_on_grid(n: int) -> float:
        h = t_max / n
        Ad = scipy.linalg.expm(A0 * h)
        M = np.eye(A0.shape[0])
        best = 0.0
        for _ in range(n + 1):
            best = max(best, float(np.linalg.norm(C @ M, 2)))
            M = M @ Ad
        return best

    s1 = sup_on_grid(2000)
    s2 = sup_on_grid(4000)
    return max(s1, s2) + abs(s2 - s1)


def _ss_mag(A: np.ndarray, Bv: np.ndarray, C: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """|C (jwI - A)^{-1} Bv| as a vectorized function of omega."""
    n = A.shape[0]

    def mags(w: np.ndarray) -> np.ndarray:
        out = np.empty(w.shape)
        for i, wi in enumerate(w):
            out[i] = abs((C @ np.linalg.solve(1j * wi * np.eye(n) - A, Bv)).item())
        return out

    return mags


def uniform_error_bound(
    sys: ErrorSystem,
    alpha_star: float,
    w0: np.ndarray,
    dt: float,
    sqrt_gain: bool = False,
) -> BoundReport:
    """Uniform bound on max_t |y_i(t)| for every vehicle in the string.

    Requires the per-hop transfer to satisfy ||C(jwI-A0)^{-1}B||_inf <= 1
    (string stability), the lead maneuver w0 in L2 (sampled, ZOH), and the
    initial errors summable: sum_i ||zeta_i(0)|| <= alpha_star.

    j_star is trace(C P C^T) with P the unique controllability-Gramian
    solution; sqrt_gain=True uses sqrt(trace(C P C^T)) instead, which is the
    Cauchy-Schwarz L2->Linf gain.  Only sqrt_gain=True is a proven bound: the
    trace variant can fall below the simulated maximum (fig3.scn with
    hw_s = 1.0 and an iid channel at gamma = 0.6 gives 1.570 m against a
    simulated 1.842 m).
    """
    if alpha_star < 0:
        raise InvalidInputError(f"alpha_star must be nonnegative, got {alpha_star}")
    hop_norm, _ = _grid_sup(_ss_mag(sys.A0, sys.B, sys.C))
    if hop_norm > 1.0 + STABILITY_TOL:
        raise UnstableLoopError(
            f"per-hop gain {hop_norm:.6g} > 1: the chained bound hypothesis fails"
        )
    P = lyapunov_solve(sys.A0, sys.B @ sys.B.T)
    trace_cpc = float(np.trace(sys.C @ P @ sys.C.T))
    j_star = math.sqrt(trace_cpc) if sqrt_gain else trace_cpc
    Wo = lyapunov_solve(sys.A0.T, sys.C.T @ sys.C)
    beta2 = math.sqrt(float(np.linalg.eigvalsh(Wo).max()))
    gamma2, _ = _grid_sup(_ss_mag(sys.A0, sys.D, sys.C))
    eta = _eta_sup(sys.A0, sys.C)
    w0_l2 = l2_norm_signal(w0, dt)
    bound = (j_star * beta2 + eta) * alpha_star + j_star * gamma2 * w0_l2
    return BoundReport(
        j_star=j_star,
        beta2=beta2,
        gamma2=gamma2,
        eta=eta,
        alpha_star=alpha_star,
        w0_l2=w0_l2,
        bound=bound,
        j_star_variant="sqrt_trace" if sqrt_gain else "trace",
    )


@dataclass(frozen=True)
class StringStabilityReport:
    stable: bool
    hinf: float
    omega_peak: float
    margin: float
    h_min: float


def is_string_stable(cfg: ControllerConfig, tau: float, gamma: float) -> StringStabilityReport:
    """Peak-gain string-stability check with the headway bound for cross-reference.

    stable means ||H||_inf <= 1 + 1e-6; margin is 1 - ||H||_inf (zero for
    stable strings, which peak at DC where H(0) = 1 exactly).
    """
    tf = cacc_error_tf(cfg, tau, gamma)
    res = hinf_norm(tf)
    ka = cfg.k_a if cfg.mode == "cacc" else 0.0
    h_min = min_headway(tau, gamma, ka)
    return StringStabilityReport(
        stable=bool(res.norm <= 1.0 + STABILITY_TOL),
        hinf=res.norm,
        omega_peak=res.omega_peak,
        margin=1.0 - res.norm,
        h_min=h_min,
    )
