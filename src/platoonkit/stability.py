"""Frequency-domain string-stability analysis and the worst-case error bound.

The per-hop spacing-error transfer function of the deterministic-equivalent
CACC string is

    H(s) = (g*Ka*s^2 + Kv*s + Kp) / (tau*s^3 + s^2 + (Kv + Kp*hw)*s + Kp)

with g the packet reception probability; H(0) = 1, so string stability is the
usual peak condition ||H||_inf <= 1.  The bound machinery chains the per-hop
L2 relation through a Lyapunov-based L2->Linf gain to dominate the maximum
spacing error of every vehicle by a constant independent of string length.

The bound's matrix exponentials (_expm) and Lyapunov solves (lyapunov_solve)
act on the 3x3 error system and are written on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .control import ControllerConfig, min_headway
from .errors import (
    InvalidInputError,
    NonHurwitzError,
    NumericalError,
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
    "OMEGA_GRID",
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

STABILITY_TOL = 1e-6

# The frequencies every peak-gain answer looks at (rad/s): omega = 0 plus a
# 2000-point log grid over 1e-3..1e3.  hinf_norm refines its sup on it, and
# the stability command writes |H| on it.
OMEGA_GRID = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 2000)])
OMEGA_GRID.flags.writeable = False


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
    """Peak gain and the frequency (rad/s) where it occurs."""

    norm: float
    omega_peak: float


# _grid_sup's refinement: passes, and magfn evaluations per pass.
ZOOM_PASSES = 4
ZOOM_POINTS = 257


def _grid_sup(magfn: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> tuple[float, float]:
    """Sup of a magnitude function over an ascending grid, and where it occurs.

    magfn is called on the grid, then once per zoom pass on a uniform
    ZOOM_POINTS-point linspace across the current bracket: the two
    neighbours of the latest argmax.  The refined peak replaces the grid
    maximum only if it beats it by more than rounding (4 eps relative), so a
    plateau such as |H| = 1 at DC is reported at its grid point and not at a
    rounding bump beside it.
    """
    mags = magfn(grid)
    k = int(np.argmax(mags))
    best, w_best = float(mags[k]), float(grid[k])
    pts, vals = grid, mags
    for _ in range(ZOOM_PASSES):
        lo, hi = pts[max(k - 1, 0)], pts[min(k + 1, pts.size - 1)]
        if not hi > lo:
            break
        pts = np.linspace(lo, hi, ZOOM_POINTS)
        vals = magfn(pts)
        k = int(np.argmax(vals))
    if vals[k] > best * (1.0 + 4.0 * np.finfo(float).eps):
        best, w_best = float(vals[k]), float(pts[k])
    return best, w_best


def hinf_norm(tf: TransferFunction) -> HinfResult:
    """Peak of |H(j*omega)|: the OMEGA_GRID argmax, zoomed in by _grid_sup.

    The grid includes omega = 0 and the high-frequency limit is checked, so
    DC peaks (H(0) = 1 for these strings, reported as exactly 1 at omega = 0)
    and biproper gains are caught exactly.
    """
    if not tf.is_stable():
        raise UnstableLoopError("hinf_norm requires a stable transfer function")
    best, w_best = _grid_sup(lambda w: freq_response_mag(tf, w), OMEGA_GRID)
    if len(tf.num) == len(tf.den):  # biproper: check the omega -> inf limit
        hf = abs(tf.num[-1] / tf.den[-1])
        if hf > best:
            best, w_best = hf, math.inf
    return HinfResult(best, w_best)


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


def _propagate(row: np.ndarray, step: np.ndarray, n: int) -> np.ndarray:
    """The n rows row @ step^k, k = 0..n-1, built in doubling blocks.

    Each block multiplies every row found so far by the next power
    step^(2^j), so n rows take about log2(n) batched products.
    """
    rows = row.reshape(1, -1)
    power = step
    while rows.shape[0] < n:
        rows = np.concatenate([rows, rows[: n - rows.shape[0]] @ power])
        power = power @ power
    return rows


# Higham, "The scaling and squaring method for the matrix exponential
# revisited" (SIAM J. Matrix Anal. Appl. 26(4), 2005): for each diagonal Pade
# degree m, the largest 1-norm at which r_m(M) is exp(M) to binary64 accuracy,
# and r_m's numerator coefficients b_0..b_m (r_m = (V - U)^-1 (V + U) with U
# the odd and V the even part).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# Rows of coefficients that combine the even powers I, M^2, M^4, ...: for
# m <= 9 the odd factor of U and V; for m = 13 (powers up to M^6) the high
# and low halves of each, as U = M (M^6 U_hi + U_lo), V = M^6 V_hi + V_lo.
_PADE_ROWS = {m: np.array([b[1::2], b[0::2]]) for m, b in _PADE_B.items() if m < 13}
_PADE_ROWS[13] = np.array([(0.0,) + _PADE_B[13][9::2], _PADE_B[13][1:9:2],
                           (0.0,) + _PADE_B[13][8::2], _PADE_B[13][0:8:2]])


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) of a square float matrix by scaling and squaring (Higham 2005).

    The lowest Pade degree whose theta covers ||M||_1 is used unscaled;
    beyond theta_13, M is divided by the least power of two 2^s that brings
    it within theta_13, r_13 is applied and the result squared s times.  A
    zero matrix returns np.eye(n) at once: exactly exp(0), which _eta_sup
    asks for on every pass whose bracket starts at t = 0.  Raises
    NumericalError on a non-finite input or result.
    """
    norm = float(np.abs(M).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NumericalError("matrix exponential of a non-finite matrix")
    n = M.shape[0]
    if norm == 0.0:
        return np.eye(n)
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    M = M * 2.0 ** -s
    powers = [np.eye(n), M @ M]
    while len(powers) < _PADE_ROWS[m].shape[1]:
        powers.append(powers[-1] @ powers[1])
    W = (_PADE_ROWS[m] @ np.array(powers).reshape(len(powers), -1)).reshape(-1, n, n)
    if m == 13:
        U, V = M @ (powers[3] @ W[0] + W[1]), powers[3] @ W[2] + W[3]
    else:
        U, V = M @ W[0], W[1]
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise NumericalError(f"matrix exponential overflowed (||M||_1 = {norm:.6g})")
    return E


def impulse_l1(tf: TransferFunction) -> float:
    """L1 norm of the impulse response, integrated from a state-space simulation.

    The horizon is 40 slow time constants, where the response has decayed to
    about e^-40 of its peak, and dt a fiftieth of the fast one.  A biproper
    feedthrough contributes |d| (its impulse).
    """
    if not tf.is_stable():
        raise UnstableLoopError("impulse_l1 requires a strictly stable transfer function")
    A, B, C, d_term = _strictly_proper_ss(tf)
    if A.shape[0] == 0:
        return abs(d_term)
    re = np.abs(np.linalg.eigvals(A).real)
    t_slow = 1.0 / re.min()
    t_fast = 1.0 / re.max()
    horizon = 40.0 * t_slow
    dt = min(t_fast / 50.0, horizon / 2000.0)
    n_steps = int(math.ceil(horizon / dt))
    h = _propagate(C[0], _expm(A * dt), n_steps + 1) @ B[:, 0]
    return float(np.trapezoid(np.abs(h), dx=dt)) + abs(d_term)


# lyapunov_solve's largest order: its Kronecker system holds n^4 floats,
# 8 MB at n = 32 (12.8 GB at n = 200).
LYAPUNOV_MAX_ORDER = 32


def lyapunov_solve(A: np.ndarray, Qm: np.ndarray) -> np.ndarray:
    """Unique P >= 0 with A P + P A^T + Qm = 0, for Hurwitz A and PSD symmetric Qm.

    Solves the Kronecker form (A (x) I + I (x) A) vec(P) = -vec(Qm), an
    n^2 x n^2 dense system: O(n^6) time and n^4 floats, so orders above
    LYAPUNOV_MAX_ORDER are rejected before anything is allocated.  The
    residual is checked against 1e-9 * ||Qm|| and the result symmetrized.
    """
    A = np.asarray(A, dtype=float)
    Qm = np.asarray(Qm, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != Qm.shape:
        raise InvalidInputError("A and Qm must be square matrices of equal shape")
    n = A.shape[0]
    if n > LYAPUNOV_MAX_ORDER:
        raise InvalidInputError(
            f"A has order {n}; lyapunov_solve takes at most {LYAPUNOV_MAX_ORDER} "
            f"(its Kronecker system holds n^4 floats)"
        )
    if not np.abs(Qm - Qm.T).max() <= 1e-12 * max(1.0, float(np.abs(Qm).max())):
        raise InvalidInputError("Qm must be symmetric")
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) >= 0.0:
        raise NonHurwitzError(
            f"A is not Hurwitz (max Re eig = {np.max(eigs.real):.6g}); no unique PSD solution"
        )
    # kron(A, I) + kron(I, A) by broadcasting: K[(i,j),(k,l)] = A_ik d_jl + d_ik A_jl
    eye = np.eye(n)
    K = A[:, None, :, None] * eye[None, :, None, :] + eye[:, None, :, None] * A[None, :, None, :]
    P = np.linalg.solve(K.reshape(n * n, n * n), -Qm.reshape(-1)).reshape(n, n)
    P = 0.5 * (P + P.T)
    q_norm = float(np.linalg.norm(Qm))
    residual = float(np.linalg.norm(A @ P + P @ A.T + Qm))
    if q_norm > 0 and residual > 1e-9 * q_norm:
        raise NonHurwitzError(f"Lyapunov residual {residual:.3g} exceeds 1e-9*||Qm|| = {1e-9 * q_norm:.3g}")
    return P


def l2_norm_signal(samples, dt: float) -> float:
    """Rectangle-rule L2 norm sqrt(sum(s^2) * dt) of a sampled signal."""
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")
    arr = np.asarray(samples, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidInputError("samples must be finite")
    return float(math.sqrt(float(np.sum(arr * arr)) * dt))


@dataclass(frozen=True)
class ErrorSystem:
    """Per-vehicle error-propagation realization (chained string form).

    zeta_1' = A0 zeta_1 + D w0   (w0: lead-vehicle acceleration)
    zeta_i' = A0 zeta_i + B y_{i-1},  y_i = C zeta_i  (y_i: spacing error)

    Built from the per-hop transfer hop = C(sI-A0)^{-1}B and the lead
    transfer lead = C(sI-A0)^{-1}D, which must be strictly proper over one
    shared Hurwitz denominator.  A0, B, C, D are the observer form, the
    transpose of the controllable form, so both numerators enter through the
    input matrices.
    """

    hop: TransferFunction
    lead: TransferFunction
    A0: np.ndarray = field(init=False, repr=False, compare=False)
    B: np.ndarray = field(init=False, repr=False, compare=False)
    C: np.ndarray = field(init=False, repr=False, compare=False)
    D: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.hop.den != self.lead.den:
            raise InvalidInputError(
                f"hop and lead transfer functions must share one denominator: "
                f"{self.hop.den} != {self.lead.den}"
            )
        if not self.hop.is_stable():
            raise UnstableLoopError(
                f"error-system denominator is not Hurwitz (poles {self.hop.poles()})"
            )
        A, Bc, C_hop, d_hop = _strictly_proper_ss(self.hop)
        _, _, C_lead, d_lead = _strictly_proper_ss(self.lead)
        if d_hop != 0.0 or d_lead != 0.0:
            raise InvalidInputError("hop and lead transfer functions must be strictly proper")
        object.__setattr__(self, "A0", A.T)
        object.__setattr__(self, "B", C_hop.T)
        object.__setattr__(self, "C", Bc.T)
        object.__setattr__(self, "D", C_lead.T)

    @property
    def order(self) -> int:
        return self.A0.shape[0]


def build_error_system(cfg: ControllerConfig, tau: float, gamma: float) -> ErrorSystem:
    """Realize the error chain for a controller configuration."""
    return ErrorSystem(cacc_error_tf(cfg, tau, gamma), lead_input_tf(cfg, tau, gamma))


@dataclass(frozen=True)
class BoundReport:
    """Constants of the worst-case spacing-error bound.

    bound = (j_star*beta2 + eta)*alpha_star + j_star*gamma2*w0_l2, where
    j_star = sqrt(trace(C P C^T)) is the Cauchy-Schwarz L2->Linf gain (P the
    controllability Gramian), beta2 the IC->L2 constant, gamma2 the lead
    L2->L2 gain and eta the IC->Linf constant.
    """

    j_star: float
    beta2: float
    gamma2: float
    eta: float
    alpha_star: float
    w0_l2: float
    bound: float


ETA_STEPS = 4000


def _eta_sup(A0: np.ndarray, C: np.ndarray) -> float:
    """sup_t ||C exp(A0 t)||_2 over 40 slow time constants.

    Time is counted in steps h of a linear grid of ETA_STEPS steps, and
    _grid_sup searches it.  Every grid it evaluates is uniform, so the rows
    C exp(A0 t) on one are a start row carried on by powers of one step
    exponential: two _expm calls and a doubling propagation per evaluation.
    """
    h = 40.0 / np.abs(np.linalg.eigvals(A0).real).min() / ETA_STEPS

    def row_norms(u: np.ndarray) -> np.ndarray:
        start = C[0] @ _expm(A0 * (h * u[0]))
        step = _expm(A0 * (h * (u[-1] - u[0]) / (u.size - 1)))
        return np.linalg.norm(_propagate(start, step, u.size), axis=1)

    return _grid_sup(row_norms, np.arange(ETA_STEPS + 1.0))[0]


def uniform_error_bound(sys: ErrorSystem, alpha_star: float, w0: np.ndarray, dt: float) -> BoundReport:
    """Uniform bound on max_t |y_i(t)| for every vehicle in the string.

    Requires the per-hop transfer to satisfy ||hop||_inf <= 1 (string
    stability), the lead maneuver w0 in L2 (sampled, ZOH), and the initial
    errors summable: sum_i ||zeta_i(0)|| <= alpha_star.  The L2->Linf gain
    is the Gramian bound of Ploeg et al., "Lp String Stability of Cascaded
    Systems" (IEEE TCST 2014).
    """
    if not (alpha_star >= 0 and math.isfinite(alpha_star)):
        raise InvalidInputError(f"alpha_star must be nonnegative and finite, got {alpha_star}")
    w0_l2 = l2_norm_signal(w0, dt)
    hop_norm = hinf_norm(sys.hop).norm
    if hop_norm > 1.0 + STABILITY_TOL:
        raise UnstableLoopError(
            f"per-hop gain {hop_norm:.6g} > 1: the chained bound hypothesis fails"
        )
    P = lyapunov_solve(sys.A0, sys.B @ sys.B.T)
    j_star = math.sqrt(float(np.trace(sys.C @ P @ sys.C.T)))
    Wo = lyapunov_solve(sys.A0.T, sys.C.T @ sys.C)
    beta2 = math.sqrt(float(np.linalg.eigvalsh(Wo).max()))
    gamma2 = hinf_norm(sys.lead).norm
    eta = _eta_sup(sys.A0, sys.C)
    return BoundReport(
        j_star=j_star,
        beta2=beta2,
        gamma2=gamma2,
        eta=eta,
        alpha_star=alpha_star,
        w0_l2=w0_l2,
        bound=(j_star * beta2 + eta) * alpha_star + j_star * gamma2 * w0_l2,
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
