import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import random_stable_config
from platoonkit.control import ControllerConfig, min_headway
from platoonkit.errors import (
    InvalidInputError,
    NonHurwitzError,
    NumericalError,
    PoleOnAxisError,
    UnstableLoopError,
)
from platoonkit.scenario import load_scenario
from platoonkit.stability import (
    ETA_STEPS,
    LYAPUNOV_MAX_ORDER,
    OMEGA_GRID,
    ErrorSystem,
    TransferFunction,
    _eta_sup,
    _expm,
    build_error_system,
    cacc_error_tf,
    freq_response_mag,
    hinf_norm,
    impulse_l1,
    is_string_stable,
    l2_norm_signal,
    lead_input_tf,
    lyapunov_solve,
    parseval_energies,
    uniform_error_bound,
)

FIG_GAINS = dict(k_a=0.4, k_v=1.0, k_p=0.8)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def quad_peak_oracle(cfg: ControllerConfig, tau: float, gamma: float) -> float:
    """Closed-form peak gain from the quartic |D|^2 - |N|^2 = W*f(W).

    f(W) = tau^2 W^2 + b W + c with W = omega^2; when f dips negative the
    peak sits at the minimizer of |D|^2/|N|^2, found by bounded scalar
    minimization of the exact magnitude ratio.  Entirely independent of the
    polynomial/grid machinery under test.
    """
    k = gamma * cfg.k_a
    z = cfg.k_v + cfg.k_p * cfg.h_w
    b = 1.0 - k * k - 2.0 * tau * z
    c = 2.0 * cfg.k_p * (k - 1.0) + z * z - cfg.k_v * cfg.k_v
    disc = b * b - 4.0 * tau * tau * c
    if c >= 0.0 and (b >= 0.0 or disc <= 0.0):
        return 1.0  # no dip below: peak is the DC value H(0) = 1
    from scipy.optimize import minimize_scalar

    def neg_ratio_sq(W):
        n2 = (cfg.k_p - k * W) ** 2 + cfg.k_v**2 * W
        d2 = (cfg.k_p - W) ** 2 + W * (z - tau * W) ** 2
        return -n2 / d2

    res = minimize_scalar(neg_ratio_sq, bounds=(1e-12, 400.0), method="bounded",
                          options={"xatol": 1e-12})
    return max(1.0, math.sqrt(-res.fun))


class TestTransferFunctionType:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TransferFunction((1.0, 2.0), (1.0,))  # improper
        with pytest.raises(InvalidInputError):
            TransferFunction((1.0,), (1.0, 0.0))  # zero leading den coeff
        with pytest.raises(InvalidInputError):
            TransferFunction((math.nan,), (1.0, 1.0))

    def test_stability_check(self):
        assert TransferFunction((1.0,), (1.0, 1.0)).is_stable()
        assert not TransferFunction((1.0,), (-1.0, 1.0)).is_stable()  # pole at +1


class TestCaccErrorTf:
    def test_symbolic_laplace_derivation(self):
        """Coefficient-by-coefficient check against an in-test sympy derivation."""
        sympy = pytest.importorskip("sympy")
        s, tau_s, g_s, ka_s, kv_s, kp_s, hw_s = sympy.symbols(
            "s tau g ka kv kp hw", positive=True
        )
        Xi, Xim1 = sympy.symbols("Xi Xim1")
        eq = sympy.Eq(
            (tau_s * s + 1) * s**2 * Xi,
            g_s * ka_s * s**2 * Xim1
            - kv_s * s * (Xi - Xim1)
            - kp_s * (Xi - Xim1)
            - kp_s * hw_s * s * Xi,
        )
        G = sympy.simplify(sympy.solve(eq, Xi)[0] / Xim1)
        # E_i = (1 + hw*s) X_i - X_{i-1}  =>  E ratio telescopes to G itself
        H = sympy.simplify((G * (1 + hw_s * s) - 1) / ((1 + hw_s * s) - 1 / G))
        assert sympy.simplify(H - G) == 0
        num, den = sympy.fraction(sympy.cancel(H))
        subs = {tau_s: 0.5, g_s: 0.4, ka_s: 0.4, kv_s: 1.0, kp_s: 0.8, hw_s: 0.75}
        num_poly = sympy.Poly(num.subs(subs), s).all_coeffs()[::-1]
        den_poly = sympy.Poly(den.subs(subs), s).all_coeffs()[::-1]
        tf = cacc_error_tf(ControllerConfig(h_w=0.75, **FIG_GAINS), 0.5, 0.4)
        scale = float(den_poly[-1]) / tf.den[-1]
        for c_sym, c_code in zip(num_poly, tf.num):
            assert float(c_sym) == pytest.approx(scale * c_code, rel=1e-12)
        for c_sym, c_code in zip(den_poly, tf.den):
            assert float(c_sym) == pytest.approx(scale * c_code, rel=1e-12)

    def test_dc_gain_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            cfg, tau, gamma = random_stable_config(rng)
            tf = cacc_error_tf(cfg, tau, gamma)
            assert freq_response_mag(tf, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_acc_mode_drops_feedforward(self):
        cfg = ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=1.0, mode="acc")
        tf = cacc_error_tf(cfg, 0.5, 1.0)
        assert tf.num[2] == 0.0

    def test_non_hurwitz_loop_rejected(self):
        # k_v + k_p*h_w <= tau*k_p fails Routh
        cfg = ControllerConfig(k_a=0.0, k_v=0.01, k_p=3.0, h_w=0.1)
        with pytest.raises(UnstableLoopError):
            cacc_error_tf(cfg, 0.9, 0.0)

    def test_sinusoid_sweep_oracle(self):
        """Steady-state amplitude ratio e2/e1 of a simulated 3-vehicle string
        must match |H(j*omega)| within 1% at omega in {0.1, 1, 5}.

        Configs whose slowest pole exceeds a 2.5 s time constant are
        resampled so the settling window stays practical.
        """
        rng = np.random.default_rng(12)
        trials = 0
        while trials < 3:
            cfg, tau, gamma = random_stable_config(rng)
            tf = cacc_error_tf(cfg, tau, gamma)
            if 1.0 / np.abs(tf.poles().real).min() > 2.5:
                continue
            trials += 1
            for omega in (0.1, 1.0, 5.0):
                ratio = _sinusoid_hop_ratio(cfg, tau, gamma, omega)
                assert ratio == pytest.approx(freq_response_mag(tf, omega), rel=0.01)


def _sinusoid_hop_ratio(cfg, tau, gamma, omega, amp=0.3):
    """Drive the leader sinusoidally; demodulate e2/e1 after transients."""
    from platoonkit.dynamics import zoh_coefficients
    from platoonkit.stability import cacc_error_tf

    poles = cacc_error_tf(cfg, tau, gamma).poles()
    t_slow = 1.0 / np.abs(poles.real).min()
    t_fast = 1.0 / np.abs(poles.real).max()
    dt = min(0.002, 2 * math.pi / omega / 3000, t_fast / 40)
    settle = 12.0 * t_slow + 4.0 * 2 * math.pi / omega
    periods = 6
    t_end = settle + periods * 2 * math.pi / omega
    steps = int(t_end / dt)
    c_aa, c_au, c_va, c_vu, c_xa, c_xu = zoh_coefficients(tau, dt)
    d, hw = 5.0, cfg.h_w
    k_ff, k_v, k_p = gamma * cfg.k_a, cfg.k_v, cfg.k_p
    speed = 20.0
    # Three vehicles on Python floats: numpy's per-call cost dominates 3-element arrays.
    x0, x1, x2 = 0.0, -d - hw * speed, -2 * (d + hw * speed)
    v0 = v1 = v2 = speed
    a0 = a1 = a2 = 0.0
    e1s, e2s, ts = [], [], []
    for k in range(steps):
        t = k * dt
        u0 = amp * math.sin(omega * t)
        u1 = k_ff * a0 - k_v * (v1 - v0) - k_p * (x1 - x0 + d + hw * v1)
        u2 = k_ff * a1 - k_v * (v2 - v1) - k_p * (x2 - x1 + d + hw * v2)
        x0, x1, x2 = (x0 + v0 * dt + a0 * c_xa + u0 * c_xu, x1 + v1 * dt + a1 * c_xa + u1 * c_xu,
                      x2 + v2 * dt + a2 * c_xa + u2 * c_xu)
        v0, v1, v2 = v0 + a0 * c_va + u0 * c_vu, v1 + a1 * c_va + u1 * c_vu, v2 + a2 * c_va + u2 * c_vu
        a0, a1, a2 = a0 * c_aa + u0 * c_au, a1 * c_aa + u1 * c_au, a2 * c_aa + u2 * c_au
        if t >= settle:
            e1s.append(x1 - x0 + d + hw * v1)
            e2s.append(x2 - x1 + d + hw * v2)
            ts.append(t)
    ts = np.array(ts)
    window = ts <= ts[0] + periods * 2 * math.pi / omega  # integer periods
    phase = np.exp(-1j * omega * ts[window])

    def amplitude(sig):
        return 2.0 * abs(np.mean(np.asarray(sig)[window] * phase))

    return amplitude(e2s) / amplitude(e1s)


class TestFreqResponse:
    def test_first_order_dc(self):
        tf = TransferFunction((1.0,), (1.0, 1.0))
        assert freq_response_mag(tf, 0.0) == 1.0

    def test_first_order_corner(self):
        tf = TransferFunction((1.0,), (1.0, 1.0))
        assert freq_response_mag(tf, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_pole_on_axis(self):
        tf = TransferFunction((1.0,), (0.0, 1.0))  # integrator
        with pytest.raises(PoleOnAxisError):
            freq_response_mag(tf, 0.0)

    def test_unstable_config_peak_exceeds_one(self, figure_gains):
        tf = cacc_error_tf(ControllerConfig(h_w=0.75, **figure_gains), 0.5, 0.4)
        peak_w = 1.1585
        assert freq_response_mag(tf, peak_w) > 1.0

    def test_array_of_omegas(self):
        tf = TransferFunction((1.0,), (1.0, 1.0))
        w = np.array([0.0, 1.0, 3.0])
        assert np.allclose(freq_response_mag(tf, w), 1.0 / np.sqrt(1.0 + w * w), rtol=1e-15, atol=0.0)
        with pytest.raises(InvalidInputError):
            freq_response_mag(tf, np.array([1.0, -1.0]))


class TestParsevalEnergies:
    def test_total_is_time_domain_energy(self, figure_gains):
        tf = cacc_error_tf(ControllerConfig(h_w=0.75, **figure_gains), 0.5, 0.4)
        err = np.random.default_rng(5).standard_normal((401, 2))
        for n in (400, 401):  # even records have an unpaired Nyquist bin
            total, in_band, omega_band = parseval_energies(err[:n], 0.1, tf)
            assert np.allclose(total, 0.1 * (err[:n] ** 2).sum(axis=0), rtol=1e-12, atol=0.0)
            assert omega_band.size > 0 and np.all(freq_response_mag(tf, omega_band) > 1.0)
            assert np.all((0.0 < in_band) & (in_band < total))


class TestHinfNorm:
    def test_constant_gain(self):
        assert hinf_norm(TransferFunction((2.5,), (1.0,))).norm == pytest.approx(2.5)

    def test_first_order_dc_peak(self):
        res = hinf_norm(TransferFunction((1.0,), (1.0, 1.0)))
        assert res.norm == pytest.approx(1.0, abs=1e-12)
        assert res.omega_peak == 0.0

    def test_figure_stable_config(self, figure_gains):
        tf = cacc_error_tf(ControllerConfig(h_w=0.9, **figure_gains), 0.5, 0.4)
        assert hinf_norm(tf).norm <= 1.0 + 1e-6

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            cfg, tau, gamma = random_stable_config(rng)
            tf = cacc_error_tf(cfg, tau, gamma)
            expected = quad_peak_oracle(cfg, tau, gamma)
            assert hinf_norm(tf).norm == pytest.approx(expected, rel=1e-6)

    def test_matches_dense_grid_across_the_bracket(self):
        """The norm is at least max |H| on 10^5 points across the grid argmax's
        bracket, to rounding, and at most 1e-12 relative above that maximum
        raised to the vertex of the parabola through its three samples.

        |H| is the closed-form magnitude, independent of freq_response_mag,
        so the lower side allows the 4 eps by which two evaluations of one
        value may round apart.
        """
        rng = np.random.default_rng(19)
        n_stable = 0
        for i in range(60):
            cfg, tau, gamma = random_stable_config(rng)
            tf = cacc_error_tf(cfg, tau, gamma)
            k = int(np.argmax(freq_response_mag(tf, OMEGA_GRID)))
            W = np.linspace(OMEGA_GRID[max(k - 1, 0)], OMEGA_GRID[k + 1], 100_000) ** 2
            ka, z = gamma * cfg.k_a, cfg.k_v + cfg.k_p * cfg.h_w
            mags = np.sqrt(((cfg.k_p - ka * W) ** 2 + cfg.k_v**2 * W)
                           / ((cfg.k_p - W) ** 2 + W * (z - tau * W) ** 2))
            j = int(np.argmax(mags))
            dense = peak = mags[j]
            if 0 < j < mags.size - 1 and 2 * dense > mags[j - 1] + mags[j + 1]:
                peak += (mags[j + 1] - mags[j - 1]) ** 2 / (8 * (2 * dense - mags[j - 1] - mags[j + 1]))
            norm = hinf_norm(tf).norm
            assert dense * (1 - 4 * np.finfo(float).eps) <= norm <= peak * (1 + 1e-12), f"config {i}"
            n_stable += norm <= 1.0
        assert 10 <= n_stable <= 50  # both stable and unstable strings were drawn

    def test_unstable_rejected(self):
        with pytest.raises(UnstableLoopError):
            hinf_norm(TransferFunction((1.0,), (-1.0, 1.0)))

    def test_biproper_high_frequency_peak(self):
        # (2s + 1)/(s + 1): |H| grows from 1 to 2 at high frequency
        res = hinf_norm(TransferFunction((1.0, 2.0), (1.0, 1.0)))
        assert res.norm == pytest.approx(2.0, rel=1e-6)


class TestImpulseL1:
    def test_first_order_integral(self):
        val = impulse_l1(TransferFunction((1.0,), (1.0, 1.0)))
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_nonnegative_impulse_equals_dc_gain(self):
        # 1/((s+1)(s+2)): h = e^-t - e^-2t >= 0, so ||h||_1 = H(0) = 1/2
        tf = TransferFunction((1.0,), (2.0, 3.0, 1.0))
        assert impulse_l1(tf) == pytest.approx(0.5, abs=1e-4)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableLoopError):
            impulse_l1(TransferFunction((1.0,), (-1.0, 1.0)))

    @pytest.mark.parametrize("name, l1", [("fig2.scn", "1.329"), ("fig3.scn", "1.221")])
    def test_figure_strings_match_decisions_table(self, name, l1):
        # ||h||_1 of each figure string as docs/decisions.md prints it (criterion 3)
        sc = load_scenario(SCENARIOS / name)
        tf = cacc_error_tf(sc.controller, sc.params.tau, sc.channel.effective_gamma())
        assert f"{impulse_l1(tf):.3f}" == l1

    def test_sandwich_inequality_small_sample(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            cfg, tau, gamma = random_stable_config(rng)
            tf = cacc_error_tf(cfg, tau, gamma)
            h0 = freq_response_mag(tf, 0.0)
            hinf = hinf_norm(tf).norm
            l1 = impulse_l1(tf)
            assert h0 <= hinf * (1 + 1e-3)
            assert hinf <= l1 * (1 + 1e-3)


class TestLyapunov:
    def test_scalar(self):
        P = lyapunov_solve(np.array([[-1.0]]), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(0.5)

    def test_identity(self):
        P = lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-12)

    def test_random_hurwitz_residual(self):
        for A, Q in random_lyapunov_cases():
            P = lyapunov_solve(A, Q)
            assert np.linalg.norm(A @ P + P @ A.T + Q) <= 1e-9 * np.linalg.norm(Q)
            assert np.allclose(P, P.T, atol=1e-12)
            assert np.linalg.eigvalsh(P).min() >= -1e-10

    def test_matches_scipy_bartels_stewart(self):
        for i, (A, Q) in enumerate(random_lyapunov_cases()):
            expected = scipy.linalg.solve_continuous_lyapunov(A, -Q)
            err = np.linalg.norm(lyapunov_solve(A, Q) - expected) / np.linalg.norm(expected)
            assert err <= 1e-12, f"case {i}"

    def test_order_above_cap_rejected(self):
        n = LYAPUNOV_MAX_ORDER
        assert np.allclose(lyapunov_solve(-np.eye(n), np.eye(n)), 0.5 * np.eye(n), atol=1e-12)
        with pytest.raises(InvalidInputError, match=r"\bA\b.*order 33"):
            lyapunov_solve(-np.eye(n + 1), np.eye(n + 1))

    def test_non_hurwitz_rejected(self):
        with pytest.raises(NonHurwitzError):
            lyapunov_solve(np.array([[1.0]]), np.array([[1.0]]))

    @pytest.mark.parametrize("Qm", [[[1.0, 2.0], [0.0, 1.0]],
                                    [[1.0, 1.0 + 5e-6], [1.0, 1.0]]])   # asymmetric by 5e-6 relative
    def test_asymmetric_q_rejected(self, Qm):
        with pytest.raises(InvalidInputError, match="^Qm must be symmetric"):
            lyapunov_solve(-np.eye(2), np.array(Qm))


def random_lyapunov_cases():
    """20 (A, Q) pairs: Hurwitz A of order 2..5 with a random spectral margin, Q = B B^T of rank <= 2."""
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = rng.integers(2, 6)
        A = rng.normal(size=(n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.3, 1.5)) * np.eye(n)
        B = rng.normal(size=(n, 2))
        yield A, B @ B.T


def max_entry_error(E, expected):
    """Largest entrywise difference, relative to the largest entry of expected."""
    return np.abs(E - expected).max() / np.abs(expected).max()


class TestExpm:
    def test_matches_scipy_on_shipped_scenarios(self):
        """At t = 0, dt, 1 s and 40 slow time constants on the A0 of each shipped scenario."""
        for name in ("fig2.scn", "fig3.scn", "safety.scn"):
            sc = load_scenario(SCENARIOS / name)
            A0 = build_error_system(sc.controller, sc.params.tau, sc.channel.effective_gamma()).A0
            t_slow = 1.0 / np.abs(np.linalg.eigvals(A0).real).min()
            for t in (0.0, sc.dt, 1.0, 40.0 * t_slow):
                err = max_entry_error(_expm(A0 * t), scipy.linalg.expm(A0 * t))
                assert err <= 1e-13, f"{name} t={t}"

    def test_matches_scipy_at_eta_step_and_horizon(self):
        """On _eta_sup's step and horizon for the dense-sample test's 60 configs.

        At the horizon exp(A0 t) has decayed to about e^-40 through 7 to 12
        squarings, and scipy.linalg.expm is itself up to 1.05e-12 (relative
        to the largest entry) off a 40-digit reference there, against
        3.8e-13 for _expm; so the two are held to 2e-12 at the horizon and
        to 1e-13 at the step.
        """
        rng = np.random.default_rng(5)
        for i in range(60):
            A0 = build_error_system(*random_stable_config(rng)).A0
            horizon = 40.0 / np.abs(np.linalg.eigvals(A0).real).min()
            for t, tol in ((horizon / ETA_STEPS, 1e-13), (horizon, 2e-12)):
                err = max_entry_error(_expm(A0 * t), scipy.linalg.expm(A0 * t))
                assert err <= tol, f"config {i} t={t}"

    def test_unscaled_and_scaled_match_scipy(self):
        """Hurwitz M with 1-norms from 1e-3 to 5.38: r_13 runs unscaled up to theta_13 = 5.3719 and scaled beyond it."""
        rng = np.random.default_rng(21)
        for norm in (1e-3, 0.014, 0.016, 0.25, 0.26, 0.95, 0.96, 2.09, 2.1, 5.37, 5.38):
            for _ in range(5):
                M = rng.normal(size=(3, 3))
                M -= (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(3)
                M *= norm / np.abs(M).sum(axis=0).max()
                assert max_entry_error(_expm(M), scipy.linalg.expm(M)) <= 1e-13, f"norm {norm}"

    def test_zero_matrix_is_exact_identity(self):
        assert np.array_equal(_expm(np.zeros((3, 3))), np.eye(3))
        assert np.array_equal(_expm(np.full((3, 3), -0.0)), np.eye(3))

    def test_subnormal_norm_is_not_scaled(self):
        # ||M||_1 / theta_13 underflows to 0 here, where log2 would fail
        assert np.abs(_expm(np.diag([-5e-324, 0.0, 0.0])) - np.eye(3)).max() <= 2.0 ** -52

    def test_non_finite_input_or_result_raises(self):
        for bad in (np.nan, np.inf):
            M = -np.eye(3)
            M[1, 2] = bad
            with pytest.raises(NumericalError):
                _expm(M)
        with pytest.raises(NumericalError):
            _expm(1000.0 * np.eye(3))   # e^1000 overflows


class TestL2Norm:
    def test_constant_signal(self):
        assert l2_norm_signal(np.ones(400), 0.01) == pytest.approx(2.0, abs=0.01)

    def test_zeros(self):
        assert l2_norm_signal(np.zeros(100), 0.1) == 0.0

    def test_braking_pulse(self):
        # -9 m/s^2 held for one second
        assert l2_norm_signal(np.full(100, -9.0), 0.01) == pytest.approx(9.0)

    def test_dt_validation(self):
        with pytest.raises(InvalidInputError):
            l2_norm_signal([1.0], 0.0)

    @pytest.mark.parametrize("samples, dt", [([1.0], math.inf), ([math.nan], 0.1), ([1.0, -math.inf], 0.1)])
    def test_non_finite_rejected(self, samples, dt):
        with pytest.raises(InvalidInputError):
            l2_norm_signal(samples, dt)


class TestErrorSystem:
    def test_hop_realization_matches_tf(self, figure_gains):
        cfg = ControllerConfig(h_w=0.9, **figure_gains)
        sys_ = build_error_system(cfg, 0.5, 0.4)
        tf = cacc_error_tf(cfg, 0.5, 0.4)
        for w in (0.0, 0.3, 1.1, 4.0, 20.0):
            mag = abs((sys_.C @ np.linalg.solve(1j * w * np.eye(3) - sys_.A0, sys_.B)).item())
            assert mag == pytest.approx(freq_response_mag(tf, w), rel=1e-10)

    def test_lead_realization_matches_tf(self, figure_gains):
        cfg = ControllerConfig(h_w=0.9, **figure_gains)
        sys_ = build_error_system(cfg, 0.5, 0.4)
        tf = lead_input_tf(cfg, 0.5, 0.4)
        for w in (0.0, 0.3, 1.1, 4.0, 20.0):
            mag = abs((sys_.C @ np.linalg.solve(1j * w * np.eye(3) - sys_.A0, sys_.D)).item())
            assert mag == pytest.approx(freq_response_mag(tf, w), rel=1e-10)

    def test_non_hurwitz_rejected(self):
        unstable = TransferFunction((1.0,), (-1.0, 0.0, 1.0))  # poles at +-1
        with pytest.raises(UnstableLoopError):
            ErrorSystem(unstable, TransferFunction((2.0,), unstable.den))

    def test_mismatched_denominator_rejected(self, figure_gains):
        cfg = ControllerConfig(h_w=0.9, **figure_gains)
        hop = cacc_error_tf(cfg, 0.5, 0.4)
        lead = TransferFunction(lead_input_tf(cfg, 0.5, 0.4).num, (1.0, 2.0, 1.0, 0.5))
        with pytest.raises(InvalidInputError):
            ErrorSystem(hop, lead)

    def test_biproper_rejected(self, figure_gains):
        cfg = ControllerConfig(h_w=0.9, **figure_gains)
        hop = cacc_error_tf(cfg, 0.5, 0.4)
        lead = lead_input_tf(cfg, 0.5, 0.4)
        biproper = TransferFunction(lead.num + (0.0, 1.0), hop.den)
        with pytest.raises(InvalidInputError):
            ErrorSystem(biproper, lead)
        with pytest.raises(InvalidInputError):
            ErrorSystem(hop, biproper)
        # trailing zero coefficients keep a transfer function strictly proper
        ErrorSystem(TransferFunction(hop.num + (0.0,), hop.den), lead)

    def test_eta_dominates_dense_sample(self):
        """_eta_sup is at least max ||C expm(A0 t)|| on 40,001 points over 40 slow time constants.

        The sample is built independently of _eta_sup: doubling blocks of
        rows by powers of one step exponential.  Config 18 of this draw is a
        case whose sup lies off t = 0.
        """
        rng = np.random.default_rng(5)
        for i in range(60):
            sys_ = build_error_system(*random_stable_config(rng))
            t_max = 40.0 / np.abs(np.linalg.eigvals(sys_.A0).real).min()
            power = scipy.linalg.expm(sys_.A0 * (t_max / 40000))
            rows = sys_.C
            while rows.shape[0] < 40001:
                rows = np.vstack([rows, rows @ power])
                power = power @ power
            dense = np.linalg.norm(rows[:40001], axis=1).max()
            assert _eta_sup(sys_.A0, sys_.C) >= dense, f"config {i}"

    def test_eta_agrees_with_sequential_golden_search(self):
        """_eta_sup is within 1e-12 relative of one-step-at-a-time propagation
        refined by an 80-step golden section, on the dense-sample test's configs."""
        rng = np.random.default_rng(5)
        for i in range(60):
            sys_ = build_error_system(*random_stable_config(rng))
            expected = _eta_sup_sequential_golden(sys_.A0, sys_.C)
            assert _eta_sup(sys_.A0, sys_.C) == pytest.approx(expected, rel=1e-12, abs=0.0), f"config {i}"


def _eta_sup_sequential_golden(A0, C):
    """sup_t ||C exp(A0 t)|| by sequential row propagation over ETA_STEPS steps
    and a golden-section search between the argmax's neighbours."""
    h = 40.0 / np.abs(np.linalg.eigvals(A0).real).min() / ETA_STEPS
    step = scipy.linalg.expm(A0 * h)
    rows = np.empty((ETA_STEPS + 1, A0.shape[0]))
    rows[0] = C[0]
    for k in range(ETA_STEPS):
        rows[k + 1] = rows[k] @ step

    def norm_at(u):
        k = int(u)
        return float(np.linalg.norm(rows[k] @ scipy.linalg.expm(A0 * (h * (u - k)))))

    norms = np.linalg.norm(rows, axis=1)
    k = int(np.argmax(norms))
    best = float(norms[k])
    a, b = max(k - 1, 0), min(k + 1, ETA_STEPS)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = norm_at(c), norm_at(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = norm_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = norm_at(d)
    return max(best, norm_at(0.5 * (a + b)))


def exact_chain_max_errors(sys_, n_vehicles, w0, dt, zeta0=None):
    """Exact ZOH simulation of the chained error system; max |y_i| per vehicle."""
    n = sys_.order
    A = np.zeros((n * n_vehicles, n * n_vehicles))
    for i in range(n_vehicles):
        A[n * i : n * (i + 1), n * i : n * (i + 1)] = sys_.A0
        if i > 0:
            A[n * i : n * (i + 1), n * (i - 1) : n * i] = sys_.B @ sys_.C
    Dfull = np.zeros((n * n_vehicles, 1))
    Dfull[:n] = sys_.D
    M = np.zeros((n * n_vehicles + 1, n * n_vehicles + 1))
    M[: n * n_vehicles, : n * n_vehicles] = A * dt
    M[: n * n_vehicles, n * n_vehicles :] = Dfull * dt
    E = scipy.linalg.expm(M)
    Ad = E[: n * n_vehicles, : n * n_vehicles]
    Bd = E[: n * n_vehicles, n * n_vehicles :][:, 0]
    z = np.zeros(n * n_vehicles) if zeta0 is None else np.asarray(zeta0, dtype=float).reshape(-1)
    Cfull = np.zeros((n_vehicles, n * n_vehicles))
    for i in range(n_vehicles):
        Cfull[i, n * i : n * (i + 1)] = sys_.C
    ymax = np.abs(Cfull @ z)
    for wk in w0:
        z = Ad @ z + Bd * wk
        ymax = np.maximum(ymax, np.abs(Cfull @ z))
    return ymax


class TestUniformErrorBound:
    def stable_system(self, figure_gains):
        # gamma = 1 keeps h_w = 0.75 string stable for these gains
        return build_error_system(ControllerConfig(h_w=0.75, **figure_gains), 0.5, 1.0)

    def test_no_excitation_zero_bound(self, figure_gains):
        rep = uniform_error_bound(self.stable_system(figure_gains), 0.0, np.zeros(10), 0.01)
        assert rep.bound == 0.0

    def test_degree_one_homogeneity(self, figure_gains):
        sys_ = self.stable_system(figure_gains)
        w0 = np.concatenate([np.full(100, -9.0), np.zeros(50)])
        r1 = uniform_error_bound(sys_, 0.7, w0, 0.01)
        r2 = uniform_error_bound(sys_, 1.4, 2.0 * w0, 0.01)
        assert r2.bound == pytest.approx(2.0 * r1.bound, rel=1e-12)

    def test_unstable_hop_rejected(self, figure_gains):
        # gamma = 0.4, h_w = 0.75 violates the chained-bound hypothesis
        sys_ = build_error_system(ControllerConfig(h_w=0.75, **figure_gains), 0.5, 0.4)
        with pytest.raises(UnstableLoopError):
            uniform_error_bound(sys_, 0.0, np.zeros(10), 0.01)

    def test_bound_dominates_exact_simulation(self, figure_gains):
        sys_ = self.stable_system(figure_gains)
        rng = np.random.default_rng(16)
        dt = 0.005
        for _ in range(10):
            w0 = np.zeros(rng.integers(300, 1500))
            for _ in range(rng.integers(1, 4)):
                s = rng.integers(0, len(w0) - 60)
                w0[s : s + rng.integers(20, 60)] += rng.uniform(-9, 4)
            n_veh = int(rng.integers(1, 7))
            alpha = float(rng.uniform(0.0, 1.5))
            z0 = rng.normal(size=(n_veh, 3))
            total = np.linalg.norm(z0, axis=1).sum()
            if total > 0:
                z0 *= alpha / total
            ymax = exact_chain_max_errors(sys_, n_veh, w0, dt, z0).max()
            rep = uniform_error_bound(sys_, alpha, w0, dt)
            assert ymax <= rep.bound

    def test_report_invariant(self, figure_gains):
        sys_ = self.stable_system(figure_gains)
        rep = uniform_error_bound(sys_, 0.5, np.full(100, -3.0), 0.01)
        j = rep.j_star
        expected = (j * rep.beta2 + rep.eta) * rep.alpha_star + j * rep.gamma2 * rep.w0_l2
        assert rep.bound == pytest.approx(expected, rel=1e-12)


class TestIsStringStable:
    def test_fig2_unstable(self, figure_gains):
        rep = is_string_stable(ControllerConfig(h_w=0.75, **figure_gains), 0.5, 0.4)
        assert not rep.stable
        assert rep.margin < 0
        assert rep.h_min == pytest.approx(0.8621, abs=1e-4)

    def test_fig3_stable(self, figure_gains):
        rep = is_string_stable(ControllerConfig(h_w=0.9, **figure_gains), 0.5, 0.4)
        assert rep.stable
        # The peak is the DC plateau itself, not a rounding bump beside omega = 0.
        assert (rep.hinf, rep.omega_peak, rep.margin) == (1.0, 0.0, 0.0)

    def test_lossless_boundary_with_figure_gains_is_slightly_over(self, figure_gains):
        # At h_w = 2*tau/(1+Ka) the peak is 1.0127 with these particular
        # gains: the headway bound is attained with the matched velocity
        # gain (1-(g*Ka)^2)/(2*tau), not with every gain choice.
        rep = is_string_stable(ControllerConfig(h_w=2 * 0.5 / 1.4, **figure_gains), 0.5, 1.0)
        assert rep.hinf == pytest.approx(1.01265, abs=2e-4)

    def test_sufficiency_with_matched_velocity_gain(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            tau = rng.uniform(0.2, 0.8)
            gamma = rng.uniform(0.0, 1.0)
            ka = rng.uniform(0.0, 0.95)
            kp = rng.uniform(0.2, 2.5)
            kv = (1.0 - (gamma * ka) ** 2) / (2.0 * tau)
            h_min = min_headway(tau, gamma, ka)
            hw = h_min * rng.uniform(1.0, 1.8)
            cfg = ControllerConfig(k_a=ka, k_v=kv, k_p=kp, h_w=hw)
            assert is_string_stable(cfg, tau, gamma).stable

    def test_necessity_below_h_min(self):
        # h_w < h_min rules out string stability for every gain choice
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 40:
            cfg, tau, gamma = random_stable_config(rng)
            h_min = min_headway(tau, gamma, cfg.k_a)
            if cfg.h_w >= 0.995 * h_min:
                continue
            assert not is_string_stable(cfg, tau, gamma).stable
            checked += 1

    def test_hinf_non_increasing_in_headway(self, figure_gains):
        values = [
            is_string_stable(ControllerConfig(h_w=hw, **figure_gains), 0.5, 0.4).hinf
            for hw in np.linspace(0.6, 1.4, 17)
        ]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9
