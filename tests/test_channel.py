import numpy as np
import pytest

from platoonkit.channel import (
    ChannelState,
    GilbertParams,
    Regime,
    channel_step,
    gamma_analytic,
    gamma_estimate,
    iid_channel,
    initial_state,
    simulate_reception,
    stationary_good_probability,
)
from platoonkit.errors import InsufficientDataError, InvalidInputError, StationaryDistributionError

BURSTY_LINK = GilbertParams(p_gb=0.3, p_bg=0.1, q=0.2)


class TestGammaAnalytic:
    def test_reference_value_exact(self):
        assert gamma_analytic(BURSTY_LINK) == pytest.approx(0.4, abs=0.0)

    def test_perfect_bad_state(self):
        assert gamma_analytic(GilbertParams(0.5, 0.2, 1.0)) == 1.0

    def test_absorbing_bad_reduces_to_q(self):
        # once Bad can't be left, reception is Bernoulli(q)
        assert gamma_analytic(GilbertParams(0.3, 0.0, 0.2)) == pytest.approx(0.2)

    def test_degenerate_chain_rejected(self):
        with pytest.raises(StationaryDistributionError):
            gamma_analytic(GilbertParams(0.0, 0.0, 0.5))

    def test_param_domain(self):
        with pytest.raises(InvalidInputError):
            GilbertParams(1.2, 0.1, 0.2)


class TestChannelStep:
    def test_absorbing_good(self):
        params = GilbertParams(0.0, 0.0, 0.3)
        rng = np.random.default_rng(0)
        state = ChannelState(Regime.GOOD)
        for _ in range(500):
            state, received = channel_step(state, params, rng)
            assert state.regime is Regime.GOOD
            assert received

    def test_absorbing_bad_is_bernoulli_q(self):
        params = GilbertParams(0.0, 0.0, 0.2)
        rng = np.random.default_rng(1)
        state = ChannelState(Regime.BAD)
        hits = 0
        n = 200_000
        for _ in range(n):
            state, received = channel_step(state, params, rng)
            assert state.regime is Regime.BAD
            hits += received
        # 5 sigma band around q
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(hits / n - 0.2) < 5 * sigma

    def test_stationary_bad_fraction(self):
        rng = np.random.default_rng(2)
        good, _ = simulate_reception(BURSTY_LINK, 200_000, rng)
        frac_bad = 1.0 - good.mean()
        expected = BURSTY_LINK.p_gb / (BURSTY_LINK.p_gb + BURSTY_LINK.p_bg)
        assert frac_bad == pytest.approx(expected, abs=0.01)

    def test_simulate_reception_matches_step_loop(self):
        # batched generator is draw-for-draw the channel_step loop
        seed = 1234
        rng1 = np.random.default_rng(seed)
        good1, recv1 = simulate_reception(BURSTY_LINK, 5000, rng1)
        rng2 = np.random.default_rng(seed)
        state = initial_state(BURSTY_LINK, rng2)
        good2 = np.empty(5000, dtype=bool)
        recv2 = np.empty(5000, dtype=bool)
        for k in range(5000):
            state, r = channel_step(state, BURSTY_LINK, rng2)
            good2[k] = state.regime is Regime.GOOD
            recv2[k] = r
        assert np.array_equal(good1, good2)
        assert np.array_equal(recv1, recv2)

    def test_long_run_reception_matches_analytic(self):
        rng = np.random.default_rng(3)
        _, recv = simulate_reception(BURSTY_LINK, 500_000, rng)
        assert recv.mean() == pytest.approx(gamma_analytic(BURSTY_LINK), abs=0.006)


class TestGammaEstimate:
    def test_half(self):
        assert gamma_estimate([True, True, False, False]) == 0.5

    def test_all_true(self):
        assert gamma_estimate([True] * 10) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            gamma_estimate([])

    def test_gilbert_log_long_run(self):
        rng = np.random.default_rng(4)
        _, recv = simulate_reception(BURSTY_LINK, 100_000, rng)
        assert gamma_estimate(recv) == pytest.approx(0.4, abs=0.02)


class TestIidChannel:
    def test_extremes(self):
        rng = np.random.default_rng(5)
        assert all(iid_channel(1.0, rng) for _ in range(100))
        assert not any(iid_channel(0.0, rng) for _ in range(100))

    def test_binomial_concentration(self):
        rng = np.random.default_rng(6)
        n = 100_000
        mean = np.mean([iid_channel(0.4, rng) for _ in range(n)])
        assert mean == pytest.approx(0.4, abs=0.005)

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            iid_channel(1.0001, np.random.default_rng(0))


class TestStreams:
    def test_distinct_streams_uncorrelated(self):
        # distinct channel instances never share a random stream
        g1, r1 = simulate_reception(BURSTY_LINK, 50_000, np.random.default_rng(100))
        g2, r2 = simulate_reception(BURSTY_LINK, 50_000, np.random.default_rng(101))
        x = r1.astype(float) - r1.mean()
        y = r2.astype(float) - r2.mean()
        corr = float(np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y)))
        # bursty logs have ~(1+P+Q mixing) fewer effective samples; 3 sigma with slack
        assert abs(corr) < 4.0 / np.sqrt(50_000 / 4)

    def test_stationary_good_probability_degenerate(self):
        assert stationary_good_probability(GilbertParams(0.0, 0.0, 0.2)) == 1.0

