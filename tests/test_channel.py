import numpy as np
import pytest

from platoonkit.channel import (
    GilbertParams,
    channel_step,
    gamma_analytic,
    iid_channel,
    stationary_good_probability,
)
from platoonkit.errors import InvalidInputError, StationaryDistributionError
from platoonkit.montecarlo import ChannelSpec, _receptions

BURSTY_LINK = GilbertParams(p_gb=0.3, p_bg=0.1, q=0.2)


def engine_stream(channel: ChannelSpec, seed: int, n_chan: int, n_slots: int) -> np.ndarray:
    """(n_slots, n_chan) reception indicators of n_chan channels, as the engine draws them."""
    gen = _receptions(channel, seed, np.arange(n_chan), 1, n_slots)
    return np.stack([mask[0] for mask in gen]).astype(float)


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

    def test_stationary_good_probability_degenerate(self):
        assert stationary_good_probability(GilbertParams(0.0, 0.0, 0.2)) == 1.0


class TestChannelStep:
    def test_absorbing_good(self):
        params = GilbertParams(0.0, 0.0, 0.3)
        rng = np.random.default_rng(0)
        good = True
        for _ in range(500):
            good, received = channel_step(good, params, rng)
            assert good
            assert received

    def test_absorbing_bad_is_bernoulli_q(self):
        params = GilbertParams(0.0, 0.0, 0.2)
        rng = np.random.default_rng(1)
        good = False
        hits = 0
        n = 200_000
        for _ in range(n):
            good, received = channel_step(good, params, rng)
            assert not good
            hits += received
        # 5 sigma band around q
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(hits / n - 0.2) < 5 * sigma

    def test_stationary_bad_fraction(self):
        rng = np.random.default_rng(2)
        good, n_bad = True, 0
        for _ in range(200_000):
            good, _ = channel_step(good, BURSTY_LINK, rng)
            n_bad += not good
        expected = BURSTY_LINK.p_gb / (BURSTY_LINK.p_gb + BURSTY_LINK.p_bg)
        assert n_bad / 200_000 == pytest.approx(expected, abs=0.01)


class TestEngineStream:
    """The channel's statistics, read on the reception stream the Monte Carlo engine draws."""

    LAGS = np.arange(1, 6)

    def test_long_run_reception_matches_analytic(self):
        recv = engine_stream(ChannelSpec(kind="gilbert", gilbert=BURSTY_LINK), 3, 10, 50_000)
        assert recv.mean() == pytest.approx(gamma_analytic(BURSTY_LINK), abs=0.006)

    @staticmethod
    def autocorrelation_law(params: GilbertParams, lags: np.ndarray) -> np.ndarray:
        """Lag-j autocorrelation of a stationary chain's reception indicator.

        (1-q)^2 pi_G pi_B lambda^j / (gamma (1-gamma)), lambda = 1 - p_gb - p_bg:
        the indicator is 1 in Good and Bernoulli(q) in Bad, so across slots it
        covaries only through the regime.
        """
        pi_g = stationary_good_probability(params)
        gamma = gamma_analytic(params)
        lam = 1.0 - params.p_gb - params.p_bg
        return (1.0 - params.q) ** 2 * pi_g * (1.0 - pi_g) * lam**lags / (gamma * (1.0 - gamma))

    @staticmethod
    def pooled_autocorrelation(recv: np.ndarray, lags: np.ndarray) -> np.ndarray:
        """Autocorrelation at each lag, centred on the mean over all channels and slots.

        Centring each channel on its own mean would hide a chain that never
        transitions: its channels differ in level, not in time.
        """
        dev = recv - recv.mean()
        var = np.mean(dev * dev)
        return np.array([np.mean(dev[:-j] * dev[j:]) / var for j in lags])

    def test_burst_memory_law(self):
        law = self.autocorrelation_law(BURSTY_LINK, self.LAGS)
        assert law == pytest.approx(0.5 * 0.6**self.LAGS, rel=1e-12)
        recv = engine_stream(ChannelSpec(kind="gilbert", gilbert=BURSTY_LINK), 29, 200, 5000)
        # ten seeds missed the law by at most 0.0031 at these lags
        assert np.abs(self.pooled_autocorrelation(recv, self.LAGS) - law).max() <= 0.01

    @pytest.mark.parametrize("channel", [
        # p_gb + p_bg = 1: the regime forgets itself every slot, gamma = 0.4
        ChannelSpec(kind="gilbert", gilbert=GilbertParams(0.75, 0.25, 0.2)),
        ChannelSpec(kind="iid", gamma=0.4),
    ], ids=["memoryless_gilbert", "iid"])
    def test_memoryless_links_uncorrelated(self, channel):
        assert channel.effective_gamma() == pytest.approx(0.4)
        recv = engine_stream(channel, 29, 200, 5000)
        assert np.abs(self.pooled_autocorrelation(recv, self.LAGS)).max() <= 0.01


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
