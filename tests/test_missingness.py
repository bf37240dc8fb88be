import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustcast._util import derive_seed
from robustcast.dataio import SynthConfig, build_supervised, gen_synthetic
from robustcast.exceptions import ConfigError, DomainError
from robustcast.missingness import (
    MissingnessConfig,
    MissingPattern,
    ObsMaskSeries,
    apply_mask,
    column_means,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)


class TestApplyMask:
    def test_zeroes_missing_coordinates(self):
        x = np.array([1.0, 2.0, 3.0])
        pattern = MissingPattern(bits=np.array([0, 1, 0]))
        out = apply_mask(x, pattern, maskable=(0, 1, 2))
        np.testing.assert_allclose(out, [1.0, 0.0, 3.0])

    def test_zero_pattern_is_identity(self):
        x = np.array([0.5, 0.25, 0.75])
        out = apply_mask(x, MissingPattern.zeros(3), maskable=(0, 1))
        np.testing.assert_array_equal(out, x)

    def test_bit_outside_support_rejected(self):
        x = np.array([1.0, 2.0, 3.0])
        pattern = MissingPattern(bits=np.array([0, 0, 1]))
        with pytest.raises(DomainError):
            apply_mask(x, pattern, maskable=(0, 1))


def markov_loop(cfg, n_periods, n_plants):
    """The per-period simulator that the scan in simulate_markov replaced,
    kept as its oracle."""
    mask = np.zeros((n_periods, n_plants), dtype=np.uint8)
    for s in range(n_plants):
        rng = np.random.default_rng(derive_seed(cfg.seed, "plant", s))
        u = rng.random(n_periods)
        state = 0
        col = mask[:, s]
        for t in range(1, n_periods):
            threshold = cfg.p11 if state else cfg.p01
            state = 1 if u[t] < threshold else 0
            col[t] = state
    return mask


PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestSimulateMarkov:
    @settings(max_examples=150, deadline=None)
    @given(
        p01=PROBABILITIES,
        p11=PROBABILITIES,
        n_periods=st.integers(0, 300),
        n_plants=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p01=0.9, p11=0.1, n_periods=400, n_plants=3, seed=0)  # flips happen
    @example(p01=1.0, p11=0.0, n_periods=7, n_plants=2, seed=1)  # flips every period
    def test_scan_equals_per_period_loop(self, p01, p11, n_periods, n_plants, seed):
        cfg = MissingnessConfig(p01, p11, seed=seed)
        got = simulate_markov(cfg, n_periods, n_plants).mask
        want = markov_loop(cfg, n_periods, n_plants)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sizes,name", [((-1, 2), "n_periods"), ((3, -1), "n_plants")])
    def test_negative_size_raises_domain_error(self, sizes, name):
        with pytest.raises(DomainError, match=name):
            simulate_markov(MissingnessConfig(0.2, 0.9, seed=1), *sizes)

    def test_never_missing_when_p01_zero(self):
        mask = simulate_markov(MissingnessConfig(0.0, 0.9, seed=1), 500, 3)
        assert mask.mask.sum() == 0

    def test_forced_transitions(self):
        mask = simulate_markov(MissingnessConfig(1.0, 1.0, seed=1), 50, 2)
        assert np.all(mask.mask[0] == 0)
        assert np.all(mask.mask[1:] == 1)

    def test_stationary_fraction(self):
        # Stationary missing probability of the 2-state chain:
        # p01 / (p01 + 1 - p11) = 0.2 / 0.3 = 2/3.
        mask = simulate_markov(MissingnessConfig(0.2, 0.9, seed=42), 100_000, 1)
        assert abs(mask.mask.mean() - 2.0 / 3.0) < 0.02

    def test_empirical_transition_frequencies(self):
        cfg = MissingnessConfig(0.2, 0.9, seed=3)
        mask = simulate_markov(cfg, 100_000, 2)
        for s in range(2):
            col = mask.mask[:, s].astype(int)
            prev, cur = col[:-1], col[1:]
            f01 = cur[prev == 0].mean()
            f11 = cur[prev == 1].mean()
            assert abs(f01 - cfg.p01) < 0.01
            assert abs(f11 - cfg.p11) < 0.01

    def test_deterministic_per_seed(self):
        cfg = MissingnessConfig(0.3, 0.5, seed=5)
        a = simulate_markov(cfg, 200, 4)
        b = simulate_markov(cfg, 200, 4)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            MissingnessConfig(1.2, 0.5, seed=0)


class TestExpandObsMask:
    def make_ds(self, t_periods=30, s_plants=2, tau=2, h=1):
        raw = gen_synthetic(SynthConfig(s_plants, t_periods, 0.9, 0.3, 0.2, seed=6))
        return build_supervised(raw, 0, tau, h)

    def test_zero_mask_zero_patterns(self):
        ds = self.make_ds()
        mask = ObsMaskSeries(mask=np.zeros((30, 2), dtype=np.uint8))
        bits = expand_obs_mask(mask, ds)
        assert bits.shape == (ds.n, ds.p) and bits.dtype == np.uint8
        assert not bits.any()

    def test_single_mask_bit_hits_expected_lags(self):
        tau = 2
        ds = self.make_ds(tau=tau)
        t_star, s_star = 10, 1
        grid = np.zeros((30, 2), dtype=np.uint8)
        grid[t_star, s_star] = 1
        bits = expand_obs_mask(ObsMaskSeries(mask=grid), ds)
        for i, row in enumerate(bits):
            t = int(ds.obs_periods[i])
            expected = set()
            for k in range(tau + 1):
                if t - k == t_star:
                    expected.add(s_star * (tau + 1) + k)
            assert set(np.flatnonzero(row).tolist()) == expected
        hits = np.flatnonzero(bits.sum(axis=1)).tolist()
        assert len(hits) == tau + 1

    def test_all_ones_mask_saturates_maskable(self):
        ds = self.make_ds()
        mask = ObsMaskSeries(mask=np.ones((30, 2), dtype=np.uint8))
        bits = expand_obs_mask(mask, ds)
        assert np.all(bits.sum(axis=1) == len(ds.maskable))

    def test_never_sets_bits_outside_maskable(self):
        ds = self.make_ds()
        rng = np.random.default_rng(0)
        mask = ObsMaskSeries(mask=(rng.random((30, 2)) < 0.5).astype(np.uint8))
        MissingPattern.bits_of(expand_obs_mask(mask, ds), ds.p, ds.maskable, ndim=2)


class TestImputation:
    def test_persistence_forward_fill(self):
        values = np.array([[0.5], [0.9], [0.9], [0.7]])
        mask = ObsMaskSeries(mask=np.array([[0], [1], [1], [0]], dtype=np.uint8))
        filled = impute_persistence(values, mask)
        np.testing.assert_allclose(filled[:, 0], [0.5, 0.5, 0.5, 0.7])

    def test_persistence_identity_without_missing(self):
        values = np.array([[0.1, 0.2], [0.3, 0.4]])
        mask = ObsMaskSeries(mask=np.zeros((2, 2), dtype=np.uint8))
        np.testing.assert_array_equal(impute_persistence(values, mask), values)

    def test_persistence_leading_gap_zero_fallback(self):
        values = np.array([[0.9], [0.4]])
        mask = ObsMaskSeries(mask=np.array([[1], [0]], dtype=np.uint8))
        np.testing.assert_allclose(impute_persistence(values, mask)[:, 0], [0.0, 0.4])

    def test_persistence_idempotent(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, (50, 3))
        mask = ObsMaskSeries(mask=(rng.random((50, 3)) < 0.4).astype(np.uint8))
        once = impute_persistence(values, mask)
        twice = impute_persistence(once, mask)
        np.testing.assert_array_equal(once, twice)

    def test_mean_imputation(self):
        raw = gen_synthetic(SynthConfig(2, 40, 0.9, 0.3, 0.2, seed=6))
        ds = build_supervised(raw, 0, 1, 1)
        means = column_means(ds)
        x = ds.X[0]
        zero = MissingPattern.zeros(ds.p)
        np.testing.assert_array_equal(impute_mean(x, zero, means), x)
        pat = MissingPattern.from_missing(ds.p, [1])
        out = impute_mean(x, pat, means)
        assert out[1] == pytest.approx(means[1])
        np.testing.assert_array_equal(np.delete(out, 1), np.delete(x, 1))
        full = MissingPattern.from_missing(ds.p, list(ds.maskable))
        out = impute_mean(x, full, means)
        np.testing.assert_allclose(out[list(ds.maskable)], means[list(ds.maskable)])

