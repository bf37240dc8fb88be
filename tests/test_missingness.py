from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustcast._util import derive_seed
from robustcast.dataio import RawSeries, SynthConfig, build_supervised, gen_synthetic
from robustcast.exceptions import ConfigError, DomainError
from robustcast.missingness import (
    MissingnessConfig,
    MissingPattern,
    _masked,
    column_means,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)


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
    @example(p01=0.3, p11=1.0, n_periods=1, n_plants=2, seed=2)  # one period: only the reset
    @example(p01=0.0, p11=0.4, n_periods=1, n_plants=3, seed=3)
    def test_scan_equals_per_period_loop(self, p01, p11, n_periods, n_plants, seed):
        cfg = MissingnessConfig(p01, p11, seed=seed)
        got = simulate_markov(cfg, n_periods, n_plants)
        want = markov_loop(cfg, n_periods, n_plants)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sizes,name", [((-1, 2), "n_periods"), ((3, -1), "n_plants")])
    def test_negative_size_raises_domain_error(self, sizes, name):
        with pytest.raises(DomainError, match=name):
            simulate_markov(MissingnessConfig(0.2, 0.9, seed=1), *sizes)

    def test_never_missing_when_p01_zero(self):
        mask = simulate_markov(MissingnessConfig(0.0, 0.9, seed=1), 500, 3)
        assert mask.sum() == 0

    def test_forced_transitions(self):
        mask = simulate_markov(MissingnessConfig(1.0, 1.0, seed=1), 50, 2)
        assert np.all(mask[0] == 0)
        assert np.all(mask[1:] == 1)

    def test_stationary_fraction(self):
        # Stationary missing probability of the 2-state chain:
        # p01 / (p01 + 1 - p11) = 0.2 / 0.3 = 2/3.
        mask = simulate_markov(MissingnessConfig(0.2, 0.9, seed=42), 100_000, 1)
        assert abs(mask.mean() - 2.0 / 3.0) < 0.02

    def test_empirical_transition_frequencies(self):
        cfg = MissingnessConfig(0.2, 0.9, seed=3)
        mask = simulate_markov(cfg, 100_000, 2)
        for s in range(2):
            col = mask[:, s].astype(int)
            prev, cur = col[:-1], col[1:]
            f01 = cur[prev == 0].mean()
            f11 = cur[prev == 1].mean()
            assert abs(f01 - cfg.p01) < 0.01
            assert abs(f11 - cfg.p11) < 0.01

    def test_deterministic_per_seed(self):
        cfg = MissingnessConfig(0.3, 0.5, seed=5)
        a = simulate_markov(cfg, 200, 4)
        b = simulate_markov(cfg, 200, 4)
        np.testing.assert_array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            MissingnessConfig(1.2, 0.5, seed=0)


class TestExpandObsMask:
    def make_ds(self, t_periods=30, s_plants=2, tau=2, h=1):
        raw = gen_synthetic(SynthConfig(s_plants, t_periods, 0.9, 0.3, 0.2, seed=6))
        return build_supervised(raw, 0, tau, h)

    def test_zero_mask_zero_patterns(self):
        ds = self.make_ds()
        mask = np.zeros((30, 2), dtype=np.uint8)
        bits = expand_obs_mask(mask, ds)
        assert bits.shape == (ds.n, ds.p) and bits.dtype == np.uint8
        assert not bits.any()

    def test_single_mask_bit_hits_expected_lags(self):
        tau = 2
        ds = self.make_ds(tau=tau)
        t_star, s_star = 10, 1
        grid = np.zeros((30, 2), dtype=np.uint8)
        grid[t_star, s_star] = 1
        bits = expand_obs_mask(grid, ds)
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
        mask = np.ones((30, 2), dtype=np.uint8)
        bits = expand_obs_mask(mask, ds)
        assert np.all(bits.sum(axis=1) == len(ds.maskable))

    def test_never_sets_bits_outside_maskable(self):
        ds = self.make_ds()
        rng = np.random.default_rng(0)
        mask = (rng.random((30, 2)) < 0.5).astype(np.uint8)
        MissingPattern.bits_of(expand_obs_mask(mask, ds), ds.p, ds.maskable, ndim=2)

    def test_period_outside_the_mask_raises(self):
        # a negative period index would otherwise wrap to the mask's end
        ds = self.make_ds()
        mask = np.zeros((30, 2), dtype=np.uint8)
        with pytest.raises(DomainError, match="out of the mask's range"):
            expand_obs_mask(mask, replace(ds, obs_periods=ds.obs_periods - 1))
        with pytest.raises(DomainError, match="out of the mask's range"):
            expand_obs_mask(mask[:-2], ds)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3), st.integers(0, 30),
           st.booleans(), st.integers(0, 2**32 - 1), st.data())
    def test_equals_per_plant_lag_loop(self, s_plants, max_lag, horizon, extra, weather, seed,
                                       data):
        t_periods = max_lag + horizon + 1 + extra
        rng = np.random.default_rng(seed)
        raw = RawSeries(np.arange(t_periods), rng.random((t_periods, s_plants)),
                        rng.random(t_periods) if weather else None)
        ds = build_supervised(raw, 0, max_lag, horizon)
        start = data.draw(st.integers(0, ds.n - 1))
        ds = ds.rows(start, data.draw(st.integers(start + 1, ds.n)))
        mask = (rng.random((t_periods, s_plants)) < 0.4).astype(np.uint8)
        # the reference: one (plant, lag) measurement column at a time
        want = np.zeros((ds.n, ds.p), dtype=np.uint8)
        for plant in range(s_plants):
            for lag in range(max_lag + 1):
                want[:, plant * (max_lag + 1) + lag] = mask[ds.obs_periods - lag, plant]
        got = expand_obs_mask(mask, ds)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)


class TestMasked:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_selects_like_where_and_never_reads_a_missing_slot(self, data):
        p = data.draw(st.integers(1, 6), label="p")
        rows = data.draw(st.sampled_from([None, 1, 3]), label="rows")  # None: one row
        shape = (p,) if rows is None else (rows, p)
        per_row = rows is not None and data.draw(st.booleans(), label="per_row")
        bits = data.draw(hnp.arrays(np.uint8, shape if per_row else (p,),
                                    elements=st.integers(0, 1)), label="bits")
        X = data.draw(hnp.arrays(np.float64, shape, elements=st.floats()), label="X")
        # masked slots hold what multiplying by 0 would not turn into +0.0
        special = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), label="special")
        X = np.where(bits == 1, special, X)
        want = np.where(bits == 1, 0.0, X)
        got = _masked(X, bits)
        # bytes, so every masked slot is +0.0 and every kept one X's own float
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def persistence_loop(values, mask):
    """The per-period forward fill that the run fill in impute_persistence
    replaced, kept as its oracle."""
    filled = np.zeros(values.shape)
    for s in range(values.shape[1]):
        last = 0.0
        for t in range(values.shape[0]):
            if mask[t, s] == 0:
                last = values[t, s]
            filled[t, s] = last
    return filled


class TestImputation:
    @settings(max_examples=150, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=60),
                      elements=st.integers(0, 1)))
    @example(np.zeros((0, 3), dtype=np.uint8))  # no periods
    @example(np.zeros((5, 0), dtype=np.uint8))  # no plants
    # a plant never available, one with a leading gap, one available at 0
    @example(np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8))
    def test_run_fill_equals_per_period_forward_fill(self, mask):
        values = np.random.default_rng(mask.size).uniform(0, 1, mask.shape)
        got = impute_persistence(values, mask)
        want = persistence_loop(values, mask)
        # bytes, so each gap holds the bits it copies and a leading gap +0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_persistence_forward_fill(self):
        values = np.array([[0.5], [0.9], [0.9], [0.7]])
        mask = np.array([[0], [1], [1], [0]], dtype=np.uint8)
        filled = impute_persistence(values, mask)
        np.testing.assert_allclose(filled[:, 0], [0.5, 0.5, 0.5, 0.7])

    def test_persistence_identity_without_missing(self):
        values = np.array([[0.1, 0.2], [0.3, 0.4]])
        mask = np.zeros((2, 2), dtype=np.uint8)
        np.testing.assert_array_equal(impute_persistence(values, mask), values)

    def test_persistence_leading_gap_zero_fallback(self):
        values = np.array([[0.9], [0.4]])
        mask = np.array([[1], [0]], dtype=np.uint8)
        np.testing.assert_allclose(impute_persistence(values, mask)[:, 0], [0.0, 0.4])

    def test_persistence_idempotent(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, (50, 3))
        mask = (rng.random((50, 3)) < 0.4).astype(np.uint8)
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

    def test_mean_imputation_never_reads_a_missing_slot(self):
        rng = np.random.default_rng(8)
        x, means = rng.uniform(0, 1, (6, 5)), rng.uniform(0, 1, 5)
        for pattern in ((rng.random((6, 5)) < 0.5).astype(np.uint8),
                        np.array([1, 0, 1, 1, 0], dtype=np.uint8)):
            bad = np.where(pattern == 1, np.array([np.nan, np.inf, -np.inf, np.nan, -0.0]), x)
            np.testing.assert_array_equal(impute_mean(bad, pattern, means),
                                          impute_mean(x, pattern, means))
        one = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(impute_mean(np.where(one == 1, np.nan, x[0]), one, means),
                                      impute_mean(x[0], one, means))

