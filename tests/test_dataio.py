import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.dataio import (
    WEATHER_LAG,
    WEATHER_WINDOW,
    RawSeries,
    SynthConfig,
    build_supervised,
    gen_synthetic,
    load_csv,
    save_csv,
    split_sequential,
)
from robustcast.exceptions import (
    ConfigError,
    DomainError,
    OrderError,
    ParseError,
    SizeError,
)


@st.composite
def synth_configs(draw):
    return SynthConfig(
        n_plants=draw(st.integers(1, 4)),
        n_periods=draw(st.integers(1, 40)),
        ar_coefficient=draw(st.floats(0.0, 0.999)),
        cross_plant_correlation=draw(st.floats(0.0, 0.999)),
        noise_std=draw(st.floats(0.0, 2.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        obs_noise_std=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))),
    )


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_plants_no_weather(self, tmp_path):
        path = write(tmp_path, "period,plant_0,plant_1\n0,0.1,0.2\n1,0.3,0.4\n2,0.5,0.6\n")
        raw = load_csv(path)
        assert raw.values.shape == (3, 2)
        assert raw.weather is None

    def test_weather_column(self, tmp_path):
        path = write(tmp_path, "period,plant_0,weather\n0,0.1,0.9\n1,0.3,0.8\n")
        raw = load_csv(path)
        assert raw.weather is not None
        assert raw.weather.tolist() == [0.9, 0.8]

    def test_value_outside_range_names_row(self, tmp_path):
        path = write(tmp_path, "period,plant_0\n0,0.1\n1,1.2\n")
        with pytest.raises(DomainError, match="line 3"):
            load_csv(path)

    def test_non_monotone_periods(self, tmp_path):
        path = write(tmp_path, "period,plant_0\n0,0.1\n2,0.2\n1,0.3\n")
        with pytest.raises(OrderError):
            load_csv(path)

    def test_irregular_step(self, tmp_path):
        path = write(tmp_path, "period,plant_0\n0,0.1\n1,0.2\n3,0.3\n")
        with pytest.raises(OrderError):
            load_csv(path)

    def test_malformed_cell_names_line(self, tmp_path):
        path = write(tmp_path, "period,plant_0\n0,0.1\n1,abc\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "time,plant_0\n0,0.1\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_roundtrip_through_save(self, tmp_path):
        raw = gen_synthetic(SynthConfig(2, 50, 0.9, 0.4, 0.2, seed=3))
        path = tmp_path / "rt.csv"
        save_csv(raw, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, raw.values)
        np.testing.assert_array_equal(back.weather, raw.weather)

    @settings(max_examples=60, deadline=None)
    @given(cfg=synth_configs(), with_weather=st.booleans())
    def test_round_trip_is_exact(self, cfg, with_weather):
        raw = gen_synthetic(cfg)
        if not with_weather:
            raw = replace(raw, weather=None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.csv"
            save_csv(raw, path)
            back = load_csv(path)
        assert back.timestamps.tobytes() == raw.timestamps.tobytes()
        assert back.values.shape == raw.values.shape
        assert back.values.tobytes() == raw.values.tobytes()
        if with_weather:
            assert back.weather.tobytes() == raw.weather.tobytes()
        else:
            assert back.weather is None


def weather_loop(values):
    """The per-period weather column gen_synthetic computed before it summed
    whole windows at once, kept as its oracle."""
    t_periods = values.shape[0]
    ref = values[:, 0]
    weather = np.empty(t_periods, dtype=np.float64)
    for t in range(t_periods):
        hi = t - WEATHER_LAG + 1
        lo = max(0, hi - WEATHER_WINDOW)
        weather[t] = ref[0] if hi <= 0 else ref[lo:hi].mean()
    return weather


class TestGenSynthetic:
    @settings(max_examples=150, deadline=None)
    @given(cfg=synth_configs())
    def test_weather_equals_per_period_mean(self, cfg):
        raw = gen_synthetic(cfg)
        assert raw.weather.tobytes() == weather_loop(raw.values).tobytes()

    def test_weather_equals_per_period_mean_on_a_long_series(self):
        raw = gen_synthetic(SynthConfig(4, 8003, 0.97, 0.6, 0.5, seed=1))
        assert raw.weather.tobytes() == weather_loop(raw.values).tobytes()

    def test_same_seed_identical(self):
        cfg = SynthConfig(3, 200, 0.9, 0.5, 0.3, seed=11)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.weather, b.weather)

    def test_cross_plant_correlation_matches_independent_simulation(self):
        # Oracle: direct simulation of the documented latent recursion
        # (z_t = phi z_{t-1} + sigma L u_t, values = logistic(z)) over 1e5
        # periods with its own rng, fully independent of the generator code.
        phi, rho, sigma = 0.8, 0.9, 0.3
        rng = np.random.default_rng(999)
        t_oracle = 100_000
        chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
        z = np.zeros(2)
        series = np.empty((t_oracle, 2))
        for t in range(t_oracle):
            z = phi * z + sigma * (chol @ rng.standard_normal(2))
            series[t] = z
        squashed = 1.0 / (1.0 + np.exp(-series))
        oracle_corr = np.corrcoef(squashed[:, 0], squashed[:, 1])[0, 1]

        raw = gen_synthetic(SynthConfig(2, 10_000, phi, rho, sigma, seed=21))
        sample_corr = np.corrcoef(raw.values[:, 0], raw.values[:, 1])[0, 1]
        assert abs(sample_corr - oracle_corr) < 0.1

    def test_degenerate_config_constant_series(self):
        raw = gen_synthetic(SynthConfig(2, 20, 0.0, 0.0, 0.0, seed=0))
        np.testing.assert_array_equal(raw.values, np.full((20, 2), 0.5))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SynthConfig(2, 20, 1.5, 0.0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(0, 20, 0.5, 0.0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            SynthConfig(2, 20, 0.5, 0.0, -0.1, seed=0)

    def test_invariants_hold_for_many_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            cfg = SynthConfig(
                n_plants=int(rng.integers(1, 5)),
                n_periods=int(rng.integers(1, 40)),
                ar_coefficient=float(rng.uniform(0, 0.999)),
                cross_plant_correlation=float(rng.uniform(0, 0.999)),
                noise_std=float(rng.uniform(0, 2.0)),
                seed=int(rng.integers(0, 2**31)),
            )
            raw = gen_synthetic(cfg)  # RawSeries validates its own invariants
            assert raw.values.shape == (cfg.n_periods, cfg.n_plants)
            assert raw.weather.shape == (cfg.n_periods,)


class TestBuildSupervised:
    def test_eight_plant_three_lag_feature_counts(self):
        raw = gen_synthetic(SynthConfig(8, 60, 0.9, 0.4, 0.2, seed=5))
        ds = build_supervised(raw, 0, max_lag=2, horizon=1)
        assert ds.p == 26
        assert len(ds.maskable) == 24

    def test_repeated_maskable_index_rejected(self):
        ds = build_supervised(gen_synthetic(SynthConfig(2, 20, 0.9, 0.4, 0.2, seed=5)), 0, 1, 1)
        with pytest.raises(DomainError, match="repeat"):
            replace(ds, maskable=(0, 0, 1))

    def test_hand_enumerated_single_plant(self):
        raw = RawSeries(
            timestamps=np.arange(4),
            values=np.array([[0.1], [0.2], [0.3], [0.4]]),
        )
        ds = build_supervised(raw, 0, max_lag=1, horizon=1)
        assert ds.n == 2
        np.testing.assert_allclose(ds.X[0], [0.2, 0.1, 1.0])
        assert ds.y[0] == pytest.approx(0.3)
        np.testing.assert_allclose(ds.X[1], [0.3, 0.2, 1.0])
        assert ds.y[1] == pytest.approx(0.4)

    def test_zero_lag(self):
        raw = gen_synthetic(SynthConfig(2, 12, 0.8, 0.1, 0.2, seed=2))
        ds = build_supervised(raw, 1, max_lag=0, horizon=1)
        # one lag-0 measurement column per plant, then weather and bias
        assert ds.maskable == (0, 1) and ds.p == 4
        assert ds.X[:, :2].tobytes() == raw.values[ds.obs_periods].tobytes()

    def test_too_short(self):
        raw = RawSeries(
            timestamps=np.arange(3),
            values=np.full((3, 1), 0.5),
        )
        with pytest.raises(SizeError):
            build_supervised(raw, 0, max_lag=2, horizon=1)

    def test_roundtrip_addressing_random_rows(self):
        raw = gen_synthetic(SynthConfig(3, 80, 0.9, 0.3, 0.25, seed=9))
        tau, h = 2, 3
        ds = build_supervised(raw, 1, tau, h)
        rng = np.random.default_rng(1)
        for _ in range(50):
            i = int(rng.integers(0, ds.n))
            t = int(ds.obs_periods[i])
            s = int(rng.integers(0, 3))
            k = int(rng.integers(0, tau + 1))
            col = s * (tau + 1) + k
            assert ds.X[i, col] == raw.values[t - k, s]
            assert ds.y[i] == raw.values[t + h, 1]

    def test_bias_is_last_and_constant(self):
        raw = gen_synthetic(SynthConfig(2, 30, 0.9, 0.3, 0.25, seed=9))
        ds = build_supervised(raw, 0, 1, 1)
        assert np.all(ds.X[:, -1] == 1.0)
        assert ds.bias_index == ds.p - 1
        # the column before the bias is the weather, not a measurement
        assert ds.X[:, -2].tobytes() == raw.weather[ds.obs_periods].tobytes()
        assert ds.maskable == tuple(range(ds.p - 2))

    @pytest.mark.parametrize("bias_index", [0, 6, -1])
    def test_bias_index_must_be_an_unmaskable_column(self, bias_index):
        ds = build_supervised(gen_synthetic(SynthConfig(2, 20, 0.9, 0.4, 0.2, seed=5)), 0, 1, 1)
        with pytest.raises(DomainError, match="bias_index"):
            replace(ds, bias_index=bias_index)


class TestSplitSequential:
    def test_documented_sizes(self):
        raw = gen_synthetic(SynthConfig(1, 103, 0.9, 0.0, 0.2, seed=4))
        ds = build_supervised(raw, 0, 2, 1)
        assert ds.n == 100
        train, val, test = split_sequential(ds, 0.5, 0.15)
        assert (train.n, val.n, test.n) == (43, 7, 50)
        np.testing.assert_array_equal(train.obs_periods, ds.obs_periods[0:43])
        np.testing.assert_array_equal(val.obs_periods, ds.obs_periods[43:50])
        np.testing.assert_array_equal(test.obs_periods, ds.obs_periods[50:100])

    def test_empty_segment_errors(self):
        raw = gen_synthetic(SynthConfig(1, 5, 0.9, 0.0, 0.2, seed=4))
        ds = build_supervised(raw, 0, 2, 1)
        assert ds.n == 2
        with pytest.raises(SizeError):
            split_sequential(ds, 0.5, 0.5)

    def test_concatenation_reproduces_dataset(self):
        raw = gen_synthetic(SynthConfig(2, 90, 0.9, 0.2, 0.2, seed=4))
        ds = build_supervised(raw, 0, 1, 2)
        train, val, test = split_sequential(ds, 0.6, 0.2)
        x_cat = np.vstack([train.X, val.X, test.X])
        y_cat = np.concatenate([train.y, val.y, test.y])
        np.testing.assert_array_equal(x_cat, ds.X)
        np.testing.assert_array_equal(y_cat, ds.y)

    def test_fraction_range(self):
        raw = gen_synthetic(SynthConfig(1, 50, 0.9, 0.0, 0.2, seed=4))
        ds = build_supervised(raw, 0, 1, 1)
        with pytest.raises(ConfigError):
            split_sequential(ds, 1.0, 0.15)
