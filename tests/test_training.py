import numpy as np
import pytest

from robustcast.dataio import Dataset, FeatureDescriptor, SynthConfig, build_supervised, gen_synthetic, split_sequential
from robustcast.exceptions import ConfigError, NumericalError, SizeError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, init_params, mse_loss
from robustcast.training import (
    TrainConfig,
    adam_step,
    init_optimizer,
    run_training_loop,
    train_nominal,
)


def line_dataset(n=200, slope=2.0, noise=0.0, seed=0):
    """Noiseless (or noisy) y = slope * x with a bias feature."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = slope * x + noise * rng.normal(size=n)
    X = np.column_stack([x, np.ones(n)])
    return Dataset(
        X=X,
        y=y,
        descriptors=(
            FeatureDescriptor(kind="measurement", plant=0, lag=0),
            FeatureDescriptor(kind="bias"),
        ),
        maskable=(0,),
        horizon=1,
        max_lag=0,
        obs_periods=np.arange(n),
    )


class TestAdamStep:
    def make(self):
        params = init_params(Architecture(input_dim=3), "lr", False, seed=0, maskable=(0,))
        params.arrays["w"] = np.array([1.0, -2.0, 0.5])
        return params, init_optimizer(params)

    def test_zero_gradient_keeps_params(self):
        params, state = self.make()
        new_params, new_state = adam_step(params, {"w": np.zeros(3)}, state, 0.1)
        np.testing.assert_array_equal(new_params.arrays["w"], params.arrays["w"])
        assert new_state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        # Bias correction makes the first update g/(|g| + eps), i.e. sign(g)
        # up to eps, for any |g| >= 1e-3.
        for g in (1e-3, -0.5, 2.0, -1e-3):
            params, state = self.make()
            new_params, _ = adam_step(params, {"w": np.array([g, 0.0, 0.0])}, state, 0.01)
            delta = new_params.arrays["w"][0] - params.arrays["w"][0]
            assert abs(delta - (-0.01 * np.sign(g))) < 1e-6

    def test_update_is_deterministic(self):
        params, state = self.make()
        grads = {"w": np.array([0.3, -0.1, 0.2])}
        a, _ = adam_step(params, grads, state, 0.05)
        params2, state2 = self.make()
        b, _ = adam_step(params2, grads, state2, 0.05)
        np.testing.assert_array_equal(a.arrays["w"], b.arrays["w"])


class TestTrainNominal:
    def split(self, ds, train_frac=0.6, val_frac=0.25):
        return split_sequential(ds, train_frac, val_frac)[:2]

    def test_single_iteration_bound(self):
        ds = line_dataset()
        train, val = self.split(ds)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=1, patience=1, batch_size=32, seed=0)
        res = train_nominal(train, val, MissingPattern.zeros(2), cfg,
                            Architecture(input_dim=2, bias_index=1), "lr", False)
        assert res.iterations == 1
        assert len(res.trace) == 1

    def test_learns_noiseless_line(self):
        ds = line_dataset(n=400)
        train, val = self.split(ds)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=1000, patience=50, batch_size=64, seed=1)
        res = train_nominal(train, val, MissingPattern.zeros(2), cfg,
                            Architecture(input_dim=2, bias_index=1), "lr", False)
        assert res.iterations <= 1000
        assert abs(res.params.arrays["w"][0] - 2.0) < 1e-2

    def test_best_no_worse_than_initial(self):
        ds = line_dataset(n=300, noise=0.1, seed=4)
        train, val = self.split(ds)
        arch = Architecture(input_dim=2, bias_index=1)
        cfg = TrainConfig(learning_rate=1e-3, max_iters=40, patience=10, batch_size=64, seed=2)
        theta0 = init_params(arch, "lr", False, cfg.seed, maskable=train.maskable)
        res = train_nominal(train, val, MissingPattern.zeros(2), cfg, arch, "lr", False)
        initial_val = mse_loss(theta0, val.X, val.y, MissingPattern.zeros(2))
        assert res.val_loss <= initial_val

    def test_reported_loss_is_trace_minimum(self):
        ds = line_dataset(n=300, noise=0.2, seed=5)
        train, val = self.split(ds)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=60, patience=8, batch_size=64, seed=3)
        res = train_nominal(train, val, MissingPattern.zeros(2), cfg,
                            Architecture(input_dim=2, bias_index=1), "lr", False)
        assert res.val_loss == pytest.approx(min(r.val_loss for r in res.trace))
        assert res.best_iteration == min(
            (r.iteration for r in res.trace if r.val_loss == res.val_loss)
        )

    def test_early_stopping_contract(self):
        for seed in range(10):
            ds = line_dataset(n=240, noise=0.3, seed=seed)
            train, val = self.split(ds)
            cfg = TrainConfig(learning_rate=5e-3, max_iters=50, patience=5, batch_size=64, seed=seed)
            res = train_nominal(train, val, MissingPattern.zeros(2), cfg,
                                Architecture(input_dim=2, bias_index=1), "lr", False)
            assert res.iterations <= cfg.max_iters
            assert res.best_iteration >= res.iterations - 1 - cfg.patience

    def test_deterministic(self):
        raw = gen_synthetic(SynthConfig(2, 400, 0.9, 0.4, 0.3, seed=7))
        ds = build_supervised(raw, 0, 1, 1)
        train, val, _ = split_sequential(ds, 0.5, 0.2)
        arch = Architecture(input_dim=ds.p, hidden=(6,), bias_index=ds.bias_index)
        cfg = TrainConfig(learning_rate=1e-3, max_iters=15, patience=5, batch_size=64, seed=9)
        a = train_nominal(train, val, MissingPattern.zeros(ds.p), cfg, arch, "nn", True)
        b = train_nominal(train, val, MissingPattern.zeros(ds.p), cfg, arch, "nn", True)
        for name in a.params.block_names():
            np.testing.assert_array_equal(a.params.arrays[name], b.params.arrays[name])
        assert a.val_loss == b.val_loss

    def test_empty_split_errors(self):
        ds = line_dataset(n=10)
        train = ds.rows(0, 10)
        val = ds.rows(10, 10)
        cfg = TrainConfig(max_iters=2, seed=0)
        with pytest.raises(SizeError):
            train_nominal(train, val, MissingPattern.zeros(2), cfg,
                          Architecture(input_dim=2), "lr", False)

    def test_warm_start_continues_from_given_params(self):
        ds = line_dataset(n=200, noise=0.05, seed=6)
        train, val = self.split(ds)
        arch = Architecture(input_dim=2, bias_index=1)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=30, patience=30, batch_size=64, seed=4)
        first = train_nominal(train, val, MissingPattern.zeros(2), cfg, arch, "lr", False)
        resumed = train_nominal(train, val, MissingPattern.zeros(2), cfg, arch, "lr", False,
                                warm_start=first.params)
        assert resumed.val_loss <= first.val_loss + 1e-12

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(max_iters=0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


class TestNonFiniteLoss:
    def test_diverged_training_loss_raises_at_its_iteration(self):
        raw = gen_synthetic(SynthConfig(2, 300, 0.95, 0.5, 0.4, seed=3))
        ds = build_supervised(raw, 0, 1, 1)
        train, val, _ = split_sequential(ds, 0.5, 0.2)
        arch = Architecture(input_dim=ds.p, hidden=(8, 8), bias_index=ds.bias_index)
        cfg = TrainConfig(learning_rate=1e200, max_iters=5, patience=5, batch_size=64, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="training loss .* iteration 0"):
            train_nominal(train, val, MissingPattern.zeros(ds.p), cfg, arch, "nn", False)

    def test_non_finite_validation_loss_raises_at_its_iteration(self):
        ds = line_dataset(n=200, noise=0.1, seed=2)
        train, val = split_sequential(ds, 0.6, 0.25)[:2]
        val.y[3] = np.nan
        arch = Architecture(input_dim=2, bias_index=1)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=5, patience=5, batch_size=64, seed=0)
        params0 = init_params(arch, "lr", False, cfg.seed, maskable=train.maskable)
        zero = lambda k, params: MissingPattern.zeros(2)
        with pytest.raises(NumericalError, match="validation loss is nan at iteration 0"):
            run_training_loop(train, val, params0, cfg, zero, zero)
