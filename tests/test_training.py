import math
from dataclasses import replace

import numpy as np
import pytest

from robustcast import training
from robustcast._util import rng_for
from robustcast.adversarial import AdvSearchScope, train_adversarial, train_sampled_adversarial
from robustcast.dataio import Dataset, SynthConfig, build_supervised, gen_synthetic, split_sequential
from robustcast.exceptions import ConfigError, DomainError, NumericalError, SizeError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, init_params, loss_and_grad, mse_loss
from robustcast.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    IterationRecord,
    TrainConfig,
    TrainResult,
    adam_step,
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
        bias_index=1,
        maskable=(0,),
        horizon=1,
        max_lag=0,
        obs_periods=np.arange(n),
    )


def reference_adam_step(params, grads, m, v, t, learning_rate):
    """Bias-corrected Adam applied block by block, returning new params and
    moment dicts: the update training ran before it kept one flat vector."""
    new_m, new_v, arrays = {}, {}, {}
    for name in params.block_names():
        g = grads[name]
        new_m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        new_v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = new_m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = new_v[name] / (1.0 - ADAM_BETA2**t)
        arrays[name] = params.arrays[name] - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return replace(params, arrays=arrays), new_m, new_v


class TestAdamStep:
    def make(self):
        return np.array([1.0, -2.0, 0.5]), np.zeros(3), np.zeros(3)

    def test_zero_gradient_keeps_params(self):
        theta, m, v = self.make()
        adam_step(theta, np.zeros(3), m, v, 1, 0.1)
        np.testing.assert_array_equal(theta, self.make()[0])

    def test_first_step_is_signed_learning_rate(self):
        # Bias correction makes the first update g/(|g| + eps), i.e. sign(g)
        # up to eps, for any |g| >= 1e-3.
        for g in (1e-3, -0.5, 2.0, -1e-3):
            theta, m, v = self.make()
            adam_step(theta, np.array([g, 0.0, 0.0]), m, v, 1, 0.01)
            delta = theta[0] - self.make()[0][0]
            assert abs(delta - (-0.01 * np.sign(g))) < 1e-6

    def test_update_is_deterministic(self):
        g = np.array([0.3, -0.1, 0.2])
        a, m, v = self.make()
        adam_step(a, g, m, v, 1, 0.05)
        b, m2, v2 = self.make()
        adam_step(b, g, m2, v2, 1, 0.05)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family, hidden", [("lr", ()), ("nn", (3, 4))])
    def test_vector_step_matches_the_per_block_reference_bit_for_bit(self, family, hidden):
        rng = np.random.default_rng(11)
        params = init_params(Architecture(input_dim=5, hidden=hidden, bias_index=4), family,
                             True, seed=3, maskable=(0, 1, 2))
        params = params.from_vector(rng.normal(size=params.to_vector().size))
        names = params.block_names()
        ref = params
        ref_m = {k: np.zeros_like(a) for k, a in params.arrays.items()}
        ref_v = {k: np.zeros_like(a) for k, a in params.arrays.items()}
        theta = params.to_vector()
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        for t in range(1, 31):
            scale = 10.0 ** rng.uniform(-4, 1)
            grads = {k: scale * rng.normal(size=params.arrays[k].shape) for k in names}
            ref, ref_m, ref_v = reference_adam_step(ref, grads, ref_m, ref_v, t, 0.01)
            adam_step(theta, np.concatenate([grads[k].ravel() for k in names]), m, v, t, 0.01)
            assert np.array_equal(theta, ref.to_vector())
            assert np.array_equal(m, np.concatenate([ref_m[k].ravel() for k in names]))
            assert np.array_equal(v, np.concatenate([ref_v[k].ravel() for k in names]))


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
        zero = lambda params: MissingPattern.zeros(2)
        with pytest.raises(NumericalError, match="validation loss is nan at iteration 0"):
            run_training_loop(train, val, params0, cfg, zero, zero)


class TestInPlaceUpdates:
    """Training updates one vector in place; nothing outside the run may see
    those writes."""

    def make(self):
        raw = gen_synthetic(SynthConfig(2, 300, 0.9, 0.4, 0.3, seed=8))
        ds = build_supervised(raw, 0, 1, 1)
        train, val, _ = split_sequential(ds, 0.5, 0.2)
        arch = Architecture(input_dim=ds.p, hidden=(4,), bias_index=ds.bias_index)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=4, patience=4, batch_size=32, seed=1)
        warm = init_params(arch, "nn", True, seed=2, maskable=train.maskable)
        return train, val, arch, cfg, warm

    @pytest.mark.parametrize("trainer", ["nominal", "adversarial", "sampled"])
    def test_the_warm_start_is_left_unchanged_and_unshared(self, trainer):
        train, val, arch, cfg, warm = self.make()
        before = {k: a.copy() for k, a in warm.arrays.items()}
        zero = MissingPattern.zeros(train.p)
        if trainer == "nominal":
            res = train_nominal(train, val, zero, cfg, arch, "nn", True, warm_start=warm)
        elif trainer == "adversarial":
            scope = AdvSearchScope(free=train.maskable, budget=2, base=zero)
            res = train_adversarial(train, val, scope, cfg, warm)
        else:
            res = train_sampled_adversarial(train, val, 1, cfg, warm)
        for k, a in warm.arrays.items():
            np.testing.assert_array_equal(a, before[k])
            assert not np.shares_memory(res.params.arrays[k], a)
        assert not all(np.array_equal(res.params.arrays[k], before[k]) for k in before)

    def test_the_best_snapshot_is_not_the_live_vector(self):
        ds = line_dataset(n=300, noise=0.3, seed=5)
        train, val = split_sequential(ds, 0.6, 0.25)[:2]
        zero = MissingPattern.zeros(2)
        cfg = TrainConfig(learning_rate=0.3, max_iters=30, patience=30, batch_size=16, seed=3)
        res = train_nominal(train, val, zero, cfg, Architecture(input_dim=2, bias_index=1),
                            "lr", False)
        assert res.best_iteration < res.iterations - 1
        assert res.trace[-1].val_loss != res.val_loss
        assert mse_loss(res.params, val.X, val.y, zero) == res.val_loss


def reference_run_training_loop(train, val, params0, cfg, pick_train_pattern, pick_val_pattern):
    """run_training_loop as it was before each epoch bound its pattern once:
    every batch hands the picked pattern to loss_and_grad, which checks it
    and allocates its own buffers, and the blocks are concatenated into the
    gradient vector Adam reads."""
    if train.n == 0 or val.n == 0:
        raise SizeError("training and validation splits must be non-empty")
    theta = params0.to_vector()
    params = params0.from_vector(theta)
    names = params.block_names()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    best_theta = theta.copy()
    best_loss = np.inf
    best_iter = -1
    trace = []
    shuffle_rng = rng_for(cfg.seed, "shuffle") if cfg.shuffle else None

    k = 0
    phi = 0
    step = 0
    while k < cfg.max_iters and phi < cfg.patience:
        alpha_train = pick_train_pattern(params)
        X, y = train.X, train.y
        if shuffle_rng is not None:
            order = shuffle_rng.permutation(train.n)
            X, y = X[order], y[order]
        batch_losses = []
        for start in range(0, train.n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            loss, grads = loss_and_grad(params, X[rows], y[rows], alpha_train, cfg.weight_decay)
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at iteration {k}")
            step += 1
            g = np.concatenate([grads[name].ravel() for name in names])
            adam_step(theta, g, m, v, step, cfg.learning_rate)
            batch_losses.append(loss)
        alpha_val = pick_val_pattern(params)
        val_loss = mse_loss(params, val.X, val.y, alpha_val)
        if not math.isfinite(val_loss):
            raise NumericalError(f"validation loss is {val_loss} at iteration {k}")
        trace.append(IterationRecord(k, float(np.mean(batch_losses)), val_loss))
        if val_loss < best_loss:
            best_theta = theta.copy()
            best_loss = val_loss
            best_iter = k
            phi = 0
        else:
            phi += 1
        k += 1
    return TrainResult(
        params=params0.from_vector(best_theta),
        val_loss=float(best_loss),
        trace=trace,
        iterations=k,
        best_iteration=best_iter,
    )


def bits_of_float(x) -> bytes:
    return np.float64(x).tobytes()


class TestLoopAgainstReference:
    """The loop binds each epoch's pattern once and steps through reused
    buffers; what it returns is still the reference loop's, bit for bit."""

    def make(self, family):
        raw = gen_synthetic(SynthConfig(3, 400, 0.9, 0.4, 0.3, seed=12))
        ds = build_supervised(raw, 0, 2, 1)
        train, val, _ = split_sequential(ds, 0.5, 0.2)
        arch = Architecture(input_dim=ds.p, hidden=(6, 5) if family == "nn" else (),
                            bias_index=ds.bias_index)
        return train, val, init_params(arch, family, True, seed=5, maskable=train.maskable)

    @staticmethod
    def pickers(train, seed):
        """A fresh pattern every epoch, for training and validation alike,
        drawn from seeded generators so two runs see the same sequence."""
        def picker(stream):
            rng = np.random.default_rng([seed, stream])

            def pick(params):
                bits = np.zeros(train.p, dtype=np.uint8)
                bits[list(train.maskable)] = rng.uniform(size=len(train.maskable)) < 0.4
                return MissingPattern(bits=bits)
            return pick
        return picker(0), picker(1)

    @pytest.mark.parametrize("family", ["lr", "nn"])
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_matches_the_reference_loop_bit_for_bit(self, family, shuffle, weight_decay):
        train, val, params0 = self.make(family)
        assert train.n % 48  # the last batch of each epoch is short
        cfg = TrainConfig(learning_rate=0.02, max_iters=12, patience=4, batch_size=48,
                          weight_decay=weight_decay, seed=3, shuffle=shuffle)
        got = run_training_loop(train, val, params0, cfg, *self.pickers(train, 7))
        want = reference_run_training_loop(train, val, params0, cfg, *self.pickers(train, 7))
        assert got.params.to_vector().tobytes() == want.params.to_vector().tobytes()
        assert bits_of_float(got.val_loss) == bits_of_float(want.val_loss)
        assert [(r.iteration, bits_of_float(r.train_loss), bits_of_float(r.val_loss))
                for r in got.trace] == \
            [(r.iteration, bits_of_float(r.train_loss), bits_of_float(r.val_loss))
             for r in want.trace]
        assert (got.iterations, got.best_iteration) == (want.iterations, want.best_iteration)
        assert got.iterations > 1

    def test_an_inadmissible_pattern_raises_at_its_epoch_before_any_update(self, monkeypatch):
        train, val, params0 = self.make("lr")
        before = params0.to_vector()
        cfg = TrainConfig(learning_rate=0.02, max_iters=10, patience=10, batch_size=64, seed=0)
        batches = -(-train.n // cfg.batch_size)
        outside = next(j for j in range(train.p) if j not in train.maskable)
        picked = []

        def pick(params):
            picked.append(len(picked))
            return MissingPattern.from_missing(train.p, [outside] if len(picked) == 3 else [])

        calls = []
        monkeypatch.setattr(training, "loss_and_grad",
                            lambda *args: calls.append(1) or loss_and_grad(*args))
        zero = lambda params: MissingPattern.zeros(train.p)
        with pytest.raises(DomainError, match="non-maskable"):
            run_training_loop(train, val, params0, cfg, pick, zero)
        assert picked == [0, 1, 2]
        assert len(calls) == 2 * batches  # the third epoch stepped no batch
        assert params0.to_vector().tobytes() == before.tobytes()
