"""Nominal model training: mini-batch Adam with per-epoch validation and
patience-based early stopping, returning the best-on-validation parameters.

The same loop also powers adversarial training (the adversarial module swaps
in a different pattern picker per epoch), which keeps the two code paths
exactly comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import rng_for
from .dataio import Dataset
from .exceptions import ConfigError, NumericalError, SizeError
from .missingness import MissingPattern
from .models import Architecture, ModelParams, init_params, loss_and_grad, mse_loss

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_iters: int = 1000
    patience: int = 20
    batch_size: int = 512
    weight_decay: float = 0.0
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class OptimizerState:
    """Adam moment accumulators, shaped like the parameter blocks."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer(params: ModelParams) -> OptimizerState:
    return OptimizerState(
        m={k: np.zeros_like(params.arrays[k]) for k in params.block_names()},
        v={k: np.zeros_like(params.arrays[k]) for k in params.block_names()},
        step=0,
    )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    learning_rate: float,
) -> tuple[ModelParams, OptimizerState]:
    """Standard bias-corrected Adam update, applied elementwise per block."""
    t = state.step + 1
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    arrays: dict[str, np.ndarray] = {}
    for name in params.block_names():
        g = grads[name]
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        arrays[name] = params.arrays[name] - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    new_params = ModelParams(
        family=params.family,
        adaptive=params.adaptive,
        n_features=params.n_features,
        maskable=params.maskable,
        bias_index=params.bias_index,
        arrays=arrays,
    )
    return new_params, OptimizerState(m=new_m, v=new_v, step=t)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    train_loss: float
    val_loss: float


@dataclass
class TrainResult:
    """Best-on-validation parameters plus the instrumented loss trace."""

    params: ModelParams
    val_loss: float
    trace: list[IterationRecord] = field(default_factory=list)
    iterations: int = 0
    best_iteration: int = -1


PatternPicker = Callable[[int, ModelParams], MissingPattern]


def run_training_loop(
    train: Dataset,
    val: Dataset,
    params0: ModelParams,
    cfg: TrainConfig,
    pick_train_pattern: PatternPicker,
    pick_val_pattern: PatternPicker,
) -> TrainResult:
    """Mini-batch Adam with per-epoch validation and patience.

    One iteration is one pass over contiguous, unshuffled mini-batches (a
    seed-derived permutation is used when cfg.shuffle is set). The training
    pattern for an epoch is picked before its updates; the validation pattern
    is picked after them. Returns the parameters with the lowest validation
    mean squared error seen. A non-finite training (mini-batch) or validation
    loss raises NumericalError naming the iteration: a diverged fit never
    improves on the best, so it would otherwise end as the initial params.
    """
    if train.n == 0 or val.n == 0:
        raise SizeError("training and validation splits must be non-empty")
    params = params0.copy()
    state = init_optimizer(params)
    best_params = params.copy()
    best_loss = np.inf
    best_iter = -1
    trace: list[IterationRecord] = []
    shuffle_rng = rng_for(cfg.seed, "shuffle") if cfg.shuffle else None

    k = 0
    phi = 0
    while k < cfg.max_iters and phi < cfg.patience:
        alpha_train = pick_train_pattern(k, params)
        order = (
            shuffle_rng.permutation(train.n) if shuffle_rng is not None else np.arange(train.n)
        )
        batch_losses = []
        for start in range(0, train.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(
                params, train.X[idx], train.y[idx], alpha_train, cfg.weight_decay
            )
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at iteration {k}")
            params, state = adam_step(params, grads, state, cfg.learning_rate)
            batch_losses.append(loss)
        alpha_val = pick_val_pattern(k, params)
        val_loss = mse_loss(params, val.X, val.y, alpha_val)
        if not math.isfinite(val_loss):
            raise NumericalError(f"validation loss is {val_loss} at iteration {k}")
        trace.append(IterationRecord(k, float(np.mean(batch_losses)), val_loss))
        if val_loss < best_loss:
            best_params = params.copy()
            best_loss = val_loss
            best_iter = k
            phi = 0
        else:
            phi += 1
        k += 1
    return TrainResult(
        params=best_params,
        val_loss=float(best_loss),
        trace=trace,
        iterations=k,
        best_iteration=best_iter,
    )


def train_nominal(
    train: Dataset,
    val: Dataset,
    pattern: MissingPattern,
    cfg: TrainConfig,
    arch: Architecture,
    family: str,
    adaptive: bool,
    warm_start: ModelParams | None = None,
) -> TrainResult:
    """Fit one model with a fixed missing pattern applied to every batch.

    warm_start skips the random initialization and continues from the given
    parameters (with fresh optimizer state); adversarial training relies on
    this to fine-tune from the optimistic fit.
    """
    MissingPattern.bits_of(pattern, train.p, train.maskable, ndim=1)
    params0 = (
        warm_start.copy()
        if warm_start is not None
        else init_params(arch, family, adaptive, cfg.seed, maskable=train.maskable)
    )
    constant = lambda k, params: pattern
    return run_training_loop(train, val, params0, cfg, constant, constant)
