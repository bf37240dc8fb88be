"""Nominal model training: mini-batch Adam with per-epoch validation and
patience-based early stopping, returning the best-on-validation parameters.
A run updates one flat vector in place (the blocks in block_names() order,
with two Adam moment vectors of its length); its ModelParams are views of it.
Each epoch's training pattern is bound once (models.bind_pattern checks and
expands it) and serves every mini-batch of the epoch. Each step's
loss_and_grad writes its gradient into the flat vector of the run's
StepBuffers (made once per run), which adam_step reads as it is.

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
from .models import (
    Architecture,
    ModelParams,
    StepBuffers,
    bind_pattern,
    init_params,
    loss_and_grad,
    mse_loss,
)

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


def adam_step(
    theta: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    learning_rate: float,
) -> None:
    """Standard bias-corrected Adam update number t (from 1), in place on the
    parameter vector theta and its moments m and v. g is the gradient laid
    out as theta is: the blocks concatenated in block_names() order."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    theta -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


PatternPicker = Callable[[ModelParams], MissingPattern]


def run_training_loop(
    train: Dataset,
    val: Dataset,
    params0: ModelParams,
    cfg: TrainConfig,
    pick_train_pattern: PatternPicker,
    pick_val_pattern: PatternPicker,
) -> TrainResult:
    """Mini-batch Adam with per-epoch validation and patience.

    One iteration is one pass over mini-batches, contiguous row slices of
    the training split (permuted once per epoch by a seed-derived permutation
    when cfg.shuffle is set). The training pattern for an epoch is picked and
    bound before its updates, so an inadmissible one raises DomainError before
    the epoch's first update; the validation pattern is picked after them.
    Returns the parameters with the lowest validation mean squared error seen.
    A non-finite training (mini-batch) or validation loss raises NumericalError
    naming the iteration: a diverged fit never improves on the best, so it
    would otherwise end as the initial params. params0 is left unchanged; the
    params a picker gets are views of the live vector, valid during its call.
    """
    if train.n == 0 or val.n == 0:
        raise SizeError("training and validation splits must be non-empty")
    theta = params0.to_vector()
    params = params0.from_vector(theta)
    work = StepBuffers(params, min(cfg.batch_size, train.n))
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    best_theta = theta.copy()
    best_loss = np.inf
    best_iter = -1
    trace: list[IterationRecord] = []
    shuffle_rng = rng_for(cfg.seed, "shuffle") if cfg.shuffle else None

    k = 0
    phi = 0
    step = 0
    while k < cfg.max_iters and phi < cfg.patience:
        alpha_train = bind_pattern(params, pick_train_pattern(params))
        X, y = train.X, train.y
        if shuffle_rng is not None:
            order = shuffle_rng.permutation(train.n)
            X, y = X[order], y[order]
        batch_losses = []
        for start in range(0, train.n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            loss, _ = loss_and_grad(params, X[rows], y[rows], alpha_train, cfg.weight_decay, work)
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at iteration {k}")
            step += 1
            adam_step(theta, work.grad, m, v, step, cfg.learning_rate)
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
    parameters (with fresh optimizer state), leaving them unchanged. The
    adversarial trainers warm-start the same way, but hand their params to
    run_training_loop directly.
    """
    MissingPattern.bits_of(pattern, train.p, train.maskable, ndim=1)
    if warm_start is None:
        warm_start = init_params(arch, family, adaptive, cfg.seed, maskable=train.maskable)
    constant = lambda params: pattern
    return run_training_loop(train, val, warm_start, cfg, constant, constant)
