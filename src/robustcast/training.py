"""Nominal model training: mini-batch Adam with per-epoch validation and
patience-based early stopping, returning the best-on-validation parameters
as a Fit, the record a partition holds.
The model trained is named by one models.Architecture, which train_nominal
takes alone and checks against the data. A run updates one flat vector in
place (the blocks in block_names() order, with two Adam moment vectors of
its length and two scratch vectors every step overwrites); its ModelParams
are views of it. The run's StepBuffers, made once with its weight decay,
carry what every step's loss_and_grad reads: each epoch's training pattern
is bound to them once (StepBuffers.bind checks it and keeps its mask) and
serves every mini-batch of the epoch, and each step writes its gradient
into their flat vector, which adam_step reads as it is.

The same loop also powers adversarial training (the adversarial module swaps
in a different pattern picker per epoch), which keeps the two code paths
exactly comparable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import rng_for
from .dataio import Dataset
from .exceptions import ConfigError, DomainError, NumericalError, SizeError
from .missingness import MissingPattern
from .models import (
    Architecture,
    ModelParams,
    StepBuffers,
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
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """Standard bias-corrected Adam update number t (from 1), in place on the
    parameter vector theta and its moments m and v. g is the gradient laid
    out as theta is: the blocks concatenated in block_names() order. scratch
    is two float64 vectors of theta's length that the step overwrites: the
    textbook update's elementwise operations, in its order, write there
    instead of into fresh temporaries, so the result is the same bits."""
    a, b = scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, a), g, a)
    m_hat = np.divide(m, 1.0 - ADAM_BETA1**t, a)
    v_hat = np.divide(v, 1.0 - ADAM_BETA2**t, b)
    denom = np.add(np.sqrt(v_hat, b), ADAM_EPS, b)
    theta -= np.divide(np.multiply(learning_rate, m_hat, a), denom, a)


@dataclass(frozen=True)
class Fit:
    """Best-on-validation parameters, their validation loss, the iterations
    run and the one the parameters come from: patience stopped the run when
    iterations - 1 - best_iteration reached it, else max_iters did. A fit
    read from a file has None for both counts."""

    params: ModelParams
    loss: float
    iterations: int | None = None
    best_iteration: int | None = None


PatternPicker = Callable[[ModelParams], MissingPattern]


def run_training_loop(
    train: Dataset,
    val: Dataset,
    params0: ModelParams,
    cfg: TrainConfig,
    pick_train_pattern: PatternPicker,
    pick_val_pattern: PatternPicker,
) -> Fit:
    """Mini-batch Adam with per-epoch validation and patience.

    One iteration is one pass over mini-batches, contiguous row slices of
    the training split (permuted once per epoch by a seed-derived permutation
    when cfg.shuffle is set). The training pattern for an epoch is picked and
    bound before its updates, so an inadmissible one raises DomainError before
    the epoch's first update; the validation pattern is picked after them.
    Returns the Fit of the parameters with the lowest validation MSE seen.
    A non-finite training (mini-batch) or validation loss raises NumericalError
    naming the iteration: a diverged fit never improves on the best, so it
    would otherwise end as the initial params. params0 is left unchanged; the
    params a picker gets are views of the live vector, valid during its call.
    """
    if train.n == 0 or val.n == 0:
        raise SizeError("training and validation splits must be non-empty")
    theta = params0.to_vector()
    params = params0.from_vector(theta)
    work = StepBuffers(params, cfg.weight_decay)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    scratch = (np.empty_like(theta), np.empty_like(theta))
    best_theta = theta.copy()
    best_loss = np.inf
    best_iter = -1
    shuffle_rng = rng_for(cfg.seed, "shuffle") if cfg.shuffle else None

    k = 0
    phi = 0
    step = 0
    while k < cfg.max_iters and phi < cfg.patience:
        work.bind(pick_train_pattern(params))
        X, y = train.X, train.y
        if shuffle_rng is not None:
            order = shuffle_rng.permutation(train.n)
            X, y = X[order], y[order]
        for start in range(0, train.n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            loss, _ = loss_and_grad(params, X[rows], y[rows], work)
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at iteration {k}")
            step += 1
            adam_step(theta, work.grad, m, v, step, cfg.learning_rate, scratch)
        alpha_val = pick_val_pattern(params)
        val_loss = mse_loss(params, val.X, val.y, alpha_val)
        if not math.isfinite(val_loss):
            raise NumericalError(f"validation loss is {val_loss} at iteration {k}")
        if val_loss < best_loss:
            best_theta = theta.copy()
            best_loss = val_loss
            best_iter = k
            phi = 0
        else:
            phi += 1
        k += 1
    return Fit(params0.from_vector(best_theta), float(best_loss), k, best_iter)


def check_fits(arch: Architecture, data: Dataset) -> None:
    """DomainError when arch's input width or maskable set is not the data's."""
    if (arch.input_dim, arch.maskable) != (data.p, data.maskable):
        raise DomainError(f"a model of {arch.input_dim} inputs, maskable {list(arch.maskable)}, "
                          f"cannot fit data of {data.p}, maskable {list(data.maskable)}")


def train_nominal(
    train: Dataset,
    val: Dataset,
    pattern: MissingPattern,
    cfg: TrainConfig,
    arch: Architecture,
) -> Fit:
    """Fit one model of layout arch, initialised from cfg.seed, with a fixed
    missing pattern applied to every batch. DomainError from check_fits."""
    check_fits(arch, train)
    constant = lambda params: pattern
    return run_training_loop(train, val, init_params(arch, cfg.seed), cfg, constant, constant)
