"""Shared heavy fixtures: the 4-plant trend setup is built once per session
and reused by the evaluation-trend and acceptance tests. Also the grid-row
helpers those tests share: a cell's nrmse values, and the per-observation
squared errors behind them for a forecast-comparison test. And the training
and routing references the tests check the library against: a fine-tune
from given parameters, the validation losses a training loop computes, the
patterns of a budgeted uncertainty set, and the subset a pattern reaches
in a learned or a fixed partition. And the one-call forms of the two
kernels: a training step at a pattern (step) and a greedy search or split
pick on a data set (find_on, split_feature_on), each on buffers or a
scorer of its own."""
import itertools
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from robustcast import training
from robustcast.adversarial import SplitScorer, find_adversarial, greedy_split_feature
from robustcast.dataio import SynthConfig, gen_synthetic
from robustcast.evaluation import (
    METHOD_ARF_LEARNED,
    METHOD_IMP_PERSISTENCE,
    GridRow,
    GridSpec,
    HorizonData,
    QSweepRow,
    _mask_config,
    nrmse,
    predict_method,
    q_sweep,
    run_grid,
)
from robustcast.missingness import (
    MissingPattern, expand_obs_mask, impute_persistence, simulate_markov,
)
from robustcast.models import Architecture, StepBuffers, loss_and_grad, mse_loss
from robustcast.partition import (
    FixedPartition, Partition, PartitionConfig, learn_partition, truncate,
)
from robustcast.training import TrainConfig, TrainResult, run_training_loop, train_nominal

TREND_SYNTH = SynthConfig(
    n_plants=4,
    n_periods=8003,
    ar_coefficient=0.97,
    cross_plant_correlation=0.6,
    noise_std=0.5,
    seed=1234,
    obs_noise_std=0.3,
)
TREND_TRAIN = TrainConfig(
    learning_rate=5e-3, max_iters=400, patience=30, batch_size=512, seed=77
)
TREND_Q_LIST = (1, 2, 5, 10)
TREND_RUNS = 10
TREND_GRID_SEED = 42
HEAVY_CELL = (0.2, 0.9)
LIGHT_CELL = (0.05, 0.0)


def step(params, X, y, alpha, weight_decay: float = 0.0):
    """loss_and_grad on one batch at pattern alpha: buffers made for this
    batch and weight_decay, alpha bound to them, then the step."""
    work = StepBuffers(params, np.atleast_2d(X).shape[0], weight_decay)
    work.bind(alpha)
    return loss_and_grad(params, X, y, work)


def find_on(X, y, scope, params):
    """find_adversarial for params on X and y, through a scorer of their own."""
    return find_adversarial(SplitScorer(X, y, params.arch), params, scope)


def split_feature_on(X, y, scope, params):
    """greedy_split_feature for params on X and y, through a scorer of their
    own."""
    return greedy_split_feature(SplitScorer(X, y, params.arch), params, scope)


def finetune(train, val, pattern: MissingPattern, cfg: TrainConfig, params) -> TrainResult:
    """Nominal training at a fixed pattern that continues from params (with
    fresh optimizer state), leaving them unchanged: the run_training_loop
    call train_nominal makes, from params in place of cfg.seed's."""
    constant = lambda live: pattern
    return run_training_loop(train, val, params, cfg, constant, constant)


@pytest.fixture
def val_losses(monkeypatch) -> list[float]:
    """The validation loss of every epoch run_training_loop runs while the
    test does, in order: the loop calls training.mse_loss once per epoch,
    on the validation split, and nothing else in the package calls it
    through that name."""
    losses: list[float] = []

    def record(*args):
        losses.append(mse_loss(*args))
        return losses[-1]

    monkeypatch.setattr(training, "mse_loss", record)
    return losses


def enumerate_patterns(arch: Architecture, budget: int) -> np.ndarray:
    """Every pattern over arch's maskable features with at most budget of
    them missing, one row of a bit matrix each, in lexicographic bit order
    over the maskable features."""
    combos = np.array(list(itertools.product((0, 1), repeat=len(arch.maskable))), dtype=np.uint8)
    combos = combos[combos.sum(axis=1) <= budget]
    bits = np.zeros((len(combos), arch.input_dim), dtype=np.uint8)
    bits[:, list(arch.maskable)] = combos
    return bits


def locate(part: Partition, pattern) -> int:
    """The leaf subset a pattern (a MissingPattern or one bit vector)
    reaches, found from the splits alone: split k, when it splits the
    subset reached so far, leads to subset 2k if its feature is missing in
    the pattern and to 2k - 1 otherwise. Any missing count is routed."""
    bits = getattr(pattern, "bits", pattern)
    sid = 0
    for k, split in enumerate(part.splits, 1):
        if split.leaf == sid:
            sid = 2 * k if bits[split.feature] else 2 * k - 1
    return sid


def route_fixed(fixed: FixedPartition, pattern) -> int:
    """The equality subset of a fixed partition a pattern (a MissingPattern
    or one bit vector) uses: its missing count, clamped to the budget."""
    return min(int(np.sum(getattr(pattern, "bits", pattern))), fixed.budget)


def cell_nrmse(rows: list[GridRow], method: str, h: int, p01: float, p11: float) -> list[float]:
    """The nrmse of every run of one grid cell, in run order."""
    return [row.nrmse for row in rows if row[:4] == (method, h, p01, p11)]


def cell_sq_errors(spec: GridSpec, hds: dict[int, HorizonData], artifacts: dict,
                   rows: list[GridRow], method: str, h: int, p01: float,
                   p11: float) -> np.ndarray:
    """The per-test-row squared errors behind every run of one grid cell,
    concatenated in run order. Each run is recomputed as run_grid scores it:
    predict_method on the run's mask (and, for imp-persistence, the series
    filled under it), and must give its row's nrmse exactly, so these are
    the errors the grid scored."""
    hd, errors = hds[h], []
    for row in rows:
        if row[:4] != (method, h, p01, p11):
            continue
        cfg = _mask_config(spec, spec.p01_list.index(p01), spec.p11_list.index(p11), row.run)
        mask = simulate_markov(cfg, hd.raw.n_periods, hd.raw.n_plants)
        filled = impute_persistence(hd.raw.values, mask) \
            if method == METHOD_IMP_PERSISTENCE else None
        preds = predict_method(method, artifacts[(method, h)], hd,
                               expand_obs_mask(mask, hd.test), filled)
        assert nrmse(preds, hd.test.y) == row.nrmse
        errors.append((preds - hd.test.y) ** 2)
    return np.concatenate(errors)


@dataclass
class TrendSetup:
    hd: HorizonData
    partitions: dict[int, Partition]
    base_params: object
    spec: GridSpec
    artifacts: dict
    grid: list[GridRow]
    qsweep_rows: list[QSweepRow]
    build_seconds: float


@pytest.fixture(scope="session")
def trend_setup() -> TrendSetup:
    t0 = time.perf_counter()
    raw = gen_synthetic(TREND_SYNTH)
    hd = HorizonData.build(raw, 0, 2, 1, 0.5, 0.15)
    arch = Architecture("lr", True, hd.dataset.p, bias_index=hd.dataset.bias_index,
                        maskable=hd.dataset.maskable)
    grown = learn_partition(
        hd.train, hd.val, len(hd.dataset.maskable), PartitionConfig(max(TREND_Q_LIST), 0.0), TREND_TRAIN, arch
    )
    partitions = {q: truncate(grown, q) for q in TREND_Q_LIST}
    base = train_nominal(
        hd.train, hd.val, MissingPattern.zeros(hd.dataset.p), TREND_TRAIN,
        replace(arch, adaptive=False),
    )
    spec = GridSpec(
        p01_list=(LIGHT_CELL[0], HEAVY_CELL[0]),
        p11_list=(LIGHT_CELL[1], HEAVY_CELL[1]),
        horizons=(1,),
        methods=(METHOD_IMP_PERSISTENCE, METHOD_ARF_LEARNED),
        runs=TREND_RUNS,
        base_seed=TREND_GRID_SEED,
    )
    artifacts = {
        (METHOD_IMP_PERSISTENCE, 1): base.params,
        (METHOD_ARF_LEARNED, 1): partitions[max(TREND_Q_LIST)],
    }
    grid = run_grid(spec, {1: hd}, artifacts)
    sweep = GridSpec((HEAVY_CELL[0],), (HEAVY_CELL[1],), (1,), (METHOD_ARF_LEARNED,), TREND_RUNS,
                     TREND_GRID_SEED)
    rows = q_sweep(sweep, partitions, {1: hd})
    return TrendSetup(
        hd=hd,
        partitions=partitions,
        base_params=base.params,
        spec=spec,
        artifacts=artifacts,
        grid=grid,
        qsweep_rows=rows,
        build_seconds=time.perf_counter() - t0,
    )
