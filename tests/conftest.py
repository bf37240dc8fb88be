"""Shared heavy fixtures: the 4-plant trend setup is built once per session
and reused by the evaluation-trend and acceptance tests."""
import time
from dataclasses import dataclass

import pytest

from robustcast.dataio import SynthConfig, gen_synthetic
from robustcast.evaluation import (
    METHOD_ARF_LEARNED,
    METHOD_IMP_PERSISTENCE,
    EvalResult,
    GridSpec,
    HorizonData,
    QSweepRow,
    q_sweep,
    run_grid,
)
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture
from robustcast.partition import (
    Partition, PartitionConfig, UncertaintySet, learn_partition, truncate,
)
from robustcast.training import TrainConfig, train_nominal

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


@dataclass
class TrendSetup:
    hd: HorizonData
    partitions: dict[int, Partition]
    base_params: object
    grid: EvalResult
    qsweep_rows: list[QSweepRow]
    build_seconds: float


@pytest.fixture(scope="session")
def trend_setup() -> TrendSetup:
    t0 = time.perf_counter()
    raw = gen_synthetic(TREND_SYNTH)
    hd = HorizonData.build(raw, 0, 2, 1, 0.5, 0.15)
    arch = Architecture(input_dim=hd.dataset.p, bias_index=hd.dataset.bias_index)
    uset = UncertaintySet(
        n_features=hd.dataset.p,
        maskable=hd.dataset.maskable,
        budget=len(hd.dataset.maskable),
    )
    grown = learn_partition(
        hd.train, hd.val, uset, PartitionConfig(max(TREND_Q_LIST), 0.0), TREND_TRAIN, arch,
        "lr", True,
    )
    partitions = {q: truncate(grown, q) for q in TREND_Q_LIST}
    base = train_nominal(
        hd.train, hd.val, MissingPattern.zeros(hd.dataset.p), TREND_TRAIN, arch, "lr", False
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
    rows = q_sweep(
        partitions,
        METHOD_ARF_LEARNED,
        1,
        HEAVY_CELL[0],
        HEAVY_CELL[1],
        TREND_RUNS,
        TREND_GRID_SEED,
        {1: hd},
    )
    return TrendSetup(
        hd=hd,
        partitions=partitions,
        base_params=base.params,
        grid=grid,
        qsweep_rows=rows,
        build_seconds=time.perf_counter() - t0,
    )
