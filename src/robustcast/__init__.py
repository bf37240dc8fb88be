"""Forecasting models that stay accurate when input features go missing.

The package trains linear and feed-forward models against worst-case
missing-feature scenarios, optionally adapts their parameters to the
realized pattern, partitions the scenario space with a learned binary tree,
and ships the simulation and evaluation harness used to measure all of it.
"""

from .dataio import (
    Dataset,
    RawSeries,
    SynthConfig,
    build_supervised,
    gen_synthetic,
    load_csv,
    split_sequential,
)
from .exceptions import (
    ConfigError,
    DataError,
    DomainError,
    NumericalError,
    OrderError,
    ParseError,
    RobustcastError,
    SizeError,
)
from .missingness import (
    MissingnessConfig,
    MissingPattern,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)
from .models import Architecture, ModelParams, init_params, loss_and_grad, predict
from .partition import (
    FixedPartition,
    Partition,
    PartitionConfig,
    Split,
    UncertaintySubset,
    fixed_partition,
    learn_partition,
    predict_deployed,
    truncate,
)
from .adversarial import (
    AdvSearchScope,
    find_adversarial,
    train_adversarial,
)
from .evaluation import GridRow, GridSpec, dm_test, emit_report, nrmse, q_sweep, run_grid
from .training import Fit, TrainConfig, adam_step, train_nominal

__version__ = "0.1.0"
