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
    CapacityError,
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
    ObsMaskSeries,
    apply_mask,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)
from .models import Architecture, ModelParams, forward, init_params, loss_and_grad, predict
from .partition import (
    Fit,
    FixedPartition,
    Partition,
    PartitionConfig,
    Split,
    UncertaintySet,
    UncertaintySubset,
    enumerate_patterns,
    fixed_partition,
    learn_partition,
    locate,
    predict_deployed,
    truncate,
)
from .adversarial import (
    AdvSearchScope,
    find_adversarial,
    sample_fixed_adversarial,
    train_adversarial,
)
from .evaluation import EvalResult, GridSpec, dm_test, emit_report, nrmse, q_sweep, run_grid
from .training import TrainConfig, TrainResult, adam_step, train_nominal

__version__ = "0.1.0"
