"""Test-set evaluation: normalized RMSE, pairwise forecast-comparison
testing, the missingness-probability grid runner, and sensitivity sweeps
over the number of learned subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._util import derive_seed, map_jobs
from .dataio import Dataset, RawSeries, build_supervised, lagged_values, split_sequential
from .exceptions import CapacityError, ConfigError, DomainError, SizeError
from .missingness import (
    MissingnessConfig,
    MissingPattern,
    ObsMaskSeries,
    column_means,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)
from .models import Architecture, ModelParams, predict
from .partition import (
    FixedPartition,
    Partition,
    predict_deployed_rows,
    predict_fixed_rows,
    predict_grouped,
)
from .training import TrainConfig, train_nominal

METHOD_IMP_PERSISTENCE = "imp-persistence"
METHOD_IMP_MEAN = "imp-mean"
METHOD_RF_FIXED = "rf-fixed"
METHOD_RF_LEARNED = "rf-learned"
METHOD_ARF_FIXED = "arf-fixed"
METHOD_ARF_LEARNED = "arf-learned"
METHOD_RETRAIN_ORACLE = "retrain-oracle"

ORACLE_MASKABLE_LIMIT = 10


def nrmse(preds: np.ndarray, actuals: np.ndarray) -> float:
    """Root mean squared error divided by the mean of the actuals, in percent."""
    preds = np.asarray(preds, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if preds.shape != actuals.shape or preds.size == 0:
        raise SizeError("prediction and actual series must share a non-zero length")
    denom = actuals.mean()
    if denom <= 0:
        raise DomainError("mean of actuals must be positive for normalization")
    return 100.0 * math.sqrt(float(np.mean((preds - actuals) ** 2))) / float(denom)


class DMResult(NamedTuple):
    statistic: float
    p_value: float
    degenerate: bool


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray, lag: int = 4) -> DMResult:
    """Forecast-comparison test on two per-observation loss series.

    The statistic is the mean loss differential over its HAC standard error
    (Bartlett weights up to `lag`), with a two-sided normal p-value. A
    positive statistic means loss_a is larger. When the differential has
    (near) zero variance the result is flagged degenerate with p = 1.
    """
    a = np.asarray(loss_a, dtype=np.float64)
    b = np.asarray(loss_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise SizeError("loss series must be equal-length vectors")
    n = a.size
    if n < 30:
        raise SizeError("forecast-comparison test needs at least 30 observations")
    d = a - b
    mean_d = d.mean()
    centered = d - mean_d
    gamma0 = float(np.mean(centered**2))
    variance = gamma0
    for k in range(1, min(lag, n - 1) + 1):
        gamma_k = float(np.mean(centered[k:] * centered[:-k]))
        variance += 2.0 * (1.0 - k / (lag + 1.0)) * gamma_k
    if variance <= 1e-300 * max(1.0, mean_d**2):
        return DMResult(statistic=0.0, p_value=1.0, degenerate=True)
    stat = mean_d / math.sqrt(variance / n)
    p = math.erfc(abs(stat) / math.sqrt(2.0))
    return DMResult(statistic=float(stat), p_value=float(p), degenerate=False)


@dataclass(frozen=True)
class GridSpec:
    p01_list: tuple[float, ...]
    p11_list: tuple[float, ...]
    horizons: tuple[int, ...]
    methods: tuple[str, ...]
    runs: int
    base_seed: int

    def __post_init__(self):
        lists = {"grid.p01": self.p01_list, "grid.p11": self.p11_list,
                 "horizons": self.horizons, "grid.methods": self.methods}
        for name, values in lists.items():
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} needs one or more distinct values, got {list(values)}")
        if self.runs < 1:
            raise ConfigError(f"grid.runs must be >= 1, got {self.runs}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(
                f"grid.methods: unknown method(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(METHODS)}"
            )
        for p01 in self.p01_list:
            for p11 in self.p11_list:
                MissingnessConfig(p01=p01, p11=p11, seed=self.base_seed)


@dataclass
class CellResult:
    method: str
    horizon: int
    p01: float
    p11: float
    run: int
    nrmse: float
    sq_errors: np.ndarray


@dataclass
class EvalResult:
    records: list[CellResult] = field(default_factory=list)

    def get(self, method: str, horizon: int, p01: float, p11: float, run: int) -> CellResult:
        for rec in self.records:
            if (
                rec.method == method
                and rec.horizon == horizon
                and rec.p01 == p01
                and rec.p11 == p11
                and rec.run == run
            ):
                return rec
        raise KeyError((method, horizon, p01, p11, run))

    def cell_nrmse(self, method: str, horizon: int, p01: float, p11: float) -> list[float]:
        return [
            rec.nrmse
            for rec in self.records
            if rec.method == method
            and rec.horizon == horizon
            and rec.p01 == p01
            and rec.p11 == p11
        ]


@dataclass
class HorizonData:
    """Everything evaluation needs for one forecast horizon."""

    raw: RawSeries
    dataset: Dataset
    train: Dataset
    val: Dataset
    test: Dataset
    test_start: int
    train_means: np.ndarray

    @classmethod
    def build(
        cls,
        raw: RawSeries,
        target_plant: int,
        max_lag: int,
        horizon: int,
        train_frac: float,
        val_frac: float,
    ) -> "HorizonData":
        ds = build_supervised(raw, target_plant, max_lag, horizon)
        train, val, test = split_sequential(ds, train_frac, val_frac)
        return cls(
            raw=raw,
            dataset=ds,
            train=train,
            val=val,
            test=test,
            test_start=train.n + val.n,
            train_means=column_means(train),
        )

    def filled_test_X(self, filled_values: np.ndarray) -> np.ndarray:
        """The test rows' inputs with every lagged measurement read from
        filled_values, a (T, S) series such as the persistence-filled one;
        the weather and bias columns are copied from test.X."""
        x = self.test.X.copy()
        lagged = lagged_values(filled_values, self.test.obs_periods, self.test.max_lag)
        x[:, : lagged.shape[1]] = lagged
        return x


class RetrainOracle:
    """Dedicated model per realized pattern, trained on demand and cached.

    Each pattern's training seed is derived from the pattern itself, so the
    cache contents do not depend on encounter order. Guarded to small
    maskable sets; the pattern space grows exponentially.
    """

    def __init__(
        self,
        train: Dataset,
        val: Dataset,
        cfg: TrainConfig,
        arch: Architecture,
        family: str,
        adaptive: bool,
    ):
        RetrainOracle.check_capacity(train)
        self.train = train
        self.val = val
        self.cfg = cfg
        self.arch = arch
        self.family = family
        self.adaptive = adaptive
        self._cache: dict[bytes, ModelParams] = {}

    @staticmethod
    def check_capacity(train: Dataset) -> None:
        """Raise CapacityError when the data have too many maskable features
        for a model per pattern."""
        if len(train.maskable) > ORACLE_MASKABLE_LIMIT:
            raise CapacityError(
                f"retrain oracle limited to {ORACLE_MASKABLE_LIMIT} maskable features"
            )

    def params_for(self, pattern: MissingPattern) -> ModelParams:
        key = pattern.key()
        if key not in self._cache:
            seed = derive_seed(self.cfg.seed, "oracle", *pattern.missing_indices())
            cfg = replace(self.cfg, seed=seed)
            res = train_nominal(
                self.train, self.val, pattern, cfg, self.arch, self.family, self.adaptive
            )
            self._cache[key] = res.params
        return self._cache[key]

    def predict_rows(self, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """Predict each row of X with the model of its pattern (one row of the
        (n, p) bit matrix); rows sharing a pattern run one forward pass."""
        uniq, keys = np.unique(patterns, axis=0, return_inverse=True)

        def group(key, rows):
            bits = uniq[key]
            return self.params_for(MissingPattern(bits=bits)), bits

        return predict_grouped(X, keys.reshape(-1), group)


class Method(NamedTuple):
    """What a method name means: the artifact type `train` writes and
    `evaluate` scores, its file stem (`{stem}_h{h}.json`; the oracle is built
    at evaluation), and whether it adapts (None: the run config says)."""

    artifact: type
    stem: str | None
    adaptive: bool | None


METHODS = {
    METHOD_IMP_PERSISTENCE: Method(ModelParams, "base", False),
    METHOD_IMP_MEAN: Method(ModelParams, "base", False),
    METHOD_RF_FIXED: Method(FixedPartition, METHOD_RF_FIXED, False),
    METHOD_RF_LEARNED: Method(Partition, METHOD_RF_LEARNED, False),
    METHOD_ARF_FIXED: Method(FixedPartition, METHOD_ARF_FIXED, True),
    METHOD_ARF_LEARNED: Method(Partition, METHOD_ARF_LEARNED, True),
    METHOD_RETRAIN_ORACLE: Method(RetrainOracle, None, None),
}


def predict_method(
    method: str,
    artifact,
    hd: HorizonData,
    test_patterns: np.ndarray,
    filled: np.ndarray | None,
) -> np.ndarray:
    """Predictions of one method on the test rows under a realized mask;
    test_patterns is the test rows' (n, p) bit matrix and filled the raw
    series after persistence imputation (read by imp-persistence only).
    The artifact must be of the type METHODS gives the method."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    kind = METHODS[method].artifact
    if not isinstance(artifact, kind):
        raise ConfigError(
            f"method {method} needs a {kind.__name__} artifact, got {type(artifact).__name__}"
        )
    x_test = hd.test.X
    if kind is Partition:
        return predict_deployed_rows(artifact, x_test, test_patterns)
    if kind is FixedPartition:
        return predict_fixed_rows(artifact, x_test, test_patterns)
    if kind is RetrainOracle:
        return artifact.predict_rows(x_test, test_patterns)
    zero = np.zeros(hd.test.p, dtype=np.uint8)
    if method == METHOD_IMP_MEAN:
        return predict(artifact, impute_mean(x_test, test_patterns, hd.train_means), zero)
    if filled is None:
        raise ConfigError("imp-persistence needs the persistence-filled series")
    return predict(artifact, hd.filled_test_X(filled), zero)


def _cell_mask(spec: GridSpec, raw: RawSeries, i01: int, i11: int, run: int) -> ObsMaskSeries:
    """The mask of one (cell, run), seeded by the base seed and the indices."""
    cfg = MissingnessConfig(
        p01=spec.p01_list[i01],
        p11=spec.p11_list[i11],
        seed=derive_seed(spec.base_seed, "grid", i01, i11, run),
    )
    return simulate_markov(cfg, raw.n_periods, raw.n_plants)


def _evaluate_cell(args) -> list[CellResult]:
    spec, hds, artifacts, i01, i11, run = args
    p01 = spec.p01_list[i01]
    p11 = spec.p11_list[i11]
    records = []
    raw = next(iter(hds.values())).raw
    mask = _cell_mask(spec, raw, i01, i11, run)
    filled = None
    if METHOD_IMP_PERSISTENCE in spec.methods:
        filled = impute_persistence(raw.values, mask)
    for h in spec.horizons:
        hd = hds[h]
        test_patterns = expand_obs_mask(mask, hd.test)
        for method in spec.methods:
            artifact = artifacts[(method, h)]
            preds = predict_method(method, artifact, hd, test_patterns, filled)
            err = (preds - hd.test.y) ** 2
            records.append(
                CellResult(
                    method=method,
                    horizon=h,
                    p01=p01,
                    p11=p11,
                    run=run,
                    nrmse=nrmse(preds, hd.test.y),
                    sq_errors=err,
                )
            )
    return records


def run_grid(
    spec: GridSpec,
    hds: dict[int, HorizonData],
    artifacts: dict[tuple[str, int], object],
    jobs: int = 1,
) -> EvalResult:
    """Score every (cell, run, horizon, method) combination.

    One mask is simulated per (cell, run) from a seed derived from the base
    seed and the cell/run indices, then shared by all horizons and methods;
    so is its persistence-filled series, since every horizon's data must come
    from one raw series. Results are keyed records, so parallel execution
    (jobs > 1) returns the same output as sequential.
    """
    for h in spec.horizons:
        if h not in hds:
            raise ConfigError(f"no data prepared for horizon {h}")
        for method in spec.methods:
            if (method, h) not in artifacts:
                raise ConfigError(f"missing artifact for method {method!r} at horizon {h}")
    raw = next(iter(hds.values())).raw
    if any(hd.raw is not raw for hd in hds.values()):
        raise ConfigError("every horizon's data must come from one raw series")
    tasks = [
        (spec, hds, artifacts, i01, i11, run)
        for i01 in range(len(spec.p01_list))
        for i11 in range(len(spec.p11_list))
        for run in range(spec.runs)
    ]
    result = EvalResult()
    for records in map_jobs(_evaluate_cell, tasks, jobs):
        result.records.extend(records)
    result.records.sort(
        key=lambda r: (
            spec.methods.index(r.method),
            spec.horizons.index(r.horizon),
            spec.p01_list.index(r.p01),
            spec.p11_list.index(r.p11),
            r.run,
        )
    )
    return result


@dataclass
class QSweepRow:
    n_subsets: int
    mean_nrmse: float
    max_relgap: float


def _sweep_run(args) -> list[float]:
    """Test nrmse of each partition on one run's mask."""
    spec, hd, partitions, run = args
    test_patterns = expand_obs_mask(_cell_mask(spec, hd.raw, 0, 0, run), hd.test)
    method = spec.methods[0]
    return [
        nrmse(predict_method(method, part, hd, test_patterns, None), hd.test.y)
        for part in partitions
    ]


def q_sweep(
    partitions: dict[int, Partition],
    method: str,
    horizon: int,
    p01: float,
    p11: float,
    runs: int,
    base_seed: int,
    hds: dict[int, HorizonData],
    jobs: int = 1,
) -> list[QSweepRow]:
    """Mean test nrmse and max leaf relative gap per subset count of a
    learned-partition method, at one missingness cell, averaged over seeded
    runs. Each run's mask is simulated once and scores every partition. Rows
    are ordered by count."""
    spec = GridSpec(
        p01_list=(p01,),
        p11_list=(p11,),
        horizons=(horizon,),
        methods=(method,),
        runs=runs,
        base_seed=base_seed,
    )
    if horizon not in hds:
        raise ConfigError(f"no data prepared for horizon {horizon}")
    if method not in METHODS or METHODS[method].artifact is not Partition:
        raise ConfigError(f"q_sweep needs a learned-partition method, got {method!r}")
    qs = sorted(partitions)
    tasks = [(spec, hds[horizon], [partitions[q] for q in qs], run) for run in range(runs)]
    per_run = map_jobs(_sweep_run, tasks, jobs)
    return [
        QSweepRow(
            n_subsets=q,
            mean_nrmse=float(np.mean([scores[i] for scores in per_run])),
            max_relgap=partitions[q].max_relgap(),
        )
        for i, q in enumerate(qs)
    ]


def summary_csv(rows) -> str:
    """summary.csv text from (method, h, p01, p11, nrmse) rows: mean and
    population std of nrmse per cell, cells in order of first appearance."""
    cells: dict[tuple, list[float]] = {}
    for method, h, p01, p11, value in rows:
        cells.setdefault((method, h, p01, p11), []).append(value)
    lines = ["method,h,p01,p11,mean_nrmse,std_nrmse,runs"]
    for (method, h, p01, p11), values in cells.items():
        mean = float(np.mean(values))
        std = float(np.std(values))
        lines.append(f"{method},{h},{p01!r},{p11!r},{mean!r},{std!r},{len(values)}")
    return "\n".join(lines) + "\n"


def emit_report(
    result: EvalResult,
    out_dir: str | Path,
    qsweep_rows: list[QSweepRow] | None = None,
) -> list[Path]:
    """Write grid.csv (long format), summary.csv (per-cell mean/std), and
    qsweep.csv when sweep rows are given. Output is a pure function of the
    inputs, so re-runs are byte-identical."""
    out_dir = Path(out_dir)
    if not result.records:
        raise SizeError("nothing to report")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    grid_path = out_dir / "grid.csv"
    lines = ["method,h,p01,p11,run,nrmse"]
    for rec in result.records:
        lines.append(
            f"{rec.method},{rec.horizon},{rec.p01!r},{rec.p11!r},{rec.run},{rec.nrmse!r}"
        )
    grid_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(grid_path)

    summary_path = out_dir / "summary.csv"
    rows = [(rec.method, rec.horizon, rec.p01, rec.p11, rec.nrmse) for rec in result.records]
    summary_path.write_text(summary_csv(rows), encoding="utf-8")
    written.append(summary_path)

    if qsweep_rows is not None:
        qsweep_path = out_dir / "qsweep.csv"
        lines = ["Q,mean_nrmse,max_relgap"]
        for row in qsweep_rows:
            lines.append(f"{row.n_subsets},{row.mean_nrmse!r},{row.max_relgap!r}")
        qsweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(qsweep_path)
    return written
