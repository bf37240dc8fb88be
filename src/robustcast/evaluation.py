"""Test-set evaluation: normalized RMSE, pairwise forecast-comparison
testing of loss series the caller computes, the missingness-probability grid
runner, and sensitivity sweeps over the number of learned subsets.

A grid result is its rows: `run_grid` returns one `GridRow` (a line of
grid.csv) per method, horizon, cell and run, and keeps no per-observation
errors. `emit_report` writes those rows and `write_summary` their per-cell
summary; `read_grid` reads back exactly the rows `emit_report` writes, for
`robustcast report`. The Q sweep is a one-cell grid: `q_sweep` builds its
rows as `run_grid` does and averages them per Q.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._util import derive_seed, map_jobs, open_utf8
from .adversarial import SplitScorer
from .dataio import Dataset, RawSeries, build_supervised, lagged_values, split_sequential
from .exceptions import ConfigError, DataError, DomainError, NumericalError, SizeError
from .missingness import (
    MissingnessConfig,
    MissingPattern,
    column_means,
    expand_obs_mask,
    impute_mean,
    impute_persistence,
    simulate_markov,
)
from .models import LR, Architecture, ModelParams, _decayed_mask, _layout, predict
from .partition import (
    FixedPartition,
    Partition,
    predict_deployed_rows,
    predict_fixed_rows,
    predict_grouped,
)
from .training import TrainConfig, check_fits, train_nominal

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
        # held as floats, so a probability written 0 or 0.0 prints alike
        object.__setattr__(self, "p01_list", tuple(map(float, self.p01_list)))
        object.__setattr__(self, "p11_list", tuple(map(float, self.p11_list)))
        lists = {"grid.p01": self.p01_list, "grid.p11": self.p11_list,
                 "horizons": self.horizons, "grid.methods": self.methods}
        for name, values in lists.items():
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} needs one or more distinct values, got {list(values)}")
        if min(self.horizons) < 1:
            raise ConfigError(f"horizons must be >= 1, got {list(self.horizons)}")
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


class GridRow(NamedTuple):
    """One scored (method, horizon, cell, run): a line of grid.csv (`line`),
    whose header is these field names."""

    method: str
    h: int
    p01: float
    p11: float
    run: int
    nrmse: float

    @property
    def line(self) -> str:
        return f"{self.method},{self.h},{self.p01!r},{self.p11!r},{self.run},{self.nrmse!r}"


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
    """Dedicated model of layout arch per realized pattern, fitted on demand
    and cached.

    A linear model is the exact fit of its pattern on the train split
    (_least_squares). A network trains from a seed derived from the pattern
    itself, so the cache contents do not depend on encounter order. Guarded
    to small maskable sets, since the pattern space grows exponentially, and
    to layouts of the data's width and maskable set (check_fits).
    """

    def __init__(
        self,
        train: Dataset,
        val: Dataset,
        cfg: TrainConfig,
        arch: Architecture,
    ):
        RetrainOracle.check_capacity(train)
        check_fits(arch, train)
        self.train = train
        self.val = val
        self.cfg = cfg
        self.arch = arch
        self._cache: dict[bytes, ModelParams] = {}
        self._scorer = SplitScorer(train.X, train.y, arch) if arch.family == LR else None

    @staticmethod
    def check_capacity(train: Dataset) -> None:
        """Raise ConfigError when the data have too many maskable features
        for a model per pattern."""
        if len(train.maskable) > ORACLE_MASKABLE_LIMIT:
            raise ConfigError(f"retrain oracle limited to {ORACLE_MASKABLE_LIMIT} maskable "
                              f"features; the data have {len(train.maskable)}")

    def params_for(self, pattern: MissingPattern) -> ModelParams:
        key = pattern.key()
        if key not in self._cache:
            if self._scorer is not None:
                self._cache[key] = self._least_squares(pattern)
            else:
                seed = derive_seed(self.cfg.seed, "oracle", *pattern.missing_indices())
                cfg = replace(self.cfg, seed=seed)
                self._cache[key] = train_nominal(self.train, self.val, pattern, cfg,
                                                 self.arch).params
        return self._cache[key]

    def _least_squares(self, pattern: MissingPattern) -> ModelParams:
        """The linear weights at pattern that minimise the train split's mean
        squared error plus weight_decay times the decayed squared weights
        (models._decayed_mask): (G_AA + weight_decay diag(m_A)) w_A = b_A over
        the available columns A, from the scorer's G = X'X/n and b = X'y/n,
        and 0 on the missing ones. An adaptive model's D is 0 too, since at
        one pattern only w + D a is identified. NumericalError for a singular
        system."""
        arch = self.arch
        params = ModelParams(arch, {name: np.zeros(shape) for name, shape in _layout(arch).items()})
        avail = np.flatnonzero(pattern.bits == 0)
        decay = np.broadcast_to(_decayed_mask(arch, "w"), arch.input_dim)[avail]
        lhs = self._scorer.gram[np.ix_(avail, avail)] + self.cfg.weight_decay * np.diag(decay)
        try:
            params.arrays["w"][avail] = np.linalg.solve(lhs, self._scorer.xty[avail])
        except np.linalg.LinAlgError:
            raise NumericalError(f"the least-squares fit of the pattern missing "
                                 f"{list(pattern.missing_indices())} is singular") from None
        return params

    def predict_rows(self, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """Predict each row of X with the model of its pattern (one row of the
        (n, p) bit matrix, which passes the pattern gate for the oracle's
        layout); rows sharing a pattern run one forward pass. A pattern is
        keyed by its maskable bits read as one binary number, the first
        maskable feature highest (check_capacity keeps it in an int64), so
        the groups run in the patterns' lexicographic order; each group's
        bits are those of its first row."""
        arch = self.arch
        patterns = MissingPattern.bits_of(patterns, arch.input_dim, arch.maskable, ndim=2)
        weights = np.left_shift(1, np.arange(len(arch.maskable))[::-1], dtype=np.int64)
        keys = patterns.take(arch.maskable_cols, axis=1) @ weights

        def group(key, rows):
            bits = patterns[rows[0]]
            return self.params_for(MissingPattern(bits=bits)), bits

        return predict_grouped(X, keys, group)


class Method(NamedTuple):
    """What a method name means: the artifact type `train` writes and
    `evaluate` scores, its file stem (`{stem}_h{h}.json`; the oracle is built
    at evaluation), and whether its models adapt. The oracle's do not: fitted
    at a single pattern, an adaptive model only identifies w + D a."""

    artifact: type
    stem: str | None
    adaptive: bool


METHODS = {
    METHOD_IMP_PERSISTENCE: Method(ModelParams, "base", False),
    METHOD_IMP_MEAN: Method(ModelParams, "base", False),
    METHOD_RF_FIXED: Method(FixedPartition, METHOD_RF_FIXED, False),
    METHOD_RF_LEARNED: Method(Partition, METHOD_RF_LEARNED, False),
    METHOD_ARF_FIXED: Method(FixedPartition, METHOD_ARF_FIXED, True),
    METHOD_ARF_LEARNED: Method(Partition, METHOD_ARF_LEARNED, True),
    METHOD_RETRAIN_ORACLE: Method(RetrainOracle, None, False),
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


def _mask_config(spec: GridSpec, i01: int, i11: int, run: int) -> MissingnessConfig:
    """The missingness of one (cell, run), seeded by the base seed and the indices."""
    return MissingnessConfig(p01=spec.p01_list[i01], p11=spec.p11_list[i11],
                             seed=derive_seed(spec.base_seed, "grid", i01, i11, run))


def _score_mask(args) -> list[float]:
    """The test nrmse of each (method, h, artifact) entry on one simulated
    mask. The mask is simulated once, filled by persistence only when an
    entry is imp-persistence, and expanded once per horizon; every horizon's
    data come from one raw series."""
    cfg, hds, entries = args
    raw = next(iter(hds.values())).raw
    mask = simulate_markov(cfg, raw.n_periods, raw.n_plants)
    filled = None
    if any(method == METHOD_IMP_PERSISTENCE for method, _, _ in entries):
        filled = impute_persistence(raw.values, mask)
    patterns: dict[int, np.ndarray] = {}
    scores = []
    for method, h, artifact in entries:
        hd = hds[h]
        if h not in patterns:
            patterns[h] = expand_obs_mask(mask, hd.test)
        scores.append(nrmse(predict_method(method, artifact, hd, patterns[h], filled), hd.test.y))
    return scores


def _rows(spec: GridSpec, hds: dict[int, HorizonData], entries: list, jobs: int) -> list[GridRow]:
    """One GridRow per (method, h, artifact) entry, (p01, p11) cell and run
    of spec, in that order, each cell and run in spec order.

    Each (cell, run) simulates one mask, seeded by the base seed and the
    cell/run indices, that every entry shares (_score_mask); parallel
    execution (jobs > 1) returns the same rows as sequential."""
    for h in spec.horizons:
        if h not in hds:
            raise ConfigError(f"no data prepared for horizon {h}")
    hds = {h: hds[h] for h in spec.horizons}
    raw = hds[spec.horizons[0]].raw
    if any(hd.raw is not raw for hd in hds.values()):
        raise ConfigError("every horizon's data must come from one raw series")
    cells = list(itertools.product(range(len(spec.p01_list)), range(len(spec.p11_list)),
                                   range(spec.runs)))
    tasks = [(_mask_config(spec, *cell), hds, entries) for cell in cells]
    scores = map_jobs(_score_mask, tasks, jobs)
    return [GridRow(method, h, spec.p01_list[i01], spec.p11_list[i11], run, cell_scores[e])
            for e, (method, h, _) in enumerate(entries)
            for (i01, i11, run), cell_scores in zip(cells, scores)]


def run_grid(
    spec: GridSpec,
    hds: dict[int, HorizonData],
    artifacts: dict[tuple[str, int], object],
    jobs: int = 1,
) -> list[GridRow]:
    """The grid.csv rows of every (method, horizon, cell, run) combination,
    in that order, each in spec order (_rows); artifacts holds the artifact
    of each (method, horizon)."""
    entries = []
    for method in spec.methods:
        for h in spec.horizons:
            if (method, h) not in artifacts:
                raise ConfigError(f"missing artifact for method {method!r} at horizon {h}")
            entries.append((method, h, artifacts[(method, h)]))
    return _rows(spec, hds, entries, jobs)


@dataclass
class QSweepRow:
    n_subsets: int
    mean_nrmse: float
    max_relgap: float


def q_sweep(
    spec: GridSpec,
    partitions: dict[int, Partition],
    hds: dict[int, HorizonData],
    jobs: int = 1,
) -> list[QSweepRow]:
    """Mean test nrmse over the runs of spec and max leaf relative gap per
    subset count Q of partitions, learned trees of spec's method. spec is a
    one-cell grid: one p01, one p11, one horizon and one learned-partition
    method. Each run's mask is simulated once and scores every partition.
    Rows are ordered by Q."""
    if any(len(axis) != 1 for axis in (spec.p01_list, spec.p11_list, spec.horizons, spec.methods)):
        raise ConfigError(f"q_sweep needs a one-cell grid, got p01 {list(spec.p01_list)}, p11 "
                          f"{list(spec.p11_list)}, horizons {list(spec.horizons)} and methods "
                          f"{list(spec.methods)}")
    (method,), (h,) = spec.methods, spec.horizons
    if METHODS[method].artifact is not Partition:
        raise ConfigError(f"q_sweep needs a learned-partition method, got {method!r}")
    qs, runs = sorted(partitions), spec.runs
    scores = [row.nrmse for row in _rows(spec, hds, [(method, h, partitions[q]) for q in qs], jobs)]
    return [QSweepRow(n_subsets=q, mean_nrmse=float(np.mean(scores[i * runs:(i + 1) * runs])),
                      max_relgap=partitions[q].max_relgap())
            for i, q in enumerate(qs)]


def write_summary(rows: list[GridRow], out_dir: str | Path) -> Path:
    """Write summary.csv: the mean and population std of nrmse per (method,
    h, p01, p11) cell of rows, cells in order of first appearance."""
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        cells.setdefault((row.method, row.h, row.p01, row.p11), []).append(row.nrmse)
    lines = ["method,h,p01,p11,mean_nrmse,std_nrmse,runs"]
    for (method, h, p01, p11), values in cells.items():
        mean = float(np.mean(values))
        std = float(np.std(values))
        lines.append(f"{method},{h},{p01!r},{p11!r},{mean!r},{std!r},{len(values)}")
    path = Path(out_dir) / "summary.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_report(
    rows: list[GridRow],
    out_dir: str | Path,
    qsweep_rows: list[QSweepRow] | None = None,
) -> list[Path]:
    """Write grid.csv (its header, then each row's line), summary.csv (by
    write_summary), and qsweep.csv when sweep rows are given.
    Output is a pure function of the inputs, so re-runs are byte-identical."""
    out_dir = Path(out_dir)
    if not rows:
        raise SizeError("nothing to report")
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_path = out_dir / "grid.csv"
    lines = [",".join(GridRow._fields), *(row.line for row in rows)]
    grid_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written = [grid_path, write_summary(rows, out_dir)]

    if qsweep_rows is not None:
        qsweep_path = out_dir / "qsweep.csv"
        lines = ["Q,mean_nrmse,max_relgap"]
        for row in qsweep_rows:
            lines.append(f"{row.n_subsets},{row.mean_nrmse!r},{row.max_relgap!r}")
        qsweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(qsweep_path)
    return written


def read_grid(out_dir: str | Path) -> list[GridRow]:
    """The rows of the grid.csv in out_dir, which must be exactly what
    emit_report writes for the grid they span: its header, then runs 0..R-1
    of every (method, h, p01, p11) of the product of the values the rows
    name (each in order of first appearance; R one past the largest run),
    in that order. Any other file is a DataError naming its line: a missing
    file, another header, no rows, a row that does not parse, one with an
    unknown method, h below 1, a probability outside [0, 1] or an nrmse
    that is not a finite number >= 0, or else the first row out of place."""
    path = Path(out_dir) / "grid.csv"
    if not path.is_file():
        raise DataError(f"no grid.csv file at {path}; run the evaluate subcommand first")
    with open_utf8(path) as fh:
        lines = fh.read().removesuffix("\n").split("\n")
    header = ",".join(GridRow._fields)
    if lines[0] != header:
        raise DataError(f"{path} line 1: header {lines[0]!r}, expected {header!r}")
    if len(lines) == 1:
        raise DataError(f"{path} line 2: no grid row, nothing to report")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            method, h, p01, p11, run, value = line.split(",")
            row = GridRow(method, int(h), float(p01), float(p11), int(run), float(value))
        except ValueError:
            raise DataError(f"{path} line {lineno}: malformed grid row {line!r}") from None
        for bad, problem in (
            (method not in METHODS, "an unknown method"),
            (row.h < 1, "a horizon below 1"),
            (not (0 <= row.p01 <= 1 and 0 <= row.p11 <= 1), "a probability outside [0, 1]"),
            (not (math.isfinite(row.nrmse) and row.nrmse >= 0),
             "an nrmse that is not a finite number >= 0"),
        ):
            if bad:
                raise DataError(f"{path} line {lineno}: {problem} in grid row {line!r}")
        rows.append(row)
    axes = [list(dict.fromkeys(row[i] for row in rows)) for i in range(4)]
    keys = itertools.product(*axes, range(max(row.run for row in rows) + 1))
    for lineno, (row, key) in enumerate(itertools.zip_longest(rows, keys), 2):
        if row is None or row[:5] != key:
            raise DataError(
                f"{path} line {lineno}: "
                + ("the end of the file" if row is None else f"grid row {lines[lineno - 1]!r}")
                + " where evaluate writes "
                + ("no more rows" if key is None
                   else "the row for (method, h, p01, p11, run) = " + ",".join(map(str, key)))
                + " of the grid its rows span")
    return rows
