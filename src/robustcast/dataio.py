"""Ingest or synthesize multi-plant production series and shape them into
supervised matrices with lagged features, a weather column, and a bias.

The column layout of a supervised matrix built from S plants with lags
0..L, stated here once:

* columns 0 .. S(L+1) - 1 are the measurements, plant-major and lag-minor:
  column plant * (L + 1) + lag holds that plant's value `lag` periods
  before the row's period (see lagged_values); these, and only these, are
  maskable;
* then the weather column, when the series has one;
* then the constant bias feature, always the last column (bias_index).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DomainError, OrderError, ParseError, SizeError

# Synthetic weather stand-in: trailing mean of the reference plant over
# WEATHER_WINDOW periods, issued WEATHER_LAG periods before the row period.
WEATHER_WINDOW = 4
WEATHER_LAG = 1


@dataclass(frozen=True)
class RawSeries:
    """Complete multi-plant series on a regular period grid.

    values is (T, S) normalized production in [0, 1]; weather, when present,
    is a length-T normalized production forecast treated as pre-aligned to
    each period.
    """

    timestamps: np.ndarray
    values: np.ndarray
    weather: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.weather is not None:
            object.__setattr__(self, "weather", np.asarray(self.weather, dtype=np.float64))
        if self.values.ndim != 2:
            raise DomainError("values must be a (periods, plants) matrix")
        t = self.values.shape[0]
        if self.timestamps.shape != (t,):
            raise DomainError("timestamps length does not match values")
        if t >= 2:
            steps = np.diff(self.timestamps)
            if np.any(steps <= 0):
                raise OrderError("period indices must be strictly increasing")
            if np.any(steps != steps[0]):
                raise OrderError("period indices must advance with a constant step")
        if np.any(~np.isfinite(self.values)):
            raise DomainError("values contain non-finite entries")
        if np.any((self.values < 0.0) | (self.values > 1.0)):
            raise DomainError("values must lie in [0, 1]")
        if self.weather is not None:
            if self.weather.shape != (t,):
                raise DomainError("weather length does not match values")
            if np.any((self.weather < 0.0) | (self.weather > 1.0)):
                raise DomainError("weather must lie in [0, 1]")

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_plants(self) -> int:
        return self.values.shape[1]


def maskable_indices(maskable, n_features: int) -> tuple[int, ...]:
    """The maskable feature indices as a sorted tuple; DomainError for any
    index outside range(n_features) and for a repeated index."""
    out = tuple(sorted(int(j) for j in maskable))
    if out and not (0 <= out[0] and out[-1] < n_features):
        raise DomainError(f"maskable indices {list(out)} out of range for {n_features} features")
    if len(set(out)) != len(out):
        raise DomainError(f"maskable indices {list(out)} repeat an index")
    return out


@dataclass(frozen=True)
class Dataset:
    """Supervised matrix with one row per observation period.

    Columns follow the module's layout. maskable holds the indices of the
    measurement columns (the only features that can go missing
    operationally); bias_index is the constant bias column, which is never
    maskable; obs_periods maps each row back to its period index in the raw
    series.
    """

    X: np.ndarray
    y: np.ndarray
    bias_index: int
    maskable: tuple[int, ...]
    horizon: int
    max_lag: int
    obs_periods: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        object.__setattr__(self, "obs_periods", np.asarray(self.obs_periods, dtype=np.int64))
        n, p = self.X.shape
        if self.y.shape != (n,) or self.obs_periods.shape != (n,):
            raise DomainError("X, y, obs_periods row counts disagree")
        object.__setattr__(self, "maskable", maskable_indices(self.maskable, p))
        if not 0 <= self.bias_index < p or self.bias_index in self.maskable:
            raise DomainError(f"bias_index {self.bias_index!r} is no unmaskable column of {p}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def rows(self, start: int, stop: int) -> "Dataset":
        """Contiguous row slice sharing the column layout."""
        return Dataset(
            X=self.X[start:stop],
            y=self.y[start:stop],
            bias_index=self.bias_index,
            maskable=self.maskable,
            horizon=self.horizon,
            max_lag=self.max_lag,
            obs_periods=self.obs_periods[start:stop],
        )


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator: latent AR(1) plants with correlated
    innovations, squashed to [0, 1] by a logistic map.

    obs_noise_std adds measurement noise on the latent scale before the
    squash; without it, the latest measurement is a sufficient statistic of
    the latent state and older lags carry no marginal signal.
    """

    n_plants: int
    n_periods: int
    ar_coefficient: float
    cross_plant_correlation: float
    noise_std: float
    seed: int
    obs_noise_std: float = 0.0

    def __post_init__(self):
        if self.n_plants < 1:
            raise ConfigError("n_plants must be >= 1")
        if self.n_periods < 1:
            raise ConfigError("n_periods must be >= 1")
        if not (0.0 <= self.ar_coefficient < 1.0):
            raise ConfigError("ar_coefficient must lie in [0, 1)")
        if not (0.0 <= self.cross_plant_correlation < 1.0):
            raise ConfigError("cross_plant_correlation must lie in [0, 1)")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")
        if self.obs_noise_std < 0.0:
            raise ConfigError("obs_noise_std must be >= 0")


def load_csv(path: str | Path) -> RawSeries:
    """Read a series file with header ``period,plant_0..plant_{S-1}[,weather]``.

    Values outside [0, 1] are rejected, not clipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "period":
            raise ParseError(f"{path}: first column must be 'period'")
        has_weather = bool(header) and header[-1] == "weather"
        plant_cols = header[1 : len(header) - 1] if has_weather else header[1:]
        if not plant_cols:
            raise ParseError(f"{path}: no plant columns in header")
        for s, name in enumerate(plant_cols):
            if name != f"plant_{s}":
                raise ParseError(f"{path}: expected column 'plant_{s}', found {name!r}")
        n_cols = len(header)

        periods: list[int] = []
        rows: list[list[float]] = []
        weather: list[float] = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != n_cols:
                raise ParseError(f"{path} line {lineno}: expected {n_cols} cells, found {len(cells)}")
            try:
                period = int(cells[0])
                vals = [float(c) for c in cells[1:]]
            except ValueError as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
            for name, v in zip(header[1:], vals):
                if not (0.0 <= v <= 1.0):
                    raise DomainError(f"{path} line {lineno}: {name}={v} outside [0, 1]")
            periods.append(period)
            if has_weather:
                rows.append(vals[:-1])
                weather.append(vals[-1])
            else:
                rows.append(vals)

    if not rows:
        raise ParseError(f"{path}: no data rows")
    ts = np.asarray(periods, dtype=np.int64)
    if ts.size >= 2 and np.any(np.diff(ts) <= 0):
        raise OrderError(f"{path}: period column is not strictly increasing")
    return RawSeries(
        timestamps=ts,
        values=np.asarray(rows, dtype=np.float64),
        weather=np.asarray(weather, dtype=np.float64) if has_weather else None,
    )


def save_csv(raw: RawSeries, path: str | Path) -> None:
    """Write the CSV layout accepted by load_csv."""
    path = Path(path)
    header = ["period"] + [f"plant_{s}" for s in range(raw.n_plants)]
    if raw.weather is not None:
        header.append("weather")
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(raw.n_periods):
            row = [int(raw.timestamps[t])] + [repr(float(v)) for v in raw.values[t]]
            if raw.weather is not None:
                row.append(repr(float(raw.weather[t])))
            writer.writerow(row)


def gen_synthetic(cfg: SynthConfig) -> RawSeries:
    """Generate correlated plant series plus a weather stand-in.

    Latent recursion, with u_t iid standard normal vectors and L the Cholesky
    factor of the equicorrelation matrix R (off-diagonal entries equal to
    cross_plant_correlation):

        z_0 = noise_std * L u_0
        z_t = ar_coefficient * z_{t-1} + noise_std * L u_t

    Values are logistic(z + obs_noise_std * e_t) with e_t iid standard normal
    (drawn after all u); the weather column is the trailing mean of plant 0
    over WEATHER_WINDOW periods ending WEATHER_LAG periods before each row.
    Each full window is summed left to right, then divided by WEATHER_WINDOW:
    bit for bit what ``ndarray.mean`` returns for a slice that short. The
    first WEATHER_WINDOW + WEATHER_LAG - 1 periods average the shorter window
    they have (plant 0's first value where that window is empty).
    """
    s = cfg.n_plants
    t_periods = cfg.n_periods
    corr = np.full((s, s), cfg.cross_plant_correlation, dtype=np.float64)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)

    rng = np.random.default_rng(cfg.seed)
    u = rng.standard_normal((t_periods, s))
    innov = cfg.noise_std * (u @ chol.T)
    z = np.empty((t_periods, s), dtype=np.float64)
    prev = np.zeros(s)
    for t in range(t_periods):
        prev = cfg.ar_coefficient * prev + innov[t]
        z[t] = prev
    if cfg.obs_noise_std > 0.0:
        z = z + cfg.obs_noise_std * rng.standard_normal((t_periods, s))
    values = 1.0 / (1.0 + np.exp(-z))

    weather = np.empty(t_periods, dtype=np.float64)
    ref = values[:, 0]
    first_full = WEATHER_WINDOW + WEATHER_LAG - 1
    for t in range(min(first_full, t_periods)):
        hi = t - WEATHER_LAG + 1
        weather[t] = ref[0] if hi <= 0 else ref[:hi].mean()
    n_full = t_periods - first_full
    if n_full > 0:
        # window of period first_full + i: ref[i : i + WEATHER_WINDOW]
        total = ref[:n_full].copy()
        for k in range(1, WEATHER_WINDOW):
            total += ref[k : k + n_full]
        weather[first_full:] = total / WEATHER_WINDOW

    return RawSeries(
        timestamps=np.arange(t_periods, dtype=np.int64),
        values=values,
        weather=weather,
    )


def lagged_values(values: np.ndarray, obs: np.ndarray, max_lag: int) -> np.ndarray:
    """The measurement columns of the rows observing periods `obs`: column
    plant * (max_lag + 1) + lag holds values[obs - lag, plant] (plant-major,
    lag-minor), as an (n, S * (max_lag + 1)) C-ordered matrix."""
    lags = np.arange(max_lag + 1)
    gathered = values[obs[:, None] - lags]  # (n, lags, plants)
    return gathered.transpose(0, 2, 1).reshape(len(obs), -1)


def build_supervised(
    raw: RawSeries, target_plant: int, max_lag: int, horizon: int
) -> Dataset:
    """Build the lagged supervised matrix for one target plant and horizon,
    in the module's column layout.

    Row i observes period t = max_lag + i and predicts the target plant at
    t + horizon; n = T - max_lag - horizon.
    """
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if not (0 <= target_plant < raw.n_plants):
        raise DomainError(f"target_plant {target_plant} out of range")
    t_periods, s = raw.values.shape
    n = t_periods - max_lag - horizon
    if n <= 0:
        raise SizeError(
            f"series of {t_periods} periods too short for max_lag={max_lag}, horizon={horizon}"
        )

    obs = np.arange(max_lag, max_lag + n, dtype=np.int64)
    cols = [lagged_values(raw.values, obs, max_lag)]
    if raw.weather is not None:
        cols.append(raw.weather[obs])
    cols.append(np.ones(n))

    x = np.column_stack(cols)
    y = raw.values[obs + horizon, target_plant]
    return Dataset(
        X=x,
        y=y,
        bias_index=x.shape[1] - 1,
        maskable=tuple(range(s * (max_lag + 1))),
        horizon=horizon,
        max_lag=max_lag,
        obs_periods=obs,
    )


def split_sequential(
    ds: Dataset, train_frac: float, val_frac: float
) -> tuple[Dataset, Dataset, Dataset]:
    """Contiguous train/val/test split; val is the last val_frac share of the
    training segment. Boundaries use floor, so sizes are exact and documented:
    n_tv = floor(n * train_frac), n_val = floor(n_tv * val_frac).
    """
    if not (0.0 < train_frac < 1.0) or not (0.0 < val_frac < 1.0):
        raise ConfigError("split fractions must lie in (0, 1)")
    n = ds.n
    n_tv = int(np.floor(n * train_frac))
    n_val = int(np.floor(n_tv * val_frac))
    n_train = n_tv - n_val
    n_test = n - n_tv
    if n_train <= 0 or n_val <= 0 or n_test <= 0:
        raise SizeError(
            f"empty split segment: sizes ({n_train}, {n_val}, {n_test}) from n={n}"
        )
    train = ds.rows(0, n_train)
    val = ds.rows(n_train, n_tv)
    test = ds.rows(n_tv, n)
    return train, val, test
