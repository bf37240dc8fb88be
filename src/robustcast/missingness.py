"""Missing-feature patterns, plant-level Markov missingness simulation, and
the imputation baselines used for comparison."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import derive_seed
from .dataio import Dataset
from .exceptions import ConfigError, DomainError, ParseError

__all__ = [
    "MissingPattern",
    "MissingnessConfig",
    "ObsMaskSeries",
    "apply_mask",
    "simulate_markov",
    "expand_obs_mask",
    "impute_persistence",
    "column_means",
    "impute_mean",
]


@dataclass(frozen=True)
class MissingPattern:
    """Binary feature-availability vector; entry 1 marks a missing feature."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.uint8))
        if self.bits.ndim != 1:
            raise DomainError("pattern bits must be a vector")
        if np.any(self.bits > 1):
            raise DomainError("pattern bits must be 0 or 1")

    @staticmethod
    def bits_of(pattern) -> np.ndarray:
        """The uint8 bits of a pattern given either as a MissingPattern or as
        raw bits: one vector, or an (n, p) matrix with one pattern per row."""
        if isinstance(pattern, MissingPattern):
            return pattern.bits
        bits = np.asarray(pattern, dtype=np.uint8)
        # max() is the cheapest check on the per-row deployment path
        if bits.size and bits.max() > 1:
            raise DomainError("pattern bits must be 0 or 1")
        return bits

    @classmethod
    def zeros(cls, n_features: int) -> "MissingPattern":
        return cls(bits=np.zeros(n_features, dtype=np.uint8))

    @classmethod
    def from_missing(cls, n_features: int, missing: tuple[int, ...] | list[int]) -> "MissingPattern":
        bits = np.zeros(n_features, dtype=np.uint8)
        for j in missing:
            bits[j] = 1
        return cls(bits=bits)

    @property
    def n_features(self) -> int:
        return self.bits.shape[0]

    def popcount(self) -> int:
        return int(self.bits.sum())

    def missing_indices(self) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.bits))

    def with_missing(self, j: int) -> "MissingPattern":
        bits = self.bits.copy()
        bits[j] = 1
        return MissingPattern(bits=bits)

    def key(self) -> bytes:
        """Hashable identity for caches and routing comparisons."""
        return self.bits.tobytes()

    def validate_support(self, maskable: tuple[int, ...]) -> None:
        outside = np.ones(self.n_features, dtype=bool)
        outside[list(maskable)] = False
        if np.any(self.bits[outside] == 1):
            bad = np.flatnonzero(self.bits & outside)
            raise DomainError(f"pattern marks non-maskable feature(s) {bad.tolist()} as missing")


@dataclass(frozen=True)
class MissingnessConfig:
    """Two-state Markov chain: p01 = P(missing | available), p11 = P(missing | missing)."""

    p01: float
    p11: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p01 <= 1.0) or not (0.0 <= self.p11 <= 1.0):
            raise ConfigError("transition probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ObsMaskSeries:
    """Plant-level availability mask, one row per period; 1 = measurement missing."""

    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=np.uint8))
        if self.mask.ndim != 2:
            raise DomainError("mask must be a (periods, plants) matrix")
        if np.any(self.mask > 1):
            raise DomainError("mask entries must be 0 or 1")


def apply_mask(x: np.ndarray, pattern: MissingPattern, maskable: tuple[int, ...]) -> np.ndarray:
    """Zero out the missing features of x; features off the maskable set pass
    through untouched and may not be marked missing."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != pattern.n_features:
        raise DomainError("feature vector and pattern lengths disagree")
    pattern.validate_support(maskable)
    return x * (1.0 - pattern.bits)


def simulate_markov(cfg: MissingnessConfig, n_periods: int, n_plants: int) -> ObsMaskSeries:
    """Simulate one independent availability chain per plant.

    Every chain starts available at period 0; each plant draws from its own
    seed-derived stream, so plants could be simulated in parallel without
    changing the output.
    """
    mask = np.zeros((n_periods, n_plants), dtype=np.uint8)
    for s in range(n_plants):
        rng = np.random.default_rng(derive_seed(cfg.seed, "plant", s))
        u = rng.random(n_periods)
        state = 0
        col = mask[:, s]
        for t in range(1, n_periods):
            threshold = cfg.p11 if state else cfg.p01
            state = 1 if u[t] < threshold else 0
            col[t] = state
    return ObsMaskSeries(mask=mask)


def expand_obs_mask(mask: ObsMaskSeries, ds: Dataset) -> np.ndarray:
    """Translate plant-level missingness into per-row feature patterns,
    returned as an (n, p) uint8 bit matrix with one pattern per row.

    The feature (plant s, lag k) of a row at period t is missing iff the
    plant-s measurement was missing at period t - k. Weather and bias are
    never missing.
    """
    t_periods, s_plants = mask.mask.shape
    obs = ds.obs_periods
    if obs.size and (obs.min() - ds.max_lag < 0 or obs.max() >= t_periods):
        raise DomainError("observation period out of the mask's range")
    bits = np.zeros((ds.n, ds.p), dtype=np.uint8)
    col = 0
    for plant in range(s_plants):
        for lag in range(ds.max_lag + 1):
            bits[:, col] = mask.mask[obs - lag, plant]
            col += 1
    return bits


def impute_persistence(values: np.ndarray, mask: ObsMaskSeries) -> np.ndarray:
    """Replace each masked entry with the most recent available value of the
    same plant; leading gaps fall back to 0.0 on the normalized scale."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != mask.mask.shape:
        raise DomainError("values and mask shapes disagree")
    t_periods = values.shape[0]
    available = mask.mask == 0
    idx = np.where(available, np.arange(t_periods)[:, None], -1)
    idx = np.maximum.accumulate(idx, axis=0)
    plant = np.broadcast_to(np.arange(values.shape[1]), values.shape)
    filled = np.where(idx >= 0, values[np.maximum(idx, 0), plant], 0.0)
    return filled


def column_means(ds: Dataset) -> np.ndarray:
    return ds.X.mean(axis=0)


def impute_mean(x: np.ndarray, pattern, means: np.ndarray) -> np.ndarray:
    """Replace missing coordinates with precomputed training-set column means.
    The pattern is one MissingPattern or bit vector for every row of x, or an
    (n, p) bit matrix with one pattern per row."""
    x = np.asarray(x, dtype=np.float64)
    bits = MissingPattern.bits_of(pattern).astype(np.float64)
    return x * (1.0 - bits) + np.asarray(means, dtype=np.float64) * bits


def mask_to_csv(mask: ObsMaskSeries, path: str | Path) -> None:
    """Persist a simulated mask so a grid run can be replayed exactly."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period"] + [f"plant_{s}" for s in range(mask.mask.shape[1])])
        for t in range(mask.mask.shape[0]):
            writer.writerow([t] + [int(v) for v in mask.mask[t]])


def mask_from_csv(path: str | Path) -> ObsMaskSeries:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "period":
            raise ParseError(f"{path}: expected mask header starting with 'period'")
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            try:
                rows.append([int(c) for c in cells[1:]])
            except ValueError as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
    return ObsMaskSeries(mask=np.asarray(rows, dtype=np.uint8))
