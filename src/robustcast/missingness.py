"""Missing-feature patterns, plant-level Markov missingness simulation, and
the imputation baselines used for comparison."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import derive_seed
from .dataio import Dataset, maskable_indices
from .exceptions import ConfigError, DomainError

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
        object.__setattr__(self, "bits", MissingPattern.bits_of(self.bits, None, ndim=1))

    @staticmethod
    def bits_of(
        pattern, n_features: int | None, maskable=None, ndim: int | None = None
    ) -> np.ndarray:
        """The uint8 bits of a pattern given either as a MissingPattern or as
        raw bits: one vector, or an (n, p) matrix with one pattern per row.

        Every pattern enters the library through this check. It raises
        DomainError unless each entry is 0 or 1, the rank is `ndim` (1 or 2
        when None), the width is `n_features` (any when None) and, when
        `maskable` is given, no feature outside it is marked missing.
        """
        if isinstance(pattern, MissingPattern):
            bits = pattern.bits
        else:
            bits = np.asarray(pattern)
            if bits.dtype != np.uint8:
                # uint8 values above 1 fail the comparison below; other
                # dtypes could round or wrap into 0/1 when cast
                if not ((bits == 0) | (bits == 1)).all():
                    raise DomainError("pattern bits must be 0 or 1")
                bits = bits.astype(np.uint8)
        if bits.ndim not in ((1, 2) if ndim is None else (ndim,)):
            raise DomainError(f"pattern bits must have rank {ndim or '1 or 2'}, got {bits.ndim}")
        width = bits.shape[-1]
        if n_features is not None and width != n_features:
            raise DomainError(f"pattern width {width} does not match {n_features} features")
        allowed = _allowed_bits(width, None if maskable is None else tuple(maskable))
        if (bits > allowed).any():
            flat = bits.reshape(-1, width)
            if flat.max() > 1:
                raise DomainError("pattern bits must be 0 or 1")
            bad = np.flatnonzero((flat > allowed).any(axis=0))
            raise DomainError(f"pattern marks non-maskable feature(s) {bad.tolist()} as missing")
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


@lru_cache(maxsize=64)
def _allowed_bits(width: int, maskable: tuple[int, ...] | None) -> np.ndarray:
    """The largest bit each feature may hold: 1 on the maskable set (every
    feature when None), 0 elsewhere; read-only, as callers share it.
    DomainError when a maskable index lies outside range(width)."""
    allowed = np.ones(width, dtype=np.uint8)
    if maskable is not None:
        allowed[:] = 0
        allowed[list(maskable_indices(maskable, width))] = 1
    allowed.setflags(write=False)
    return allowed


@dataclass(frozen=True)
class MissingnessConfig:
    """Two-state Markov chain: p01 = P(missing | available), p11 = P(missing | missing)."""

    p01: float
    p11: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.p01 <= 1.0) or not (0.0 <= self.p11 <= 1.0):
            raise ConfigError(
                f"transition probabilities must lie in [0, 1], got p01={self.p01}, p11={self.p11}"
            )


@dataclass(frozen=True)
class ObsMaskSeries:
    """Plant-level availability mask, one row per period; 1 = measurement missing."""

    mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mask", MissingPattern.bits_of(self.mask, None, ndim=2))


def apply_mask(x: np.ndarray, pattern, maskable: tuple[int, ...]) -> np.ndarray:
    """Zero out the missing features of x given one pattern (a MissingPattern
    or one bit vector); features off the maskable set pass through untouched
    and may not be marked missing."""
    x = np.asarray(x, dtype=np.float64)
    bits = MissingPattern.bits_of(pattern, x.shape[-1], maskable, ndim=1)
    return x * (1.0 - bits)


def simulate_markov(cfg: MissingnessConfig, n_periods: int, n_plants: int) -> ObsMaskSeries:
    """Simulate one independent availability chain per plant.

    Every chain starts available at period 0, and plant s draws its uniforms
    u from its own seed-derived stream. A chain moves to 1 at period t iff
    u_t < p11 when it was 1 and u_t < p01 when it was 0, so with a = u < p01
    and b = u < p11 the chain is an exact scan over the periods: where
    a_t = b_t it is reset to a_t whatever came before; elsewhere it keeps its
    value (a_t = 0, b_t = 1) or flips (a_t = 1, b_t = 0, only when
    p01 > p11). Its state is the value at the last reset XOR the parity of
    the flips since then. DomainError for a negative size.
    """
    for name, size in (("n_periods", n_periods), ("n_plants", n_plants)):
        if size < 0:
            raise DomainError(f"{name} must be >= 0, got {size}")
    u = np.empty((n_periods, n_plants), dtype=np.float64)
    for s in range(n_plants):
        u[:, s] = np.random.default_rng(derive_seed(cfg.seed, "plant", s)).random(n_periods)
    a = u < cfg.p01
    b = u < cfg.p11
    a[:1] = b[:1] = False  # period 0: a reset to 0
    flips = np.bitwise_xor.accumulate(a & ~b, axis=0)  # parity of the flips so far
    last_reset = np.maximum.accumulate(
        np.where(a == b, np.arange(n_periods)[:, None], 0), axis=0
    )
    # flips since the last reset = flips so far XOR flips up to that reset
    state = np.take_along_axis(a ^ flips, last_reset, axis=0) ^ flips
    return ObsMaskSeries(mask=state.view(np.uint8))


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
    bits = MissingPattern.bits_of(pattern, x.shape[-1]).astype(np.float64)
    return x * (1.0 - bits) + np.asarray(means, dtype=np.float64) * bits

