"""Greedy worst-case missing-pattern search and adversarial training.

The search starts from a subset's base pattern, repeatedly marks the free
feature whose removal raises the data-set loss the most, and accepts it only
while the loss does not decrease; the trainer alternates such searches with
one epoch of gradient updates, warm-started from the optimistic fit. A
uniform-sampling variant replaces the search for equality-budget subsets.

Each round scores all its candidates together. For the linear family the
loss at pattern a is a quadratic form in the effective weights
v = (w + D a_P) * (1 - a): with the Gram statistics G = X'X/n, b = X'y/n and
c = y'y/n of the split, the loss is v'Gv - 2 v'b + c, so a round of k
candidates costs O(k p^2) rather than k predictions over the split. The
network family runs one forward pass per candidate, its activations going
into layer buffers kept for the split, with the operations of mse_loss in
their order, so each loss is mse_loss's bit for bit. What a split
contributes (G, b and c, or the split and its layer buffers) is a
SplitScorer, the one input form of both searches: training makes one
per split and reuses it in every search, and partition growth makes one per
split feature it picks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import rng_for
from .dataio import Dataset, maskable_indices
from .exceptions import DomainError, SizeError
from .missingness import MissingPattern, _masked
from .models import LR, Architecture, ModelParams, _adaptation, _batch, _plan, _run_plan, _targets
from .training import Fit, TrainConfig, run_training_loop

# The most elements a temporary of the linear scorer may hold (8 MB of
# float64): it scores a stack of patterns in chunks of rows that fit.
_SCORE_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class AdvSearchScope:
    """Where the adversary may act: the free features, the global budget on
    simultaneously missing features, and the base pattern holding coordinates
    already fixed as missing."""

    free: tuple[int, ...]
    budget: int
    base: MissingPattern

    def __post_init__(self):
        object.__setattr__(self, "free", maskable_indices(self.free, self.base.bits.size))
        if self.budget < 0:
            raise DomainError("budget must be >= 0")
        if self.base.popcount() > self.budget:
            raise DomainError("base pattern already exceeds the budget")
        if any(self.base.bits[j] for j in self.free):
            raise DomainError("free features must not be fixed in the base pattern")


@dataclass
class AdversarialPattern:
    pattern: MissingPattern
    loss: float
    steps: list[tuple[int, float]] = field(default_factory=list)


class SplitScorer:
    """What scoring patterns on one data split keeps between searches.

    A linear model keeps the split's Gram statistics G, b and c; a network
    keeps the split and an (n, width) activation buffer per hidden layer.
    Both depend on the data and the model's layout, arch, not on its
    parameters, so training builds one per split and binds each search's
    parameters. The buffers make one scorer unfit for concurrent searches.
    DomainError unless X holds rows of the layout's width and y one number
    per row, SizeError for no rows.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, arch: Architecture):
        X = _batch(X, arch.input_dim)
        n = X.shape[0]
        if n == 0:
            raise SizeError("pattern scoring needs a non-empty data set")
        y = _targets(y, n)
        self.arch = arch
        if arch.family == LR:
            self.gram = X.T @ X / n
            self.xty = X.T @ y / n
            self.yty = float(y @ y) / n
        else:
            self.X, self.y = X, y
            # Fresh activations per candidate made nn 4x50 `train` 3.8-4.8 s
            # against 2.5-2.7 s with this block (fresh processes, one BLAS
            # thread), likely the allocator returning and refaulting their
            # pages. Layer m reads only layer m - 1's output, so the layers
            # take the two halves of one block in turn.
            widths = arch.hidden
            half = n * max(widths)
            block = np.empty(2 * half)
            self.layers = [
                block[m % 2 * half : m % 2 * half + n * w].reshape(n, w)
                for m, w in enumerate(widths)
            ]

    def bind(self, params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
        """The scorer of one search: it maps a (k, p) stack of pattern bits
        to the k full-data mean squared errors, checking the stack once.

        A linear model scores the stack in closed form (see the module
        docstring), in consecutive chunks of rows whose temporaries hold at
        most _SCORE_ELEMENTS elements each (one row may hold more beyond
        1,024 features), so memory grows with the width squared, not cubed,
        whatever the stack size. Every row is reduced in the same order
        whatever the stack or chunk size (_row_sums), so chunking changes no
        bit, and a pattern that leaves v unchanged scores exactly what the
        incumbent did and the >= acceptance test keeps it. A network
        scores row by row: it runs the row's plan (models._plan) over X,
        running the layers into the layer buffers. Those are the operations
        of mse_loss in its order, so each loss is mse_loss's bit for bit, but
        no activation is allocated per candidate.
        """
        arch = params.arch
        if arch != self.arch:
            raise DomainError(f"parameters of layout {arch} bound to a scorer built for "
                              f"{self.arch}")

        if arch.family != LR:
            X, y, layers = self.X, self.y, self.layers

            def score(stack: np.ndarray) -> np.ndarray:
                stack = MissingPattern.bits_of(stack, arch.input_dim, arch.maskable, ndim=2)
                losses = np.empty(len(stack))
                for i, bits in enumerate(stack):
                    preds = _run_plan(_plan(params, bits), X, layers=layers)
                    losses[i] = np.mean((preds - y) ** 2)
                return losses

            return score
        gram, xty, yty = self.gram, self.xty, self.yty
        w = params.arrays["w"]
        # a row's temporaries hold p * |P| and p * p elements, and |P| < p
        rows = max(1, _SCORE_ELEMENTS // arch.input_dim**2)

        def score(stack: np.ndarray) -> np.ndarray:
            stack = MissingPattern.bits_of(stack, arch.input_dim, arch.maskable, ndim=2)
            losses = np.empty(len(stack))
            for start in range(0, len(stack), rows):
                chunk = stack[start : start + rows]
                a = _adaptation(arch, chunk)
                v = w if a is None else w + _row_sums(a[:, None, :] * params.arrays["D"])
                v = _masked(v, chunk)
                quad = _row_sums((v[:, :, None] * v[:, None, :] * gram).reshape(len(v), -1))
                losses[start : start + rows] = quad - 2.0 * _row_sums(v * xty) + yty
            return losses

        return score


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis as running sums, whose order of additions is
    fixed; np.sum and matmul pick an order by array shape, so a row would
    round differently in a stack of another size."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _with_each(bits: np.ndarray, candidates: list[int]) -> np.ndarray:
    """One row per candidate: bits with that candidate also marked missing."""
    stack = np.repeat(bits[None, :], len(candidates), axis=0)
    stack[np.arange(len(candidates)), candidates] = 1
    return stack


def find_adversarial(
    split: SplitScorer,
    params: ModelParams,
    scope: AdvSearchScope,
) -> AdversarialPattern:
    """Greedy search for a worst-case pattern of params within the scope, on
    the data split scores.

    Each round evaluates the full-data loss with one more candidate feature
    missing, fixes the argmax (ties break to the lowest feature index), and
    stops at the budget or as soon as the best candidate strictly decreases
    the incumbent loss. The accepted-loss sequence is non-decreasing. A
    round scores all its candidates at once (SplitScorer.bind).
    """
    score = split.bind(params)
    bits = scope.base.bits.copy()
    best_loss = float(score(bits[None, :])[0])
    candidates = list(scope.free)
    steps: list[tuple[int, float]] = []
    while int(bits.sum()) < scope.budget and candidates:
        stack = _with_each(bits, candidates)
        losses = score(stack)
        pick = int(np.argmax(losses))
        if losses[pick] >= best_loss:
            j_star = candidates.pop(pick)
            bits = stack[pick]
            best_loss = float(losses[pick])
            steps.append((j_star, best_loss))
        else:
            break
    return AdversarialPattern(pattern=MissingPattern(bits=bits), loss=best_loss, steps=steps)


def greedy_split_feature(
    split: SplitScorer,
    params: ModelParams,
    scope: AdvSearchScope,
) -> int:
    """First round of the greedy search only: the single free feature whose
    loss on the data split scores is largest (no acceptance test)."""
    candidates = list(scope.free)
    losses = split.bind(params)(_with_each(scope.base.bits, candidates))
    return candidates[int(np.argmax(losses))]


def train_adversarial(
    train: Dataset,
    val: Dataset,
    scope: AdvSearchScope,
    cfg: TrainConfig,
    warm: ModelParams,
) -> Fit:
    """Adversarial training over the scope.

    Starts from warm, the optimistic parameters trained at the base
    pattern, then per iteration: search a worst-case pattern on the training
    split, run one epoch of updates against it, and score validation at a
    freshly searched validation-split pattern. Optimizer moments start
    fresh; warm carries parameters only, and is left unchanged.
    """
    train_split = SplitScorer(train.X, train.y, warm.arch)
    val_split = SplitScorer(val.X, val.y, warm.arch)
    pick_train = lambda params: find_adversarial(train_split, params, scope).pattern
    pick_val = lambda params: find_adversarial(val_split, params, scope).pattern
    return run_training_loop(train, val, warm, cfg, pick_train, pick_val)


def sample_fixed_adversarial(
    count: int,
    maskable: tuple[int, ...],
    n_features: int,
    rng: np.random.Generator,
) -> MissingPattern:
    """Uniformly random pattern with exactly `count` maskable features missing."""
    if count < 0 or count > len(maskable):
        raise DomainError(f"missing count {count} out of range [0, {len(maskable)}]")
    chosen = rng.choice(len(maskable), size=count, replace=False)
    missing = [maskable[int(i)] for i in chosen]
    return MissingPattern.from_missing(n_features, missing)


def train_sampled_adversarial(
    train: Dataset,
    val: Dataset,
    count: int,
    cfg: TrainConfig,
    warm: ModelParams,
) -> Fit:
    """Sampling variant for equality-budget subsets, starting from
    warm: each iteration draws one fresh uniform pattern with exactly
    `count` features missing for the training epoch and another for the
    validation score."""
    rng_train = rng_for(cfg.seed, "sample-train", count)
    rng_val = rng_for(cfg.seed, "sample-val", count)
    pick_train = lambda params: sample_fixed_adversarial(count, train.maskable, train.p, rng_train)
    pick_val = lambda params: sample_fixed_adversarial(count, train.maskable, train.p, rng_val)
    return run_training_loop(train, val, warm, cfg, pick_train, pick_val)
