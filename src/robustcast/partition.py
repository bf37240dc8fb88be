"""Fixed equality-count partitions, the learned binary-split partition
driven by the relative optimistic/adversarial gap, pattern routing, and the
deployed predictor.

A learned partition is a binary tree: each internal node tests one feature's
availability, each leaf is a subset carrying an optimistic pattern (all free
features available) and two fits, each the training.Fit its trainer
returned: a parameter set and its validation loss (the optimistic fit's is
the lower bound, the adversarial fit's the upper). Splitting always targets
the leaf with the largest relative gap; the child that keeps the split
feature available inherits the leaf's optimistic fit, the child that fixes
it missing its adversarial fit.
So a learned partition is stored as the root's two fits and its splits in
growth order: split k names the leaf it splits and the feature, and holds
the missing child's optimistic fit and the available child's adversarial fit
(or none, when that child kept its leaf's). It creates subsets 2k - 1
(available) and 2k (missing). The subsets, routing, the leaf list and each
subset's equality constraints are derived from them.

The uncertainty set is every pattern over the maskable features of a
models.Architecture with at most `budget` missing: both trainers take the
two, and a partition holds the budget and models of one layout, its `arch`.
A file states that layout once, as its `layout`, and its parameter table
holds the fits the artifact trained, each once, in order (param_sets), all
read at that layout: a loaded file's sets share one Architecture.
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._util import derive_seed, map_jobs, only_keys, open_utf8
from .adversarial import (
    AdvSearchScope,
    SplitScorer,
    greedy_split_feature,
    train_adversarial,
    train_sampled_adversarial,
)
from .dataio import Dataset
from .exceptions import ConfigError, DomainError, ParseError
from .missingness import MissingPattern
from .models import (
    Architecture, ModelParams, _batch, _plan, _predict_bits, _run_plan, arch_from_json,
    params_from_json, params_to_json,
)
from .training import Fit, TrainConfig, train_nominal

RELGAP_FLOOR = 1e-12
ARTIFACT_FORMAT = 5
# The most deployment plans a partition keeps (see predict_deployed).
PLAN_CACHE_ENTRIES = 4096
# Serializes every change to a plan cache: making room is check-then-act.
_PLANS_LOCK = threading.Lock()


@dataclass(frozen=True)
class PartitionConfig:
    max_subsets: int = 10
    epsilon: float = 0.001

    def __post_init__(self):
        if self.max_subsets < 1:
            raise ConfigError("max_subsets must be >= 1")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")


def rel_gap(lower: float, upper: float) -> float:
    """(UB - LB) / LB with a small floor so a perfect optimistic fit cannot
    divide by zero; values above 1e6 should be displayed as infinite."""
    return (upper - lower) / max(lower, RELGAP_FLOOR)


@dataclass(frozen=True)
class Split:
    """Growth round k: subset `leaf` split on `feature` into subsets 2k - 1,
    which keeps the feature available, and 2k, which marks it missing. `opt`
    is the missing child's optimistic fit, `adv` the available child's
    adversarial fit, or None when that child kept its leaf's."""

    leaf: int
    feature: int
    opt: Fit
    adv: Fit | None


@dataclass(frozen=True)
class UncertaintySubset:
    """One cell of a partition, derived from its root fits and splits: its
    optimistic pattern, the features still free in it, and its two fits,
    `opt` (whose loss is its lower bound) and `adv` (its upper bound), each
    a fit the partition trained. Its id is its position in the partition's
    subsets."""

    opt_pattern: MissingPattern
    free: tuple[int, ...]
    opt: Fit
    adv: Fit

    @property
    def relgap(self) -> float:
        return rel_gap(self.opt.loss, self.adv.loss)


@dataclass(frozen=True)
class Partition:
    """A learned partition, held as the root's optimistic and adversarial
    fits and its splits in growth order (see the module docstring).

    Construction derives `arch`, the one layout of its models, `subsets`,
    subsets[i] being subset Ui, whose inherited fits are its leaf's own Fit
    objects, and the routing table, one entry per subset: (split feature,
    available child, missing child), or None for a leaf.
    It also starts an empty cache of deployment plans (predict_deployed),
    which is no part of its value: equality and pickling ignore it, and a
    copy or an unpickled partition starts with an empty one. It raises
    DomainError for models of more than one layout or a budget outside
    [0, |maskable|] (_set_layout), and for a split whose leaf is no unsplit
    subset created before it, whose feature is not free in that leaf, or
    whose leaf has no budget room left."""

    budget: int
    config: PartitionConfig
    opt: Fit
    adv: Fit
    splits: tuple[Split, ...] = ()

    def __post_init__(self):
        arch = _set_layout(self.budget, [p.arch for p in param_sets(self)])
        subsets = [UncertaintySubset(MissingPattern.zeros(arch.input_dim), arch.maskable,
                                     self.opt, self.adv)]
        route = [None]
        for k, split in enumerate(self.splits, 1):
            fresh = split.leaf in range(2 * k - 1) and route[split.leaf] is None
            leaf = subsets[split.leaf] if fresh else None
            if leaf is None or split.feature not in leaf.free or not _splittable(leaf, self.budget):
                raise DomainError(f"split {k} of subset {split.leaf!r} on feature "
                                  f"{split.feature!r}: no unsplit subset below {2 * k - 1} "
                                  "with that feature free and budget room left")
            free = tuple(j for j in leaf.free if j != split.feature)
            subsets += [
                UncertaintySubset(leaf.opt_pattern, free, leaf.opt, split.adv or leaf.adv),
                UncertaintySubset(leaf.opt_pattern.with_missing(split.feature), free,
                                  split.opt, leaf.adv),
            ]
            route[split.leaf] = (split.feature, 2 * k - 1, 2 * k)
            route += [None, None]
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "splits", tuple(self.splits))
        object.__setattr__(self, "subsets", tuple(subsets))
        object.__setattr__(self, "_route", route)
        object.__setattr__(self, "_plans", {})

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_plans"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _plans={})

    @property
    def leaf_ids(self) -> list[int]:
        """Leaf subset ids, ascending: each split appends two ids above all
        existing ones."""
        return [sid for sid, node in enumerate(self._route) if node is None]

    def fixed(self, sid: int) -> dict[int, int]:
        """The equality constraints of subset `sid`: each maskable feature no
        longer free in it, with the bit its optimistic pattern holds there."""
        subset = self.subsets[sid]
        bits = subset.opt_pattern.bits
        return {j: int(bits[j]) for j in self.arch.maskable if j not in subset.free}

    def max_relgap(self) -> float:
        return max(self.subsets[i].relgap for i in self.leaf_ids)


@dataclass
class FixedPartition:
    """Equality-count partition: subsets[l] is the fit for exactly l missing
    features, l = 0..budget, so its fits state the budget; `arch` is their
    one layout. DomainError (_set_layout) for no fits or two layouts."""

    subsets: list[Fit]

    def __post_init__(self):
        self.arch = _set_layout(self.budget, [fit.params.arch for fit in self.subsets])

    @property
    def budget(self) -> int:
        return len(self.subsets) - 1


def _set_layout(budget: int, archs: list[Architecture]) -> Architecture:
    """archs[0], the one layout of a partition's models. DomainError unless
    budget lies in [0, |maskable|], checked first so that budget -1 needs no
    archs, or naming the first field in which another of archs differs.
    Both trainers call it before any training."""
    if not 0 <= budget <= len(archs[0].maskable):
        raise DomainError(f"budget must lie in [0, |maskable|], got budget {budget}")
    arch = archs[0]
    for other in archs:
        if other is not arch and other != arch:
            raise DomainError(next(
                f"a model of {f.name} {getattr(other, f.name)} in a partition of "
                f"{f.name} {getattr(arch, f.name)}"
                for f in fields(arch) if getattr(other, f.name) != getattr(arch, f.name)))
    return arch


def _leaf_of(partition: Partition, bits: np.ndarray) -> int:
    route, sid = partition._route, 0
    while route[sid] is not None:
        feature, avail, miss = route[sid]
        sid = miss if bits[feature] else avail
    return sid


def _pattern_bits(arch: Architecture, patterns, ndim: int) -> np.ndarray:
    return MissingPattern.bits_of(patterns, arch.input_dim, arch.maskable, ndim=ndim)


def locate_rows(partition: Partition, bits: np.ndarray) -> np.ndarray:
    """The leaf subset id of every row of an (n, p) bit matrix, which passes
    the gate of the partition's models first."""
    return _walk_rows(partition, _pattern_bits(partition.arch, bits, ndim=2))


def _walk_rows(partition: Partition, bits: np.ndarray) -> np.ndarray:
    """locate_rows on bits that have passed the gate: all rows are routed at
    once, with one boolean row mask per node."""
    leaf = np.empty(bits.shape[0], dtype=np.int64)
    stack = [(0, np.ones(bits.shape[0], dtype=bool))]
    while stack:
        sid, rows = stack.pop()
        if partition._route[sid] is None:
            leaf[rows] = sid
        else:
            feature, avail, miss = partition._route[sid]
            missing = bits[:, feature] != 0
            stack += [(miss, rows & missing), (avail, rows & ~missing)]
    return leaf


def predict_deployed(partition: Partition, x: np.ndarray, pattern) -> float:
    """The forecast of one row x at its pattern.

    The pattern (a MissingPattern or one bit vector, of any missing count:
    deployment never clamps to the budget) passes its models' layout gate
    and is routed to its leaf, which uses its optimistic parameters when
    the pattern equals its optimistic pattern exactly, otherwise its
    adversarial ones. x must be one vector of n_features numbers, or
    DomainError; the slots the pattern marks missing are never read, so
    they may hold NaN. The forecast agrees with predict_deployed_rows to
    rounding (about 1e-16 relative), not bit for bit.

    Everything but x's part is the pattern's plan (models._plan), which the
    partition caches, keyed by the gated bits' bytes. A uint8 vector, or a
    MissingPattern, whose bytes equal a cached pattern's runs its plan at
    once: it equals a pattern that passed the gate. Any other pattern passes
    the gate, and its plan is made, frozen (its arrays read-only) and cached
    under its bytes. A partition holds at most PLAN_CACHE_ENTRIES plans, and
    when it is full a new plan replaces the oldest (first in, first out).
    Lookups take no lock; a change to the cache takes _PLANS_LOCK. Each call
    checks x and runs the same operations on it, so a cached plan gives the
    same forecast bits as a fresh one."""
    bits = pattern.bits if isinstance(pattern, MissingPattern) else pattern
    plan = None
    if isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.ndim == 1:
        plan = partition._plans.get(bits.tobytes())
    if plan is None:
        bits = _pattern_bits(partition.arch, pattern, ndim=1)
        key = bits.tobytes()
        subset = partition.subsets[_leaf_of(partition, bits)]
        plan = _plan((subset.opt if key == subset.opt_pattern.key() else subset.adv).params, bits)
        for array in (plan.keep, *(plan.shifts or ())):
            array.setflags(write=False)
        plans = partition._plans
        with _PLANS_LOCK:
            while key not in plans and len(plans) >= PLAN_CACHE_ENTRIES:
                del plans[next(iter(plans))]
            plans[key] = plan
    try:
        x = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        x = None
    if x is None or x.shape != plan.keep.shape:
        raise DomainError("a deployed row must be one vector of "
                          f"{partition.arch.input_dim} numbers")
    return float(_run_plan(plan, x))


def predict_grouped(X: np.ndarray, keys: np.ndarray, group) -> np.ndarray:
    """Predict every row of X with the model its integer key selects.

    Rows sharing a key run one vectorized forward pass over their rows in
    ascending order; group(key, rows) returns the params that pass uses and
    the pattern bits (one for every row, or one per row) that it runs at.
    Those bits must have passed the pattern gate for the params' layout
    (MissingPattern.bits_of), which this does not repeat. DomainError
    unless keys holds one key per row of X and X holds rows of the params'
    input_dim numbers.
    """
    X = _batch(X, None)
    if len(keys) != X.shape[0]:
        raise DomainError(f"{len(keys)} patterns for {X.shape[0]} rows")
    preds = np.empty(X.shape[0])
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    for key, rows in zip(uniq.tolist(), np.split(order, starts[1:])):
        params, bits = group(key, rows)
        preds[rows] = _predict_bits(params, _batch(X, params.arch.input_dim)[rows], bits)
    return preds


def predict_deployed_rows(partition: Partition, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Batched `predict_deployed` over an (n, p) bit matrix, one pattern per
    row: rows are grouped by (leaf, parameter choice) so each group runs one
    vectorized forward pass."""
    bits = _pattern_bits(partition.arch, patterns, ndim=2)
    leaf = _walk_rows(partition, bits)
    opt = np.array([s.opt_pattern.bits for s in partition.subsets])
    use_opt = (bits == opt[leaf]).all(axis=1)

    def group(key, rows):
        subset = partition.subsets[key // 2]
        return (subset.opt if key % 2 else subset.adv).params, bits[rows]

    return predict_grouped(X, 2 * leaf + use_opt, group)


def predict_fixed_rows(fixed: FixedPartition, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Batched fixed-partition prediction over an (n, p) bit matrix: each row
    uses the subset of its missing count, clamped to the budget for
    deployment patterns that exceed it."""
    bits = _pattern_bits(fixed.arch, patterns, ndim=2)
    keys = np.minimum(bits.sum(axis=1), fixed.budget)
    return predict_grouped(X, keys, lambda key, rows: (fixed.subsets[key].params, bits[rows]))


def _splittable(subset: UncertaintySubset, budget: int) -> bool:
    # A split fixes one more feature as missing in one child, so it needs a
    # free feature and room left in the budget.
    return bool(subset.free) and subset.opt_pattern.popcount() < budget


def learn_partition(
    train: Dataset,
    val: Dataset,
    budget: int,
    pcfg: PartitionConfig,
    train_cfg: TrainConfig,
    arch: Architecture,
) -> Partition:
    """Grow the availability-split tree, every model of layout arch.

    The root trains the optimistic model at the all-available pattern (its
    validation loss is the lower bound) and the adversarial model over the
    whole set (upper bound). Each round splits the largest-relative-gap leaf
    on the feature the greedy search deems most damaging under the leaf's
    optimistic parameters (evaluated on the training split): the available
    child keeps the optimistic side and retrains the adversarial side over
    the reduced free set, the missing child retrains the optimistic side at
    its extended pattern and keeps the adversarial side. Each round appends
    one Split to the partition and changes no subset. Ties in leaf choice
    break to the lowest subset id. The loop stops at max_subsets, or when no
    leaf with room to split has a relative gap above epsilon.
    """
    _set_layout(budget, [arch])
    base_seed = train_cfg.seed

    def nominal(subset_id: int, pattern: MissingPattern) -> Fit:
        cfg = replace(train_cfg, seed=derive_seed(base_seed, "part-opt", subset_id))
        return train_nominal(train, val, pattern, cfg, arch)

    def adversarial(subset_id: int, scope: AdvSearchScope, warm: ModelParams) -> Fit:
        cfg = replace(train_cfg, seed=derive_seed(base_seed, "part-adv", subset_id))
        return train_adversarial(train, val, scope, cfg, warm)

    def scope(free: tuple[int, ...], base: MissingPattern) -> AdvSearchScope:
        return AdvSearchScope(free=free, budget=budget, base=base)

    zero = MissingPattern.zeros(train.p)
    opt = nominal(0, zero)
    part = Partition(budget, pcfg, opt, adversarial(0, scope(arch.maskable, zero), opt.params))

    while len(part.leaf_ids) < pcfg.max_subsets:
        gaps = {i: part.subsets[i].relgap for i in part.leaf_ids
                if _splittable(part.subsets[i], budget)}
        if not gaps or max(gaps.values()) <= pcfg.epsilon:
            break
        chosen = max(gaps, key=gaps.get)  # the first maximum: the lowest id on ties
        parent = part.subsets[chosen]

        j_star = greedy_split_feature(SplitScorer(train.X, train.y, arch), parent.opt.params,
                                      scope(parent.free, parent.opt_pattern))
        free_child = tuple(j for j in parent.free if j != j_star)
        avail_id, miss_id = len(part.subsets), len(part.subsets) + 1

        adv = adversarial(avail_id, scope(free_child, parent.opt_pattern), parent.opt.params)
        # The child's subset is contained in the parent's, so the parent's
        # adversarial parameters stay admissible; keep them when the fresh
        # fit scores worse on validation (best-of-two selection keeps the
        # upper bound from regressing above the parent's).
        adv = adv if adv.loss <= parent.adv.loss else None
        opt = nominal(miss_id, parent.opt_pattern.with_missing(j_star))
        part = replace(part, splits=(*part.splits, Split(chosen, j_star, opt, adv)))

    return part


def truncate(partition: Partition, q: int) -> Partition:
    """The partition `learn_partition` grows with max_subsets=q, cut from
    `partition`, grown by `learn_partition` with the same arguments and at
    least q subsets (or stopped early, below its max_subsets).

    Growth is greedy and every subset trains from seeds derived from (seed,
    subset id), so growing to q subsets performs the first q - 1 splits of
    any longer growth: the cut keeps those splits, and shares the root fits
    and every split's fits with `partition`. When q equals
    config.max_subsets the input itself is returned.
    """
    if q < 1:
        raise ConfigError(f"cannot cut a partition to {q} subsets; need q >= 1")
    grown_to = partition.config.max_subsets
    if q == grown_to:
        return partition
    if q > grown_to and len(partition.leaf_ids) == grown_to:
        raise ConfigError(
            f"cannot cut {q} subsets from a partition grown to max_subsets={grown_to}"
        )
    return replace(partition, config=replace(partition.config, max_subsets=q),
                   splits=partition.splits[:q - 1])


def fixed_partition(
    train: Dataset,
    val: Dataset,
    budget: int,
    train_cfg: TrainConfig,
    arch: Architecture,
    jobs: int = 1,
) -> FixedPartition:
    """Train the budget+1 equality subsets, every model of layout arch.

    Subset 0 is plain nominal training at the all-available pattern; every
    other subset runs the sampling adversarial trainer, warm-started from the
    subset-0 parameters. Subsets are independent, so jobs > 1 trains them in
    a process pool without changing the result.
    """
    _set_layout(budget, [arch])
    zero = MissingPattern.zeros(train.p)
    cfg0 = replace(train_cfg, seed=derive_seed(train_cfg.seed, "fixed", 0))
    base = train_nominal(train, val, zero, cfg0, arch)
    tasks = [(train, val, train_cfg, base.params, c) for c in range(1, budget + 1)]
    return FixedPartition([base, *map_jobs(_train_fixed_subset, tasks, jobs)])


def _train_fixed_subset(task) -> Fit:
    train, val, train_cfg, warm, count = task
    cfg = replace(train_cfg, seed=derive_seed(train_cfg.seed, "fixed", count))
    return train_sampled_adversarial(train, val, count, cfg, warm)


def bounds_table(partition: Partition) -> str:
    """Human-readable per-subset bounds in creation order: subset, split
    feature, upper bound, lower bound, relative gap (%)."""
    lines = ["subset,split_feature,UB,LB,relgap_pct"]
    for sid, (s, node) in enumerate(zip(partition.subsets, partition._route)):
        split = "-" if node is None else str(node[0])
        gap = s.relgap * 100.0
        gap_txt = "inf" if gap > 1e8 else f"{gap:.4f}"
        lines.append(f"U{sid},{split},{s.adv.loss:.6e},{s.opt.loss:.6e},{gap_txt}")
    return "\n".join(lines) + "\n"


def param_sets(artifact: Partition | FixedPartition | ModelParams) -> list[ModelParams]:
    """Every fit an artifact trained, once, in the order of its file's table:
    a learned partition's root opt and adv fits, then each split's opt fit
    and its adv fit when it trained one; fixed subsets in order; a bare
    model alone."""
    if isinstance(artifact, Partition):
        fits = [artifact.opt, artifact.adv,
                *(f for s in artifact.splits for f in (s.opt, s.adv) if f is not None)]
        return [fit.params for fit in fits]
    if isinstance(artifact, FixedPartition):
        return [s.params for s in artifact.subsets]
    return [artifact]


def _table_json(artifact) -> dict:
    """A file's `layout`, asdict(artifact.arch), and `params`, the encoded
    sets of `param_sets(artifact)`."""
    return {"layout": asdict(artifact.arch),
            "params": [params_to_json(params) for params in param_sets(artifact)]}


def _table(obj: dict, fits: int) -> list[ModelParams]:
    """The sets of a file's table, all read at the one layout it states.
    DomainError unless it holds `fits` sets, one per fit the rest of the file
    states; ParseError when it is no list."""
    arch = arch_from_json(obj["layout"])
    table = _checked(obj["params"], (list,), "a file's params")
    if len(table) != fits:
        raise DomainError(f"its table holds {len(table)} parameter sets, not the {fits} "
                          "fits it states")
    return [params_from_json(p, arch) for p in table]


def _learned_json(partition: Partition) -> dict:
    """A learned file but its parameter table: the budget, the config and
    each split's leaf and whether it trained an adv fit, which the file's
    fits need, and the leaf list and every subset's bounds and split feature,
    which are derived."""
    return {
        "format": ARTIFACT_FORMAT,
        "kind": "learned",
        "budget": partition.budget,
        "config": asdict(partition.config),
        "splits": [{"leaf": s.leaf, "adv": s.adv is not None} for s in partition.splits],
        "leaf_ids": partition.leaf_ids,
        "subsets": {
            str(sid): {"LB": s.opt.loss, "UB": s.adv.loss,
                       "split_feature": None if node is None else node[0]}
            for sid, (s, node) in enumerate(zip(partition.subsets, partition._route))
        },
    }


def partition_to_json(partition: Partition) -> dict:
    return {**_learned_json(partition), **_table_json(partition)}


def _checked(value, types: tuple, what: str):
    """value when its JSON type is one of `types` (true and false count as no
    number); ParseError naming `what` otherwise, DomainError for a number
    that is not finite (JSON NaN or Infinity: training writes none)."""
    if type(value) not in types:
        raise ParseError(f"{what} must be {' or '.join(t.__name__ for t in types)}, "
                         f"got {value!r:.60}")
    if type(value) is float and not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def partition_from_json(obj: dict) -> Partition:
    """The partition a learned file describes, rebuilt from its budget, its
    config, its splits and its table, whose fits' losses are read where the
    file states them once: the root fits' at subset 0's LB and UB, split
    k's opt fit's at subset 2k's LB and its adv fit's (when `adv` is true)
    at subset 2k - 1's UB; split k's feature is its leaf's split_feature.
    The other stored values are derived (leaf_ids, the other bounds and
    split features): DomainError when one disagrees (compared as JSON, so 1
    is not true), when Partition refuses the budget or a split, the ids are
    not 0..2k for k splits, the table holds another number of sets than
    the fits, or a number is not finite. ParseError when the subsets are no
    object keyed by decimal ids, an object holds a key the writer never
    writes, or a split, subset, the budget or the config holds a value of
    the wrong JSON type."""
    splits = _checked(obj["splits"], (list,), "a learned file's splits")
    for k, s in enumerate(splits, 1):
        only_keys(_checked(s, (dict,), f"split {k}"), ("leaf", "adv"), f"split {k}")
        _checked(s["leaf"], (int,), f"split {k}'s leaf")
        _checked(s["adv"], (bool,), f"split {k}'s adv")
    stored = _checked(obj["subsets"], (dict,), "a learned file's subsets")
    if not all(sid.isdecimal() and str(int(sid)) == sid for sid in stored):
        raise ParseError(f"subset ids {list(stored)!r:.80} are not all decimal integers")
    if sorted(map(int, stored)) != list(range(2 * len(splits) + 1)):
        raise DomainError(f"subset ids must be 0..{2 * len(splits)} for {len(splits)} splits, "
                          f"got {sorted(map(int, stored))}")
    entries = [only_keys(stored[str(i)], ("LB", "UB", "split_feature"), f"subset {i}")
               for i in range(len(stored))]
    for sid, s in enumerate(entries):
        for key, types in (("split_feature", (int, type(None))), ("LB", (int, float)),
                           ("UB", (int, float))):
            _checked(s[key], types, f"subset {sid}'s {key}")
    config = only_keys(obj["config"], [f.name for f in fields(PartitionConfig)], "config")
    _checked(config["max_subsets"], (int,), "config.max_subsets")
    _checked(config["epsilon"], (int, float), "config.epsilon")

    table = iter(_table(obj, 2 + sum(1 + s["adv"] for s in splits)))
    opt, adv = Fit(next(table), entries[0]["LB"]), Fit(next(table), entries[0]["UB"])
    grown = []
    for k, s in enumerate(splits, 1):
        feature = entries[s["leaf"]]["split_feature"] if s["leaf"] in range(2 * k - 1) else None
        split_opt = Fit(next(table), entries[2 * k]["LB"])
        split_adv = Fit(next(table), entries[2 * k - 1]["UB"]) if s["adv"] else None
        grown.append(Split(s["leaf"], feature, split_opt, split_adv))
    part = Partition(_checked(obj["budget"], (int,), "a learned file's budget"),
                     PartitionConfig(**config), opt, adv, grown)
    derived = _learned_json(part)
    only_keys(obj, (*derived, "layout", "params"), "a learned file")
    if json.dumps({key: obj[key] for key in derived}, sort_keys=True) \
            != json.dumps(derived, sort_keys=True):
        raise DomainError("a stored value disagrees with what the root fits and splits imply")
    return part


def fixed_from_json(obj: dict) -> FixedPartition:
    """The fixed partition a file describes: params[l] and losses[l] are the
    fit for l missing features, so the budget is one less than the fit
    count. ParseError unless its losses are a list of numbers and it holds
    no key its writer never writes; DomainError when its table holds
    another number of sets, and (from FixedPartition) for no fits."""
    only_keys(obj, ("format", "kind", "losses", "layout", "params"), "a fixed file")
    losses = [_checked(loss, (int, float), f"subset {c}'s loss")
              for c, loss in enumerate(_checked(obj["losses"], (list,), "a fixed file's losses"))]
    return FixedPartition([Fit(params, loss)
                           for params, loss in zip(_table(obj, len(losses)), losses)])


def save_artifact(obj: Partition | FixedPartition | ModelParams, path: str | Path) -> None:
    """Serialize a deployable artifact (partition, fixed partition, or a bare
    model) to JSON: its models' layout and the table of the fits it trained,
    each once, in order (param_sets), with what the rest of its kind needs."""
    if isinstance(obj, Partition):
        payload = partition_to_json(obj)
    elif isinstance(obj, FixedPartition):
        payload = {"format": ARTIFACT_FORMAT, "kind": "fixed",
                   "losses": [s.loss for s in obj.subsets], **_table_json(obj)}
    else:
        payload = {"format": ARTIFACT_FORMAT, "kind": "model", **_table_json(obj)}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_artifact(path: str | Path):
    """The artifact saved at `path`. ParseError when the file is not UTF-8 or
    valid JSON, lacks a key or holds one its writer never writes, or holds a
    block that is no base64 text; DomainError when its format is not the
    integer 5, its table holds another number of sets than the fits it
    states, or a value, such as its layout, is inadmissible."""
    try:
        with open_utf8(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"artifact {path} is not valid JSON: {exc}") from None
    try:
        if isinstance(obj, dict) and (type(obj.get("format")) is not int
                                      or obj["format"] != ARTIFACT_FORMAT):
            raise DomainError(f"format {obj.get('format')!r} is not {ARTIFACT_FORMAT}; "
                              "retrain to write the current format")
        kind = obj["kind"]
        if kind == "learned":
            return partition_from_json(obj)
        if kind == "fixed":
            return fixed_from_json(obj)
        if kind == "model":
            only_keys(obj, ("format", "kind", "layout", "params"), "a model file")
            return _table(obj, 1)[0]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"artifact {path} is malformed: {exc!r}") from None
    except (ParseError, DomainError) as exc:
        raise type(exc)(f"artifact {path}: {exc}") from None
    raise DomainError(f"artifact {path}: unknown kind {kind!r}")
