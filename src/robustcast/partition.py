"""Budgeted uncertainty sets over missing features, fixed equality-count
partitions, the learned binary-split partition driven by the relative
optimistic/adversarial gap, pattern routing, and the deployed predictor.

A learned partition is a binary tree: each internal node tests one feature's
availability, each leaf is a subset carrying an optimistic pattern (all free
features available), two trained parameter sets, and validation-loss bounds.
Splitting always targets the leaf with the largest relative gap; the child
that keeps the split feature available inherits the optimistic side, the
child that fixes it missing inherits the adversarial side. So a learned
partition is stored as the root's two fits and its splits in growth order:
split k names the leaf it splits and the feature, and holds the missing
child's optimistic fit and the available child's adversarial fit (or none,
when that child kept its leaf's). It creates subsets 2k - 1 (available) and
2k (missing). The subsets, routing, the leaf list, each subset's equality
constraints and the lineage a file records are derived from them.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ._util import derive_seed, map_jobs
from .adversarial import (
    AdvSearchScope,
    greedy_split_feature,
    train_adversarial,
    train_sampled_adversarial,
)
from .dataio import Dataset, maskable_indices
from .exceptions import CapacityError, ConfigError, DomainError, ParseError
from .missingness import MissingPattern
from .models import Architecture, ModelParams, params_from_json, params_to_json, predict
from .training import TrainConfig, train_nominal

RELGAP_FLOOR = 1e-12
ARTIFACT_FORMAT = 2
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class UncertaintySet:
    """All patterns with support in the maskable set and at most `budget`
    features missing at once."""

    n_features: int
    maskable: tuple[int, ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "maskable", maskable_indices(self.maskable, self.n_features))
        if not (0 <= self.budget <= len(self.maskable)):
            raise DomainError("budget must lie in [0, |maskable|]")


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
class Fit:
    """One trained parameter set and its validation loss."""

    params: ModelParams
    loss: float


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
    optimistic pattern, the features still free in it, both parameter sets
    and their validation-loss bounds. Its id is its position in the
    partition's subsets."""

    opt_pattern: MissingPattern
    free: tuple[int, ...]
    params_opt: ModelParams
    params_adv: ModelParams
    lower_bound: float
    upper_bound: float

    @property
    def relgap(self) -> float:
        return rel_gap(self.lower_bound, self.upper_bound)


@dataclass(frozen=True)
class Partition:
    """A learned partition, held as the root's optimistic and adversarial
    fits and its splits in growth order (see the module docstring).

    Construction derives `subsets`, subsets[i] being subset Ui, whose
    inherited bounds and parameter sets are its leaf's own objects, and the
    routing table, one entry per subset: (split feature, available child,
    missing child), or None for a leaf. It raises DomainError for a split
    whose leaf is no unsplit subset created before it, whose feature is not
    free in that leaf, or whose leaf has no budget room left."""

    uncertainty: UncertaintySet
    config: PartitionConfig
    opt: Fit
    adv: Fit
    splits: tuple[Split, ...] = ()

    def __post_init__(self):
        uset = self.uncertainty
        subsets = [UncertaintySubset(MissingPattern.zeros(uset.n_features), uset.maskable,
                                     self.opt.params, self.adv.params, self.opt.loss,
                                     self.adv.loss)]
        route = [None]
        for k, split in enumerate(self.splits, 1):
            fresh = split.leaf in range(2 * k - 1) and route[split.leaf] is None
            leaf = subsets[split.leaf] if fresh else None
            if leaf is None or split.feature not in leaf.free or not _splittable(leaf, uset):
                raise DomainError(f"split {k} of subset {split.leaf!r} on feature "
                                  f"{split.feature!r}: no unsplit subset below {2 * k - 1} "
                                  "with that feature free and budget room left")
            free = tuple(j for j in leaf.free if j != split.feature)
            adv = Fit(leaf.params_adv, leaf.upper_bound) if split.adv is None else split.adv
            subsets += [
                UncertaintySubset(leaf.opt_pattern, free, leaf.params_opt, adv.params,
                                  leaf.lower_bound, adv.loss),
                UncertaintySubset(leaf.opt_pattern.with_missing(split.feature), free,
                                  split.opt.params, leaf.params_adv, split.opt.loss,
                                  leaf.upper_bound),
            ]
            route[split.leaf] = (split.feature, 2 * k - 1, 2 * k)
            route += [None, None]
        object.__setattr__(self, "splits", tuple(self.splits))
        object.__setattr__(self, "subsets", tuple(subsets))
        object.__setattr__(self, "_route", route)

    @property
    def leaf_ids(self) -> list[int]:
        """Leaf subset ids, ascending: each split appends two ids above all
        existing ones."""
        return [sid for sid, node in enumerate(self._route) if node is None]

    def leaves(self) -> list[UncertaintySubset]:
        return [self.subsets[i] for i in self.leaf_ids]

    def fixed(self, sid: int) -> dict[int, int]:
        """The equality constraints of subset `sid`: each maskable feature no
        longer free in it, with the bit its optimistic pattern holds there."""
        subset = self.subsets[sid]
        bits = subset.opt_pattern.bits
        return {j: int(bits[j]) for j in self.uncertainty.maskable if j not in subset.free}

    def max_relgap(self) -> float:
        return max(self.subsets[i].relgap for i in self.leaf_ids)


@dataclass
class FixedSubset:
    params: ModelParams
    val_loss: float


@dataclass
class FixedPartition:
    """Equality-count partition: subsets[l] holds the model trained for
    exactly l missing features, l = 0..budget, so a file stores position l
    as the subset's count."""

    uncertainty: UncertaintySet
    subsets: list[FixedSubset]


def enumerate_patterns(uset: UncertaintySet) -> list[MissingPattern]:
    """Every admissible pattern, in lexicographic bit order; guarded to small
    maskable sets because the count grows as binomial sums."""
    k = len(uset.maskable)
    if k > ENUMERATION_LIMIT:
        raise CapacityError(f"enumeration limited to {ENUMERATION_LIMIT} maskable features, got {k}")
    out = []
    for combo in itertools.product((0, 1), repeat=k):
        if sum(combo) <= uset.budget:
            bits = np.zeros(uset.n_features, dtype=np.uint8)
            for j, bit in zip(uset.maskable, combo):
                bits[j] = bit
            out.append(MissingPattern(bits=bits))
    return out


def locate(partition: Partition, pattern) -> int:
    """Walk the tree on the pattern's bits (a MissingPattern or one bit
    vector); returns the leaf subset id. The walk accepts any support-valid
    pattern, including ones whose missing count exceeds the training budget
    (deployment never clamps)."""
    return _leaf_of(partition, _pattern_bits(partition.uncertainty, pattern, ndim=1))


def _leaf_of(partition: Partition, bits: np.ndarray) -> int:
    route, sid = partition._route, 0
    while route[sid] is not None:
        feature, avail, miss = route[sid]
        sid = miss if bits[feature] else avail
    return sid


def _pattern_bits(uset: UncertaintySet, patterns, ndim: int) -> np.ndarray:
    return MissingPattern.bits_of(patterns, uset.n_features, uset.maskable, ndim=ndim)


def locate_rows(partition: Partition, bits: np.ndarray) -> np.ndarray:
    """Batched `locate`: the leaf subset id of every row of an (n, p) bit
    matrix, routing all rows at once with one boolean row mask per node."""
    bits = _pattern_bits(partition.uncertainty, bits, ndim=2)
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
    """Route the pattern (a MissingPattern or one bit vector) to its leaf,
    then use the optimistic parameters when the pattern equals the leaf's
    optimistic pattern exactly, otherwise the adversarial parameters."""
    bits = _pattern_bits(partition.uncertainty, pattern, ndim=1)
    subset = partition.subsets[_leaf_of(partition, bits)]
    use_opt = bits.tobytes() == subset.opt_pattern.key()
    params = subset.params_opt if use_opt else subset.params_adv
    return float(predict(params, np.asarray(x, dtype=np.float64)[None, :], bits)[0])


def predict_grouped(X: np.ndarray, keys: np.ndarray, group) -> np.ndarray:
    """Predict every row of X with the model its integer key selects.

    Rows sharing a key run one vectorized forward pass over their rows in
    ascending order; group(key, rows) returns the (params, alpha) pair that
    pass uses.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    preds = np.empty(X.shape[0])
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    for key, rows in zip(uniq.tolist(), np.split(order, starts[1:])):
        params, alpha = group(key, rows)
        preds[rows] = predict(params, X[rows], alpha)
    return preds


def predict_deployed_rows(partition: Partition, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Batched `predict_deployed` over an (n, p) bit matrix, one pattern per
    row: rows are grouped by (leaf, parameter choice) so each group runs one
    vectorized forward pass."""
    bits = _pattern_bits(partition.uncertainty, patterns, ndim=2)
    leaf = locate_rows(partition, bits)
    opt = np.array([s.opt_pattern.bits for s in partition.subsets])
    use_opt = (bits == opt[leaf]).all(axis=1)

    def group(key, rows):
        subset = partition.subsets[key // 2]
        return (subset.params_opt if key % 2 else subset.params_adv), bits[rows]

    return predict_grouped(X, 2 * leaf + use_opt, group)


def route_fixed(fixed: FixedPartition, pattern: MissingPattern) -> int:
    """Index of the equality subset for a pattern: its missing count, clamped
    to the budget for deployment patterns that exceed it."""
    return min(pattern.popcount(), fixed.uncertainty.budget)


def predict_fixed_rows(fixed: FixedPartition, X: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Batched fixed-partition prediction over an (n, p) bit matrix: each row
    uses the subset `route_fixed` picks for its pattern."""
    bits = _pattern_bits(fixed.uncertainty, patterns, ndim=2)
    keys = np.minimum(bits.sum(axis=1), fixed.uncertainty.budget)
    return predict_grouped(X, keys, lambda key, rows: (fixed.subsets[key].params, bits[rows]))


def _splittable(subset: UncertaintySubset, uset: UncertaintySet) -> bool:
    # A split fixes one more feature as missing in one child, so it needs a
    # free feature and room left in the budget.
    return bool(subset.free) and subset.opt_pattern.popcount() < uset.budget


def learn_partition(
    train: Dataset,
    val: Dataset,
    uset: UncertaintySet,
    pcfg: PartitionConfig,
    train_cfg: TrainConfig,
    arch: Architecture,
    family: str,
    adaptive: bool,
) -> Partition:
    """Grow the availability-split tree.

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
    base_seed = train_cfg.seed

    def nominal(subset_id: int, pattern: MissingPattern) -> Fit:
        cfg = replace(train_cfg, seed=derive_seed(base_seed, "part-opt", subset_id))
        res = train_nominal(train, val, pattern, cfg, arch, family, adaptive)
        return Fit(res.params, res.val_loss)

    def adversarial(subset_id: int, scope: AdvSearchScope, warm: ModelParams) -> Fit:
        cfg = replace(train_cfg, seed=derive_seed(base_seed, "part-adv", subset_id))
        res = train_adversarial(train, val, scope, cfg, warm)
        return Fit(res.params, res.val_loss)

    def scope(free: tuple[int, ...], base: MissingPattern) -> AdvSearchScope:
        return AdvSearchScope(free=free, budget=uset.budget, base=base)

    zero = MissingPattern.zeros(train.p)
    opt = nominal(0, zero)
    part = Partition(uset, pcfg, opt, adversarial(0, scope(uset.maskable, zero), opt.params))

    while len(part.leaf_ids) < pcfg.max_subsets:
        gaps = {i: part.subsets[i].relgap for i in part.leaf_ids
                if _splittable(part.subsets[i], uset)}
        if not gaps or max(gaps.values()) <= pcfg.epsilon:
            break
        chosen = max(gaps, key=gaps.get)  # the first maximum: the lowest id on ties
        parent = part.subsets[chosen]

        j_star = greedy_split_feature(train.X, train.y, scope(parent.free, parent.opt_pattern),
                                      parent.params_opt)
        free_child = tuple(j for j in parent.free if j != j_star)
        avail_id, miss_id = len(part.subsets), len(part.subsets) + 1

        adv = adversarial(avail_id, scope(free_child, parent.opt_pattern), parent.params_opt)
        # The child's subset is contained in the parent's, so the parent's
        # adversarial parameters stay admissible; keep them when the fresh
        # fit scores worse on validation (best-of-two selection keeps the
        # upper bound from regressing above the parent's).
        adv = adv if adv.loss <= parent.upper_bound else None
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
    uset: UncertaintySet,
    train_cfg: TrainConfig,
    arch: Architecture,
    family: str,
    adaptive: bool,
    jobs: int = 1,
) -> FixedPartition:
    """Train the budget+1 equality subsets.

    Subset 0 is plain nominal training at the all-available pattern; every
    other subset runs the sampling adversarial trainer, warm-started from the
    subset-0 parameters. Subsets are independent, so jobs > 1 trains them in
    a process pool without changing the result.
    """
    zero = MissingPattern.zeros(train.p)
    cfg0 = replace(train_cfg, seed=derive_seed(train_cfg.seed, "fixed", 0))
    base = train_nominal(train, val, zero, cfg0, arch, family, adaptive)
    tasks = [(train, val, train_cfg, base.params, c) for c in range(1, uset.budget + 1)]
    subsets = [FixedSubset(base.params, base.val_loss)]
    subsets += [FixedSubset(*res) for res in map_jobs(_train_fixed_subset, tasks, jobs)]
    return FixedPartition(uncertainty=uset, subsets=subsets)


def _train_fixed_subset(task):
    train, val, train_cfg, warm, count = task
    cfg = replace(train_cfg, seed=derive_seed(train_cfg.seed, "fixed", count))
    res = train_sampled_adversarial(train, val, count, cfg, warm)
    return res.params, res.val_loss


def bounds_table(partition: Partition) -> str:
    """Human-readable per-subset bounds in creation order: subset, split
    feature, upper bound, lower bound, relative gap (%)."""
    lines = ["subset,split_feature,UB,LB,relgap_pct"]
    for sid, s in enumerate(partition.subsets):
        feature = _lineage(partition, sid)["split_feature"]
        split = "-" if feature is None else str(feature)
        gap = s.relgap * 100.0
        gap_txt = "inf" if gap > 1e8 else f"{gap:.4f}"
        lines.append(f"U{sid},{split},{s.upper_bound:.6e},{s.lower_bound:.6e},{gap_txt}")
    return "\n".join(lines) + "\n"


def _tree_to_json(partition: Partition, sid: int = 0) -> dict:
    if partition._route[sid] is None:
        return {"subset": sid}
    feature, avail, miss = partition._route[sid]
    return {"subset": sid, "feature": feature, "available": _tree_to_json(partition, avail),
            "missing": _tree_to_json(partition, miss)}


def _fixed_to_json(partition: Partition, sid: int) -> dict:
    return {str(j): bit for j, bit in partition.fixed(sid).items()}


def param_sets(artifact: Partition | FixedPartition | ModelParams) -> list[ModelParams]:
    """Every parameter set an artifact refers to, repeats included, in the
    order its file's table first uses them: learned subsets by id, opt
    before adv; fixed subsets in order; a bare model alone."""
    if isinstance(artifact, Partition):
        return [p for s in artifact.subsets for p in (s.params_opt, s.params_adv)]
    if isinstance(artifact, FixedPartition):
        return [s.params for s in artifact.subsets]
    return [artifact]


def _param_table(artifact) -> tuple[list[dict], list[int]]:
    """The encoded sets of `param_sets(artifact)` with repeats of the same
    content stored once, and the table index of each set in that order.
    Keying on the encoding makes the table depend on the content alone."""
    table, index, refs = [], {}, []
    for params in param_sets(artifact):
        encoded = params_to_json(params)
        key = json.dumps(encoded)
        if key not in index:
            index[key] = len(table)
            table.append(encoded)
        refs.append(index[key])
    return table, refs


def _table_from_json(obj: dict) -> list[ModelParams]:
    return [params_from_json(p) for p in obj["params"]]


def _params_at(table: list[ModelParams], ref) -> ModelParams:
    """The set a file's table holds at index `ref`; ParseError for anything
    but an int in range."""
    if type(ref) is not int or not 0 <= ref < len(table):
        raise ParseError(f"parameter reference {ref!r} is no index into a table of {len(table)}")
    return table[ref]


def _lineage(partition: Partition, sid: int) -> dict:
    """How a file records subset sid's place in the growth: the leaf it was
    split from, whether it kept that leaf's LB (the available child 2k - 1
    does) and UB (the missing child 2k does, and the available child when
    its split trained no adversarial fit), and its own split feature."""
    split, node = partition.splits[(sid - 1) // 2] if sid else None, partition._route[sid]
    return {"parent_id": None if split is None else split.leaf, "lb_inherited": sid % 2 == 1,
            "ub_inherited": sid > 0 and (sid % 2 == 0 or split.adv is None),
            "split_feature": None if node is None else node[0]}


def _learned_json(partition: Partition, refs: list[int]) -> dict:
    """A learned file but its parameter table: refs[i] is the table index of
    the i-th set of `param_sets(partition)`."""
    return {
        "format": ARTIFACT_FORMAT,
        "kind": "learned",
        "uncertainty": asdict(partition.uncertainty),
        "config": asdict(partition.config),
        "tree": _tree_to_json(partition),
        "leaf_ids": partition.leaf_ids,
        "subsets": {
            str(sid): {
                "fixed": _fixed_to_json(partition, sid),
                "opt_pattern": s.opt_pattern.bits.tolist(),
                "free": list(s.free),
                "LB": s.lower_bound,
                "UB": s.upper_bound,
                "relgap": s.relgap,
                **_lineage(partition, sid),
                "params_opt": refs[2 * sid],
                "params_adv": refs[2 * sid + 1],
            }
            for sid, s in enumerate(partition.subsets)
        },
    }


def partition_to_json(partition: Partition) -> dict:
    table, refs = _param_table(partition)
    return {**_learned_json(partition, refs), "params": table}


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


def _uncertainty_from_json(obj: dict) -> UncertaintySet:
    """The stored uncertainty set; ParseError unless its counts and indices
    are integers (UncertaintySet itself would take a budget of 1.5)."""
    for value in (obj["n_features"], obj["budget"], *obj["maskable"]):
        _checked(value, (int,), "an uncertainty set's counts and indices")
    return UncertaintySet(**obj)


def partition_from_json(obj: dict) -> Partition:
    """The partition a learned file describes, rebuilt from what its root
    fits and splits need: subset 0's params_opt/LB and params_adv/UB; for
    split k, the leaf it split (subset 2k - 1's parent_id), that leaf's
    split_feature, subset 2k's params_opt/LB, and subset 2k - 1's
    params_adv/UB unless its ub_inherited is true. Every other stored value
    is derived (inherited bounds and references, lineage, patterns, free
    sets, fixed, relgap, tree, leaf_ids): DomainError when one disagrees
    (compared as JSON, so 1 is not true), when Partition refuses a split,
    the ids are not 0..2k or a number is not finite. ParseError when the
    subsets are no object keyed by decimal ids, or an entry or the config
    holds a value of the wrong JSON type or a bad table reference."""
    table = _table_from_json(obj)
    stored = _checked(obj["subsets"], (dict,), "a learned file's subsets")
    if not all(sid.isdecimal() and str(int(sid)) == sid for sid in stored):
        raise ParseError(f"subset ids {list(stored)!r:.80} are not all decimal integers")
    if sorted(map(int, stored)) != list(range(len(stored))) or len(stored) % 2 == 0:
        raise DomainError(f"subset ids must be 0..2k for k splits, got {sorted(map(int, stored))}")
    entries = [stored[str(i)] for i in range(len(stored))]
    number, index = (int, float), (int, type(None))
    for sid, s in enumerate(entries):
        for key, types in (("parent_id", index), ("split_feature", index), ("LB", number),
                           ("UB", number), ("relgap", number), ("lb_inherited", (bool,)),
                           ("ub_inherited", (bool,)), ("opt_pattern", (list,)),
                           ("free", (list,))):
            _checked(s[key], types, f"subset {sid}'s {key}")
        for key in ("opt_pattern", "free"):
            if not all(type(v) is int for v in s[key]):
                raise ParseError(f"subset {sid}'s {key} must hold integers only, "
                                 f"got {s[key]!r:.60}")
        for key in ("params_opt", "params_adv"):
            _params_at(table, s[key])
    config = obj["config"]
    _checked(config["max_subsets"], (int,), "config.max_subsets")
    _checked(config["epsilon"], (int, float), "config.epsilon")

    def fit(s: dict, params: str, loss: str) -> Fit:
        return Fit(_params_at(table, s[params]), s[loss])

    splits = []
    for k in range(1, len(entries) // 2 + 1):
        avail, miss = entries[2 * k - 1], entries[2 * k]
        leaf = avail["parent_id"]
        feature = entries[leaf]["split_feature"] if leaf in range(2 * k - 1) else None
        adv = None if avail["ub_inherited"] else fit(avail, "params_adv", "UB")
        splits.append(Split(leaf, feature, fit(miss, "params_opt", "LB"), adv))
    part = Partition(_uncertainty_from_json(obj["uncertainty"]), PartitionConfig(**config),
                     fit(entries[0], "params_opt", "LB"), fit(entries[0], "params_adv", "UB"),
                     splits)
    index = {id(params): i for i, params in enumerate(table)}
    derived = _learned_json(part, [index[id(params)] for params in param_sets(part)])
    if json.dumps({key: obj[key] for key in derived}, sort_keys=True) \
            != json.dumps(derived, sort_keys=True):
        raise DomainError("a stored value disagrees with what the root fits and splits imply")
    return part


def fixed_to_json(fixed: FixedPartition) -> dict:
    table, refs = _param_table(fixed)
    return {
        "format": ARTIFACT_FORMAT,
        "kind": "fixed",
        "uncertainty": asdict(fixed.uncertainty),
        "subsets": [
            {"count": count, "val_loss": s.val_loss, "params": ref}
            for count, (s, ref) in enumerate(zip(fixed.subsets, refs))
        ],
        "params": table,
    }


def fixed_from_json(obj: dict) -> FixedPartition:
    """The fixed partition a file describes; ParseError unless its subsets
    are a list whose counts are the integers 0..budget in order and whose
    val_loss values are numbers."""
    table, uset = _table_from_json(obj), _uncertainty_from_json(obj["uncertainty"])
    entries = _checked(obj["subsets"], (list,), "a fixed file's subsets")
    counts = [s["count"] for s in entries]
    if any(type(c) is not int for c in counts) or counts != list(range(uset.budget + 1)):
        raise ParseError(f"a fixed file's counts must be 0..{uset.budget} in order, "
                         f"got {counts!r:.80}")
    subsets = [
        FixedSubset(_params_at(table, s["params"]),
                    _checked(s["val_loss"], (int, float), f"subset {c}'s val_loss"))
        for c, s in enumerate(entries)
    ]
    return FixedPartition(uncertainty=uset, subsets=subsets)


def save_artifact(obj: Partition | FixedPartition | ModelParams, path: str | Path) -> None:
    """Serialize a deployable artifact (partition, fixed partition, or a bare
    model) to JSON: one table of distinct parameter sets, which the rest of
    the file refers to by index."""
    if isinstance(obj, Partition):
        payload = partition_to_json(obj)
    elif isinstance(obj, FixedPartition):
        payload = fixed_to_json(obj)
    else:
        payload = {"format": ARTIFACT_FORMAT, "kind": "model", "model": 0,
                   "params": [params_to_json(obj)]}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_artifact(path: str | Path):
    """The artifact saved at `path`. ParseError when the file is not valid
    JSON, lacks a key, holds a malformed array or a bad table index;
    DomainError when it is of another format or a value is inadmissible."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(obj, dict) and obj.get("format") != ARTIFACT_FORMAT:
            raise DomainError(f"format {obj.get('format')!r} is not {ARTIFACT_FORMAT}; "
                              "retrain to write the current format")
        kind = obj["kind"]
        if kind == "learned":
            return partition_from_json(obj)
        if kind == "fixed":
            return fixed_from_json(obj)
        if kind == "model":
            return _params_at(_table_from_json(obj), obj["model"])
    except json.JSONDecodeError as exc:
        raise ParseError(f"artifact {path} is not valid JSON: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ParseError(f"artifact {path} is malformed: {exc!r}") from None
    except (ParseError, DomainError) as exc:
        raise type(exc)(f"artifact {path}: {exc}") from None
    raise DomainError(f"artifact {path}: unknown kind {kind!r}")
