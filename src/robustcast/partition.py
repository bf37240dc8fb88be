"""Budgeted uncertainty sets over missing features, fixed equality-count
partitions, the learned binary-split partition driven by the relative
optimistic/adversarial gap, pattern routing, and the deployed predictor.

A learned partition is a binary tree: each internal node tests one feature's
availability, each leaf is a subset carrying an optimistic pattern (all free
features available), two trained parameter sets, and validation-loss bounds.
Splitting always targets the leaf with the largest relative gap; the child
that keeps the split feature available inherits the optimistic side, the
child that fixes it missing inherits the adversarial side.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import derive_seed, map_jobs
from .adversarial import (
    AdvSearchScope,
    greedy_split_feature,
    train_adversarial,
    train_sampled_adversarial,
)
from .dataio import Dataset
from .exceptions import CapacityError, ConfigError, DomainError
from .missingness import MissingPattern
from .models import Architecture, ModelParams, params_from_json, params_to_json, predict
from .training import TrainConfig, train_nominal

RELGAP_FLOOR = 1e-12
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class UncertaintySet:
    """All patterns with support in the maskable set and at most `budget`
    features missing at once."""

    n_features: int
    maskable: tuple[int, ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "maskable", tuple(sorted(int(j) for j in self.maskable)))
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


@dataclass
class UncertaintySubset:
    """One cell of a partition, with its equality constraints, its optimistic
    pattern, both trained parameter sets, and validation-loss bounds."""

    subset_id: int
    fixed: dict[int, int]
    opt_pattern: MissingPattern
    free: tuple[int, ...]
    params_opt: ModelParams
    params_adv: ModelParams
    lower_bound: float
    upper_bound: float
    parent_id: int | None = None
    lb_inherited: bool = False
    ub_inherited: bool = False
    split_feature: int | None = None

    @property
    def relgap(self) -> float:
        return rel_gap(self.lower_bound, self.upper_bound)

    def validate(self) -> None:
        for j, bit in self.fixed.items():
            if int(self.opt_pattern.bits[j]) != bit:
                raise DomainError("optimistic pattern disagrees with a fixed coordinate")
        if any(j in self.fixed for j in self.free):
            raise DomainError("free features overlap fixed coordinates")


@dataclass
class TreeNode:
    subset_id: int
    feature: int | None = None
    available: "TreeNode | None" = None
    missing: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class Partition:
    uncertainty: UncertaintySet
    config: PartitionConfig
    root: TreeNode
    subsets: dict[int, UncertaintySubset]
    leaf_ids: list[int]

    def leaves(self) -> list[UncertaintySubset]:
        return [self.subsets[i] for i in self.leaf_ids]

    def max_relgap(self) -> float:
        return max(self.subsets[i].relgap for i in self.leaf_ids)


@dataclass
class FixedSubset:
    count: int
    params: ModelParams
    val_loss: float


@dataclass
class FixedPartition:
    """Equality-count partition: subset l holds the model trained for exactly
    l missing features, l = 0..budget."""

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
    return _leaf_of(partition.root, _pattern_bits(partition.uncertainty, pattern, ndim=1))


def _leaf_of(node: TreeNode, bits: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.missing if bits[node.feature] else node.available
    return node.subset_id


def _pattern_bits(uset: UncertaintySet, patterns, ndim: int) -> np.ndarray:
    return MissingPattern.bits_of(patterns, uset.n_features, uset.maskable, ndim=ndim)


def locate_rows(partition: Partition, bits: np.ndarray) -> np.ndarray:
    """Batched `locate`: the leaf subset id of every row of an (n, p) bit
    matrix, routing all rows at once with one boolean row mask per node."""
    bits = _pattern_bits(partition.uncertainty, bits, ndim=2)
    leaf = np.empty(bits.shape[0], dtype=np.int64)
    stack = [(partition.root, np.ones(bits.shape[0], dtype=bool))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            leaf[rows] = node.subset_id
        else:
            missing = bits[:, node.feature] != 0
            stack += [(node.missing, rows & missing), (node.available, rows & ~missing)]
    return leaf


def predict_deployed(partition: Partition, x: np.ndarray, pattern) -> float:
    """Route the pattern (a MissingPattern or one bit vector) to its leaf,
    then use the optimistic parameters when the pattern equals the leaf's
    optimistic pattern exactly, otherwise the adversarial parameters."""
    bits = _pattern_bits(partition.uncertainty, pattern, ndim=1)
    subset = partition.subsets[_leaf_of(partition.root, bits)]
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
    opt = np.zeros((max(partition.subsets) + 1, bits.shape[1]), dtype=np.uint8)
    for sid, subset in partition.subsets.items():
        opt[sid] = subset.opt_pattern.bits
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


def _scope_for(subset: UncertaintySubset, uset: UncertaintySet) -> AdvSearchScope:
    return AdvSearchScope(free=subset.free, budget=uset.budget, base=subset.opt_pattern)


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
    adv_cfg: TrainConfig | None = None,
) -> Partition:
    """Grow the availability-split tree.

    The root trains the optimistic model at the all-available pattern (its
    validation loss is the lower bound) and the adversarial model over the
    whole set (upper bound). Each round splits the largest-relative-gap leaf
    on the feature the greedy search deems most damaging under the leaf's
    optimistic parameters (evaluated on the training split): the available
    child keeps the optimistic side and retrains the adversarial side over
    the reduced free set, the missing child retrains the optimistic side at
    its extended pattern and keeps the adversarial side. Ties in leaf choice
    break to the lowest subset id. The loop stops at max_subsets, or when no
    leaf with room to split has a relative gap above epsilon.
    """
    adv_cfg = adv_cfg if adv_cfg is not None else train_cfg
    base_seed = train_cfg.seed

    def nominal(subset_id: int, pattern: MissingPattern, warm=None):
        cfg = replace(train_cfg, seed=derive_seed(base_seed, "part-opt", subset_id))
        return train_nominal(train, val, pattern, cfg, arch, family, adaptive, warm_start=warm)

    def adversarial(subset_id: int, scope: AdvSearchScope, warm: ModelParams):
        cfg = replace(adv_cfg, seed=derive_seed(base_seed, "part-adv", subset_id))
        return train_adversarial(
            train, val, scope, cfg, arch, family, adaptive, warm_start=warm
        )

    zero = MissingPattern.zeros(train.p)
    opt_res = nominal(0, zero)
    root_scope = AdvSearchScope(free=uset.maskable, budget=uset.budget, base=zero)
    adv_res = adversarial(0, root_scope, opt_res.params)
    root_subset = UncertaintySubset(
        subset_id=0,
        fixed={},
        opt_pattern=zero,
        free=uset.maskable,
        params_opt=opt_res.params,
        params_adv=adv_res.params,
        lower_bound=opt_res.val_loss,
        upper_bound=adv_res.val_loss,
    )
    subsets = {0: root_subset}
    node_of = {0: TreeNode(subset_id=0)}
    root = node_of[0]
    leaf_ids = [0]

    while len(leaf_ids) < pcfg.max_subsets:
        candidates = [i for i in leaf_ids if _splittable(subsets[i], uset)]
        if not candidates:
            break
        gaps = [subsets[i].relgap for i in candidates]
        best = max(gaps)
        if best <= pcfg.epsilon:
            break
        chosen = candidates[int(np.argmax(gaps))]  # argmax keeps the lowest id on ties
        parent = subsets[chosen]

        j_star = greedy_split_feature(train.X, train.y, _scope_for(parent, uset), parent.params_opt)
        free_child = tuple(j for j in parent.free if j != j_star)

        avail_id, miss_id = len(subsets), len(subsets) + 1

        avail_fixed = dict(parent.fixed)
        avail_fixed[j_star] = 0
        avail_subset = UncertaintySubset(
            subset_id=avail_id,
            fixed=avail_fixed,
            opt_pattern=parent.opt_pattern,
            free=free_child,
            params_opt=parent.params_opt,
            params_adv=parent.params_adv,  # placeholder until retrained below
            lower_bound=parent.lower_bound,
            upper_bound=parent.upper_bound,
            parent_id=chosen,
            lb_inherited=True,
            ub_inherited=False,
        )
        adv_res = adversarial(avail_id, _scope_for(avail_subset, uset), avail_subset.params_opt)
        # The child's subset is contained in the parent's, so the parent's
        # adversarial parameters stay admissible; keep them when the fresh
        # fit scores worse on validation (best-of-two selection keeps the
        # upper bound from regressing above the parent's).
        if adv_res.val_loss <= parent.upper_bound:
            avail_subset.params_adv = adv_res.params
            avail_subset.upper_bound = adv_res.val_loss
        else:
            avail_subset.ub_inherited = True

        miss_fixed = dict(parent.fixed)
        miss_fixed[j_star] = 1
        miss_pattern = parent.opt_pattern.with_missing(j_star)
        opt_res = nominal(miss_id, miss_pattern)
        miss_subset = UncertaintySubset(
            subset_id=miss_id,
            fixed=miss_fixed,
            opt_pattern=miss_pattern,
            free=free_child,
            params_opt=opt_res.params,
            params_adv=parent.params_adv,
            lower_bound=opt_res.val_loss,
            upper_bound=parent.upper_bound,
            parent_id=chosen,
            lb_inherited=False,
            ub_inherited=True,
        )

        parent.split_feature = j_star
        subsets[avail_id] = avail_subset
        subsets[miss_id] = miss_subset
        leaf_ids = _split_leaf(node_of, leaf_ids, chosen, j_star)

    for subset in subsets.values():
        subset.validate()
    return Partition(
        uncertainty=uset, config=pcfg, root=root, subsets=subsets, leaf_ids=leaf_ids
    )


def _split_leaf(node_of: dict, leaf_ids: list[int], chosen: int, feature: int) -> list[int]:
    """Split leaf `chosen` on `feature` into the next two subset ids, which
    are 2k - 1 (available) and 2k (missing) for the k-th split; returns the
    new leaf order."""
    avail_id = len(node_of)
    node = node_of[chosen]
    node.feature = feature
    node.available = node_of[avail_id] = TreeNode(subset_id=avail_id)
    node.missing = node_of[avail_id + 1] = TreeNode(subset_id=avail_id + 1)
    return [i for i in leaf_ids if i != chosen] + [avail_id, avail_id + 1]


def truncate(partition: Partition, q: int) -> Partition:
    """The partition `learn_partition` grows with max_subsets=q, cut from
    `partition`, grown by `learn_partition` with the same arguments and at
    least q subsets (or stopped early, below its max_subsets).

    Growth is greedy and every subset trains from seeds derived from (seed,
    subset id), so growing to q subsets performs the first q - 1 splits of
    any longer growth. Split k created subsets 2k - 1 and 2k, whose
    parent_id names the leaf it split; the tree, the leaf order and the
    split features are replayed from those. The subsets share their
    parameters with `partition`. When q equals config.max_subsets the input
    itself is returned.
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
    subsets = {0: replace(partition.subsets[0], split_feature=None)}
    node_of = {0: TreeNode(subset_id=0)}
    leaf_ids = [0]
    for k in range(1, min(q, len(partition.leaf_ids))):
        chosen = partition.subsets[2 * k - 1].parent_id
        feature = partition.subsets[chosen].split_feature
        subsets[chosen].split_feature = feature
        for sid in (2 * k - 1, 2 * k):
            subsets[sid] = replace(partition.subsets[sid], split_feature=None)
        leaf_ids = _split_leaf(node_of, leaf_ids, chosen, feature)
    return Partition(
        uncertainty=partition.uncertainty,
        config=replace(partition.config, max_subsets=q),
        root=node_of[0],
        subsets=subsets,
        leaf_ids=leaf_ids,
    )


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
    subsets = [FixedSubset(count=0, params=base.params, val_loss=base.val_loss)]
    counts = range(1, uset.budget + 1)
    tasks = [(train, val, train_cfg, arch, family, adaptive, base.params, c) for c in counts]
    for count, (params, val_loss) in zip(counts, map_jobs(_train_fixed_subset, tasks, jobs)):
        subsets.append(FixedSubset(count=count, params=params, val_loss=val_loss))
    return FixedPartition(uncertainty=uset, subsets=subsets)


def _train_fixed_subset(task):
    train, val, train_cfg, arch, family, adaptive, warm, count = task
    cfg = replace(train_cfg, seed=derive_seed(train_cfg.seed, "fixed", count))
    res = train_sampled_adversarial(
        train, val, count, cfg, arch, family, adaptive, warm_start=warm
    )
    return res.params, res.val_loss


def bounds_table(partition: Partition) -> str:
    """Human-readable per-subset bounds in creation order: subset, split
    feature, upper bound, lower bound, relative gap (%)."""
    lines = ["subset,split_feature,UB,LB,relgap_pct"]
    for sid in sorted(partition.subsets):
        s = partition.subsets[sid]
        split = "-" if s.split_feature is None else str(s.split_feature)
        gap = s.relgap * 100.0
        gap_txt = "inf" if gap > 1e8 else f"{gap:.4f}"
        lines.append(f"U{sid},{split},{s.upper_bound:.6e},{s.lower_bound:.6e},{gap_txt}")
    return "\n".join(lines) + "\n"


def _node_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"subset": node.subset_id}
    return {
        "subset": node.subset_id,
        "feature": node.feature,
        "available": _node_to_json(node.available),
        "missing": _node_to_json(node.missing),
    }


def _node_from_json(obj: dict) -> TreeNode:
    if "feature" not in obj:
        return TreeNode(subset_id=obj["subset"])
    return TreeNode(
        subset_id=obj["subset"],
        feature=obj["feature"],
        available=_node_from_json(obj["available"]),
        missing=_node_from_json(obj["missing"]),
    )


def _uset_to_json(uset: UncertaintySet) -> dict:
    return {"n_features": uset.n_features, "maskable": list(uset.maskable), "budget": uset.budget}


def _uset_from_json(obj: dict) -> UncertaintySet:
    return UncertaintySet(
        n_features=obj["n_features"], maskable=tuple(obj["maskable"]), budget=obj["budget"]
    )


def partition_to_json(partition: Partition) -> dict:
    return {
        "kind": "learned",
        "uncertainty": _uset_to_json(partition.uncertainty),
        "config": {
            "max_subsets": partition.config.max_subsets,
            "epsilon": partition.config.epsilon,
        },
        "tree": _node_to_json(partition.root),
        "leaf_ids": list(partition.leaf_ids),
        "subsets": {
            str(sid): {
                "fixed": {str(j): bit for j, bit in sorted(s.fixed.items())},
                "opt_pattern": s.opt_pattern.bits.tolist(),
                "free": list(s.free),
                "LB": s.lower_bound,
                "UB": s.upper_bound,
                "relgap": s.relgap,
                "parent_id": s.parent_id,
                "lb_inherited": s.lb_inherited,
                "ub_inherited": s.ub_inherited,
                "split_feature": s.split_feature,
                "params_opt": params_to_json(s.params_opt),
                "params_adv": params_to_json(s.params_adv),
            }
            for sid, s in sorted(partition.subsets.items())
        },
    }


def partition_from_json(obj: dict) -> Partition:
    uset = _uset_from_json(obj["uncertainty"])
    pcfg = PartitionConfig(
        max_subsets=obj["config"]["max_subsets"], epsilon=obj["config"]["epsilon"]
    )
    subsets = {}
    for sid_str, s in obj["subsets"].items():
        sid = int(sid_str)
        subsets[sid] = UncertaintySubset(
            subset_id=sid,
            fixed={int(j): bit for j, bit in s["fixed"].items()},
            opt_pattern=MissingPattern(bits=np.asarray(s["opt_pattern"], dtype=np.uint8)),
            free=tuple(s["free"]),
            params_opt=params_from_json(s["params_opt"]),
            params_adv=params_from_json(s["params_adv"]),
            lower_bound=s["LB"],
            upper_bound=s["UB"],
            parent_id=s["parent_id"],
            lb_inherited=s["lb_inherited"],
            ub_inherited=s["ub_inherited"],
            split_feature=s["split_feature"],
        )
    return Partition(
        uncertainty=uset,
        config=pcfg,
        root=_node_from_json(obj["tree"]),
        subsets=subsets,
        leaf_ids=list(obj["leaf_ids"]),
    )


def fixed_to_json(fixed: FixedPartition) -> dict:
    return {
        "kind": "fixed",
        "uncertainty": _uset_to_json(fixed.uncertainty),
        "subsets": [
            {"count": s.count, "val_loss": s.val_loss, "params": params_to_json(s.params)}
            for s in fixed.subsets
        ],
    }


def fixed_from_json(obj: dict) -> FixedPartition:
    uset = _uset_from_json(obj["uncertainty"])
    subsets = [
        FixedSubset(
            count=s["count"], params=params_from_json(s["params"]), val_loss=s["val_loss"]
        )
        for s in obj["subsets"]
    ]
    return FixedPartition(uncertainty=uset, subsets=subsets)


def save_artifact(obj: Partition | FixedPartition | ModelParams, path: str | Path) -> None:
    """Serialize a deployable artifact (partition, fixed partition, or a bare
    model) to JSON."""
    if isinstance(obj, Partition):
        payload = partition_to_json(obj)
    elif isinstance(obj, FixedPartition):
        payload = fixed_to_json(obj)
    else:
        payload = {"kind": "model", "params": params_to_json(obj)}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_artifact(path: str | Path):
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = obj.get("kind")
    if kind == "learned":
        return partition_from_json(obj)
    if kind == "fixed":
        return fixed_from_json(obj)
    if kind == "model":
        return params_from_json(obj["params"])
    raise DomainError(f"unknown artifact kind {kind!r}")
