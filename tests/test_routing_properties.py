"""Property tests: batched routing over bit matrices agrees with the
single-pattern API on random trees, uncertainty sets and patterns."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, ModelParams, init_params
from robustcast.partition import (
    FixedPartition,
    FixedSubset,
    Partition,
    PartitionConfig,
    TreeNode,
    UncertaintySet,
    UncertaintySubset,
    locate,
    locate_rows,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
    route_fixed,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def usets(draw) -> UncertaintySet:
    """The last feature is the never-missing bias; any others may be maskable."""
    p = draw(st.integers(2, 7))
    maskable = draw(st.lists(st.integers(0, p - 2), min_size=1, max_size=p - 1, unique=True))
    budget = draw(st.integers(0, len(maskable)))
    return UncertaintySet(n_features=p, maskable=tuple(maskable), budget=budget)


def random_params(uset: UncertaintySet, rng: np.random.Generator) -> ModelParams:
    arch = Architecture(input_dim=uset.n_features, bias_index=uset.n_features - 1)
    params = init_params(arch, "lr", True, 0, maskable=uset.maskable)
    return params.from_vector(rng.normal(size=params.to_vector().size))


@st.composite
def partitions(draw) -> Partition:
    """A random tree grown the way learn_partition grows one: each split takes
    a leaf with a free feature and budget room, and fixes one free feature
    available in one child and missing in the other."""
    uset = draw(usets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = MissingPattern.zeros(uset.n_features)

    def subset(sid, fixed, opt, free, parent):
        return UncertaintySubset(sid, fixed, opt, free, random_params(uset, rng),
                                 random_params(uset, rng), 1.0, 2.0, parent_id=parent)

    subsets = {0: subset(0, {}, zero, uset.maskable, None)}
    nodes = {0: TreeNode(subset_id=0)}
    leaf_ids = [0]
    for _ in range(draw(st.integers(0, 6))):
        splittable = [i for i in leaf_ids
                      if subsets[i].free and subsets[i].opt_pattern.popcount() < uset.budget]
        if not splittable:
            break
        sid = draw(st.sampled_from(splittable))
        parent = subsets[sid]
        j = draw(st.sampled_from(parent.free))
        free = tuple(f for f in parent.free if f != j)
        avail, miss = len(subsets), len(subsets) + 1
        subsets[avail] = subset(avail, {**parent.fixed, j: 0}, parent.opt_pattern, free, sid)
        subsets[miss] = subset(miss, {**parent.fixed, j: 1},
                               parent.opt_pattern.with_missing(j), free, sid)
        node = nodes[sid]
        node.feature = j
        node.available = nodes[avail] = TreeNode(subset_id=avail)
        node.missing = nodes[miss] = TreeNode(subset_id=miss)
        leaf_ids = [i for i in leaf_ids if i != sid] + [avail, miss]
    return Partition(uset, PartitionConfig(), nodes[0], subsets, leaf_ids)


def random_bits(uset: UncertaintySet, n: int, seed: int, opt_patterns=()) -> np.ndarray:
    """n support-valid patterns, budget not enforced; about a third of the
    rows copy one of opt_patterns, so exact optimistic matches occur."""
    rng = np.random.default_rng(seed)
    bits = np.zeros((n, uset.n_features), dtype=np.uint8)
    cols = list(uset.maskable)
    bits[:, cols] = rng.random((n, len(cols))) < rng.random()
    if opt_patterns:
        for i in np.flatnonzero(rng.random(n) < 1 / 3):
            bits[i] = opt_patterns[rng.integers(len(opt_patterns))]
    return bits


def leaf_opt_patterns(part: Partition) -> list[np.ndarray]:
    return [part.subsets[i].opt_pattern.bits for i in part.leaf_ids]


@SETTINGS
@given(part=partitions(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_every_row_reaches_the_leaf_locate_finds(part, n, seed):
    bits = random_bits(part.uncertainty, n, seed, leaf_opt_patterns(part))
    leaves = locate_rows(part, bits)
    assert leaves.tolist() == [locate(part, MissingPattern(bits=row)) for row in bits]
    assert set(leaves.tolist()) <= set(part.leaf_ids)


@SETTINGS
@given(part=partitions(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_batched_deployment_equals_row_by_row(part, n, seed):
    bits = random_bits(part.uncertainty, n, seed, leaf_opt_patterns(part))
    X = np.random.default_rng(seed).uniform(0.0, 1.0, (n, part.uncertainty.n_features))
    X[:, -1] = 1.0
    batched = predict_deployed_rows(part, X, bits)
    single = [predict_deployed(part, X[i], bits[i]) for i in range(n)]
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)
    # a bit row and its MissingPattern deploy identically
    assert single == [predict_deployed(part, X[i], MissingPattern(bits=bits[i])) for i in range(n)]


@SETTINGS
@given(uset=usets(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_fixed_rows_use_the_subset_route_fixed_picks(uset, n, seed):
    # Subset l predicts exactly l from the bias feature alone, so every
    # prediction names the subset its row was routed to.
    arch = Architecture(input_dim=uset.n_features, bias_index=uset.n_features - 1)
    subsets = []
    for count in range(uset.budget + 1):
        params = init_params(arch, "lr", False, 0, maskable=uset.maskable)
        params.arrays["w"][:] = 0.0
        params.arrays["w"][-1] = float(count)
        subsets.append(FixedSubset(count=count, params=params, val_loss=0.0))
    fixed = FixedPartition(uncertainty=uset, subsets=subsets)
    bits = random_bits(uset, n, seed)
    X = np.ones((n, uset.n_features))
    routed = predict_fixed_rows(fixed, X, bits)
    assert routed.tolist() == [route_fixed(fixed, MissingPattern(bits=row)) for row in bits]
