"""Property tests: batched routing over bit matrices agrees with the
single-pattern API on random trees, uncertainty sets and patterns."""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, ModelParams, init_params
from robustcast.partition import (
    FixedPartition,
    FixedSubset,
    Fit,
    Partition,
    PartitionConfig,
    Split,
    UncertaintySet,
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
    """A random tree grown the way learn_partition grows one, held as its
    root fits and splits: split k picks a leaf with a free feature and budget
    room and one of its free features, and adds subset 2k - 1, which keeps
    that feature available, and 2k, which marks it missing. Each split trains
    the missing child's optimistic fit and, or not, the available child's
    adversarial one."""
    uset = draw(usets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fit(loss):
        return Fit(random_params(uset, rng), loss)

    part = Partition(uset, PartitionConfig(), fit(1.0), fit(2.0))
    for _ in range(draw(st.integers(0, 6))):
        splittable = [i for i in part.leaf_ids if part.subsets[i].free
                      and part.subsets[i].opt_pattern.popcount() < uset.budget]
        if not splittable:
            break
        leaf = draw(st.sampled_from(splittable))
        j = draw(st.sampled_from(part.subsets[leaf].free))
        adv = fit(2.0) if draw(st.booleans()) else None
        part = replace(part, splits=(*part.splits, Split(leaf, j, fit(1.0), adv)))
    return part


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
def test_each_pattern_meets_the_constraints_of_exactly_the_leaf_it_reaches(part, n, seed):
    bits = random_bits(part.uncertainty, n, seed, leaf_opt_patterns(part))
    for row, leaf in zip(bits, locate_rows(part, bits).tolist()):
        hits = [sid for sid in part.leaf_ids
                if all(row[j] == bit for j, bit in part.fixed(sid).items())]
        assert hits == [leaf]


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
        subsets.append(FixedSubset(params=params, val_loss=0.0))
    fixed = FixedPartition(uncertainty=uset, subsets=subsets)
    bits = random_bits(uset, n, seed)
    X = np.ones((n, uset.n_features))
    routed = predict_fixed_rows(fixed, X, bits)
    assert routed.tolist() == [route_fixed(fixed, MissingPattern(bits=row)) for row in bits]
