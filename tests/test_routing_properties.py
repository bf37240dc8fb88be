"""Property tests: batched routing over bit matrices agrees with the
single-pattern deployed predictor and with the routing references in
tests/conftest.py, which route from a partition's splits alone (never its
routing table), on random trees, layouts, budgets and patterns."""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, ModelParams, init_params
from robustcast.partition import (
    FixedPartition,
    Fit,
    Partition,
    PartitionConfig,
    Split,
    locate_rows,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
)
from tests.conftest import locate, route_fixed

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def budgets(draw) -> tuple[int, tuple[int, ...], int]:
    """A width p, its maskable features and a budget over them. The last
    feature is the never-missing bias; any others may be maskable."""
    p = draw(st.integers(2, 7))
    maskable = draw(st.lists(st.integers(0, p - 2), min_size=1, max_size=p - 1, unique=True))
    return p, tuple(sorted(maskable)), draw(st.integers(0, len(maskable)))


@st.composite
def architectures(draw, p: int, maskable: tuple[int, ...]) -> Architecture:
    """A model layout of p features over the maskable ones, of either
    family, adaptive or plain; a network has one to three hidden layers."""
    family = draw(st.sampled_from(["lr", "nn"]))
    widths = st.lists(st.integers(1, 6), min_size=1, max_size=3)
    hidden = tuple(draw(widths)) if family == "nn" else ()
    return Architecture(family, draw(st.booleans()), p, hidden, p - 1, maskable)


def random_params(arch: Architecture, rng: np.random.Generator) -> ModelParams:
    params = init_params(arch, 0)
    return params.from_vector(rng.normal(size=params.to_vector().size))


@st.composite
def partitions(draw) -> Partition:
    """A random tree grown the way learn_partition grows one, held as its
    root fits and splits: split k picks a leaf with a free feature and budget
    room and one of its free features, and adds subset 2k - 1, which keeps
    that feature available, and 2k, which marks it missing. Each split trains
    the missing child's optimistic fit and, or not, the available child's
    adversarial one. Every model has one layout, of either family, adaptive
    or plain."""
    p, maskable, budget = draw(budgets())
    arch = draw(architectures(p, maskable))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fit(loss):
        return Fit(random_params(arch, rng), loss)

    part = Partition(budget, PartitionConfig(), fit(1.0), fit(2.0))
    for _ in range(draw(st.integers(0, 6))):
        splittable = [i for i in part.leaf_ids if part.subsets[i].free
                      and part.subsets[i].opt_pattern.popcount() < budget]
        if not splittable:
            break
        leaf = draw(st.sampled_from(splittable))
        j = draw(st.sampled_from(part.subsets[leaf].free))
        adv = fit(2.0) if draw(st.booleans()) else None
        part = replace(part, splits=(*part.splits, Split(leaf, j, fit(1.0), adv)))
    return part


def random_bits(arch: Architecture, n: int, seed: int, opt_patterns=()) -> np.ndarray:
    """n patterns valid for arch, budget not enforced; about a third of the
    rows copy one of opt_patterns, so exact optimistic matches occur."""
    rng = np.random.default_rng(seed)
    bits = np.zeros((n, arch.input_dim), dtype=np.uint8)
    cols = list(arch.maskable)
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
    bits = random_bits(part.opt.params.arch, n, seed, leaf_opt_patterns(part))
    leaves = locate_rows(part, bits)
    assert leaves.tolist() == [locate(part, MissingPattern(bits=row)) for row in bits]
    assert set(leaves.tolist()) <= set(part.leaf_ids)


@SETTINGS
@given(part=partitions(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_each_pattern_meets_the_constraints_of_exactly_the_leaf_it_reaches(part, n, seed):
    bits = random_bits(part.opt.params.arch, n, seed, leaf_opt_patterns(part))
    for row, leaf in zip(bits, locate_rows(part, bits).tolist()):
        hits = [sid for sid in part.leaf_ids
                if all(row[j] == bit for j, bit in part.fixed(sid).items())]
        assert hits == [leaf]


@SETTINGS
@given(part=partitions(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_batched_deployment_equals_row_by_row(part, n, seed):
    bits = random_bits(part.opt.params.arch, n, seed, leaf_opt_patterns(part))
    X = np.random.default_rng(seed).uniform(0.0, 1.0, (n, part.opt.params.arch.input_dim))
    X[:, -1] = 1.0
    batched = predict_deployed_rows(part, X, bits)
    single = [predict_deployed(part, X[i], bits[i]) for i in range(n)]
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)
    # a bit row and its MissingPattern deploy identically
    assert single == [predict_deployed(part, X[i], MissingPattern(bits=bits[i])) for i in range(n)]


@SETTINGS
@given(layout=budgets(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_fixed_rows_use_the_subset_route_fixed_picks(layout, n, seed):
    # Subset l predicts exactly l from the bias feature alone, so every
    # prediction names the subset its row was routed to.
    p, maskable, budget = layout
    arch = Architecture("lr", False, p, bias_index=p - 1, maskable=maskable)
    subsets = []
    for count in range(budget + 1):
        params = init_params(arch, 0)
        params.arrays["w"][:] = 0.0
        params.arrays["w"][-1] = float(count)
        subsets.append(Fit(params=params, loss=0.0))
    fixed = FixedPartition(subsets)
    bits = random_bits(arch, n, seed)
    X = np.ones((n, p))
    routed = predict_fixed_rows(fixed, X, bits)
    assert routed.tolist() == [route_fixed(fixed, MissingPattern(bits=row)) for row in bits]
