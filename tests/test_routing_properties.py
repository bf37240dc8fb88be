"""Property tests: batched routing over bit matrices agrees with the
single-pattern deployed predictor and with the routing references in
tests/conftest.py, which route from a partition's splits alone (never its
routing table), on random trees, layouts, budgets and patterns. And the
deployed predictor's plan cache: a cached plan forecasts what a fresh one
and the prediction kernel do, bit for bit, and still refuses what the gate
refuses."""
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast import partition as partition_module
from robustcast.exceptions import DomainError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, ModelParams, _predict_bits, init_params
from robustcast.partition import (
    FixedPartition,
    Fit,
    Partition,
    PartitionConfig,
    Split,
    locate_rows,
    param_sets,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
    truncate,
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
@given(part=partitions())
def test_every_subset_holds_fit_objects_the_partition_trained(part):
    # inheriting a fit shares the leaf's own object: the subsets hold exactly
    # the trained fits, whose sets are param_sets(part), and no copy
    trained = [part.opt, part.adv,
               *(f for s in part.splits for f in (s.opt, s.adv) if f is not None)]
    assert [id(f.params) for f in trained] == [id(p) for p in param_sets(part)]
    held = {id(f) for s in part.subsets for f in (s.opt, s.adv)}
    assert held == {id(f) for f in trained}


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


def pattern_forms(bits: np.ndarray) -> list:
    """One pattern as each input the deployed predictor takes."""
    return [MissingPattern(bits=bits.copy()), bits.copy(), bits.astype(bool),
            bits.astype(np.int64)]


def kernel_forecast(part: Partition, x: np.ndarray, bits: np.ndarray) -> float:
    """The prediction kernel on the parameters of the leaf the splits route
    bits to: its optimistic ones on an exact match, else its adversarial
    ones."""
    subset = part.subsets[locate(part, bits)]
    exact = np.array_equal(bits, subset.opt_pattern.bits)
    return float(_predict_bits((subset.opt if exact else subset.adv).params, x, bits))


def deploy_case(part: Partition, n: int, seed: int):
    arch = part.opt.params.arch
    bits = random_bits(arch, n, seed, leaf_opt_patterns(part))
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, arch.input_dim))
    return bits, X


@SETTINGS
@given(part=partitions(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_a_cached_plan_forecasts_what_a_fresh_one_and_the_kernel_do(part, n, seed):
    bits, X = deploy_case(part, n, seed)
    # cold: each row on a partition whose cache is empty
    cold = [predict_deployed(replace(part), X[i], bits[i]) for i in range(n)]
    assert cold == [kernel_forecast(part, X[i], bits[i]) for i in range(n)]
    for _ in range(2):  # the second pass finds every plan cached
        for i in range(n):
            assert [predict_deployed(part, X[i], b) for b in pattern_forms(bits[i])] == \
                [cold[i]] * 4
    assert len(part._plans) == len({row.tobytes() for row in bits})
    for plan in part._plans.values():
        assert not any(a.flags.writeable for a in (plan.keep, *(plan.shifts or ())))


@SETTINGS
@given(part=partitions(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_a_warm_cache_still_refuses_what_the_gate_refuses(part, n, seed):
    bits, X = deploy_case(part, n, seed)
    p = X.shape[1]
    for i in range(n):
        predict_deployed(part, X[i], bits[i])
    for row, x in zip(bits, X):
        two = row.copy()
        two[part.arch.maskable[0]] = 2
        outside = row.copy()
        outside[p - 1] = 1  # the bias feature is never maskable
        for bad in (two, outside, MissingPattern(bits=outside), row[:-1],
                    np.append(row, 0).astype(np.uint8), row[None], np.vstack([row, row])):
            with pytest.raises(DomainError):
                predict_deployed(part, x, bad)
        for bad_x in (x[:-1], x[None], np.append(x, 1.0), "x"):
            with pytest.raises(DomainError, match="one vector of"):
                predict_deployed(part, bad_x, row)
        # a missing slot is never read, with the plan cached or not
        lost = np.where(row == 1, np.nan, x)
        zeroed = np.where(row == 1, 0.0, x)
        want = predict_deployed(replace(part), zeroed, row)
        assert predict_deployed(part, lost, row) == want
        assert predict_deployed(replace(part), lost, row) == want


@SETTINGS
@given(part=partitions(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       cap=st.integers(1, 4))
def test_the_cache_keeps_at_most_its_cap_and_drops_the_oldest_plan(part, n, seed, cap):
    bits, X = deploy_case(part, n, seed)
    cold = [predict_deployed(replace(part), X[i], bits[i]) for i in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition_module, "PLAN_CACHE_ENTRIES", cap)
        order = []  # the distinct patterns, in the order the cache meets them
        for _ in range(2):
            for i in range(n):
                key = bits[i].tobytes()
                if key not in part._plans:
                    order.append(key)
                assert predict_deployed(part, X[i], bits[i]) == cold[i]
                assert len(part._plans) <= cap
                assert list(part._plans) == order[-cap:]


@SETTINGS
@given(part=partitions(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_a_cut_deploys_as_the_partition_grown_to_its_size(part, n, seed, data):
    bits, X = deploy_case(part, n, seed)
    for i in range(n):
        predict_deployed(part, X[i], bits[i])
    q = data.draw(st.integers(1, len(part.splits) + 1))
    cut = truncate(part, q)
    grown = Partition(part.budget, PartitionConfig(max_subsets=q), part.opt, part.adv,
                      part.splits[:q - 1])
    assert cut._plans == {}
    assert [predict_deployed(cut, X[i], bits[i]) for i in range(n)] == \
        [predict_deployed(grown, X[i], bits[i]) for i in range(n)]


@SETTINGS
@given(part=partitions(), n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_pickling_leaves_the_plan_cache_out(part, n, seed):
    bits, X = deploy_case(part, n, seed)
    cold = pickle.dumps(part)
    warm = [predict_deployed(part, X[i], bits[i]) for i in range(n)]
    assert pickle.dumps(part) == cold
    back = pickle.loads(cold)
    assert back._plans == {}
    assert [predict_deployed(back, X[i], bits[i]) for i in range(n)] == warm


def test_threads_sharing_a_partition_keep_its_cache_bounded(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows,
    # stream patterns through one partition whose cache holds two plans, so
    # nearly every call evicts one: no call may fail, forecast from a wrong
    # plan or find the cache over its cap
    arch = Architecture("lr", True, 6, (), 5, (0, 1, 2, 3, 4))
    rng = np.random.default_rng(5)

    def fit(loss):
        return Fit(random_params(arch, rng), loss)

    part = Partition(5, PartitionConfig(), fit(1.0), fit(2.0),
                     [Split(0, 0, fit(1.0), fit(2.0)), Split(1, 1, fit(1.0), None)])
    bits = random_bits(arch, 300, 9, leaf_opt_patterns(part))
    X = rng.uniform(-1.0, 1.0, (len(bits), arch.input_dim))
    want = [predict_deployed(replace(part), x, b) for x, b in zip(X, bits)]
    monkeypatch.setattr(partition_module, "PLAN_CACHE_ENTRIES", 2)
    failures = []

    def serve(start):
        try:
            for i in [*range(start, len(bits)), *range(start)] * 3:
                if predict_deployed(part, X[i], bits[i]) != want[i] or len(part._plans) > 2:
                    failures.append(i)
        except Exception as exc:  # a failed call is a finding, not a crash
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(k * 75,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(part._plans) <= 2
