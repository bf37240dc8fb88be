import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustcast.dataio import Dataset, split_sequential
from robustcast.exceptions import CapacityError, ConfigError, DomainError, ParseError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, init_params
from robustcast.partition import (
    Fit,
    FixedPartition,
    Partition,
    PartitionConfig,
    Split,
    UncertaintySet,
    bounds_table,
    enumerate_patterns,
    fixed_partition,
    fixed_to_json,
    learn_partition,
    load_artifact,
    locate,
    locate_rows,
    partition_from_json,
    partition_to_json,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
    rel_gap,
    route_fixed,
    save_artifact,
    truncate,
)
from robustcast.training import TrainConfig, train_nominal


def toy_dataset(n_features_signal, n=600, seed=0, noise=0.05, weights=None, corr=0.7):
    """Cross-correlated maskable features (they can substitute for each other,
    like adjacent plants) with decreasing signal weights, plus a bias."""
    rng = np.random.default_rng(seed)
    k = n_features_signal
    weights = np.asarray(weights if weights is not None else np.linspace(1.0, 0.4, k))
    common = rng.uniform(0, 1, n)
    latent = corr * common[:, None] + (1 - corr) * rng.uniform(0, 1, (n, k))
    X = np.column_stack([latent, np.ones(n)])
    y = latent @ weights + noise * rng.normal(size=n)
    return Dataset(X=X, y=y, bias_index=k, maskable=tuple(range(k)),
                   horizon=1, max_lag=0, obs_periods=np.arange(n))


def quick_cfg(seed=0, iters=2000, lr=3e-2, patience=60):
    # near-full-batch and a generous budget: under-converged fits distort the
    # subset bounds and can stall or misdirect the splitting loop
    return TrainConfig(learning_rate=lr, max_iters=iters, patience=patience,
                       batch_size=512, seed=seed)


class TestEnumeratePatterns:
    def test_full_budget_three_features(self):
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        assert len(enumerate_patterns(uset)) == 8

    def test_zero_budget(self):
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=0)
        patterns = enumerate_patterns(uset)
        assert len(patterns) == 1
        assert patterns[0].popcount() == 0

    def test_binomial_sum(self):
        uset = UncertaintySet(n_features=5, maskable=(0, 1, 2, 3), budget=2)
        assert len(enumerate_patterns(uset)) == 1 + 4 + 6

    def test_lexicographic_order(self):
        uset = UncertaintySet(n_features=2, maskable=(0, 1), budget=2)
        bits = [tuple(p.bits) for p in enumerate_patterns(uset)]
        assert bits == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_capacity_guard(self):
        uset = UncertaintySet(n_features=25, maskable=tuple(range(21)), budget=2)
        with pytest.raises(CapacityError):
            enumerate_patterns(uset)


def manual_partition(n_features=3):
    """The worked routing example: root splits on feature 0, the missing
    branch splits on feature 1, leaving leaves U1, U3, U4."""
    maskable = (0, 1, 2)
    uset = UncertaintySet(n_features=n_features, maskable=maskable, budget=3)
    arch = Architecture(input_dim=n_features)
    params = init_params(arch, "lr", False, seed=0, maskable=maskable)
    opt, adv = Fit(params, 0.1), Fit(params, 0.2)
    return Partition(uncertainty=uset, config=PartitionConfig(max_subsets=3, epsilon=0.0),
                     opt=opt, adv=adv, splits=[Split(0, 0, opt, adv), Split(2, 1, opt, adv)])


class TestLocate:
    def test_worked_routing_example(self):
        part = manual_partition()
        assert locate(part, MissingPattern(bits=np.array([1, 0, 1]))) == 3
        assert locate(part, MissingPattern(bits=np.array([1, 1, 0]))) == 4
        assert locate(part, MissingPattern(bits=np.array([0, 1, 1]))) == 1

    def test_zero_pattern_goes_to_all_available_path(self):
        part = manual_partition()
        assert locate(part, MissingPattern.zeros(3)) == 1

    def test_every_admissible_pattern_routes_to_exactly_one_leaf(self):
        part = manual_partition()
        for pattern in enumerate_patterns(part.uncertainty):
            hits = []
            for sid in part.leaf_ids:
                if all(pattern.bits[j] == bit for j, bit in part.fixed(sid).items()):
                    hits.append(sid)
            assert hits == [locate(part, pattern)]


class TestRelGap:
    def test_plain_ratio(self):
        assert rel_gap(0.1, 0.3) == pytest.approx(2.0)

    def test_zero_lower_bound_guard(self):
        assert rel_gap(0.0, 1.0) == pytest.approx(1e12)


class TestLearnPartition:
    def test_single_subset_is_plain_robust_model(self):
        ds = toy_dataset(3, seed=1)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=1, epsilon=0.0),
                               quick_cfg(seed=2), Architecture(input_dim=4, bias_index=3),
                               "lr", False)
        assert part.leaf_ids == [0]
        assert part.subsets[0].free == (0, 1, 2)
        assert part.splits == ()
        assert part.fixed(0) == {}

    def test_retraining_recovery_with_full_enumeration(self):
        # Budget 3 over 3 features, enough subsets, epsilon 0: the tree must
        # exhaust into 8 singleton leaves whose optimistic patterns are
        # exactly the 8 admissible patterns.
        ds = toy_dataset(3, seed=3, noise=0.05)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=8, epsilon=0.0),
                               quick_cfg(seed=4),
                               Architecture(input_dim=4, bias_index=3), "lr", False)
        assert len(part.leaf_ids) == 8
        leaves = part.leaves()
        assert all(leaf.free == () for leaf in leaves)
        opt_keys = {leaf.opt_pattern.key() for leaf in leaves}
        expected = {pat.key() for pat in enumerate_patterns(uset)}
        assert opt_keys == expected

    def test_child_bookkeeping_after_split(self):
        ds = toy_dataset(3, seed=5)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=2, epsilon=0.0),
                               quick_cfg(seed=6), Architecture(input_dim=4, bias_index=3),
                               "lr", False)
        root = part.subsets[0]
        assert part.splits[0].leaf == 0
        j_star = part.splits[0].feature
        avail, miss = part.subsets[1], part.subsets[2]
        assert part.fixed(1) == {j_star: 0}
        assert part.fixed(2) == {j_star: 1}
        assert avail.opt_pattern.bits[j_star] == 0
        assert miss.opt_pattern.bits[j_star] == 1
        np.testing.assert_array_equal(avail.opt_pattern.bits, root.opt_pattern.bits)
        assert j_star not in avail.free and j_star not in miss.free

    def test_bound_inheritance_equalities(self):
        ds = toy_dataset(4, seed=7)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=5, maskable=(0, 1, 2, 3), budget=4)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=5, epsilon=0.0),
                               quick_cfg(seed=8), Architecture(input_dim=5, bias_index=4),
                               "lr", False)
        assert part.splits
        for k, split in enumerate(part.splits, 1):
            parent, avail, miss = (part.subsets[i] for i in (split.leaf, 2 * k - 1, 2 * k))
            # the available child keeps its parent's LB, the missing child its UB
            assert avail.lower_bound == parent.lower_bound
            assert avail.params_opt is parent.params_opt
            assert miss.upper_bound == parent.upper_bound
            if split.adv is None:
                assert avail.upper_bound == parent.upper_bound

    def test_leaf_count_bounded_and_epsilon_stop(self):
        ds = toy_dataset(3, seed=9)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        huge_eps = 1e6
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=6, epsilon=huge_eps),
                               quick_cfg(seed=10), Architecture(input_dim=4, bias_index=3),
                               "lr", False)
        assert part.leaf_ids == [0]  # epsilon satisfied immediately
        part2 = learn_partition(train, val, uset, PartitionConfig(max_subsets=3, epsilon=0.0),
                                quick_cfg(seed=10), Architecture(input_dim=4, bias_index=3),
                                "lr", False)
        assert len(part2.leaf_ids) <= 3

    def test_exhaustive_routing_six_features(self):
        ds = toy_dataset(6, seed=11, n=500)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=7, maskable=tuple(range(6)), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=5, epsilon=0.0),
                               quick_cfg(seed=12),
                               Architecture(input_dim=7, bias_index=6), "lr", False)
        patterns = enumerate_patterns(uset)
        assert len(patterns) == 42
        leaf_set = set(part.leaf_ids)
        for pattern in patterns:
            assert locate(part, pattern) in leaf_set

    def test_singleton_leaves_have_tiny_relgap(self):
        # Scoped to singletons whose adversarial side was actually trained
        # (available children): there the trainer has no freedom, so the two
        # bounds must agree to training noise. Missing-child singletons keep
        # the inherited upper bound, which reflects the parent's wider set.
        ds = toy_dataset(3, seed=13, noise=0.3)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=8, epsilon=0.0),
                               quick_cfg(seed=14, iters=4000, lr=1e-2, patience=100),
                               Architecture(input_dim=4, bias_index=3), "lr", False)
        checked = 0
        for k, split in enumerate(part.splits, 1):
            leaf = part.subsets[2 * k - 1]
            if 2 * k - 1 in part.leaf_ids and leaf.free == () and split.adv is not None:
                assert abs(leaf.relgap) <= 0.01
                checked += 1
        assert checked >= 1


class TestPredictDeployed:
    def test_optimistic_params_used_on_exact_match(self):
        part = manual_partition()
        # give leaf 1 distinguishable parameter sets: the root's optimistic
        # one and the first split's adversarial one
        opt = part.opt.params.copy()
        opt.arrays["w"] = np.array([1.0, 1.0, 1.0])
        adv = part.opt.params.copy()
        adv.arrays["w"] = np.array([-1.0, -1.0, -1.0])
        first = replace(part.splits[0], adv=Fit(adv, 0.2))
        part = replace(part, opt=Fit(opt, 0.1), splits=[first, part.splits[1]])
        assert part.subsets[1].params_opt is opt and part.subsets[1].params_adv is adv
        x = np.array([1.0, 1.0, 1.0])
        zero = MissingPattern.zeros(3)
        assert predict_deployed(part, x, zero) == pytest.approx(3.0)
        off_opt = MissingPattern(bits=np.array([0, 1, 0]))
        assert predict_deployed(part, x, off_opt) == pytest.approx(-2.0)

    def test_budget_violating_pattern_still_routes(self):
        part = manual_partition()
        heavy = MissingPattern(bits=np.array([1, 1, 1]))
        assert locate(part, heavy) == 4

    def test_rows_match_single(self):
        part = manual_partition()
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (6, 3))
        patterns = (rng.random((6, 3)) < 0.5).astype(np.uint8)
        batched = predict_deployed_rows(part, X, patterns)
        for i in range(6):
            assert batched[i] == pytest.approx(predict_deployed(part, X[i], patterns[i]))
        with pytest.raises(DomainError):
            predict_deployed_rows(part, X, patterns[:, :2])

    def test_raw_bits_outside_zero_one_rejected(self):
        part = manual_partition()
        x = np.array([1.0, 1.0, 1.0])
        bad = np.array([0, 2, 0])
        with pytest.raises(DomainError):
            predict_deployed(part, x, bad)
        with pytest.raises(DomainError):
            locate(part, bad)
        with pytest.raises(DomainError):
            predict_deployed_rows(part, x[None, :], bad[None, :])


class TestFixedPartition:
    def test_subset_count_is_budget_plus_one(self):
        ds = toy_dataset(3, seed=15)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        fixed = fixed_partition(train, val, uset, quick_cfg(seed=16, iters=200, patience=25),
                                Architecture(input_dim=4, bias_index=3), "lr", False)
        assert len(fixed.subsets) == 4
        assert [s["count"] for s in fixed_to_json(fixed)["subsets"]] == [0, 1, 2, 3]

    def test_routing_by_missing_count(self):
        ds = toy_dataset(3, seed=17)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=2)
        fixed = fixed_partition(train, val, uset, quick_cfg(seed=18, iters=150, patience=25),
                                Architecture(input_dim=4, bias_index=3), "lr", False)
        assert route_fixed(fixed, MissingPattern.zeros(4)) == 0
        assert route_fixed(fixed, MissingPattern.from_missing(4, [0, 2])) == 2
        # deployment pattern beyond the training budget clamps to the last subset
        assert route_fixed(fixed, MissingPattern.from_missing(4, [0, 1, 2])) == 2

    def test_zero_budget_is_nominal_training(self):
        ds = toy_dataset(2, seed=19)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=3, maskable=(0, 1), budget=0)
        cfg = quick_cfg(seed=20, iters=150, patience=25)
        fixed = fixed_partition(train, val, uset, cfg, Architecture(input_dim=3, bias_index=2),
                                "lr", False)
        assert len(fixed.subsets) == 1
        from robustcast._util import derive_seed
        nominal = train_nominal(train, val, MissingPattern.zeros(3),
                                replace(cfg, seed=derive_seed(cfg.seed, "fixed", 0)),
                                Architecture(input_dim=3, bias_index=2), "lr", False)
        np.testing.assert_array_equal(fixed.subsets[0].params.arrays["w"],
                                      nominal.params.arrays["w"])


class TestTruncate:
    """A partition cut to q subsets from a longer growth must be the one
    learn_partition grows with max_subsets=q, byte for byte."""

    Q_MAX = 5

    # `early` is an epsilon that stops growth at 4 leaves: lr splits the
    # leaves with gaps 16, 36 and 7.6 and stops at 1.4, nn splits 12, 17 and
    # 3.1 and stops at 2.3
    @pytest.mark.parametrize("family, hidden, iters, early", [
        pytest.param("lr", (), 100, 3.0, id="lr"),
        pytest.param("nn", (6, 6), 50, 2.8, id="nn6x6"),
    ])
    # budget 1 runs out of splittable leaves at 3 leaves
    @pytest.mark.parametrize("budget, stop_early, full", [
        pytest.param(3, False, True, id="epsilon0"),
        pytest.param(3, True, False, id="early-epsilon"),
        pytest.param(1, False, False, id="budget1"),
    ])
    def test_cut_is_the_direct_growth(self, family, hidden, iters, early, budget, stop_early,
                                      full):
        ds = toy_dataset(3, seed=21, n=300)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=budget)
        arch = Architecture(input_dim=4, hidden=hidden, bias_index=3)
        epsilon = early if stop_early else 0.0

        def learn(q):
            return learn_partition(train, val, uset, PartitionConfig(q, epsilon),
                                   quick_cfg(seed=3, iters=iters), arch, family, True)

        grown = learn(self.Q_MAX)
        assert (len(grown.leaf_ids) == self.Q_MAX) == full
        grown_json = json.dumps(partition_to_json(grown))
        assert truncate(grown, self.Q_MAX) is grown
        patterns = np.array([pat.bits for pat in enumerate_patterns(uset)])
        for q in range(1, self.Q_MAX + 2):
            if q > self.Q_MAX and full:
                with pytest.raises(ConfigError):
                    truncate(grown, q)
                continue
            cut, direct = truncate(grown, q), learn(q)
            assert json.dumps(partition_to_json(cut)) == json.dumps(partition_to_json(direct))
            np.testing.assert_array_equal(locate_rows(cut, patterns),
                                          locate_rows(direct, patterns))
        assert json.dumps(partition_to_json(grown)) == grown_json
        with pytest.raises(ConfigError):
            truncate(grown, 0)


class TestSerialization:
    def test_learned_partition_roundtrip(self, tmp_path):
        ds = toy_dataset(3, seed=21)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=4, maskable=(0, 1, 2), budget=3)
        part = learn_partition(train, val, uset, PartitionConfig(max_subsets=3, epsilon=0.0),
                               quick_cfg(seed=22, iters=150, patience=25),
                               Architecture(input_dim=4, bias_index=3), "lr", True)
        path = tmp_path / "partition.json"
        save_artifact(part, path)
        back = load_artifact(path)
        assert isinstance(back, Partition)
        assert back.leaf_ids == part.leaf_ids
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0, 1, 4)
            pat = MissingPattern(bits=np.append((rng.random(3) < 0.5).astype(np.uint8), 0))
            assert predict_deployed(back, x, pat) == pytest.approx(predict_deployed(part, x, pat))
        # byte-identical re-serialization
        a = json.dumps(partition_to_json(part))
        b = json.dumps(partition_to_json(partition_from_json(json.loads(a))))
        assert a == b

    def test_fixed_partition_roundtrip(self, tmp_path):
        ds = toy_dataset(2, seed=23)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        uset = UncertaintySet(n_features=3, maskable=(0, 1), budget=2)
        fixed = fixed_partition(train, val, uset, quick_cfg(seed=24, iters=150, patience=25),
                                Architecture(input_dim=3, bias_index=2), "lr", False)
        path = tmp_path / "fixed.json"
        save_artifact(fixed, path)
        back = load_artifact(path)
        assert isinstance(back, FixedPartition)
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (5, 3))
        patterns = np.tile(MissingPattern.from_missing(3, [0]).bits, (5, 1))
        np.testing.assert_allclose(predict_fixed_rows(back, X, patterns),
                                   predict_fixed_rows(fixed, X, patterns))
        with pytest.raises(DomainError):
            predict_fixed_rows(fixed, X, patterns[0])

    def test_bounds_table_shape(self):
        part = manual_partition()
        table = bounds_table(part)
        lines = table.strip().split("\n")
        assert lines[0] == "subset,split_feature,UB,LB,relgap_pct"
        assert len(lines) == 6  # header + 5 subsets


class TestValidation:
    def test_uncertainty_set_budget_range(self):
        with pytest.raises(DomainError):
            UncertaintySet(n_features=4, maskable=(0, 1), budget=3)

    def test_partition_config(self):
        with pytest.raises(ConfigError):
            PartitionConfig(max_subsets=0)
        with pytest.raises(ConfigError):
            PartitionConfig(epsilon=-1.0)

    def test_uncertainty_set_maskable_range(self):
        for maskable in [(5,), (-1, 0), (0, 4)]:
            with pytest.raises(DomainError, match="out of range"):
                UncertaintySet(n_features=4, maskable=maskable, budget=1)

    def test_uncertainty_set_repeated_maskable_index(self):
        # (0, 0) would enumerate every pattern over feature 0 twice
        with pytest.raises(DomainError, match="repeat"):
            UncertaintySet(n_features=3, maskable=(0, 0), budget=2)


def _swap(subsets, a, b):
    subsets[a], subsets[b] = subsets[b], subsets[a]


class TestSubsetsFormTheTree:
    """A Partition is its root fits and its splits: construction derives the
    subsets and the routing table, and refuses a split that does not grow
    the tree; a file whose subsets form no tree of splits does not load."""

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda subsets: subsets.pop("4"), id="missing-id"),
        pytest.param(lambda subsets: subsets.pop("0"), id="no-root"),
        pytest.param(lambda subsets: subsets["4"].update(parent_id=1), id="split-siblings"),
        pytest.param(lambda subsets: subsets["3"].update(parent_id=4), id="later-parent"),
        pytest.param(lambda subsets: subsets["1"].update(parent_id=None), id="orphan"),
        pytest.param(lambda subsets: subsets["2"].update(split_feature=None), id="unsplit"),
        pytest.param(lambda subsets: subsets["1"].update(split_feature=2), id="split-leaf"),
        pytest.param(lambda subsets: subsets["2"].update(split_feature=0), id="fixed-split"),
        pytest.param(lambda subsets: _swap(subsets, "3", "4"), id="wrong-id"),
        pytest.param(lambda subsets: subsets.update({"5": dict(subsets["3"]),
                                                     "6": dict(subsets["4"])}),
                     id="split-twice"),
    ])
    def test_subsets_that_form_no_tree_are_rejected(self, edit):
        obj = partition_to_json(manual_partition())
        partition_from_json(json.loads(json.dumps(obj)))
        edit(obj["subsets"])
        with pytest.raises(DomainError):
            partition_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("splits, budget", [
        pytest.param([(0, 0), (3, 1)], 3, id="later-leaf"),
        pytest.param([(-1, 0)], 3, id="negative-leaf"),
        pytest.param([(0, 0), (0, 1)], 3, id="leaf-already-split"),
        pytest.param([(0, 0), (2, 0)], 3, id="fixed-feature"),
        pytest.param([(0, 5)], 3, id="unknown-feature"),
        pytest.param([(0, 0), (2, 1)], 1, id="no-budget-room"),
    ])
    def test_a_split_that_does_not_grow_the_tree_is_rejected(self, splits, budget):
        part = manual_partition()
        uset = replace(part.uncertainty, budget=budget)
        replace(part, uncertainty=uset, splits=[Split(0, 0, part.opt, None)])
        with pytest.raises(DomainError):
            replace(part, uncertainty=uset,
                    splits=[Split(leaf, j, part.opt, part.adv) for leaf, j in splits])

    def test_routing_table_leaves_and_constraints(self):
        part = manual_partition()
        assert part.leaf_ids == [1, 3, 4]
        assert [part.fixed(sid) for sid in range(5)] == [
            {}, {0: 0}, {0: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}]
        tree = partition_to_json(part)["tree"]
        assert tree == {"subset": 0, "feature": 0, "available": {"subset": 1},
                        "missing": {"subset": 2, "feature": 1, "available": {"subset": 3},
                                    "missing": {"subset": 4}}}

    def test_cut_clears_the_split_of_a_leaf_it_restores(self):
        part = manual_partition()
        cut = truncate(part, 2)
        assert cut.leaf_ids == [1, 2]
        assert len(cut.splits) == 1 and cut.splits[0] is part.splits[0]
        stored = partition_to_json(cut)["subsets"].values()
        assert [s["split_feature"] for s in stored] == [0, None, None]
        assert [split.feature for split in part.splits] == [0, 1]


GOLDEN = Path(__file__).parent / "data" / "learned_lr_q5.json"
# The leaf of every admissible pattern, keyed by the bits of the maskable
# features 0-2 (the bias, feature 3, is never missing), recorded when the
# artifact was written.
GOLDEN_ROUTES = {(0, 0, 0): 3, (0, 0, 1): 3, (0, 1, 0): 5, (0, 1, 1): 5,
                 (1, 0, 0): 4, (1, 0, 1): 4, (1, 1, 0): 7, (1, 1, 1): 8}


def _scaled_bound(sid: str, key: str, factor: float):
    """An edit scaling one stored bound, with a relgap that still agrees."""
    def edit(obj):
        subset = obj["subsets"][sid]
        subset[key] *= factor
        subset["relgap"] = rel_gap(subset["LB"], subset["UB"])
    return edit


def _swap_root_children(obj):
    tree = obj["tree"]
    tree["available"], tree["missing"] = tree["missing"], tree["available"]


class TestGoldenArtifact:
    """A learned lr artifact (3 maskable features, budget 3, q = 5), written
    by learn_partition and save_artifact when a partition still stored its
    tree, leaf list, equality constraints and every subset's inherited values
    next to its own. All of these are now derived from the root fits and the
    splits; the file must load, route and save as it did, and a copy whose
    stored values they contradict must not load. The file was first written
    in format 1 (learned_lr_q5_v1.json, arrays as number lists) and converted
    to the parameter table of format 2 by loading it with the format-1
    reader and saving it again; test_artifacts.py checks that every array
    survived bit for bit."""

    def test_load_then_save_reproduces_the_bytes(self, tmp_path):
        save_artifact(load_artifact(GOLDEN), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == GOLDEN.read_bytes()

    def test_every_admissible_pattern_reaches_its_recorded_leaf(self):
        part = load_artifact(GOLDEN)
        assert part.leaf_ids == [3, 4, 5, 7, 8]
        patterns = enumerate_patterns(part.uncertainty)
        expected = [GOLDEN_ROUTES[tuple(pat.bits[:3].tolist())] for pat in patterns]
        assert len(expected) == 8
        assert [locate(part, pat) for pat in patterns] == expected
        assert locate_rows(part, np.array([pat.bits for pat in patterns])).tolist() == expected

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj["tree"].update(feature=0), id="tree-feature"),
        pytest.param(lambda obj: obj["tree"]["missing"]["missing"].update(feature=1),
                     id="tree-deep-feature"),
        pytest.param(_swap_root_children, id="tree-children"),
        pytest.param(lambda obj: obj["tree"]["available"].pop("feature"), id="tree-shape"),
        pytest.param(lambda obj: obj.update(leaf_ids=[3, 4, 5, 8, 7]), id="leaf-order"),
        pytest.param(lambda obj: obj.update(leaf_ids=[3, 4, 5, 7]), id="leaf-missing"),
        pytest.param(lambda obj: obj["subsets"]["4"]["fixed"].update({"0": 0}), id="fixed-bit"),
        pytest.param(lambda obj: obj["subsets"]["8"]["fixed"].pop("2"), id="fixed-key"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(split_feature=0), id="split-feature"),
        pytest.param(lambda obj: obj["subsets"]["7"].update(parent_id=5), id="parent-id"),
    ])
    def test_a_stored_value_the_subsets_contradict_is_rejected(self, tmp_path, edit):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="edited.json"):
            load_artifact(path)

    # subset 3 is split 2's available child, 4 its missing child; both kept
    # what split 2 inherits from subset 1 (LB 0.00593 and table entry 0 for
    # 3, UB 0.0346 and table entry 2 for 4)
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj["subsets"]["0"].update(lb_inherited=True),
                     id="root-lb-inherited"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(ub_inherited=True),
                     id="root-ub-inherited"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(lb_inherited=False),
                     id="available-lb-not-inherited"),
        pytest.param(lambda obj: obj["subsets"]["4"].update(lb_inherited=True),
                     id="missing-lb-inherited"),
        pytest.param(lambda obj: obj["subsets"]["4"].update(ub_inherited=False),
                     id="missing-ub-not-inherited"),
        pytest.param(_scaled_bound("3", "LB", 0.5), id="available-inherited-LB-halved"),
        pytest.param(_scaled_bound("4", "UB", 2.0), id="missing-inherited-UB-doubled"),
        pytest.param(lambda obj: obj["subsets"]["4"].update(params_adv=1),
                     id="missing-inherited-params-adv-elsewhere"),
    ])
    def test_an_inherited_copy_that_disagrees_is_rejected(self, tmp_path, edit):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "inherited.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="inherited.json"):
            load_artifact(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda text: text[:100], id="cut-to-100-bytes"),
        pytest.param(lambda text: text.replace('"LB"', '"lb"', 1), id="missing-key"),
        pytest.param(lambda text: "[]", id="not-an-object"),
    ])
    def test_a_corrupt_file_is_a_parse_error_naming_it(self, tmp_path, edit):
        path = tmp_path / "corrupt.json"
        path.write_text(edit(GOLDEN.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(ParseError, match="corrupt.json"):
            load_artifact(path)
