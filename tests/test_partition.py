import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from robustcast.dataio import Dataset, split_sequential
from robustcast.exceptions import ConfigError, DomainError, ParseError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, init_params, params_to_json, predict
from robustcast.partition import (
    Fit,
    FixedPartition,
    Partition,
    PartitionConfig,
    Split,
    bounds_table,
    fixed_partition,
    learn_partition,
    load_artifact,
    locate_rows,
    partition_from_json,
    partition_to_json,
    predict_deployed,
    predict_deployed_rows,
    predict_fixed_rows,
    rel_gap,
    save_artifact,
    truncate,
)
from robustcast.training import TrainConfig, train_nominal
from tests.conftest import enumerate_patterns, locate, route_fixed


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


def toy_arch(n_features_signal, adaptive=False):
    """The linear model layout of toy_dataset(n_features_signal)."""
    k = n_features_signal
    return Architecture("lr", adaptive, k + 1, bias_index=k, maskable=tuple(range(k)))


def quick_cfg(seed=0, iters=2000, lr=3e-2, patience=60):
    # near-full-batch and a generous budget: under-converged fits distort the
    # subset bounds and can stall or misdirect the splitting loop
    return TrainConfig(learning_rate=lr, max_iters=iters, patience=patience,
                       batch_size=512, seed=seed)


class TestEnumeratePatterns:
    """The test reference for the admissible patterns of a set."""

    def test_full_budget_three_features(self):
        assert len(enumerate_patterns(toy_arch(3), 3)) == 8

    def test_zero_budget(self):
        patterns = enumerate_patterns(toy_arch(3), 0)
        assert len(patterns) == 1
        assert patterns[0].sum() == 0

    def test_binomial_sum(self):
        assert len(enumerate_patterns(toy_arch(4), 2)) == 1 + 4 + 6

    def test_lexicographic_order(self):
        arch = Architecture("lr", False, 2, maskable=(0, 1))
        bits = [tuple(row) for row in enumerate_patterns(arch, 2)]
        assert bits == [(0, 0), (0, 1), (1, 0), (1, 1)]


def manual_partition(n_features=3):
    """The worked routing example: root splits on feature 0, the missing
    branch splits on feature 1, leaving leaves U1, U3, U4."""
    maskable = (0, 1, 2)
    params = init_params(Architecture("lr", False, n_features, maskable=maskable), seed=0)
    opt, adv = Fit(params, 0.1), Fit(params, 0.2)
    return Partition(budget=3, config=PartitionConfig(max_subsets=3, epsilon=0.0),
                     opt=opt, adv=adv, splits=[Split(0, 0, opt, adv), Split(2, 1, opt, adv)])


class TestLocate:
    """locate_rows, and the splits-only reference `locate`, on the worked
    example."""

    def test_worked_routing_example(self):
        part = manual_partition()
        rows = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        assert locate_rows(part, rows).tolist() == [3, 4, 1]
        assert [locate(part, MissingPattern(bits=row)) for row in rows] == [3, 4, 1]

    def test_zero_pattern_goes_to_all_available_path(self):
        part = manual_partition()
        assert locate_rows(part, np.zeros((1, 3), dtype=np.uint8)).tolist() == [1]
        assert locate(part, MissingPattern.zeros(3)) == 1

    def test_every_admissible_pattern_routes_to_exactly_one_leaf(self):
        part = manual_partition()
        patterns = enumerate_patterns(part.opt.params.arch, part.budget)
        for pattern, leaf in zip(patterns, locate_rows(part, patterns).tolist()):
            hits = []
            for sid in part.leaf_ids:
                if all(pattern[j] == bit for j, bit in part.fixed(sid).items()):
                    hits.append(sid)
            assert hits == [leaf] == [locate(part, pattern)]


class TestRelGap:
    def test_plain_ratio(self):
        assert rel_gap(0.1, 0.3) == pytest.approx(2.0)

    def test_zero_lower_bound_guard(self):
        assert rel_gap(0.0, 1.0) == pytest.approx(1e12)


class TestLearnPartition:
    def test_single_subset_is_plain_robust_model(self):
        ds = toy_dataset(3, seed=1)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=1, epsilon=0.0),
                               quick_cfg(seed=2), toy_arch(3))
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
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=8, epsilon=0.0),
                               quick_cfg(seed=4), toy_arch(3))
        assert len(part.leaf_ids) == 8
        leaves = [part.subsets[i] for i in part.leaf_ids]
        assert all(leaf.free == () for leaf in leaves)
        opt_keys = {leaf.opt_pattern.key() for leaf in leaves}
        expected = {row.tobytes() for row in enumerate_patterns(toy_arch(3), budget)}
        assert opt_keys == expected

    def test_child_bookkeeping_after_split(self):
        ds = toy_dataset(3, seed=5)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=2, epsilon=0.0),
                               quick_cfg(seed=6), toy_arch(3))
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
        budget = 4
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=5, epsilon=0.0),
                               quick_cfg(seed=8), toy_arch(4))
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
        budget = 3
        huge_eps = 1e6
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=6, epsilon=huge_eps),
                               quick_cfg(seed=10), toy_arch(3))
        assert part.leaf_ids == [0]  # epsilon satisfied immediately
        part2 = learn_partition(train, val, budget, PartitionConfig(max_subsets=3, epsilon=0.0),
                                quick_cfg(seed=10), toy_arch(3))
        assert len(part2.leaf_ids) <= 3

    def test_exhaustive_routing_six_features(self):
        ds = toy_dataset(6, seed=11, n=500)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=5, epsilon=0.0),
                               quick_cfg(seed=12), toy_arch(6))
        patterns = enumerate_patterns(toy_arch(6), budget)
        assert len(patterns) == 42
        assert set(locate_rows(part, patterns).tolist()) <= set(part.leaf_ids)

    def test_singleton_leaves_have_tiny_relgap(self):
        # Scoped to singletons whose adversarial side was actually trained
        # (available children): there the trainer has no freedom, so the two
        # bounds must agree to training noise. Missing-child singletons keep
        # the inherited upper bound, which reflects the parent's wider set.
        ds = toy_dataset(3, seed=13, noise=0.3)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=8, epsilon=0.0),
                               quick_cfg(seed=14, iters=4000, lr=1e-2, patience=100),
                               toy_arch(3))
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
        opt = replace(part.opt.params, arrays={"w": np.array([1.0, 1.0, 1.0])})
        adv = replace(part.opt.params, arrays={"w": np.array([-1.0, -1.0, -1.0])})
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
        assert locate_rows(part, heavy.bits[None]).tolist() == [4] == [locate(part, heavy)]

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
        # one pattern per row of X, no more and no fewer
        for rows in (X[:5], np.vstack([X, X[:1]])):
            with pytest.raises(DomainError, match="patterns for"):
                predict_deployed_rows(part, rows, patterns)

    def test_raw_bits_outside_zero_one_rejected(self):
        part = manual_partition()
        x = np.array([1.0, 1.0, 1.0])
        bad = np.array([0, 2, 0])
        with pytest.raises(DomainError):
            predict_deployed(part, x, bad)
        with pytest.raises(DomainError):
            predict_deployed_rows(part, x[None, :], bad[None, :])

    @pytest.mark.parametrize("row", [[1.0, 1.0], [1.0] * 4, [[1.0] * 3], [[1.0] * 3] * 2, 1.0,
                                     ["a", "b", "c"], [[1.0], 1.0, 1.0]])
    def test_malformed_row_rejected(self, row):
        # one vector of n_features numbers only: not another width, a (1, p)
        # or (2, p) batch, a scalar, text or a ragged list
        with pytest.raises(DomainError, match="one vector of 3 numbers"):
            predict_deployed(manual_partition(), row, MissingPattern.zeros(3))

    @pytest.mark.parametrize("family, adaptive",
                             [("lr", False), ("lr", True), ("nn", False), ("nn", True)])
    def test_nan_in_a_masked_slot_forecasts_as_zero(self, family, adaptive):
        # a lost measurement may stay NaN: the slots its pattern marks
        # missing are never read, in one row or in a batch
        arch = Architecture(family, adaptive, 4, (5, 3) if family == "nn" else (), 3, (0, 1, 2))
        rng = np.random.default_rng(7)

        def fit(loss):
            params = init_params(arch, 0)
            return Fit(params.from_vector(rng.normal(size=params.to_vector().size)), loss)

        part = Partition(3, PartitionConfig(max_subsets=3), fit(0.1), fit(0.2),
                         [Split(0, 0, fit(0.1), fit(0.2)), Split(2, 1, fit(0.1), None)])
        patterns = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0], [1, 1, 0, 0],
                             [1, 1, 1, 0], [0, 0, 1, 0]], dtype=np.uint8)
        X = rng.uniform(-1.0, 1.0, (len(patterns), 4))
        X[:, 3] = 1.0
        zeroed, lost = np.where(patterns, 0.0, X), np.where(patterns, np.nan, X)
        want = predict_deployed_rows(part, zeroed, patterns)
        assert np.isfinite(want).all()
        assert predict_deployed_rows(part, lost, patterns).tolist() == want.tolist()
        for i, bits in enumerate(patterns):
            assert predict_deployed(part, lost[i], bits) == predict_deployed(part, zeroed[i], bits)


class TestFixedPartition:
    def test_subset_count_is_budget_plus_one(self):
        ds = toy_dataset(3, seed=15)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        fixed = fixed_partition(train, val, budget, quick_cfg(seed=16, iters=200, patience=25),
                                toy_arch(3))
        assert len(fixed.subsets) == 4

    def test_routing_by_missing_count(self):
        ds = toy_dataset(3, seed=17)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 2
        fixed = fixed_partition(train, val, budget, quick_cfg(seed=18, iters=150, patience=25),
                                toy_arch(3))
        # the last pattern exceeds the training budget: it clamps to the last subset
        patterns = np.array([MissingPattern.from_missing(4, missing).bits
                             for missing in ([], [0, 2], [0, 1, 2])])
        assert [route_fixed(fixed, row) for row in patterns] == [0, 2, 2]
        X = val.X[:3]
        preds = predict_fixed_rows(fixed, X, patterns)
        for i, count in enumerate([0, 2, 2]):
            want = predict(fixed.subsets[count].params, X[i:i + 1], patterns[i])[0]
            assert preds[i] == pytest.approx(want, rel=1e-12)

    def test_zero_budget_is_nominal_training(self):
        ds = toy_dataset(2, seed=19)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 0
        cfg = quick_cfg(seed=20, iters=150, patience=25)
        fixed = fixed_partition(train, val, budget, cfg, toy_arch(2))
        assert len(fixed.subsets) == 1
        from robustcast._util import derive_seed
        nominal = train_nominal(train, val, MissingPattern.zeros(3),
                                replace(cfg, seed=derive_seed(cfg.seed, "fixed", 0)),
                                toy_arch(2))
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
        arch = Architecture(family, True, 4, hidden, bias_index=3, maskable=(0, 1, 2))
        epsilon = early if stop_early else 0.0

        def learn(q):
            return learn_partition(train, val, budget, PartitionConfig(q, epsilon),
                                   quick_cfg(seed=3, iters=iters), arch)

        grown = learn(self.Q_MAX)
        assert (len(grown.leaf_ids) == self.Q_MAX) == full
        grown_json = json.dumps(partition_to_json(grown))
        assert truncate(grown, self.Q_MAX) is grown
        patterns = enumerate_patterns(arch, budget)
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


def same_params(a, b) -> bool:
    """Whether two parameter sets share their layout and every array byte."""
    return a.arch == b.arch and list(a.arrays) == list(b.arrays) and all(
        a.arrays[k].tobytes() == b.arrays[k].tobytes() for k in a.arrays)


class TestSerialization:
    def test_learned_partition_roundtrip(self, tmp_path):
        ds = toy_dataset(3, seed=21)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        budget = 3
        part = learn_partition(train, val, budget, PartitionConfig(max_subsets=3, epsilon=0.0),
                               quick_cfg(seed=22, iters=150, patience=25),
                               toy_arch(3, adaptive=True))
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
        budget = 2
        fixed = fixed_partition(train, val, budget, quick_cfg(seed=24, iters=150, patience=25),
                                toy_arch(2))
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

    @pytest.mark.parametrize("family", ["lr", "nn"])
    def test_a_learned_file_holds_the_documented_keys_and_loads_back(self, tmp_path, family):
        ds = toy_dataset(3, seed=25)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = toy_arch(3, adaptive=True)
        if family == "nn":
            arch = replace(arch, family="nn", hidden=(4,))
        part = learn_partition(train, val, 3, PartitionConfig(max_subsets=4, epsilon=0.0),
                               quick_cfg(seed=26, iters=40, patience=10), arch)
        assert part.splits
        path = tmp_path / "learned.json"
        save_artifact(part, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert list(obj) == ["format", "kind", "budget", "config", "splits", "leaf_ids",
                             "subsets", "layout", "params"]
        assert (obj["format"], obj["kind"], obj["budget"]) == (5, "learned", 3)
        assert obj["layout"] == json.loads(json.dumps(asdict(arch)))
        assert obj["splits"] == [{"leaf": s.leaf, "adv": s.adv is not None} for s in part.splits]
        blocks = part.opt.params.block_names()
        fits = 2 + sum(1 + (s.adv is not None) for s in part.splits)
        assert [list(entry) for entry in obj["params"]] == [blocks] * fits
        assert [list(s) for s in obj["subsets"].values()] == [
            ["LB", "UB", "split_feature"]] * len(part.subsets)
        back = load_artifact(path)
        assert (back.budget, back.config) == (part.budget, part.config)
        assert (back.leaf_ids, back._route) == (part.leaf_ids, part._route)
        for got, want in zip(back.subsets, part.subsets, strict=True):
            assert (got.opt_pattern.key(), got.free) == (want.opt_pattern.key(), want.free)
            assert (got.lower_bound, got.upper_bound) == (want.lower_bound, want.upper_bound)
            for name in ("params_opt", "params_adv"):
                assert same_params(getattr(got, name), getattr(want, name))

    def test_a_fixed_file_holds_the_documented_keys_and_loads_back(self, tmp_path):
        ds = toy_dataset(2, seed=27)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        fixed = fixed_partition(train, val, 2, quick_cfg(seed=28, iters=40, patience=10),
                                toy_arch(2))
        path = tmp_path / "fixed.json"
        save_artifact(fixed, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert list(obj) == ["format", "kind", "losses", "layout", "params"]
        assert (obj["format"], obj["kind"]) == (5, "fixed")
        assert obj["layout"] == json.loads(json.dumps(asdict(toy_arch(2))))
        assert [list(entry) for entry in obj["params"]] == [["w"]] * 3
        assert obj["losses"] == [s.loss for s in fixed.subsets]
        back = load_artifact(path)
        assert back.budget == 2
        for got, want in zip(back.subsets, fixed.subsets, strict=True):
            assert got.loss == want.loss and same_params(got.params, want.params)

    def test_bounds_table_shape(self):
        part = manual_partition()
        table = bounds_table(part)
        lines = table.strip().split("\n")
        assert lines[0] == "subset,split_feature,UB,LB,relgap_pct"
        assert len(lines) == 6  # header + 5 subsets


class TestValidation:
    @pytest.mark.parametrize("budget", [-1, 4])
    def test_budget_range(self, budget):
        # a budget outside [0, |maskable|] of the models' layout
        part = manual_partition()
        with pytest.raises(DomainError, match=r"budget must lie in \[0, \|maskable\|\]"):
            replace(part, budget=budget)
        with pytest.raises(DomainError):
            FixedPartition([part.opt] * (budget + 1))

    @pytest.mark.parametrize("budget", [-1, 4])
    @pytest.mark.parametrize("trainer", ["learn_partition", "fixed_partition"])
    def test_trainers_refuse_a_budget_out_of_range_before_training(self, monkeypatch, trainer,
                                                                   budget):
        import robustcast.partition as partition

        fits = []
        monkeypatch.setattr(partition, "train_nominal", lambda *args: fits.append(args))
        train, val, _ = split_sequential(toy_dataset(3, seed=1), 0.6, 0.25)
        args = (PartitionConfig(2, 0.0),) if trainer == "learn_partition" else ()
        with pytest.raises(DomainError, match=r"budget must lie in \[0, \|maskable\|\]"):
            getattr(partition, trainer)(train, val, budget, *args, quick_cfg(), toy_arch(3))
        assert fits == []

    def test_a_fixed_partition_states_its_budget_by_its_fits(self):
        # subset l holds the fit for l missing, so l = 0..budget
        fit = manual_partition().opt
        for count in (1, 2, 4):
            assert FixedPartition([fit] * count).budget == count - 1
        with pytest.raises(DomainError, match="got budget -1"):
            FixedPartition([])

    def test_partition_config(self):
        with pytest.raises(ConfigError):
            PartitionConfig(max_subsets=0)
        with pytest.raises(ConfigError):
            PartitionConfig(epsilon=-1.0)

    def test_layout_maskable_range(self):
        # a partition's maskable set is its models' (Architecture)
        for maskable in [(5,), (-1, 0), (0, 4)]:
            with pytest.raises(DomainError, match="out of range"):
                Architecture("lr", False, 4, maskable=maskable)

    def test_layout_repeated_maskable_index(self):
        # (0, 0) would enumerate every pattern over feature 0 twice
        with pytest.raises(DomainError, match="repeat"):
            Architecture("lr", False, 3, maskable=(0, 0))

    @pytest.mark.parametrize("arch, match", [
        (Architecture("lr", False, 4, maskable=(0, 1, 2)),
         "input_dim 4 in a partition of input_dim 3"),
        (Architecture("lr", False, 3, maskable=(0, 1)),
         r"maskable \(0, 1\) in a partition of maskable \(0, 1, 2\)"),
    ], ids=["another width", "another maskable set"])
    def test_partition_of_models_over_another_set(self, arch, match):
        # the first model's pattern gate is every model's gate
        part = manual_partition()
        other = Fit(init_params(arch, 0), 0.3)
        for edit in ({"adv": other}, {"splits": [Split(0, 0, other, None)]}):
            with pytest.raises(DomainError, match=match):
                replace(part, **edit)
        with pytest.raises(DomainError, match=match):
            FixedPartition([part.opt, other, part.opt, part.opt])

    # layouts of one width and maskable set that differ in one more field
    # (lr and nn differ in hidden widths too; family is named first)
    @pytest.mark.parametrize("first, second, field", [
        (Architecture("lr", False, 3, maskable=(0, 1)),
         Architecture("nn", False, 3, (2,), maskable=(0, 1)), "family"),
        (Architecture("lr", False, 3, maskable=(0, 1)),
         Architecture("lr", True, 3, maskable=(0, 1)), "adaptive"),
        (Architecture("nn", True, 3, (2,), maskable=(0, 1)),
         Architecture("nn", True, 3, (2, 2), maskable=(0, 1)), "hidden"),
        (Architecture("lr", False, 3, maskable=(0, 1)),
         Architecture("lr", False, 3, bias_index=2, maskable=(0, 1)), "bias_index"),
    ], ids=["family", "adaptivity", "hidden widths", "bias feature"])
    def test_a_partition_holds_models_of_one_layout(self, first, second, field):
        one, two = Fit(init_params(first, 0), 0.1), Fit(init_params(second, 1), 0.2)
        match = rf"a model of {field} .* in a partition of {field} "
        with pytest.raises(DomainError, match=match):
            Partition(2, PartitionConfig(1, 0.0), one, two)
        with pytest.raises(DomainError, match=match):
            FixedPartition([one, two])

    # a file states one layout, so a layout of other blocks is what a table
    # entry can differ in; one of another bias feature has the same blocks
    @pytest.mark.parametrize("first, second", [
        (Architecture("lr", False, 3, maskable=(0, 1)),
         Architecture("nn", False, 3, (2,), maskable=(0, 1))),
        (Architecture("lr", False, 3, maskable=(0, 1)),
         Architecture("lr", True, 3, maskable=(0, 1))),
        (Architecture("nn", True, 3, (2,), maskable=(0, 1)),
         Architecture("nn", True, 3, (2, 2), maskable=(0, 1))),
    ], ids=["family", "adaptivity", "hidden widths"])
    def test_a_file_entry_of_another_layouts_blocks_is_a_domain_error(self, tmp_path, first,
                                                                       second):
        # the second layout's set in place of the first's adversarial set
        path = tmp_path / "learned.json"
        one, two = init_params(first, 0), init_params(second, 1)
        save_artifact(Partition(2, PartitionConfig(1, 0.0), Fit(one, 0.1),
                                Fit(init_params(first, 1), 0.2)), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["params"][1] = params_to_json(two)
        path.write_text(json.dumps(obj), encoding="utf-8")
        match = f"{first.family} blocks must be {one.block_names()}, got {two.block_names()}"
        with pytest.raises(DomainError, match="learned.json: " + re.escape(match)):
            load_artifact(path)


def _swap(subsets, a, b):
    subsets[a], subsets[b] = subsets[b], subsets[a]


class TestSubsetsFormTheTree:
    """A Partition is its root fits and its splits: construction derives the
    subsets and the routing table, and refuses a split that does not grow
    the tree; a file whose subsets form no tree of splits does not load."""

    # the example's splits are (leaf 0, feature 0) and (leaf 2, feature 1)
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj["subsets"].pop("4"), id="missing-id"),
        pytest.param(lambda obj: obj["subsets"].pop("0"), id="no-root"),
        pytest.param(lambda obj: obj["splits"][1].update(leaf=1), id="split-sibling"),
        pytest.param(lambda obj: obj["splits"][1].update(leaf=4), id="later-leaf"),
        pytest.param(lambda obj: obj["splits"][0].update(leaf=-1), id="negative-leaf"),
        pytest.param(lambda obj: obj["subsets"]["2"].update(split_feature=None), id="unsplit"),
        pytest.param(lambda obj: obj["subsets"]["1"].update(split_feature=2), id="split-leaf"),
        pytest.param(lambda obj: obj["subsets"]["2"].update(split_feature=0), id="fixed-split"),
        pytest.param(lambda obj: _swap(obj["splits"], 0, 1), id="splits-out-of-order"),
        pytest.param(lambda obj: obj["subsets"].update({"5": dict(obj["subsets"]["3"]),
                                                        "6": dict(obj["subsets"]["4"])}),
                     id="split-twice"),
    ])
    def test_subsets_that_form_no_tree_are_rejected(self, edit):
        obj = partition_to_json(manual_partition())
        partition_from_json(json.loads(json.dumps(obj)))
        edit(obj)
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
        replace(part, budget=budget, splits=[Split(0, 0, part.opt, None)])
        with pytest.raises(DomainError):
            replace(part, budget=budget,
                    splits=[Split(leaf, j, part.opt, part.adv) for leaf, j in splits])

    def test_routing_table_leaves_and_constraints(self):
        part = manual_partition()
        assert part.leaf_ids == [1, 3, 4]
        assert [part.fixed(sid) for sid in range(5)] == [
            {}, {0: 0}, {0: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}]

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


def _drop_adv_fit(split: int, entry: int):
    """An edit stating that a split trained no adv fit, its set (table entry
    `entry`) dropped, so that its available child claims its leaf's UB."""
    def edit(obj):
        obj["splits"][split]["adv"] = False
        del obj["params"][entry]
    return edit


def _scaled_bound(sid: str, key: str, factor: float):
    """An edit scaling one stored bound."""
    def edit(obj):
        obj["subsets"][sid][key] *= factor
    return edit


class TestGoldenArtifact:
    """A learned lr artifact (3 maskable features, budget 3, q = 5), written
    by learn_partition and save_artifact when a partition still stored its
    tree, leaf list, equality constraints and every subset's inherited values
    next to its own. All of these are derived from the root fits and the
    splits; the file must load, route and save as it did, and a copy whose
    stored values they contradict must not load. The file was first written
    in format 1 (learned_lr_q5_v1.json, arrays as number lists), converted
    to the parameter table of format 2 by loading it with the format-1
    reader and saving it again, and to format 3, which drops the tree, the
    patterns, the gaps and the other values the loader derives, by loading
    it with the format-2 reader and saving it with the format-3 writer, and
    to format 4, which states the layout once and each block as its bytes
    alone, by loading it with the format-3 reader and saving it with the
    format-4 writer, and to format 5, whose table holds each fit once in
    growth order and whose splits replace the lineage and table references,
    by loading it with the format-4 reader and saving it with the format-5
    writer; test_artifacts.py checks that every array survived bit for
    bit."""

    def test_load_then_save_reproduces_the_bytes(self, tmp_path):
        save_artifact(load_artifact(GOLDEN), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == GOLDEN.read_bytes()

    def test_every_admissible_pattern_reaches_its_recorded_leaf(self):
        part = load_artifact(GOLDEN)
        assert part.leaf_ids == [3, 4, 5, 7, 8]
        patterns = enumerate_patterns(part.opt.params.arch, part.budget)
        expected = [GOLDEN_ROUTES[tuple(row[:3].tolist())] for row in patterns]
        assert len(expected) == 8
        assert [locate(part, row) for row in patterns] == expected
        assert locate_rows(part, patterns).tolist() == expected

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.update(leaf_ids=[3, 4, 5, 8, 7]), id="leaf-order"),
        pytest.param(lambda obj: obj.update(leaf_ids=[3, 4, 5, 7]), id="leaf-missing"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(split_feature=0), id="split-feature"),
        pytest.param(lambda obj: obj["splits"][3].update(leaf=5), id="split-of-another-leaf"),
    ])
    def test_a_stored_value_the_subsets_contradict_is_rejected(self, tmp_path, edit):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="edited.json"):
            load_artifact(path)

    # subset 3 is split 2's available child, 4 its missing child; both kept
    # what split 2 inherits from subset 1 (LB 0.00593 and the root's opt fit,
    # table entry 0, for 3; UB 0.0346 and split 1's adv fit, table entry 3,
    # for 4), and subset 3's UB is split 2's adv fit's, table entry 5
    @pytest.mark.parametrize("edit", [
        pytest.param(_drop_adv_fit(1, 5), id="available-ub-inherited"),
        pytest.param(lambda obj: _swap(obj["splits"], 1, 2), id="splits-swapped"),
        pytest.param(_scaled_bound("3", "LB", 0.5), id="available-inherited-LB-halved"),
        pytest.param(_scaled_bound("4", "UB", 2.0), id="missing-inherited-UB-doubled"),
        pytest.param(lambda obj: obj["splits"][2].update(leaf=1), id="inherited-from-elsewhere"),
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
