import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.adversarial import (
    AdvSearchScope,
    SplitScorer,
    find_adversarial,
    greedy_split_feature,
    sample_fixed_adversarial,
    train_adversarial,
    train_sampled_adversarial,
)
from robustcast.dataio import Dataset, split_sequential
from robustcast.exceptions import DomainError, SizeError
from robustcast.missingness import MissingPattern
from robustcast.models import Architecture, init_params, mse_loss
from robustcast.training import TrainConfig, train_nominal


def lr_params(w, maskable):
    params = init_params(Architecture(input_dim=len(w)), "lr", False, seed=0, maskable=maskable)
    params.arrays["w"] = np.asarray(w, dtype=np.float64)
    return params


def pattern_losses(X, y, params):
    """The round scorer of one search over X, y at params."""
    return SplitScorer(X, y, params).bind(params)


def brute_force_max(X, y, scope, params):
    """Enumerate every pattern reachable from the base within the budget."""
    best = mse_loss(params, X, y, scope.base)
    room = scope.budget - scope.base.popcount()
    for size in range(1, room + 1):
        for combo in itertools.combinations(scope.free, size):
            pattern = scope.base
            for j in combo:
                pattern = pattern.with_missing(j)
            best = max(best, mse_loss(params, X, y, pattern))
    return best


def toy_dataset(X, y, maskable):
    n, p = X.shape
    bias_index = next(j for j in range(p) if j not in maskable)
    return Dataset(X=X, y=y, bias_index=bias_index, maskable=maskable,
                   horizon=1, max_lag=0, obs_periods=np.arange(n))


class TestFindAdversarial:
    def test_hand_case_accepts_both_features(self):
        # One observation, prediction 4 at full availability (loss 0);
        # dropping feature 0 gives loss 9, then feature 1 gives loss 16.
        params = lr_params([3.0, 1.0, 0.0], maskable=(0, 1))
        X = np.array([[1.0, 1.0, 1.0]])
        y = np.array([4.0])
        scope = AdvSearchScope(free=(0, 1), budget=2, base=MissingPattern.zeros(3))
        res = find_adversarial(X, y, scope, params)
        assert res.pattern.missing_indices() == (0, 1)
        assert res.loss == pytest.approx(16.0)
        assert res.steps == [(0, pytest.approx(9.0)), (1, pytest.approx(16.0))]

    def test_hand_case_immediate_break(self):
        # Same model but y=0: the base loss 16 beats every single-feature
        # candidate (9 and 1), so the search stops at the base pattern.
        params = lr_params([3.0, 1.0, 0.0], maskable=(0, 1))
        X = np.array([[1.0, 1.0, 1.0]])
        y = np.array([0.0])
        scope = AdvSearchScope(free=(0, 1), budget=2, base=MissingPattern.zeros(3))
        res = find_adversarial(X, y, scope, params)
        assert res.pattern.popcount() == 0
        assert res.loss == pytest.approx(16.0)
        assert res.steps == []

    def test_budget_already_exhausted(self):
        params = lr_params([3.0, 1.0, 0.0], maskable=(0, 1))
        base = MissingPattern.from_missing(3, [1])
        scope = AdvSearchScope(free=(0,), budget=1, base=base)
        res = find_adversarial(np.array([[1.0, 1.0, 1.0]]), np.array([4.0]), scope, params)
        np.testing.assert_array_equal(res.pattern.bits, base.bits)

    def test_empty_dataset_errors(self):
        params = lr_params([1.0], maskable=(0,))
        scope = AdvSearchScope(free=(0,), budget=1, base=MissingPattern.zeros(1))
        with pytest.raises(SizeError):
            find_adversarial(np.empty((0, 1)), np.empty(0), scope, params)

    def test_scope_validation(self):
        base = MissingPattern.from_missing(3, [0])
        with pytest.raises(DomainError):
            AdvSearchScope(free=(0, 1), budget=2, base=base)  # free overlaps base
        with pytest.raises(DomainError):
            AdvSearchScope(free=(1,), budget=0, base=base)  # base over budget

    def test_gamma_one_is_exhaustive(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            maskable = tuple(range(p - 1))
            params = lr_params(rng.normal(0, 1, p), maskable)
            X = rng.uniform(0, 1, (16, p))
            y = rng.uniform(0, 1, 16)
            scope = AdvSearchScope(free=maskable, budget=1, base=MissingPattern.zeros(p))
            res = find_adversarial(X, y, scope, params)
            assert res.loss == pytest.approx(brute_force_max(X, y, scope, params))

    def test_sandwich_property_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = int(rng.integers(3, 10))
            free = tuple(range(p - 1))
            budget = int(rng.integers(1, 4))
            params = lr_params(rng.normal(0, 1, p), free)
            X = rng.uniform(0, 1, (24, p))
            y = rng.uniform(0, 1, 24)
            base = MissingPattern.zeros(p)
            scope = AdvSearchScope(free=free, budget=budget, base=base)
            res = find_adversarial(X, y, scope, params)
            # below the exact maximum
            assert res.loss <= brute_force_max(X, y, scope, params) + 1e-12
            # at or above every single-feature candidate and the base loss
            floor = mse_loss(params, X, y, base)
            for j in free:
                floor = max(floor, mse_loss(params, X, y, base.with_missing(j)))
            if budget >= 1:
                assert res.loss >= floor - 1e-12
            # accepted-step losses never decrease
            losses = [s[1] for s in res.steps]
            assert losses == sorted(losses)

    def test_tie_break_lowest_index(self):
        # Two interchangeable features: the greedy pick must be feature 0.
        params = lr_params([1.0, 1.0, 0.0], maskable=(0, 1))
        X = np.array([[0.5, 0.5, 1.0]])
        y = np.array([1.0])
        scope = AdvSearchScope(free=(0, 1), budget=1, base=MissingPattern.zeros(3))
        res = find_adversarial(X, y, scope, params)
        assert res.steps[0][0] == 0

    def test_split_feature_matches_first_greedy_round(self):
        rng = np.random.default_rng(13)
        p = 5
        free = (0, 1, 2, 3)
        params = lr_params(rng.normal(0, 1, p), free)
        X = rng.uniform(0, 1, (20, p))
        y = rng.uniform(0, 1, 20)
        scope = AdvSearchScope(free=free, budget=4, base=MissingPattern.zeros(p))
        losses = {j: mse_loss(params, X, y, scope.base.with_missing(j)) for j in free}
        expected = max(free, key=lambda j: (losses[j], -j))
        assert greedy_split_feature(X, y, scope, params) == expected


def greedy_oracle(X, y, scope, params):
    """The search scored one candidate at a time with mse_loss; returns the
    pattern, the steps and, per round, the stacked candidate bits with their
    losses."""
    current = scope.base
    best = mse_loss(params, X, y, current)
    candidates = list(scope.free)
    steps, rounds = [], []
    while current.popcount() < scope.budget and candidates:
        patterns = [current.with_missing(j) for j in candidates]
        losses = [mse_loss(params, X, y, pattern) for pattern in patterns]
        rounds.append((np.array([pattern.bits for pattern in patterns]), losses))
        pick = int(np.argmax(losses))
        if losses[pick] < best:
            break
        current, best = patterns[pick], losses[pick]
        steps.append((candidates.pop(pick), best))
    return current, steps, rounds


@st.composite
def lr_searches(draw):
    """A linear model (plain or adaptive, random D), a data set whose columns
    are scaled by up to 1e3, and a scope with a random base and budget.

    At least two rows: the closed form's rounding error scales with
    c + v'Gv, not with the loss, so it is large relative to a loss near 0.
    A single row whose prediction nearly equals its target gets there by
    chance (4e-9 relative in 1 of 4000 random one-row searches); with two
    or more rows the largest seen was 8e-12."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(2, 9))
    n = draw(st.integers(2, 40))
    maskable = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))))
    base_missing = draw(st.sets(st.sampled_from(maskable), max_size=len(maskable) - 1))
    budget = draw(st.integers(len(base_missing), len(maskable)))
    adaptive = draw(st.booleans())
    params = init_params(Architecture(input_dim=p), "lr", adaptive, seed=0, maskable=maskable)
    params.arrays["w"] = rng.normal(0.0, 1.0, p)
    if adaptive:
        params.arrays["D"] = rng.normal(0.0, 1.0, params.arrays["D"].shape)
    X = rng.normal(0.0, 1.0, (n, p)) * 10.0 ** rng.uniform(0.0, 3.0, p)
    y = X @ rng.normal(0.0, 1.0, p) + rng.normal(0.0, 1.0, n)
    base = MissingPattern.from_missing(p, sorted(base_missing))
    free = tuple(j for j in maskable if j not in base_missing)
    return X, y, AdvSearchScope(free=free, budget=budget, base=base), params


class TestRoundScorer:
    @settings(max_examples=150, deadline=None)
    @given(lr_searches())
    def test_closed_form_matches_per_candidate_greedy(self, search):
        X, y, scope, params = search
        pattern, steps, rounds = greedy_oracle(X, y, scope, params)
        score = pattern_losses(X, y, params)
        for stack, losses in rounds:
            np.testing.assert_allclose(score(stack), losses, rtol=1e-9)
        res = find_adversarial(X, y, scope, params)
        np.testing.assert_array_equal(res.pattern.bits, pattern.bits)
        assert [j for j, _ in res.steps] == [j for j, _ in steps]
        np.testing.assert_allclose([l for _, l in res.steps], [l for _, l in steps], rtol=1e-9)
        if rounds:
            first = rounds[0][1]
            expected = scope.free[max(range(len(first)), key=lambda i: (first[i], -i))]
            assert greedy_split_feature(X, y, scope, params) == expected

    @settings(max_examples=50, deadline=None)
    @given(lr_searches(), st.data())
    def test_free_feature_outside_maskable_raises(self, search, data):
        X, y, scope, params = search
        outside = [j for j in range(params.n_features) if j not in params.maskable]
        if not outside:
            return
        j = data.draw(st.sampled_from(outside))
        room = scope.base.popcount() < scope.budget
        bad = AdvSearchScope(free=scope.free + (j,), budget=scope.budget, base=scope.base)
        if room:
            with pytest.raises(DomainError):
                find_adversarial(X, y, bad, params)
        else:  # no round runs, so no candidate is checked
            find_adversarial(X, y, bad, params)
        with pytest.raises(DomainError):
            greedy_split_feature(X, y, bad, params)

    def test_a_row_scores_the_same_in_any_stack(self):
        # so a pattern that leaves the effective weights unchanged ties the
        # incumbent exactly, whatever round and position it is scored in
        for seed in range(300):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 20))
            maskable = tuple(range(int(rng.integers(1, p + 1))))
            adaptive = bool(seed % 2)
            params = init_params(Architecture(input_dim=p), "lr", adaptive, seed=0,
                                 maskable=maskable)
            params.arrays["w"] = rng.normal(0.0, 1.0, p)
            if adaptive:
                params.arrays["D"] = rng.normal(0.0, 1.0, params.arrays["D"].shape)
            n = int(rng.integers(2, 50))
            X = rng.normal(0.0, 1.0, (n, p)) * 10.0 ** rng.uniform(0.0, 3.0, p)
            score = pattern_losses(X, rng.normal(0.0, 100.0, n), params)
            stack = np.zeros((int(rng.integers(2, 30)), p), dtype=np.uint8)
            stack[:, : len(maskable)] = rng.uniform(size=(len(stack), len(maskable))) < 0.4
            whole = score(stack)
            for i in range(len(stack)):
                assert score(stack[i : i + 1])[0] == whole[i]
                assert score(stack[i:])[0] == whole[i]

    def test_base_outside_maskable_raises_even_without_a_round(self):
        params = lr_params([1.0, 1.0, 1.0], maskable=(0, 1))
        base = MissingPattern.from_missing(3, [2])
        scope = AdvSearchScope(free=(), budget=1, base=base)
        with pytest.raises(DomainError):
            find_adversarial(np.ones((4, 3)), np.zeros(4), scope, params)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_unchanged_weights_tie_and_are_accepted_in_index_order(self, adaptive):
        # Features 0-2 carry zero weight (and zero correction): removing any
        # leaves every prediction as it is, so each candidate ties the
        # incumbent exactly and the lowest index is accepted each round.
        rng = np.random.default_rng(5)
        params = init_params(Architecture(input_dim=4), "lr", adaptive, seed=0,
                             maskable=(0, 1, 2))
        params.arrays["w"] = np.array([0.0, 0.0, 0.0, 1.7])
        X = rng.normal(0.0, 100.0, (30, 4))
        y = rng.normal(0.0, 1.0, 30)
        scope = AdvSearchScope(free=(0, 1, 2), budget=2, base=MissingPattern.zeros(4))
        res = find_adversarial(X, y, scope, params)
        base_loss = float(pattern_losses(X, y, params)(scope.base.bits[None, :])[0])
        assert res.steps == [(0, base_loss), (1, base_loss)]
        assert res.pattern.missing_indices() == (0, 1)

    def test_network_family_matches_per_candidate_greedy(self):
        rng = np.random.default_rng(8)
        p, maskable = 5, (0, 1, 2, 3)
        params = init_params(Architecture(input_dim=p, hidden=(6, 4)), "nn", True, seed=3,
                             maskable=maskable)
        for name in params.block_names():
            params.arrays[name] = rng.normal(0.0, 0.5, params.arrays[name].shape)
        X = rng.normal(0.0, 1.0, (25, p))
        y = rng.normal(0.0, 1.0, 25)
        scope = AdvSearchScope(free=maskable, budget=3, base=MissingPattern.zeros(p))
        pattern, steps, rounds = greedy_oracle(X, y, scope, params)
        res = find_adversarial(X, y, scope, params)
        np.testing.assert_array_equal(res.pattern.bits, pattern.bits)
        assert res.steps == steps
        score = pattern_losses(X, y, params)
        for stack, losses in rounds:
            assert score(stack).tolist() == losses


@st.composite
def nn_searches(draw):
    """A network (1-4 hidden layers of width 1-60, plain or adaptive) with
    random weights, a second parameter set of the same shape, n >= 1 rows,
    and a scope over an empty, partial or full maskable set with a random
    base pattern and budget."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    hidden = tuple(draw(st.lists(st.integers(1, 60), min_size=1, max_size=4)))
    size = {"empty": 0, "partial": draw(st.integers(1, max(p - 1, 1))), "full": p}[
        draw(st.sampled_from(["empty", "partial", "full"]))
    ]
    maskable = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
    base_missing = sorted(j for j in maskable if rng.uniform() < 0.3)
    budget = draw(st.integers(len(base_missing), len(maskable)))
    adaptive = draw(st.booleans())
    arch = Architecture(input_dim=p, hidden=hidden)
    params, other = (
        init_params(arch, "nn", adaptive, seed=seed, maskable=maskable) for seed in (0, 1)
    )
    for theta in (params, other):
        for name in theta.block_names():
            theta.arrays[name] = rng.normal(0.0, 0.5, theta.arrays[name].shape)
    X = rng.normal(0.0, 1.0, (n, p)) * 10.0 ** rng.uniform(0.0, 2.0, p)
    y = rng.normal(0.0, 1.0, n)
    base = MissingPattern.from_missing(p, base_missing)
    free = tuple(j for j in maskable if j not in base_missing)
    return X, y, AdvSearchScope(free=free, budget=budget, base=base), params, other


class TestNetworkScorer:
    @settings(max_examples=100, deadline=None)
    @given(nn_searches(), st.data())
    def test_buffered_scorer_equals_mse_loss(self, search, data):
        X, y, scope, params, other = search
        split = SplitScorer(X, y, params)
        score = split.bind(params)
        pattern, steps, rounds = greedy_oracle(X, y, scope, params)
        for stack, losses in rounds:
            assert score(stack).tolist() == losses
        res = find_adversarial(X, y, scope, params, split=split)
        np.testing.assert_array_equal(res.pattern.bits, pattern.bits)
        assert res.steps == steps
        if rounds:
            first = rounds[0][1]
            expected = scope.free[max(range(len(first)), key=lambda i: (first[i], -i))]
            assert greedy_split_feature(X, y, scope, params) == expected
        # one reused scorer gives a row the same loss in any stack, at any
        # position, and after the split's buffers served other parameters
        p, maskable = params.n_features, list(params.maskable)
        stack = np.zeros((data.draw(st.integers(1, 12)), p), dtype=np.uint8)
        stack[:, maskable] = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=len(maskable), max_size=len(maskable)),
            min_size=len(stack), max_size=len(stack),
        ))
        whole = score(stack)
        assert whole.tolist() == [mse_loss(params, X, y, bits) for bits in stack]
        assert split.bind(other)(stack).tolist() == [
            mse_loss(other, X, y, bits) for bits in stack
        ]
        for i in range(len(stack)):
            assert score(stack[i : i + 1])[0] == whole[i]
            assert score(stack[i:])[0] == whole[i]
        assert score(stack[::-1]).tolist() == whole[::-1].tolist()

    def test_split_built_from_other_data_raises(self):
        params = init_params(Architecture(input_dim=3, hidden=(4,)), "nn", True, 0, (0, 1))
        X, y = np.ones((5, 3)), np.zeros(5)
        scope = AdvSearchScope(free=(0, 1), budget=1, base=MissingPattern.zeros(3))
        split = SplitScorer(X, y, params)
        with pytest.raises(DomainError, match="another data set"):
            find_adversarial(X.copy(), y, scope, params, split=split)
        with pytest.raises(DomainError, match="another data set"):
            find_adversarial(X, y.copy(), scope, params, split=split)

    @pytest.mark.parametrize("family, hidden", [("nn", (4, 2)), ("nn", (5,)), ("lr", ())])
    def test_parameters_of_another_shape_raise(self, family, hidden):
        arch = Architecture(input_dim=3, hidden=(4,))
        split = SplitScorer(np.ones((5, 3)), np.zeros(5), init_params(arch, "nn", False, 0))
        other = init_params(Architecture(input_dim=3, hidden=hidden), family, False, 0)
        with pytest.raises(DomainError, match="shape"):
            split.bind(other)


class TestSampleFixedAdversarial:
    def test_extremes(self):
        rng = np.random.default_rng(0)
        zero = sample_fixed_adversarial(0, (0, 1, 2), 4, rng)
        assert zero.popcount() == 0
        full = sample_fixed_adversarial(3, (0, 1, 2), 4, rng)
        assert full.missing_indices() == (0, 1, 2)

    def test_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_fixed_adversarial(4, (0, 1, 2), 4, rng)
        with pytest.raises(DomainError):
            sample_fixed_adversarial(-1, (0, 1, 2), 4, rng)

    def test_single_feature_uniformity(self):
        rng = np.random.default_rng(123)
        maskable = (0, 1, 2, 3, 4)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            pat = sample_fixed_adversarial(1, maskable, 5, rng)
            counts[pat.missing_indices()[0]] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.2) < 0.01)


def useless_feature_dataset(n=300, seed=0, noise=0.0):
    """y depends on feature 0 only; feature 1 is noise; bias last."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0, 1, n)
    x1 = rng.uniform(0, 1, n)
    y = 2.0 * x0 + noise * rng.normal(size=n)
    X = np.column_stack([x0, x1, np.ones(n)])
    return toy_dataset(X, y, maskable=(0, 1))


class TestTrainAdversarial:
    def test_empty_free_set_matches_nominal_finetune(self):
        ds = useless_feature_dataset(seed=3, noise=0.05)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=25, patience=10, batch_size=64, seed=8)
        base = MissingPattern.from_missing(3, [0])
        theta_opt = train_nominal(train, val, base, cfg, arch, "lr", False).params
        scope = AdvSearchScope(free=(), budget=2, base=base)
        adv = train_adversarial(train, val, scope, cfg, theta_opt)
        finetune = train_nominal(train, val, base, cfg, arch, "lr", False, warm_start=theta_opt)
        assert abs(adv.val_loss - finetune.val_loss) < 1e-9

    def test_zero_budget_matches_empty_free_set(self):
        ds = useless_feature_dataset(seed=4, noise=0.05)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=20, patience=10, batch_size=64, seed=9)
        zero = MissingPattern.zeros(3)
        theta_opt = train_nominal(train, val, zero, cfg, arch, "lr", False).params
        gamma0 = train_adversarial(
            train, val, AdvSearchScope(free=(0, 1), budget=0, base=zero), cfg, theta_opt
        )
        empty = train_adversarial(
            train, val, AdvSearchScope(free=(), budget=0, base=zero), cfg, theta_opt
        )
        assert abs(gamma0.val_loss - empty.val_loss) < 1e-12

    def test_adversarial_beats_optimistic_on_worst_case(self):
        # Noiseless line plus a useless feature, budget 1: brute-force
        # worst-case validation loss of the robust fit must not exceed the
        # optimistic fit's.
        ds = useless_feature_dataset(seed=5)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=150, patience=25, batch_size=64, seed=10)
        zero = MissingPattern.zeros(3)
        scope = AdvSearchScope(free=(0, 1), budget=1, base=zero)
        opt = train_nominal(train, val, zero, cfg, arch, "lr", False)
        adv = train_adversarial(train, val, scope, cfg, opt.params)

        def worst_case(params):
            patterns = [zero, zero.with_missing(0), zero.with_missing(1)]
            return max(mse_loss(params, val.X, val.y, pat) for pat in patterns)

        assert worst_case(adv.params) <= worst_case(opt.params) + 1e-9

    def test_trace_starts_finite_and_best_is_prefix_min(self):
        ds = useless_feature_dataset(seed=6, noise=0.1)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=30, patience=6, batch_size=64, seed=11)
        scope = AdvSearchScope(free=(0, 1), budget=2, base=MissingPattern.zeros(3))
        warm = train_nominal(train, val, scope.base, cfg, arch, "lr", True).params
        res = train_adversarial(train, val, scope, cfg, warm)
        assert np.isfinite(res.trace[0].val_loss)
        running_min = np.inf
        for rec in res.trace:
            running_min = min(running_min, rec.val_loss)
            assert res.val_loss <= running_min + 1e-15


class TestTrainSampledAdversarial:
    def test_count_zero_equals_nominal_finetune(self):
        ds = useless_feature_dataset(seed=7, noise=0.05)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=20, patience=10, batch_size=64, seed=12)
        zero = MissingPattern.zeros(3)
        warm = train_nominal(train, val, zero, cfg, arch, "lr", False).params
        sampled = train_sampled_adversarial(train, val, 0, cfg, warm)
        finetune = train_nominal(train, val, zero, cfg, arch, "lr", False, warm_start=warm)
        assert abs(sampled.val_loss - finetune.val_loss) < 1e-12

    def test_deterministic(self):
        ds = useless_feature_dataset(seed=8, noise=0.1)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        arch = Architecture(input_dim=3, bias_index=2)
        cfg = TrainConfig(learning_rate=5e-3, max_iters=15, patience=5, batch_size=64, seed=13)
        warm = train_nominal(train, val, MissingPattern.zeros(3), cfg, arch, "lr", True).params
        a = train_sampled_adversarial(train, val, 1, cfg, warm)
        b = train_sampled_adversarial(train, val, 1, cfg, warm)
        assert a.val_loss == b.val_loss
        for name in a.params.block_names():
            np.testing.assert_array_equal(a.params.arrays[name], b.params.arrays[name])

