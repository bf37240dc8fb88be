import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustcast.evaluation as evaluation
from robustcast.dataio import (
    RawSeries,
    SynthConfig,
    build_supervised,
    gen_synthetic,
    load_csv,
    save_csv,
)
from robustcast.evaluation import (
    METHOD_ARF_LEARNED,
    METHOD_IMP_MEAN,
    METHOD_IMP_PERSISTENCE,
    METHOD_RETRAIN_ORACLE,
    METHOD_RF_LEARNED,
    METHODS,
    EvalResult,
    GridSpec,
    HorizonData,
    RetrainOracle,
    dm_test,
    emit_report,
    nrmse,
    predict_method,
    q_sweep,
    run_grid,
)
from robustcast.exceptions import ConfigError, DomainError, SizeError
from robustcast.missingness import (
    MissingnessConfig,
    MissingPattern,
    expand_obs_mask,
    impute_persistence,
    simulate_markov,
)
from robustcast.models import Architecture, init_params, predict
from robustcast.partition import (
    FixedPartition, FixedSubset, PartitionConfig, UncertaintySet, learn_partition,
)
from robustcast.training import TrainConfig, train_nominal


class TestNrmse:
    def test_perfect_predictions(self):
        y = np.array([0.2, 0.4, 0.6])
        assert nrmse(y, y) == 0.0

    def test_hand_arithmetic(self):
        assert nrmse(np.array([2.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(100.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0.2, 1.0, 50)
        preds = y + rng.normal(0, 0.1, 50)
        a = nrmse(preds, y)
        b = nrmse(3.7 * preds, 3.7 * y)
        assert a == pytest.approx(b)

    def test_zero_mean_actuals(self):
        with pytest.raises(DomainError):
            nrmse(np.array([1.0, -1.0]), np.array([1.0, -1.0]))

    def test_length_mismatch(self):
        with pytest.raises(SizeError):
            nrmse(np.ones(3), np.ones(4))


class TestDmTest:
    def test_identical_series_degenerate(self):
        loss = np.linspace(0.1, 0.5, 60)
        res = dm_test(loss, loss)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.degenerate

    def test_uniformly_larger_loss_is_significant(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 0.2, 400)
        res = dm_test(base + 0.05 + rng.normal(0, 0.005, 400), base)
        assert res.statistic > 0
        assert res.p_value < 0.01

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, 100)
        b = rng.uniform(0, 1, 100)
        ab = dm_test(a, b)
        ba = dm_test(b, a)
        assert ab.statistic == pytest.approx(-ba.statistic)
        assert ab.p_value == pytest.approx(ba.p_value)
        assert 0.0 <= ab.p_value <= 1.0

    def test_minimum_length(self):
        with pytest.raises(SizeError):
            dm_test(np.ones(10), np.zeros(10))


def small_setup(seed=0, n_periods=1200, n_plants=2, budget=None):
    """Small end-to-end fixture: data, horizon context, and trained artifacts."""
    raw = gen_synthetic(
        SynthConfig(n_plants, n_periods, 0.95, 0.6, 0.4, seed=seed)
    )
    hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
    arch = Architecture(input_dim=hd.dataset.p, bias_index=hd.dataset.bias_index)
    # several mini-batches per epoch: smoother per-epoch validation progress
    # keeps the patience rule from stopping on an early lucky dip
    cfg = TrainConfig(learning_rate=1e-2, max_iters=1500, patience=60, batch_size=64, seed=seed)
    base = train_nominal(
        hd.train, hd.val, MissingPattern.zeros(hd.dataset.p), cfg, arch, "lr", False
    )
    b = budget if budget is not None else len(hd.dataset.maskable)
    uset = UncertaintySet(n_features=hd.dataset.p, maskable=hd.dataset.maskable, budget=b)
    return raw, hd, arch, cfg, base, uset


class TestRunGrid:
    def test_zero_missingness_equals_no_missing_baseline(self):
        raw, hd, arch, cfg, base, uset = small_setup(seed=3)
        part = learn_partition(hd.train, hd.val, uset, PartitionConfig(2, 0.0), cfg,
                               arch, "lr", True)
        spec = GridSpec(p01_list=(0.0,), p11_list=(0.5,), horizons=(1,),
                        methods=(METHOD_IMP_PERSISTENCE, METHOD_ARF_LEARNED),
                        runs=2, base_seed=9)
        artifacts = {
            (METHOD_IMP_PERSISTENCE, 1): base.params,
            (METHOD_ARF_LEARNED, 1): part,
        }
        result = run_grid(spec, {1: hd}, artifacts)
        zero = MissingPattern.zeros(hd.dataset.p)
        from robustcast.models import predict
        base_preds = predict(base.params, hd.test.X, zero.bits)
        expected_imp = nrmse(base_preds, hd.test.y)
        from robustcast.partition import predict_deployed_rows
        part_preds = predict_deployed_rows(part, hd.test.X, np.tile(zero.bits, (hd.test.n, 1)))
        expected_part = nrmse(part_preds, hd.test.y)
        for rec in result.records:
            if rec.method == METHOD_IMP_PERSISTENCE:
                assert rec.nrmse == pytest.approx(expected_imp)
            else:
                assert rec.nrmse == pytest.approx(expected_part)

    def test_deterministic(self):
        raw, hd, arch, cfg, base, uset = small_setup(seed=4)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.8,), horizons=(1,),
                        methods=(METHOD_IMP_PERSISTENCE, METHOD_IMP_MEAN),
                        runs=2, base_seed=11)
        artifacts = {
            (METHOD_IMP_PERSISTENCE, 1): base.params,
            (METHOD_IMP_MEAN, 1): base.params,
        }
        a = run_grid(spec, {1: hd}, artifacts)
        b = run_grid(spec, {1: hd}, artifacts)
        assert [r.nrmse for r in a.records] == [r.nrmse for r in b.records]

    def test_jobs_parallel_matches_sequential(self):
        raw, hd, arch, cfg, base, uset = small_setup(seed=5)
        spec = GridSpec(p01_list=(0.1, 0.3), p11_list=(0.5,), horizons=(1,),
                        methods=(METHOD_IMP_MEAN,), runs=2, base_seed=13)
        artifacts = {(METHOD_IMP_MEAN, 1): base.params}
        seq = run_grid(spec, {1: hd}, artifacts, jobs=1)
        par = run_grid(spec, {1: hd}, artifacts, jobs=2)
        assert [r.nrmse for r in seq.records] == [r.nrmse for r in par.records]

    def test_missing_artifact_names_cell(self):
        raw, hd, arch, cfg, base, uset = small_setup(seed=6)
        spec = GridSpec(p01_list=(0.1,), p11_list=(0.5,), horizons=(1,),
                        methods=(METHOD_IMP_MEAN,), runs=1, base_seed=1)
        with pytest.raises(ConfigError, match="imp-mean"):
            run_grid(spec, {1: hd}, {})

    def test_retrain_oracle_not_worse_than_single_subset_robust(self):
        # Full recourse should dominate the one-subset robust model under
        # heavy missingness; checked with a one-sided comparison on the
        # pooled per-observation squared errors.
        raw, hd, arch, cfg, base, uset = small_setup(seed=7)
        part = learn_partition(hd.train, hd.val, uset, PartitionConfig(1, 0.0), cfg,
                               arch, "lr", False)
        oracle = RetrainOracle(hd.train, hd.val, cfg, arch, "lr", False)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.9,), horizons=(1,),
                        methods=(METHOD_RETRAIN_ORACLE, METHOD_RF_LEARNED),
                        runs=10, base_seed=17)
        artifacts = {
            (METHOD_RETRAIN_ORACLE, 1): oracle,
            (METHOD_RF_LEARNED, 1): part,
        }
        result = run_grid(spec, {1: hd}, artifacts)
        oracle_nrmse = np.mean(result.cell_nrmse(METHOD_RETRAIN_ORACLE, 1, 0.2, 0.9))
        robust_nrmse = np.mean(result.cell_nrmse(METHOD_RF_LEARNED, 1, 0.2, 0.9))
        oracle_losses = np.concatenate(
            [result.get(METHOD_RETRAIN_ORACLE, 1, 0.2, 0.9, r).sq_errors for r in range(10)]
        )
        robust_losses = np.concatenate(
            [result.get(METHOD_RF_LEARNED, 1, 0.2, 0.9, r).sq_errors for r in range(10)]
        )
        res = dm_test(oracle_losses, robust_losses)
        one_sided_oracle_better = res.p_value / 2 if res.statistic < 0 else 1.0
        assert oracle_nrmse <= robust_nrmse
        assert one_sided_oracle_better < 0.1


def persistence_rebuild(hd, target_plant, filled_values):
    """The test rows of a whole supervised matrix rebuilt from the filled
    series: how imp-persistence built its inputs before it gathered only the
    test rows, kept as the gather's oracle."""
    filled_raw = RawSeries(
        timestamps=hd.raw.timestamps,
        values=filled_values,
        weather=hd.raw.weather,
    )
    ds = build_supervised(filled_raw, target_plant, hd.dataset.max_lag, hd.dataset.horizon)
    return ds.X[hd.test_start : hd.test_start + hd.test.n]


class TestPersistence:
    @settings(max_examples=60, deadline=None)
    @given(
        n_plants=st.integers(1, 3),
        n_periods=st.integers(30, 120),
        max_lag=st.sampled_from([0, 2]),
        horizon=st.integers(1, 3),
        p01=st.floats(0.0, 1.0),
        p11=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        from_csv=st.booleans(),
    )
    def test_test_rows_gather_equals_whole_rebuild(
        self, n_plants, n_periods, max_lag, horizon, p01, p11, seed, from_csv
    ):
        raw = gen_synthetic(SynthConfig(n_plants, n_periods, 0.9, 0.4, 0.3, seed=seed))
        if from_csv:  # CSV data without a weather column
            with tempfile.TemporaryDirectory() as tmp:
                save_csv(replace(raw, weather=None), Path(tmp) / "series.csv")
                raw = load_csv(Path(tmp) / "series.csv")
        hd = HorizonData.build(raw, n_plants - 1, max_lag, horizon, 0.5, 0.2)
        mask = simulate_markov(MissingnessConfig(p01, p11, seed=seed), n_periods, n_plants)
        filled = impute_persistence(raw.values, mask)
        want = persistence_rebuild(hd, n_plants - 1, filled)
        got = hd.filled_test_X(filled)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

        arch = Architecture(input_dim=hd.dataset.p, bias_index=hd.dataset.bias_index)
        params = init_params(arch, "lr", False, seed % 1000)
        zero = np.zeros(hd.dataset.p, dtype=np.uint8)
        preds = predict_method(
            METHOD_IMP_PERSISTENCE, params, hd, expand_obs_mask(mask, hd.test), filled
        )
        assert preds.tobytes() == predict(params, want, zero).tobytes()

    def test_filled_once_per_cell_across_horizons(self, monkeypatch):
        raw = gen_synthetic(SynthConfig(2, 300, 0.95, 0.6, 0.4, seed=1))
        hds = {h: HorizonData.build(raw, 0, 1, h, 0.5, 0.2) for h in (1, 3)}
        arch = Architecture(input_dim=hds[1].dataset.p, bias_index=hds[1].dataset.bias_index)
        params = init_params(arch, "lr", False, 0)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.5, 0.9), horizons=(1, 3),
                        methods=(METHOD_IMP_PERSISTENCE,), runs=2, base_seed=3)
        artifacts = {(METHOD_IMP_PERSISTENCE, h): params for h in (1, 3)}
        calls = []

        def counted(values, mask):
            calls.append(mask)
            return impute_persistence(values, mask)

        monkeypatch.setattr(evaluation, "impute_persistence", counted)
        result = run_grid(spec, hds, artifacts)
        assert len(calls) == 4 and len(result.records) == 8  # 2 cells x 2 runs x 2 horizons

    def test_horizons_from_different_series_rejected(self):
        hds = {
            h: HorizonData.build(gen_synthetic(SynthConfig(2, 300, 0.9, 0.4, 0.3, seed=h)),
                                 0, 1, h, 0.5, 0.2)
            for h in (1, 2)
        }
        arch = Architecture(input_dim=hds[1].dataset.p, bias_index=hds[1].dataset.bias_index)
        params = init_params(arch, "lr", False, 0)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.5,), horizons=(1, 2),
                        methods=(METHOD_IMP_MEAN,), runs=1, base_seed=3)
        with pytest.raises(ConfigError, match="one raw series"):
            run_grid(spec, hds, {(METHOD_IMP_MEAN, h): params for h in (1, 2)})


class TestEmitReport:
    def run_small(self, seed=8):
        raw, hd, arch, cfg, base, uset = small_setup(seed=seed)
        spec = GridSpec(p01_list=(0.1,), p11_list=(0.0, 0.8), horizons=(1,),
                        methods=(METHOD_IMP_MEAN,), runs=3, base_seed=21)
        artifacts = {(METHOD_IMP_MEAN, 1): base.params}
        return run_grid(spec, {1: hd}, artifacts)

    def test_grid_rows_and_summary_consistency(self, tmp_path):
        result = self.run_small()
        emit_report(result, tmp_path)
        grid = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert grid[0] == "method,h,p01,p11,run,nrmse"
        assert len(grid) == 1 + 6  # 2 cells x 3 runs
        summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
        for line in summary[1:]:
            method, h, p01, p11, mean, std, runs = line.split(",")
            values = [
                float(row.split(",")[5])
                for row in grid[1:]
                if row.startswith(f"{method},{h},{p01},{p11},")
            ]
            assert abs(float(mean) - np.mean(values)) < 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        result = self.run_small()
        emit_report(result, tmp_path)
        first = (tmp_path / "grid.csv").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        emit_report(result, tmp_path)
        second = (tmp_path / "grid.csv").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        assert first == second

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(SizeError):
            emit_report(EvalResult(), tmp_path)


class TestQSweepTrend:
    def test_many_subsets_beat_single_subset_by_clear_margin(self, trend_setup):
        # Heavy-missingness cell, 10 seeded runs: the finest partition must
        # gain at least 2 nrmse points over the single-subset model.
        rows = {r.n_subsets: r for r in trend_setup.qsweep_rows}
        assert rows[10].mean_nrmse <= rows[1].mean_nrmse - 2.0

    def test_rows_equal_one_grid_per_q_for_any_jobs(self, trend_setup, monkeypatch):
        # Oracle: a one-cell grid per Q, which re-simulates the same masks.
        hds = {1: trend_setup.hd}
        runs, cell = 3, (0.2, 0.9)
        oracle = []
        for q, part in sorted(trend_setup.partitions.items()):
            spec = GridSpec(p01_list=(cell[0],), p11_list=(cell[1],), horizons=(1,),
                            methods=(METHOD_ARF_LEARNED,), runs=runs, base_seed=5)
            res = run_grid(spec, hds, {(METHOD_ARF_LEARNED, 1): part})
            oracle.append(float(np.mean(res.cell_nrmse(METHOD_ARF_LEARNED, 1, *cell))))
        masks = []

        def counted(cfg, n_periods, n_plants):
            masks.append(cfg)
            return simulate_markov(cfg, n_periods, n_plants)

        monkeypatch.setattr(evaluation, "simulate_markov", counted)
        rows = q_sweep(trend_setup.partitions, METHOD_ARF_LEARNED, 1, *cell, runs, 5, hds)
        assert len(masks) == runs  # one mask per run, shared by every Q
        assert [r.n_subsets for r in rows] == sorted(trend_setup.partitions)
        assert [r.mean_nrmse for r in rows] == oracle
        par = q_sweep(trend_setup.partitions, METHOD_ARF_LEARNED, 1, *cell, runs, 5, hds, jobs=2)
        assert par == rows

    def test_single_subset_row_is_the_plain_robust_model(self, trend_setup):
        part = trend_setup.partitions[1]
        assert part.splits == ()
        assert len(part.leaf_ids) == 1


class TestMethodArtifacts:
    @pytest.fixture(scope="class")
    def kinds(self):
        """hd and one artifact of each kind METHODS names, by type name."""
        raw = gen_synthetic(SynthConfig(2, 300, 0.95, 0.6, 0.4, seed=1))
        hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
        arch = Architecture(input_dim=hd.dataset.p, bias_index=hd.dataset.bias_index)
        cfg = TrainConfig(max_iters=5, seed=0)
        uset = UncertaintySet(hd.dataset.p, hd.dataset.maskable, len(hd.dataset.maskable))
        params = init_params(arch, "lr", False, 0)
        part = learn_partition(hd.train, hd.val, uset, PartitionConfig(2, 0.0), cfg, arch,
                               "lr", True)
        return hd, {
            "ModelParams": params,
            "Partition": part,
            "FixedPartition": FixedPartition(uset, [FixedSubset(params, 0.0)]),
            "RetrainOracle": RetrainOracle(hd.train, hd.val, cfg, arch, "lr", False),
        }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_artifact_of_another_kind_raises_config_error(self, kinds, method):
        hd, artifacts = kinds
        kind = METHODS[method].artifact.__name__
        assert kind in artifacts
        patterns = np.zeros((hd.test.n, hd.test.p), dtype=np.uint8)
        for name, artifact in artifacts.items():
            if name != kind:
                with pytest.raises(ConfigError, match=f"{method} needs a {kind} artifact"):
                    predict_method(method, artifact, hd, patterns, hd.raw.values)

    @pytest.mark.parametrize("method, kind", [("imp-mean", "Partition"),
                                              ("arf-fixed", "FixedPartition")])
    def test_sweep_of_a_method_without_learned_partitions_raises_config_error(
        self, kinds, method, kind
    ):
        hd, artifacts = kinds
        with pytest.raises(ConfigError, match=f"learned-partition method, got '{method}'"):
            q_sweep({2: artifacts[kind]}, method, 1, 0.2, 0.9, 1, 5, {1: hd})


class TestRetrainOracleGuards:
    def test_capacity_guard(self):
        raw = gen_synthetic(SynthConfig(6, 400, 0.9, 0.4, 0.3, seed=9))
        hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)  # 12 maskable features
        cfg = TrainConfig(max_iters=5, seed=0)
        arch = Architecture(input_dim=hd.dataset.p, bias_index=hd.dataset.bias_index)
        with pytest.raises(Exception):
            RetrainOracle(hd.train, hd.val, cfg, arch, "lr", False)

    def test_cache_reuses_pattern_models(self):
        raw, hd, arch, cfg, base, uset = small_setup(seed=10)
        oracle = RetrainOracle(hd.train, hd.val, cfg, arch, "lr", False)
        pat = MissingPattern.from_missing(hd.dataset.p, [0])
        a = oracle.params_for(pat)
        b = oracle.params_for(pat)
        assert a is b
