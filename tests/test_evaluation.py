import itertools
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robustcast.evaluation as evaluation
from robustcast import training
from robustcast._util import map_jobs
from robustcast.dataio import (
    Dataset,
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
    GridRow,
    GridSpec,
    HorizonData,
    RetrainOracle,
    dm_test,
    emit_report,
    nrmse,
    predict_method,
    q_sweep,
    read_grid,
    run_grid,
)
from robustcast.exceptions import ConfigError, DataError, DomainError, NumericalError, SizeError
from robustcast.missingness import (
    MissingnessConfig,
    MissingPattern,
    expand_obs_mask,
    impute_persistence,
    simulate_markov,
)
from robustcast.models import Architecture, init_params, predict
from robustcast.partition import (
    Fit, FixedPartition, PartitionConfig, learn_partition,
)
from robustcast.training import TrainConfig, train_nominal
from tests.conftest import cell_nrmse, cell_sq_errors


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


def lr_arch(ds):
    """The plain linear model layout of a data set."""
    return Architecture("lr", False, ds.p, bias_index=ds.bias_index, maskable=ds.maskable)


def small_setup(seed=0, n_periods=1200, n_plants=2, budget=None):
    """Small end-to-end fixture: data, horizon context, and trained artifacts."""
    raw = gen_synthetic(
        SynthConfig(n_plants, n_periods, 0.95, 0.6, 0.4, seed=seed)
    )
    hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
    arch = lr_arch(hd.dataset)
    # several mini-batches per epoch: smoother per-epoch validation progress
    # keeps the patience rule from stopping on an early lucky dip
    cfg = TrainConfig(learning_rate=1e-2, max_iters=1500, patience=60, batch_size=64, seed=seed)
    base = train_nominal(
        hd.train, hd.val, MissingPattern.zeros(hd.dataset.p), cfg, arch
    )
    b = budget if budget is not None else len(hd.dataset.maskable)
    return raw, hd, arch, cfg, base, b


class TestRunGrid:
    def test_zero_missingness_equals_no_missing_baseline(self):
        raw, hd, arch, cfg, base, budget = small_setup(seed=3)
        part = learn_partition(hd.train, hd.val, budget, PartitionConfig(2, 0.0), cfg,
                               replace(arch, adaptive=True))
        spec = GridSpec(p01_list=(0.0,), p11_list=(0.5,), horizons=(1,),
                        methods=(METHOD_IMP_PERSISTENCE, METHOD_ARF_LEARNED),
                        runs=2, base_seed=9)
        artifacts = {
            (METHOD_IMP_PERSISTENCE, 1): base.params,
            (METHOD_ARF_LEARNED, 1): part,
        }
        rows = run_grid(spec, {1: hd}, artifacts)
        zero = MissingPattern.zeros(hd.dataset.p)
        from robustcast.models import predict
        base_preds = predict(base.params, hd.test.X, zero.bits)
        expected_imp = nrmse(base_preds, hd.test.y)
        from robustcast.partition import predict_deployed_rows
        part_preds = predict_deployed_rows(part, hd.test.X, np.tile(zero.bits, (hd.test.n, 1)))
        expected_part = nrmse(part_preds, hd.test.y)
        for row in rows:
            if row.method == METHOD_IMP_PERSISTENCE:
                assert row.nrmse == pytest.approx(expected_imp)
            else:
                assert row.nrmse == pytest.approx(expected_part)

    def test_deterministic(self):
        raw, hd, arch, cfg, base, budget = small_setup(seed=4)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.8,), horizons=(1,),
                        methods=(METHOD_IMP_PERSISTENCE, METHOD_IMP_MEAN),
                        runs=2, base_seed=11)
        artifacts = {
            (METHOD_IMP_PERSISTENCE, 1): base.params,
            (METHOD_IMP_MEAN, 1): base.params,
        }
        assert run_grid(spec, {1: hd}, artifacts) == run_grid(spec, {1: hd}, artifacts)

    def test_jobs_parallel_matches_sequential(self, tmp_path):
        raw, hd, arch, cfg, base, budget = small_setup(seed=5)
        hds = {1: hd, 3: HorizonData.build(raw, 0, 1, 3, 0.5, 0.2)}
        spec = GridSpec(p01_list=(0.1, 0.3), p11_list=(0.0, 0.5), horizons=(1, 3),
                        methods=(METHOD_IMP_MEAN, METHOD_IMP_PERSISTENCE), runs=2, base_seed=13)
        artifacts = {(method, h): base.params for method in spec.methods for h in spec.horizons}
        seq = run_grid(spec, hds, artifacts, jobs=1)
        par = run_grid(spec, hds, artifacts, jobs=2)
        assert seq == par
        # one row per method, horizon, cell and run, in that order
        assert [row[:5] for row in seq] == list(itertools.product(
            spec.methods, spec.horizons, spec.p01_list, spec.p11_list, range(spec.runs)))
        emit_report(seq, tmp_path)
        assert read_grid(tmp_path) == seq

    def test_jobs_pickle_a_shared_object_once_per_worker(self):
        # every grid task holds the horizon data and the artifacts, a retrain
        # oracle among them, whose cache fills in the copy a worker holds
        Counted.pickled = 0
        shared = Counted()
        assert map_jobs(_second, [(shared, i) for i in range(6)], 2) == list(range(6))
        assert Counted.pickled == 2

    @pytest.mark.parametrize("tasks, jobs, runs", [(2, 4, 2), (5, 4, 3), (6, 2, 2), (64, 8, 8)])
    def test_jobs_start_only_the_workers_their_runs_use(self, monkeypatch, tasks, jobs, runs):
        # a pool starts all its workers at the first submit under fork, so its
        # size must be the number of runs; the stub starts no process
        import concurrent.futures as cf

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                items = list(items)
                sizes.append((self.max_workers, -(-len(items) // chunksize)))
                return map(fn, items)

        monkeypatch.setattr(cf, "ProcessPoolExecutor", Pool)
        assert map_jobs(_second, [(None, i) for i in range(tasks)], jobs) == list(range(tasks))
        assert sizes == [(runs, runs)]

    def test_missing_artifact_names_cell(self):
        raw, hd, arch, cfg, base, budget = small_setup(seed=6)
        spec = GridSpec(p01_list=(0.1,), p11_list=(0.5,), horizons=(1,),
                        methods=(METHOD_IMP_MEAN,), runs=1, base_seed=1)
        with pytest.raises(ConfigError, match="imp-mean"):
            run_grid(spec, {1: hd}, {})

    def test_retrain_oracle_not_worse_than_single_subset_robust(self):
        # Full recourse should dominate the one-subset robust model under
        # heavy missingness; checked with a one-sided comparison on the
        # pooled per-observation squared errors.
        raw, hd, arch, cfg, base, budget = small_setup(seed=7)
        part = learn_partition(hd.train, hd.val, budget, PartitionConfig(1, 0.0), cfg, arch)
        oracle = RetrainOracle(hd.train, hd.val, cfg, arch)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.9,), horizons=(1,),
                        methods=(METHOD_RETRAIN_ORACLE, METHOD_RF_LEARNED),
                        runs=10, base_seed=17)
        artifacts = {
            (METHOD_RETRAIN_ORACLE, 1): oracle,
            (METHOD_RF_LEARNED, 1): part,
        }
        rows = run_grid(spec, {1: hd}, artifacts)
        oracle_nrmse = np.mean(cell_nrmse(rows, METHOD_RETRAIN_ORACLE, 1, 0.2, 0.9))
        robust_nrmse = np.mean(cell_nrmse(rows, METHOD_RF_LEARNED, 1, 0.2, 0.9))
        scored = (spec, {1: hd}, artifacts, rows)
        oracle_losses = cell_sq_errors(*scored, METHOD_RETRAIN_ORACLE, 1, 0.2, 0.9)
        robust_losses = cell_sq_errors(*scored, METHOD_RF_LEARNED, 1, 0.2, 0.9)
        res = dm_test(oracle_losses, robust_losses)
        one_sided_oracle_better = res.p_value / 2 if res.statistic < 0 else 1.0
        assert oracle_nrmse <= robust_nrmse
        assert one_sided_oracle_better < 0.1


class Counted:
    """Counts how often an instance is pickled in this process."""

    pickled = 0

    def __reduce__(self):
        Counted.pickled += 1
        return Counted, ()


def _second(task):
    return task[1]


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

        params = init_params(lr_arch(hd.dataset), seed % 1000)
        zero = np.zeros(hd.dataset.p, dtype=np.uint8)
        preds = predict_method(
            METHOD_IMP_PERSISTENCE, params, hd, expand_obs_mask(mask, hd.test), filled
        )
        assert preds.tobytes() == predict(params, want, zero).tobytes()

    def test_filled_once_per_cell_across_horizons(self, monkeypatch):
        raw = gen_synthetic(SynthConfig(2, 300, 0.95, 0.6, 0.4, seed=1))
        hds = {h: HorizonData.build(raw, 0, 1, h, 0.5, 0.2) for h in (1, 3)}
        params = init_params(lr_arch(hds[1].dataset), 0)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.5, 0.9), horizons=(1, 3),
                        methods=(METHOD_IMP_PERSISTENCE,), runs=2, base_seed=3)
        artifacts = {(METHOD_IMP_PERSISTENCE, h): params for h in (1, 3)}
        calls = []

        def counted(values, mask):
            calls.append(mask)
            return impute_persistence(values, mask)

        monkeypatch.setattr(evaluation, "impute_persistence", counted)
        rows = run_grid(spec, hds, artifacts)
        assert len(calls) == 4 and len(rows) == 8  # 2 cells x 2 runs x 2 horizons

    @pytest.mark.parametrize("methods", [(METHOD_IMP_PERSISTENCE, METHOD_IMP_MEAN),
                                         (METHOD_IMP_MEAN,)])
    def test_mask_simulated_once_per_cell_and_expanded_once_per_horizon(self, monkeypatch,
                                                                       methods):
        # every method shares one mask per (cell, run) and one expansion per
        # horizon; the persistence fill runs only when imp-persistence is scored
        raw = gen_synthetic(SynthConfig(2, 300, 0.95, 0.6, 0.4, seed=1))
        hds = {h: HorizonData.build(raw, 0, 1, h, 0.5, 0.2) for h in (1, 3)}
        params = init_params(lr_arch(hds[1].dataset), 0)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.5, 0.9), horizons=(1, 3),
                        methods=methods, runs=2, base_seed=3)
        artifacts = {(method, h): params for method in methods for h in (1, 3)}
        calls = dict.fromkeys(("simulate_markov", "expand_obs_mask", "impute_persistence"), 0)
        for name in calls:
            def counted(*args, name=name, fn=getattr(evaluation, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(evaluation, name, counted)
        rows = run_grid(spec, hds, artifacts)
        fills = 4 if METHOD_IMP_PERSISTENCE in methods else 0
        # 2 cells x 2 runs, each expanded at 2 horizons
        assert calls == {"simulate_markov": 4, "expand_obs_mask": 8, "impute_persistence": fills}
        assert len(rows) == 8 * len(methods)

    def test_horizons_from_different_series_rejected(self):
        hds = {
            h: HorizonData.build(gen_synthetic(SynthConfig(2, 300, 0.9, 0.4, 0.3, seed=h)),
                                 0, 1, h, 0.5, 0.2)
            for h in (1, 2)
        }
        params = init_params(lr_arch(hds[1].dataset), 0)
        spec = GridSpec(p01_list=(0.2,), p11_list=(0.5,), horizons=(1, 2),
                        methods=(METHOD_IMP_MEAN,), runs=1, base_seed=3)
        with pytest.raises(ConfigError, match="one raw series"):
            run_grid(spec, hds, {(METHOD_IMP_MEAN, h): params for h in (1, 2)})


class TestEmitReport:
    def run_small(self, seed=8):
        raw, hd, arch, cfg, base, budget = small_setup(seed=seed)
        spec = GridSpec(p01_list=(0.1,), p11_list=(0.0, 0.8), horizons=(1,),
                        methods=(METHOD_IMP_MEAN,), runs=3, base_seed=21)
        artifacts = {(METHOD_IMP_MEAN, 1): base.params}
        return run_grid(spec, {1: hd}, artifacts)

    def test_grid_rows_and_summary_consistency(self, tmp_path):
        rows = self.run_small()
        emit_report(rows, tmp_path)
        grid = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert grid[0] == "method,h,p01,p11,run,nrmse" == ",".join(GridRow._fields)
        assert len(grid) == 1 + 6  # 2 cells x 3 runs
        kinds = (str, int, float, float, int, float)
        assert [GridRow(*(kind(v) for kind, v in zip(kinds, line.split(","))))
                for line in grid[1:]] == rows  # each line parses back to its row
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
        rows = self.run_small()
        emit_report(rows, tmp_path)
        first = (tmp_path / "grid.csv").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        emit_report(rows, tmp_path)
        second = (tmp_path / "grid.csv").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        assert first == second

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(SizeError):
            emit_report([], tmp_path)


# A grid's axes: some of METHODS in any order, distinct horizons >= 1 and
# distinct probabilities, and 1-3 runs.
grid_axes = st.tuples(
    st.permutations(list(METHODS)).flatmap(
        lambda methods: st.integers(1, len(methods)).map(lambda k: methods[:k])),
    *(st.lists(values, min_size=1, max_size=3, unique=True)
      for values in (st.integers(1, 48), st.floats(0, 1), st.floats(0, 1))),
    st.integers(1, 3),
)


def grid_keys(methods, horizons, p01s, p11s, runs) -> list[tuple]:
    """The (method, h, p01, p11, run) of each row evaluate writes, in order."""
    return list(itertools.product(methods, horizons, p01s, p11s, range(runs)))


def write_grid(rows, out_dir: Path) -> None:
    lines = [",".join(GridRow._fields), *(row.line for row in rows)]
    (out_dir / "grid.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadGrid:
    @settings(max_examples=40, deadline=None)
    @given(axes=grid_axes, data=st.data())
    def test_what_emit_report_writes_reads_back_equal(self, axes, data):
        keys = grid_keys(*axes)
        values = data.draw(st.lists(st.floats(0, 1e3), min_size=len(keys), max_size=len(keys)))
        rows = [GridRow(*key, value) for key, value in zip(keys, values)]
        with tempfile.TemporaryDirectory() as out:
            emit_report(rows, out)
            assert read_grid(out) == rows

    @settings(max_examples=80, deadline=None)
    @given(axes=grid_axes, change=st.sampled_from(["reorder", "drop", "repeat", "swap runs"]),
           data=st.data())
    def test_a_reordered_dropped_or_repeated_row_is_refused_naming_a_line(self, axes, change,
                                                                          data):
        rows = [GridRow(*key, float(i)) for i, key in enumerate(grid_keys(*axes))]
        index = st.integers(0, len(rows) - 1)
        if change == "reorder":
            changed = data.draw(st.permutations(rows))
            assume(changed != rows)
        elif change == "drop":
            i = data.draw(index)
            changed = rows[:i] + rows[i + 1:]
        elif change == "repeat":
            i, j = data.draw(index), data.draw(st.integers(0, len(rows)))
            changed = rows[:j] + [rows[i]] + rows[j:]
        else:  # two runs of one cell trade places
            assume(axes[-1] > 1)
            i = data.draw(index)
            j = i - rows[i].run + data.draw(st.integers(0, axes[-1] - 1))
            assume(i != j)
            changed = list(rows)
            changed[i], changed[j] = rows[j], rows[i]
        # A change that leaves the whole grid of other axes (the methods in
        # another order, or without one when no other axis has two values)
        # is what evaluate writes for that grid, so it reads back.
        spread = sum(len(axis) > 1 for axis in axes[:4]) + (axes[-1] > 1)
        span = [list(dict.fromkeys(row[i] for row in changed)) for i in range(4)]
        whole = bool(changed) and [row[:5] for row in changed] == \
            grid_keys(*span, max(row.run for row in changed) + 1)
        if change in ("repeat", "swap runs") or (change == "drop" and spread > 1):
            assert not whole
        with tempfile.TemporaryDirectory() as out:
            write_grid(changed, Path(out))
            if whole:
                assert read_grid(out) == changed
            else:
                with pytest.raises(DataError, match=r"grid\.csv line \d+: "):
                    read_grid(out)


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
            rows = run_grid(spec, hds, {(METHOD_ARF_LEARNED, 1): part})
            oracle.append(float(np.mean(cell_nrmse(rows, METHOD_ARF_LEARNED, 1, *cell))))
        masks = []

        def counted(cfg, n_periods, n_plants):
            masks.append(cfg)
            return simulate_markov(cfg, n_periods, n_plants)

        monkeypatch.setattr(evaluation, "simulate_markov", counted)
        sweep = GridSpec(p01_list=(cell[0],), p11_list=(cell[1],), horizons=(1,),
                         methods=(METHOD_ARF_LEARNED,), runs=runs, base_seed=5)
        rows = q_sweep(sweep, trend_setup.partitions, hds)
        assert len(masks) == runs  # one mask per run, shared by every Q
        assert [r.n_subsets for r in rows] == sorted(trend_setup.partitions)
        assert [r.mean_nrmse for r in rows] == oracle
        par = q_sweep(sweep, trend_setup.partitions, hds, jobs=2)
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
        arch = lr_arch(hd.dataset)
        cfg = TrainConfig(max_iters=5, seed=0)
        params = init_params(arch, 0)
        part = learn_partition(hd.train, hd.val, len(hd.dataset.maskable), PartitionConfig(2, 0.0),
                               cfg, replace(arch, adaptive=True))
        return hd, {
            "ModelParams": params,
            "Partition": part,
            "FixedPartition": FixedPartition([Fit(params, 0.0)]),
            "RetrainOracle": RetrainOracle(hd.train, hd.val, cfg, arch),
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
        spec = GridSpec((0.2,), (0.9,), (1,), (method,), 1, 5)
        with pytest.raises(ConfigError, match=f"learned-partition method, got '{method}'"):
            q_sweep(spec, {2: artifacts[kind]}, {1: hd})

    @pytest.mark.parametrize("axes", [
        {"p01_list": (0.1, 0.2)},
        {"p11_list": (0.0, 0.9)},
        {"horizons": (1, 2)},
        {"methods": (METHOD_ARF_LEARNED, METHOD_RF_LEARNED)},
    ])
    def test_sweep_of_more_than_one_cell_raises_config_error(self, kinds, axes):
        hd, artifacts = kinds
        spec = GridSpec(**{"p01_list": (0.2,), "p11_list": (0.9,), "horizons": (1,),
                           "methods": (METHOD_ARF_LEARNED,), "runs": 1, "base_seed": 5, **axes})
        with pytest.raises(ConfigError, match="q_sweep needs a one-cell grid"):
            q_sweep(spec, {2: artifacts["Partition"]}, {1: hd, 2: hd})


class TestRetrainOracleGuards:
    def test_capacity_guard(self):
        raw = gen_synthetic(SynthConfig(6, 400, 0.9, 0.4, 0.3, seed=9))
        hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)  # 12 maskable features
        cfg = TrainConfig(max_iters=5, seed=0)
        with pytest.raises(ConfigError) as refused:
            RetrainOracle(hd.train, hd.val, cfg, lr_arch(hd.dataset))
        assert str(refused.value) == \
            "retrain oracle limited to 10 maskable features; the data have 12"

    @pytest.mark.parametrize("family", ["lr", "nn"])
    def test_a_layout_of_another_width_is_refused_at_construction(self, family):
        raw = gen_synthetic(SynthConfig(2, 400, 0.9, 0.4, 0.3, seed=9))
        hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
        ds = hd.dataset
        arch = Architecture(family, False, ds.p + 1, (3,) if family == "nn" else (),
                            bias_index=ds.bias_index, maskable=ds.maskable)
        with pytest.raises(DomainError, match="cannot fit data"):
            RetrainOracle(hd.train, hd.val, TrainConfig(seed=0), arch)

    def test_cache_reuses_pattern_models(self):
        raw, hd, arch, cfg, base, budget = small_setup(seed=10)
        oracle = RetrainOracle(hd.train, hd.val, cfg, arch)
        pat = MissingPattern.from_missing(hd.dataset.p, [0])
        a = oracle.params_for(pat)
        b = oracle.params_for(pat)
        assert a is b


class TestExactLinearOracle:
    """A linear oracle model is the exact fit of its pattern on the train
    split, with no training loop."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_the_weights_solve_the_patterns_least_squares(self, monkeypatch, weight_decay):
        loops = []
        monkeypatch.setattr(training, "run_training_loop", lambda *args: loops.append(args))
        raw = gen_synthetic(SynthConfig(3, 600, 0.95, 0.6, 0.4, seed=11))
        hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
        arch = lr_arch(hd.dataset)
        cfg = TrainConfig(weight_decay=weight_decay, seed=0)
        oracle = RetrainOracle(hd.train, hd.val, cfg, arch)
        for missing in ([], [0, 2], [1, 3, 4]):
            pattern = MissingPattern.from_missing(hd.dataset.p, missing)
            w = oracle.params_for(pattern).arrays["w"]
            avail = np.flatnonzero(pattern.bits == 0)
            # the ridge term as extra rows: n * weight_decay * w_j^2 for every
            # available column but the bias
            X, y = hd.train.X[:, avail], hd.train.y
            ridge = np.sqrt(len(y) * weight_decay) * np.diag((avail != arch.bias_index) * 1.0)
            want = np.linalg.lstsq(np.vstack([X, ridge]), np.append(y, np.zeros(len(avail))),
                                   rcond=None)[0]
            np.testing.assert_allclose(w[avail], want, rtol=1e-9)
            assert (w[missing] == 0.0).all()
        assert loops == []

    def test_a_singular_system_is_a_numerical_error(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.normal(size=(50, 2)), np.zeros(50), np.ones(50)])
        ds = Dataset(X=X, y=rng.normal(size=50), bias_index=3, maskable=(0, 1, 2), horizon=1,
                     max_lag=0, obs_periods=np.arange(50))
        oracle = RetrainOracle(ds, ds, TrainConfig(seed=0), lr_arch(ds))
        assert oracle.params_for(MissingPattern.from_missing(4, [2])).arrays["w"][2] == 0.0
        with pytest.raises(NumericalError, match=r"missing \[\] is singular"):
            oracle.params_for(MissingPattern.zeros(4))
