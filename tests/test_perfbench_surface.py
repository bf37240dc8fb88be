"""The library surface the benchmark in perfbench/ reads, checked here so a
rename in robustcast fails the test suite rather than only perfbench/run.py:
the RunConfig fields each workload key lands in, and the results its tracer
counts work from (tracer.COUNTERS), produced by the real functions, and the
check it makes of every run's outputs (checks.output_problems)."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robustcast import partition
from robustcast.cli import build_parser, load_run_config
from robustcast.dataio import SynthConfig, gen_synthetic
from robustcast.evaluation import HorizonData
from robustcast.missingness import MissingnessConfig, expand_obs_mask, simulate_markov
from robustcast.models import Architecture
from robustcast.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted((PERFBENCH / "workloads").glob("*.json"))


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _perfbench_module("checks")
tracer = _perfbench_module("tracer")


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, which imports its sibling child.py by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _perfbench_module("run")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_there_are_workloads():
    assert [p.stem for p in WORKLOADS] == ["eval-grid", "lr-pipeline", "nn-train"]


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_every_workload_key_reaches_its_run_config_field(path, tmp_path):
    config = json.loads(path.read_text(encoding="utf-8"))
    assert checks.config_problems(config) == []
    # how the deployment child loads the same config
    args = build_parser().parse_args(
        ["evaluate", "--config", str(path), "--seed", "2", "--out", str(tmp_path)])
    cfg = load_run_config(args.config, args.seed, args.out)
    assert (cfg.seed, cfg.synth.seed, cfg.out_dir) == (2, 2, str(tmp_path))


def test_the_tracer_counts_work_from_real_results(tmp_path):
    raw = gen_synthetic(SynthConfig(2, 400, 0.95, 0.5, 0.4, seed=3))
    hd = HorizonData.build(raw, 0, 1, 1, 0.5, 0.2)
    arch = Architecture("lr", True, hd.dataset.p, bias_index=hd.dataset.bias_index,
                        maskable=hd.dataset.maskable)
    cfg = TrainConfig(learning_rate=0.02, max_iters=4, patience=4, batch_size=64, seed=1)
    mask = simulate_markov(MissingnessConfig(p01=0.2, p11=0.8, seed=1), raw.n_periods,
                           raw.n_plants)
    patterns = expand_obs_mask(mask, hd.dataset)[hd.test_start : hd.test_start + hd.test.n]
    X, n = hd.test.X, hd.test.n

    t = tracer.Tracer()
    replaced = tracer.install(t)
    try:
        learned = partition.learn_partition(hd.train, hd.val, 3,
                                            partition.PartitionConfig(3, 0.0), cfg, arch)
        fixed = partition.fixed_partition(hd.train, hd.val, 3, cfg, arch)
        partition.predict_deployed_rows(learned, X, patterns)
        partition.predict_fixed_rows(fixed, X, patterns)
        partition.predict_deployed(learned, X[0], patterns[0])
        path = tmp_path / "learned.json"
        partition.save_artifact(learned, path)
        partition.load_artifact(path)
    finally:
        tracer.restore(replaced)

    table, counts = t.table(), t.counts
    loops = table["training.run_training_loop"]["calls"]
    # the root's two fits, two more for each of the 2 splits, budget + 1 fixed fits
    assert loops == 2 + 2 * 2 + 4
    epochs = counts["training.run_training_loop.epochs"]
    assert loops <= epochs <= 4 * loops
    # one loss_and_grad call per mini-batch, each training row once an epoch
    n_train = hd.train.n
    assert table["models.loss_and_grad"]["calls"] == epochs * -(-n_train // cfg.batch_size)
    assert counts["models.loss_and_grad.rows"] == epochs * n_train
    assert 0 < counts["adversarial.find_adversarial.steps"] \
        < counts["adversarial.find_adversarial.candidates"]
    assert counts["partition.learn_partition.leaves"] == len(learned.leaf_ids) == 3
    assert counts["partition.predict_deployed_rows.rows"] == n
    assert counts["partition.predict_fixed_rows.rows"] == n
    assert table["partition.predict_deployed"]["calls"] == 1
    size = path.stat().st_size
    assert counts["partition.save_artifact.bytes"] == counts["partition.load_artifact.bytes"] \
        == size


@pytest.mark.parametrize("path", WORKLOADS, ids=lambda p: p.stem)
def test_outputs_pass_the_benchmarks_check_at_the_reference_seed(path, tmp_path, run):
    """train + evaluate as the benchmark runs them (one BLAS thread, --jobs 1):
    exact split features and leaf counts, and nrmse values close to
    perfbench/reference, so a change to the learned-file keys the benchmark
    reads fails here too. Then `report`, which must rewrite summary.csv to
    the same bytes from grid.csv."""
    config = json.loads(path.read_text(encoding="utf-8"))
    reference = json.loads((PERFBENCH / "reference" / path.name).read_text(encoding="utf-8"))
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, **run.BLAS_ENV)

    def robustcast(command, *flags):
        subprocess.run([sys.executable, "-m", "robustcast", command, "--config", str(path),
                        "--seed", str(run.REFERENCE_SEED), *flags, "--out", str(out)],
                       env=env, check=True, capture_output=True)

    robustcast("train", "--jobs", "1")
    robustcast("evaluate", "--jobs", "1")
    assert checks.output_problems(config, out, reference) == []
    summary = (out / "summary.csv").read_bytes()
    robustcast("report")
    assert (out / "summary.csv").read_bytes() == summary
