"""robustcast benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lr-pipeline|nn-train|eval-grid \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``). A
run is a closed loop with one client:

* cycles of ``robustcast train`` then ``robustcast evaluate``, one fresh
  process each, ``--jobs 1``, one BLAS thread, repeated while another cycle
  still fits in ``--seconds`` (at least one; exactly one with ``--trace 1``);
* set-up probes around them: fresh processes that stop at the call into
  ``cmd_train``;
* one resident deployment process, started after the first train, that
  streams the h=1 test split row by row, in period order, through
  ``partition.predict_deployed`` once after every other step;
* with ``--trace 1``, one more traced train, evaluate and deploy whose CLI
  outputs must be byte-identical to the untraced ones.

Every timing is scaled to one host speed (``child.host_speed_s``) and
reported as a median over the run's samples. Every cycle's outputs are checked
(see checks.py). The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Full results, with the environment and every sample, go to
``.perfbench/results/``; working outputs go to ``.perfbench/work/`` and are
deleted at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import HOST_SPEED_REF_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lr-pipeline", "nn-train", "eval-grid")
REFERENCE_SEED = 1
RUN_DEADLINE_S = 170.0
# A cycle repeats evaluate until its runs add up to this long, so that a short
# evaluate still yields several samples (the idea of timeit's autorange).
MIN_EVALUATE_S = 2.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "deploy_p50_us": "us",
}

# (metric, unit) of the traced run; `<span>.<stat>` reads the span table or
# the work counters, the rest are derived in per_layer_metrics().
PER_LAYER = [
    ("dataio.gen_synthetic.s", "s"),
    ("dataio.build_supervised.calls", "count"),
    ("dataio.build_supervised.s", "s"),
    ("missingness.simulate_markov.calls", "count"),
    ("missingness.simulate_markov.s", "s"),
    ("missingness.expand_obs_mask.calls", "count"),
    ("missingness.expand_obs_mask.s", "s"),
    ("missingness.expand_obs_mask.patterns", "count"),
    ("missingness.impute_persistence.s", "s"),
    ("models.predict.calls", "count"),
    ("models.predict.s", "s"),
    ("models.predict.rows", "count"),
    ("models.mse_loss.calls", "count"),
    ("models.mse_loss.s", "s"),
    ("models.loss_and_grad.calls", "count"),
    ("models.loss_and_grad.s", "s"),
    ("models.loss_and_grad.rows", "count"),
    ("training.run_training_loop.calls", "count"),
    ("training.run_training_loop.s", "s"),
    ("training.run_training_loop.self_s", "s"),
    ("training.run_training_loop.epochs", "count"),
    ("training.adam_step.calls", "count"),
    ("training.adam_step.s", "s"),
    ("adversarial.find_adversarial.calls", "count"),
    ("adversarial.find_adversarial.s", "s"),
    ("adversarial.find_adversarial.candidates", "count"),
    ("adversarial.find_adversarial.steps", "count"),
    ("adversarial.accepted_per_candidate", "ratio"),
    ("adversarial.greedy_split_feature.calls", "count"),
    ("adversarial.greedy_split_feature.s", "s"),
    ("partition.learn_partition.calls", "count"),
    ("partition.learn_partition.s", "s"),
    ("partition.learn_partition.self_s", "s"),
    ("partition.learn_partition.leaves", "count"),
    ("partition.fixed_partition.calls", "count"),
    ("partition.fixed_partition.s", "s"),
    ("partition.predict_deployed_rows.s", "s"),
    ("partition.predict_deployed_rows.rows", "count"),
    ("partition.predict_fixed_rows.s", "s"),
    ("partition.predict_fixed_rows.rows", "count"),
    ("partition.predict_deployed.calls", "count"),
    ("partition.predict_deployed.s", "s"),
    ("partition.save_artifact.calls", "count"),
    ("partition.save_artifact.s", "s"),
    ("partition.save_artifact.bytes", "B"),
    ("partition.load_artifact.calls", "count"),
    ("partition.load_artifact.s", "s"),
    ("partition.load_artifact.bytes", "B"),
    ("evaluation.run_grid.calls", "count"),
    ("evaluation.run_grid.s", "s"),
    ("evaluation.run_grid.cells", "count"),
    ("evaluation.run_grid.cell_s", "s"),
    ("evaluation.predict_method.imp-persistence.s", "s"),
    ("evaluation.predict_method.imp-mean.s", "s"),
    ("evaluation.predict_method.arf-learned.s", "s"),
    ("evaluation.predict_method.arf-fixed.s", "s"),
    ("evaluation.q_sweep.s", "s"),
    ("cli.cmd_train.s", "s"),
    ("cli.cmd_evaluate.s", "s"),
    ("cli.cmd_train.trace_overhead_s", "s"),
    ("cli.cmd_evaluate.trace_overhead_s", "s"),
    ("deploy_p99_us", "us"),
    ("failed_share", "ratio"),
]


class Run:
    """Spawns the benchmark's child processes and keeps the run's tallies."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path, deadline: float):
        self.root = root
        self.config_path = HERE / "workloads" / f"{workload}.json"
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spawned = 0

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    def _command(self, mode: str, out_dir: Path, trace: bool) -> tuple[list[str], Path, Path]:
        self.spawned += 1
        tag = f"{self.spawned:03d}-{mode}"
        report = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--report", str(report)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", "--config", str(self.config_path), "--seed", str(self.seed),
                "--jobs", "1", "--out", str(out_dir)]
        return cmd, report, self.work / f"{tag}.log"

    def _report(self, name: str, returncode: int, report: Path, log: Path) -> dict | None:
        if returncode != 0 or not report.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-800:]
            self.fail(f"{name}: exit code {returncode}: {tail}")
            return None
        return json.loads(report.read_text(encoding="utf-8"))

    def child(self, mode: str, out_dir: Path, trace: bool = False) -> dict | None:
        """Run one CLI process (one operation); returns its report with
        ``setup_s`` added, or None when it failed."""
        cmd, report, log = self._command(mode, out_dir, trace)
        self.attempted += 1
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            self.fail(f"{log.stem}: no time left in the run deadline")
            return None
        with open(log, "wb") as fh:
            t_spawn = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=fh,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                self.fail(f"{log.stem}: killed at the run deadline")
                return None
        result = self._report(log.stem, proc.returncode, report, log)
        if result is not None:
            result["setup_s"] = result["t_call"] - t_spawn
        return result


class Deployer:
    """The resident deployment process: each ``burst`` streams the test split
    once through ``predict_deployed``; every row is one operation."""

    def __init__(self, run: Run, out_dir: Path, trace: bool):
        self.run = run
        cmd, self.report_path, self.log = run._command("deploy", out_dir, trace)
        with open(self.log, "wb") as fh:
            self.proc = subprocess.Popen(cmd, cwd=run.root, env=run.env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=fh, text=True)
        self.bursts: list[dict] = []

    def burst(self, kind: str = "timed") -> bool:
        try:
            self.proc.stdin.write(kind + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return False
        line = self.proc.stdout.readline()
        if not line:
            return False
        burst = json.loads(line)
        self.run.attempted += burst["rows"]
        if burst["mismatched_rows"]:
            self.run.fail(f"deploy: {burst['mismatched_rows']} rows differ from batched "
                          "deployment", count=burst["mismatched_rows"])
        if kind == "timed":
            self.bursts.append(burst)
        return True

    def close(self) -> dict | None:
        """End the process; returns its report, or None when it failed."""
        try:
            self.proc.communicate(timeout=max(self.run.deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        report = self.run._report(self.log.stem, self.proc.returncode, self.report_path, self.log)
        return report if report is not None and self.bursts else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _scaled(seconds: float, report: dict) -> float:
    return seconds * HOST_SPEED_REF_S / report["host_speed_s"]


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _diff(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    names = sorted(set(a) | set(b))
    return [n for n in names if a.get(n) != b.get(n)]


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_ENV,
        "platform": platform.platform(),
    }


def per_layer_metrics(traced: list[dict], traced_deploy: dict, untraced_train_s: float,
                      untraced_evaluate_s: float, deploy_p99_us: float,
                      failed_share: float) -> dict[str, float]:
    """The per-layer table. ``traced`` holds the traced train and evaluate
    reports; of the traced deploy report only its ``predict_deployed`` row
    counts, so that single-row deployment never moves the layers that track
    train and evaluate."""
    table: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for report in traced:
        for name, row in report["table"].items():
            agg = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat in agg:
                agg[stat] += row[stat]
        for name, value in report["counts"].items():
            counts[name] = counts.get(name, 0) + value
    table["partition.predict_deployed"] = traced_deploy["table"]["partition.predict_deployed"]

    def stat(name: str) -> float:
        span, _, key = name.rpartition(".")
        if span in table and key in table[span]:
            return table[span][key]
        return counts.get(name, 0)

    train, evaluate = traced
    derived = {
        "adversarial.accepted_per_candidate": (
            stat("adversarial.find_adversarial.steps")
            / max(stat("adversarial.find_adversarial.candidates"), 1)
        ),
        "evaluation.run_grid.cell_s": (
            stat("evaluation.run_grid.s") / max(stat("evaluation.run_grid.cells"), 1)
        ),
        # both sides scaled to one host speed, like the end-to-end timings
        "cli.cmd_train.trace_overhead_s": _scaled(train["cmd_s"], train) - untraced_train_s,
        "cli.cmd_evaluate.trace_overhead_s": (
            _scaled(evaluate["cmd_s"], evaluate) - untraced_evaluate_s
        ),
        "deploy_p99_us": deploy_p99_us,
        "failed_share": failed_share,
    }
    return {name: derived[name] if name in derived else stat(name) for name, _ in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description="robustcast benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "robustcast" / "__init__.py").is_file():
        print(f"error: {root} holds no robustcast sources (src/robustcast); "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import checks

    config = json.loads((HERE / "workloads" / f"{args.workload}.json").read_text(encoding="utf-8"))
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(
            (HERE / "reference" / f"{args.workload}.json").read_text(encoding="utf-8")
        )

    base = root / ".perfbench"
    work = base / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, args.workload, args.seed, work, t_start + RUN_DEADLINE_S)
    setups, cycles, traced = [], [], []
    deployer = traced_deployer = deploy_report = traced_deploy = None
    try:
        for problem in checks.config_problems(config):
            run.fail(problem)

        def probe():
            report = run.child("setup", work / "probe")
            if report is not None:
                setups.append(report)

        def burst():
            if deployer is not None and not deployer.burst():
                run.fail("deploy process stopped answering")

        # Steps are interleaved (probe, deploy, train, deploy, probe, deploy,
        # evaluate, deploy [, evaluate, deploy ...]) so that a few seconds of host slowdown touch only a
        # few samples of each metric. Another cycle starts only while one more
        # of the same length still fits in --seconds.
        first_outputs = None
        t_measure = time.perf_counter()
        while True:
            t_cycle = time.perf_counter()
            out_dir = work / f"cycle{len(cycles)}"
            probe()
            burst()
            train = run.child("train", out_dir)
            if train is None:
                break
            if deployer is None:
                # every cycle writes the same artifacts (checked below)
                deployer = Deployer(run, out_dir, trace=False)
                deployer.burst("warmup")
            burst()
            probe()
            burst()
            evaluates = []
            while sum(e["cmd_s"] for e in evaluates) < MIN_EVALUATE_S:
                evaluate = run.child("evaluate", out_dir)
                if evaluate is None:
                    break
                evaluates.append(evaluate)
                burst()
            if evaluate is None:
                break
            leaves, inversions = {}, []
            try:
                cycle_problems = checks.output_problems(config, out_dir, reference)
                leaves = {n: t["leaves"] for n, t in checks.learned_trees(config, out_dir).items()}
                inversions = checks.bound_inversions(config, out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                cycle_problems = [f"outputs unreadable: {exc!r}"]
            outputs = _outputs(out_dir)
            if first_outputs is None:
                first_outputs = outputs
            elif _diff(first_outputs, outputs):
                cycle_problems.append(f"outputs differ from cycle 0: {_diff(first_outputs, outputs)}")
            if cycle_problems:
                # the cycle's evaluate command produced these outputs
                run.fail(f"cycle {len(cycles)}: " + "; ".join(cycle_problems))
            setups.append(train)
            cycles.append({"train": train, "evaluates": evaluates, "leaves": leaves,
                           "inversions": inversions})
            shutil.rmtree(out_dir)
            cycle_s = time.perf_counter() - t_cycle
            # a traced run times its traced cycle; one untraced cycle is its baseline
            if args.trace or time.perf_counter() - t_measure + cycle_s > args.seconds:
                break
        if deployer is not None:
            deploy_report = deployer.close()

        if args.trace and cycles:
            out_dir = work / "traced"
            for mode in ("train", "evaluate"):
                report = run.child(mode, out_dir, trace=True)
                if report is None:
                    break
                traced.append(report)
            if len(traced) == 2:
                changed = _diff(first_outputs, _outputs(out_dir))
                if changed:
                    run.fail(f"traced run changed CLI outputs: {changed}")
                traced_deployer = Deployer(run, out_dir, trace=True)
                for kind in ("warmup", "timed", "timed"):
                    traced_deployer.burst(kind)
                traced_deploy = traced_deployer.close()
    finally:
        for d in (deployer, traced_deployer):
            if d is not None:
                d.kill()
        shutil.rmtree(work, ignore_errors=True)

    trains = [c["train"] for c in cycles]
    evaluates = [e for c in cycles for e in c["evaluates"]]
    train_s = [r["cmd_s"] for r in trains]
    evaluate_s = [r["cmd_s"] for r in evaluates]
    rss_kb = [r["maxrss_kb"] for c in cycles for r in (c["train"], *c["evaluates"])]
    bursts = deployer.bursts if deployer is not None else []
    complete = bool(cycles) and deploy_report is not None and (
        not args.trace or (len(traced) == 2 and traced_deploy is not None)
    )
    metrics: dict[str, dict] = {}
    if complete and not args.trace:
        # The shared host alternates, for a second to minutes at a time,
        # between speed states 1.5-2x apart; every timing is scaled to one
        # host speed before the medians are taken.
        values = {
            "setup_s": statistics.median(_scaled(r["setup_s"], r) for r in setups),
            "train_s": statistics.median(_scaled(r["cmd_s"], r) for r in trains),
            "evaluate_s": statistics.median(_scaled(r["cmd_s"], r) for r in evaluates),
            "peak_rss_mb": max(rss_kb) / 1024.0,
            "deploy_p50_us": statistics.median(b["scaled_p50_us"] for b in bursts),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    elif complete:
        values = per_layer_metrics(
            traced, traced_deploy,
            statistics.median(_scaled(r["cmd_s"], r) for r in trains),
            statistics.median(_scaled(r["cmd_s"], r) for r in evaluates),
            deploy_report["deploy"]["p99_us"], run.failed / max(run.attempted, 1),
        )
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER}
    if not complete and not run.problems:
        run.fail("run did not complete")
    correct = complete and run.failed == 0 and not run.problems

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "reference_checked": reference is not None,
        "setup_samples_s": [r["setup_s"] for r in setups],
        "host_speed_s": {
            "setup": [r["host_speed_s"] for r in setups],
            "train": [r["host_speed_s"] for r in trains],
            "evaluate": [r["host_speed_s"] for r in evaluates],
        },
        "train_samples_s": train_s,
        "evaluate_samples_s": evaluate_s,
        "peak_rss_kb": rss_kb,
        "deploy_bursts": bursts,
        "deploy": deploy_report and deploy_report["deploy"],
        "leaves": [c["leaves"] for c in cycles],
        "bound_inversions": [c["inversions"] for c in cycles],
        "traced_spans": sum(r.get("spans", 0) for r in (*traced, traced_deploy) if r),
        "traced_table": {r["mode"]: r["table"] for r in (*traced, traced_deploy) if r},
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / max(run.attempted, 1),
        "metrics": metrics,
        "wall_s": time.perf_counter() - t_start,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )

    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} cycles={len(cycles)} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} threads=1")
    print(f"# samples: setup={len(setups)} train={len(trains)} evaluate={len(evaluates)} "
          f"deploy_bursts={len(bursts)} (median of each)")
    print(f"# learned-tree leaves per cycle: {result['leaves']}; subsets with UB < LB "
          f"per cycle: {[len(c['inversions']) for c in cycles]}")
    for problem in run.problems:
        print(f"# FAILED: {problem[:2000]}")
    print(f"# failed_share = {result['failed_share']:.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
