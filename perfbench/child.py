"""One benchmark process: runs a single robustcast command and reports how
long it took.

    python3 perfbench/child.py train|evaluate|setup --report R.json [--trace] -- <CLI args>
    python3 perfbench/child.py deploy --report R.json [--trace] -- <CLI args>  (stdin: warmup|timed lines)

`train` / `evaluate` go through ``robustcast.cli.main`` (so flag parsing,
config loading and exit codes are the CLI's own) with ``cmd_train`` /
``cmd_evaluate`` wrapped by a timer. `setup` stops at the call into
``cmd_train``: it measures interpreter start, ``import robustcast`` and config
loading only. `deploy` stays resident: for each line on stdin it streams the
h=1 test split row by row through ``partition.predict_deployed`` on the
trained ``arf-learned`` artifact and answers with one JSON line.

The report (JSON) holds ``t_call``, the ``time.perf_counter()`` reading at the
call into the command (CLOCK_MONOTONIC, so the parent can subtract its own
spawn time), the command's wall time without the host-speed readings taken
during it, the mean of all its readings (``host_speed_s``), the exit code,
the peak RSS and, with ``--trace``, the per-function span table. Nothing is
written into the CLI's output directory except what the CLI itself writes.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

from tracer import Tracer, install

# Deployment-phase missingness: the heaviest grid cell, so rows route through
# many different leaves and patterns.
DEPLOY_P01 = 0.2
DEPLOY_P11 = 0.9
DEPLOY_HORIZON = 1
DEPLOY_METHOD = "arf-learned"
# Single-row and batched deployment must agree to this relative tolerance.
DEPLOY_REL_TOL = 1e-9
# Period of the host-speed readings during an untraced train or evaluate.
PROBE_PERIOD_S = 0.25
# Timings are scaled to one host speed: time * HOST_SPEED_REF_S / the
# host_speed_s() reading around it. The value is that reading on the 2-core
# host the benchmark was defined on, in its fast state; it only sets the unit,
# any constant would do.
HOST_SPEED_REF_S = 0.00675
# A deploy pass reads host speed every this many rows, and scales each row's
# latency by the readings around its chunk: the host changes speed within a
# pass.
DEPLOY_CHUNK_ROWS = 500


def host_speed_s() -> float:
    """Seconds a fixed mix of pure-Python, small-array and 3400-row numpy work
    takes right now (about 7 ms on the defining host in its fast state). The
    mix slows down with the shared host the way robustcast's code does, so
    timings can be scaled to one host speed. It never calls robustcast, so a
    change to the program cannot move it."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for k in range(15000):
        total += k * k
    rng = np.random.default_rng(0)
    a, w = rng.random(13), rng.random(13)
    bits = (rng.random(13) < 0.3).astype(np.uint8)
    for _ in range(750):
        m = a * (1.0 - bits)
        total += float(m @ w) + bool(np.all(bits == bits))
    A = rng.random((3400, 13))
    for _ in range(10):
        r = (A * (1.0 - bits)) @ w - 0.5
        total += float(np.mean(r * r))
    return time.perf_counter() - t0


class SpeedProbe:
    """Host-speed readings around and during one command. Besides a reading
    just before and just after, an interval timer (SIGALRM) takes one every
    PROBE_PERIOD_S, so a host slowdown in the middle of a long command is seen
    too. The timer interrupts whatever runs, so it needs no hook into
    robustcast. ``spent`` is the time the readings took during the command,
    which its wall time excludes."""

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.readings: list[float] = []
        self.spent = 0.0

    def read(self) -> None:
        t0 = time.perf_counter()
        self.readings.append(host_speed_s())
        self.spent += time.perf_counter() - t0

    def _tick(self, *_signal) -> None:
        self.read()
        # one-shot, re-armed after the reading, so readings never nest
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def start(self) -> None:
        self.spent = 0.0
        if self.periodic:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    def stop(self) -> None:
        if self.periodic:
            # ignore first: a tick still pending would otherwise re-arm
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _timed(fn, report: dict, probe: SpeedProbe, stub: bool):
    def wrapper(*args, **kwargs):
        report["t_call"] = time.perf_counter()
        host_speed_s()  # the first call in a process pays one-time costs
        probe.read()
        if stub:
            report["host_speed_s"] = probe.readings[0]
            return 0
        probe.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            probe.stop()
            report["cmd_s"] = time.perf_counter() - t0 - probe.spent
            probe.read()
            report["host_speed_s"] = sum(probe.readings) / len(probe.readings)
            report["host_speed_readings"] = len(probe.readings)

    return wrapper


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_cli(mode: str, cli_args: list[str], report: dict, tracer: Tracer | None) -> int:
    import robustcast.cli as cli

    # a traced command reads host speed only before and after, so that no
    # span holds reading time
    probe = SpeedProbe(periodic=tracer is None)
    if tracer is not None:
        report["wrapped_attributes"] = len(install(tracer))
    if mode == "evaluate":
        cli.cmd_evaluate = _timed(cli.cmd_evaluate, report, probe, stub=False)
        command = "evaluate"
    else:
        cli.cmd_train = _timed(cli.cmd_train, report, probe, stub=mode == "setup")
        command = "train"
    return cli.main([command, *cli_args])


def run_deploy(cli_args: list[str], report: dict, tracer: Tracer | None) -> int:
    """Resident deployment: load once, then one pass over the test split per
    line read from stdin ("warmup" or "timed"), answering each with one JSON
    line of that pass's latency quantiles. Timed passes are also pooled into
    the report written at EOF. With a tracer, wrapping starts at the first
    timed pass, so the span table holds timed passes only."""
    import numpy as np

    import robustcast.partition as partition
    from robustcast.cli import build_parser, load_run_config
    from robustcast.dataio import gen_synthetic
    from robustcast.evaluation import HorizonData
    from robustcast.missingness import MissingnessConfig, expand_obs_mask, simulate_markov

    args = build_parser().parse_args(["evaluate", *cli_args])
    cfg = load_run_config(args.config, args.seed, args.out)
    raw = gen_synthetic(cfg.synth)
    hd = HorizonData.build(
        raw, cfg.target_plant, cfg.max_lag, DEPLOY_HORIZON, cfg.train_frac, cfg.val_frac
    )
    part = partition.load_artifact(Path(cfg.out_dir) / f"{DEPLOY_METHOD}_h{DEPLOY_HORIZON}.json")
    mask = simulate_markov(
        MissingnessConfig(p01=DEPLOY_P01, p11=DEPLOY_P11, seed=cfg.seed),
        raw.n_periods,
        raw.n_plants,
    )
    patterns = expand_obs_mask(mask, hd.dataset)[hd.test_start : hd.test_start + hd.test.n]
    X = hd.test.X
    rows = [X[i] for i in range(X.shape[0])]
    batched = partition.predict_deployed_rows(part, X, patterns)
    tolerance = DEPLOY_REL_TOL * np.maximum(1.0, np.abs(batched))

    clock = time.perf_counter_ns
    single = np.empty(len(rows))
    pooled: list[int] = []
    report["t_call"] = time.perf_counter()
    host_speed_s()  # the first call in a process pays one-time costs
    while (kind := sys.stdin.readline().strip()) in ("warmup", "timed"):
        if tracer is not None and kind == "timed" and "wrapped_attributes" not in report:
            report["wrapped_attributes"] = len(install(tracer))
        latencies: list[int] = []
        scaled: list[float] = []
        readings = [host_speed_s()]
        for start in range(0, len(rows), DEPLOY_CHUNK_ROWS):
            chunk = []
            for i in range(start, min(start + DEPLOY_CHUNK_ROWS, len(rows))):
                t = clock()
                single[i] = partition.predict_deployed(part, rows[i], patterns[i])
                chunk.append(clock() - t)
            readings.append(host_speed_s())
            factor = HOST_SPEED_REF_S / ((readings[-2] + readings[-1]) / 2)
            latencies += chunk
            scaled += [ns * factor for ns in chunk]
        bad = ~np.isfinite(single) | (np.abs(single - batched) > tolerance)
        if kind == "timed":
            pooled += latencies
        latencies.sort()
        scaled.sort()
        print(json.dumps({
            "kind": kind,
            "rows": len(rows),
            "mismatched_rows": int(bad.sum()),
            "p50_us": _quantile(latencies, 0.50) / 1e3,
            "p99_us": _quantile(latencies, 0.99) / 1e3,
            "scaled_p50_us": _quantile(scaled, 0.50) / 1e3,
            "host_speed_s": sum(readings) / len(readings),
        }), flush=True)
    pooled.sort()
    report["deploy"] = {
        "samples": len(pooled),
        "p50_us": _quantile(pooled, 0.50) / 1e3 if pooled else None,
        "p99_us": _quantile(pooled, 0.99) / 1e3 if pooled else None,
        "p01": DEPLOY_P01,
        "p11": DEPLOY_P11,
    }
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("train", "evaluate", "setup", "deploy"))
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    report: dict = {"mode": args.mode}
    tracer = Tracer() if args.trace else None
    if args.mode == "deploy":
        rc = run_deploy(cli_args, report, tracer)
    else:
        rc = run_cli(args.mode, cli_args, report, tracer)
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["spans"] = tracer.span_count
        report["table"] = tracer.table()
        report["counts"] = dict(tracer.counts)
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
