"""Subcommand front-end: synth, train, evaluate, report.

All knobs live in one JSON run config; flags only override the seed, the
output directory, and the worker count. Exit codes: 0 success, 2 config
error, 3 data error, 4 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from ._util import derive_seed
from .dataio import RawSeries, SynthConfig, gen_synthetic, load_csv, save_csv
from .evaluation import (
    METHOD_ARF_FIXED,
    METHOD_ARF_LEARNED,
    METHOD_IMP_PERSISTENCE,
    METHOD_RETRAIN_ORACLE,
    METHOD_RF_FIXED,
    METHOD_RF_LEARNED,
    METHODS,
    GridSpec,
    HorizonData,
    RetrainOracle,
    emit_report,
    q_sweep,
    run_grid,
    summary_csv,
)
from .exceptions import ConfigError, DataError, RobustcastError
from .missingness import MissingnessConfig, MissingPattern
from .models import Architecture, ModelParams
from .partition import (
    FixedPartition,
    Partition,
    PartitionConfig,
    UncertaintySet,
    bounds_table,
    fixed_partition,
    learn_partition,
    load_artifact,
    param_sets,
    save_artifact,
    truncate,
)
from .training import TrainConfig, train_nominal

DEFAULT_HIDDEN = (50, 50, 50, 50)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: str
    csv_path: str | None
    synth: SynthConfig | None
    target_plant: int
    max_lag: int
    horizons: tuple[int, ...]
    family: str
    adaptive: bool
    hidden: tuple[int, ...]
    train_frac: float
    val_frac: float
    train: TrainConfig
    partition_mode: str
    partition: PartitionConfig
    budget: int | None
    has_grid: bool
    grid_p01: tuple[float, ...]
    grid_p11: tuple[float, ...]
    grid_methods: tuple[str, ...]
    grid_runs: int
    qsweep_list: tuple[int, ...] | None
    qsweep_p01: float
    qsweep_p11: float
    qsweep_method: str


# Every key a run config may hold, with the JSON type of its value: a nested
# dict is a block of its own, [kind] a list of that kind, and float admits
# integers too. None in a tuple admits null (the key then takes its default).
_CONFIG_KEYS = {
    "seed": int, "out_dir": str, "target_plant": int, "max_lag": int, "horizons": [int],
    "family": str, "adaptive": bool, "hidden": [int],
    "data": {"csv": (str, None), "synth": {
        "n_plants": int, "n_periods": int, "ar_coefficient": float,
        "cross_plant_correlation": float, "noise_std": float, "obs_noise_std": float,
        "seed": int,
    }},
    "split": {"train_frac": float, "val_frac": float},
    "train": {
        "learning_rate": float, "max_iters": int, "patience": int, "batch_size": int,
        "weight_decay": float, "shuffle": bool,
    },
    "partition": {"mode": str, "q_max": int, "epsilon": float, "budget": (int, None)},
    "grid": {"p01": [float], "p11": [float], "methods": [str], "runs": int},
    "q_sweep": {"q_list": [int], "p01": float, "p11": float, "method": str},
}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_kind(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(value is None if k is None else _is_kind(value, k) for k in kind)
    if kind is bool:
        return isinstance(value, bool)
    # bool is an int subclass, but true is neither a count nor a rate; nor
    # are NaN and Infinity
    numeric = (int, float) if kind is float else kind
    return isinstance(value, numeric) and not isinstance(value, bool) \
        and (type(value) is not float or math.isfinite(value))


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return f"a list, each item {_kind_name(kind[0])}"
    if isinstance(kind, tuple):
        return " or ".join("null" if k is None else _kind_name(k) for k in kind)
    return {int: "an integer", float: "a finite number", bool: "true or false",
            str: "a string"}[kind]


def _check_config(obj, keys: dict = _CONFIG_KEYS, where: str = "", allow_unknown=False) -> None:
    """Reject a value of the wrong type and, unless allow_unknown, any key
    the run config has no use for, at any level; `where` is the dotted path
    prefix of `obj` ("" at the top)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where.rstrip('.') or 'the run config'} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown and not allow_unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(where + k for k in unknown))
    for key, kind in keys.items():
        if key not in obj:
            continue
        if isinstance(kind, dict):
            _check_config(obj[key], kind, f"{where}{key}.", allow_unknown)
        elif not _is_kind(obj[key], kind):
            raise ConfigError(f"{where}{key} must be {_kind_name(kind)}, got {obj[key]!r}")


def parse_run_config(obj: dict) -> RunConfig:
    """The RunConfig a run config describes. A value of the wrong type
    raises ConfigError; unknown keys are ignored here (load_run_config
    rejects them), so a caller can still list them."""
    _check_config(obj, allow_unknown=True)
    try:
        data = obj.get("data", {})
        csv_path = data.get("csv")
        synth = None
        if "synth" in data:
            s = data["synth"]
            synth = SynthConfig(
                n_plants=s["n_plants"],
                n_periods=s["n_periods"],
                ar_coefficient=s.get("ar_coefficient", 0.97),
                cross_plant_correlation=s.get("cross_plant_correlation", 0.5),
                noise_std=s.get("noise_std", 0.2),
                obs_noise_std=s.get("obs_noise_std", 0.0),
                seed=s.get("seed", obj.get("seed", 0)),
            )
        if (csv_path is None) == (synth is None):
            raise ConfigError("config must name exactly one data source: data.csv or data.synth")

        family = obj.get("family", "lr")
        if family not in ("lr", "nn"):
            raise ConfigError(f"family must be 'lr' or 'nn', got {family!r}")
        # the config classes hold the defaults, except weight_decay (by family); each
        # training run's seed is derived from the run seed (see _train_config)
        tr = {k: v for k, v in obj.get("train", {}).items() if k in _CONFIG_KEYS["train"]}
        train_cfg = TrainConfig(**{"weight_decay": 1e-5 if family == "nn" else 0.0, **tr})
        part = obj.get("partition", {})
        mode = part.get("mode", "learned")
        if mode not in ("learned", "fixed", "nominal"):
            raise ConfigError(f"partition.mode must be learned|fixed|nominal, got {mode!r}")
        pcfg = PartitionConfig(
            **{field: part[key] for key, field in (("q_max", "max_subsets"), ("epsilon", "epsilon"))
               if key in part}
        )
        grid = obj.get("grid", {})
        spec = GridSpec(
            p01_list=tuple(grid.get("p01", [0.05, 0.1, 0.2])),
            p11_list=tuple(grid.get("p11", [0.0, 0.8, 0.9])),
            horizons=tuple(obj.get("horizons", [1])),
            methods=tuple(grid.get("methods", [METHOD_IMP_PERSISTENCE, METHOD_ARF_LEARNED])),
            runs=grid.get("runs", 10),
            base_seed=obj.get("seed", 0),
        )
        has_sweep = "q_sweep" in obj
        qs = {"p01": 0.2, "p11": 0.9, "method": METHOD_ARF_LEARNED, **obj.get("q_sweep", {})}
        if has_sweep:
            learned = [m for m, entry in METHODS.items() if entry.artifact is Partition]
            if qs["method"] not in learned:
                raise ConfigError(
                    f"q_sweep.method must be a learned method ({' or '.join(learned)}), "
                    f"got {qs['method']!r}"
                )
            q_list = qs["q_list"]
            if not q_list or min(q_list) < 1 or len(set(q_list)) < len(q_list):
                raise ConfigError(f"q_sweep.q_list must list distinct Q values >= 1, got {q_list!r}")
            MissingnessConfig(p01=qs["p01"], p11=qs["p11"], seed=spec.base_seed)
        split = obj.get("split", {})
        return RunConfig(
            seed=spec.base_seed,
            out_dir=obj.get("out_dir", "runs/out"),
            csv_path=csv_path,
            synth=synth,
            target_plant=obj.get("target_plant", 0),
            max_lag=obj.get("max_lag", 2),
            horizons=spec.horizons,
            family=family,
            adaptive=obj.get("adaptive", True),
            hidden=tuple(obj.get("hidden", DEFAULT_HIDDEN)),
            train_frac=split.get("train_frac", 0.5),
            val_frac=split.get("val_frac", 0.15),
            train=train_cfg,
            partition_mode=mode,
            partition=pcfg,
            budget=part.get("budget"),
            has_grid="grid" in obj,
            grid_p01=spec.p01_list,
            grid_p11=spec.p11_list,
            grid_methods=spec.methods,
            grid_runs=spec.runs,
            qsweep_list=tuple(qs["q_list"]) if has_sweep else None,
            qsweep_p01=qs["p01"],
            qsweep_p11=qs["p11"],
            qsweep_method=qs["method"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed run config: {exc}") from exc


def load_run_config(path: str, seed_override: int | None, out_override: str | None) -> RunConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    _check_config(obj)
    cfg = parse_run_config(obj)
    if seed_override is not None:
        cfg = replace(
            cfg,
            seed=seed_override,
            synth=None
            if cfg.synth is None
            else replace(cfg.synth, seed=seed_override),
        )
    if out_override is not None:
        cfg = replace(cfg, out_dir=out_override)
    return cfg


def _load_raw(cfg: RunConfig) -> RawSeries:
    if cfg.csv_path is not None:
        return load_csv(cfg.csv_path)
    return gen_synthetic(cfg.synth)


def _horizon_data(cfg: RunConfig, raw: RawSeries) -> dict[int, HorizonData]:
    return {
        h: HorizonData.build(
            raw, cfg.target_plant, cfg.max_lag, h, cfg.train_frac, cfg.val_frac
        )
        for h in cfg.horizons
    }


def _arch_for(cfg: RunConfig, hd: HorizonData) -> Architecture:
    hidden = cfg.hidden if cfg.family == "nn" else ()
    return Architecture(input_dim=hd.dataset.p, hidden=hidden, bias_index=hd.dataset.bias_index)


def _train_config(cfg: RunConfig, name: str, h: int) -> TrainConfig:
    """The training knobs of `name` (a method, or "base") at horizon h, with
    the seed derived from the run seed, the name and h."""
    return replace(cfg.train, seed=derive_seed(cfg.seed, "train", name, h))


def _uset_for(cfg: RunConfig, hd: HorizonData) -> UncertaintySet:
    budget = cfg.budget if cfg.budget is not None else len(hd.dataset.maskable)
    return UncertaintySet(
        n_features=hd.dataset.p, maskable=hd.dataset.maskable, budget=budget
    )


def _artifact_path(out_dir: str, name: str, horizon: int) -> Path:
    return Path(out_dir) / f"{name}_h{horizon}.json"


def _methods_to_train(cfg: RunConfig) -> tuple[str, ...]:
    if cfg.has_grid:
        return cfg.grid_methods
    # no grid block: train the artifact named by the partition mode
    if cfg.partition_mode == "learned":
        return (METHOD_ARF_LEARNED if cfg.adaptive else METHOD_RF_LEARNED,)
    if cfg.partition_mode == "fixed":
        return (METHOD_ARF_FIXED if cfg.adaptive else METHOD_RF_FIXED,)
    return ()


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("synth subcommand needs a data.synth block")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = gen_synthetic(cfg.synth)
    path = out_dir / "synthetic.csv"
    save_csv(raw, path)
    print(f"wrote {path} ({raw.n_periods} periods, {raw.n_plants} plants)")
    return 0


def _train_one_method(method, cfg, hd, arch, uset, h, jobs, in_grid):
    """Train and save the partition artifacts of one method at horizon h.
    The imputation methods score the base model and the oracle trains at
    evaluation, so neither has anything to train here."""
    entry = METHODS[method]
    tcfg = _train_config(cfg, method, h)
    out_dir = Path(cfg.out_dir)
    if entry.artifact is Partition:
        # Growth is greedy and seeds each subset by its id, so the tree for
        # any smaller Q is a cut of one growth to the largest Q the run needs.
        sweep = cfg.qsweep_list if cfg.qsweep_list and method == cfg.qsweep_method else ()
        q_grow = max(sweep + ((cfg.partition.max_subsets,) if in_grid else ()))
        grown = learn_partition(
            hd.train, hd.val, uset, replace(cfg.partition, max_subsets=q_grow), tcfg, arch,
            cfg.family, entry.adaptive,
        )
        if in_grid:
            part = truncate(grown, cfg.partition.max_subsets)
            save_artifact(part, _artifact_path(cfg.out_dir, entry.stem, h))
            table = bounds_table(part)
            (out_dir / f"bounds_{method}_h{h}.txt").write_text(table, encoding="utf-8")
            print(f"[h={h}] {method}: {len(part.leaf_ids)} subsets, "
                  f"max relgap {part.max_relgap():.4%}")
            print(table, end="")
        for q in sweep:
            part = truncate(grown, q)
            save_artifact(part, _artifact_path(cfg.out_dir, f"{entry.stem}_q{q}", h))
            print(f"[h={h}] {method} Q={q}: max relgap {part.max_relgap():.4%}")
    elif entry.artifact is FixedPartition:
        part = fixed_partition(
            hd.train, hd.val, uset, tcfg, arch, cfg.family, entry.adaptive, jobs=jobs
        )
        save_artifact(part, _artifact_path(cfg.out_dir, entry.stem, h))
        print(f"[h={h}] {method}: {len(part.subsets)} equality subsets")


def cmd_train(cfg: RunConfig, jobs: int = 1) -> int:
    raw = _load_raw(cfg)
    hds = _horizon_data(cfg, raw)
    grid_methods = _methods_to_train(cfg)
    methods = grid_methods
    if cfg.qsweep_list and cfg.qsweep_method not in methods:
        methods += (cfg.qsweep_method,)
    if METHOD_RETRAIN_ORACLE in methods:
        for hd in hds.values():
            RetrainOracle.check_capacity(hd.train)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for h, hd in hds.items():
        arch = _arch_for(cfg, hd)
        uset = _uset_for(cfg, hd)
        base = train_nominal(
            hd.train,
            hd.val,
            MissingPattern.zeros(hd.dataset.p),
            _train_config(cfg, "base", h),
            arch,
            cfg.family,
            adaptive=False,
        )
        save_artifact(base.params, _artifact_path(cfg.out_dir, "base", h))
        print(f"[h={h}] base model: validation loss {base.val_loss:.6e}")
        for method in methods:
            try:
                _train_one_method(
                    method, cfg, hd, arch, uset, h, jobs, in_grid=method in grid_methods
                )
            except RobustcastError as exc:
                raise RobustcastError(f"training {method} at h={h} failed: {exc}") from exc
    return 0


def _load_checked(path: Path, method: str, hd: HorizonData, family: str):
    """The artifact saved at path, which must exist, be of the kind its
    method needs, fit the feature count of hd, and hold only models of the
    run config's family and of the method's adaptivity; anything else is a
    ConfigError (exit 2)."""
    if not path.exists():
        raise ConfigError(f"missing artifact {path}; run the train subcommand first")
    artifact, entry = load_artifact(path), METHODS[method]
    kind = entry.artifact
    if not isinstance(artifact, kind):
        raise ConfigError(
            f"artifact {path} holds a {type(artifact).__name__}, its method needs a {kind.__name__}"
        )
    width = artifact.n_features if kind is ModelParams else artifact.uncertainty.n_features
    if width != hd.dataset.p:
        raise ConfigError(f"artifact {path} was trained for p={width}, data has p={hd.dataset.p}")
    for params in param_sets(artifact):
        if params.family != family:
            raise ConfigError(
                f"artifact {path} holds a {params.family!r} model, the run config's family is "
                f"{family!r}"
            )
        if entry.adaptive is not None and params.adaptive != entry.adaptive:
            raise ConfigError(
                f"artifact {path} holds a model with adaptive={params.adaptive}, {method} needs "
                f"adaptive={entry.adaptive}"
            )
    return artifact


def _load_artifacts(cfg: RunConfig, hds: dict[int, HorizonData]) -> dict:
    artifacts: dict[tuple[str, int], object] = {}
    for h, hd in hds.items():
        for method in cfg.grid_methods:
            entry = METHODS[method]
            if entry.artifact is RetrainOracle:
                artifacts[(method, h)] = RetrainOracle(
                    hd.train, hd.val, _train_config(cfg, method, h), _arch_for(cfg, hd),
                    cfg.family, cfg.adaptive,
                )
            else:
                path = _artifact_path(cfg.out_dir, entry.stem, h)
                artifacts[(method, h)] = _load_checked(path, method, hd, cfg.family)
    return artifacts


def cmd_evaluate(cfg: RunConfig, jobs: int = 1) -> int:
    if not cfg.has_grid:
        raise ConfigError("the evaluate subcommand needs a grid block in the config")
    raw = _load_raw(cfg)
    hds = _horizon_data(cfg, raw)
    artifacts = _load_artifacts(cfg, hds)
    spec = GridSpec(
        p01_list=cfg.grid_p01,
        p11_list=cfg.grid_p11,
        horizons=cfg.horizons,
        methods=cfg.grid_methods,
        runs=cfg.grid_runs,
        base_seed=cfg.seed,
    )
    result = run_grid(spec, hds, artifacts, jobs=jobs)

    qrows = None
    if cfg.qsweep_list:
        h = cfg.horizons[0]
        entry = METHODS[cfg.qsweep_method]
        partitions = {
            q: _load_checked(_artifact_path(cfg.out_dir, f"{entry.stem}_q{q}", h),
                             cfg.qsweep_method, hds[h], cfg.family)
            for q in cfg.qsweep_list
        }
        qrows = q_sweep(
            partitions,
            cfg.qsweep_method,
            h,
            cfg.qsweep_p01,
            cfg.qsweep_p11,
            cfg.grid_runs,
            cfg.seed,
            hds,
            jobs=jobs,
        )
    written = emit_report(result, cfg.out_dir, qrows)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Recompute summary.csv from an existing grid.csv and print it."""
    grid_path = Path(cfg.out_dir) / "grid.csv"
    if not grid_path.exists():
        raise DataError(f"no grid.csv in {cfg.out_dir}; run the evaluate subcommand first")
    rows = []
    for lineno, line in enumerate(grid_path.read_text(encoding="utf-8").strip().split("\n")[1:], 2):
        try:
            method, h, p01, p11, _run, value = line.split(",")
            rows.append((method, int(h), float(p01), float(p11), float(value)))
        except ValueError:
            raise DataError(f"{grid_path} line {lineno}: malformed grid row {line!r}") from None
    out = summary_csv(rows)
    (Path(cfg.out_dir) / "summary.csv").write_text(out, encoding="utf-8")
    print(out, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcast",
        description="Train and evaluate forecasting models that stay accurate "
        "when input features go missing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "evaluate", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_run_config(args.config, args.seed, args.out)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg, jobs=args.jobs)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, jobs=args.jobs)
        if args.command == "report":
            return cmd_report(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (RobustcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
