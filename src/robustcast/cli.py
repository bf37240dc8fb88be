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
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from ._util import derive_seed, open_utf8
from .dataio import RawSeries, SynthConfig, gen_synthetic, load_csv, save_csv
from .evaluation import (
    METHOD_ARF_LEARNED,
    METHOD_IMP_PERSISTENCE,
    METHOD_RETRAIN_ORACLE,
    METHODS,
    GridSpec,
    HorizonData,
    RetrainOracle,
    emit_report,
    q_sweep,
    read_grid,
    run_grid,
    write_summary,
)
from .exceptions import ConfigError, DataError, ParseError, RobustcastError
from .missingness import MissingPattern
from .models import Architecture, ModelParams
from .partition import (
    FixedPartition,
    Partition,
    PartitionConfig,
    bounds_table,
    fixed_partition,
    learn_partition,
    load_artifact,
    save_artifact,
    truncate,
)
from .training import TrainConfig, train_nominal


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


_REQUIRED = object()  # the default of a key a run config must give


def _class_keys(cls, kinds: dict, **field_of) -> dict:
    """Table entries (kind, default) for the keys of kinds, each with the
    default of the field of the dataclass cls that field_of names for it
    (its namesake otherwise), or _REQUIRED where that field has none."""
    default = {f.name: _REQUIRED if f.default is MISSING else f.default for f in fields(cls)}
    return {key: (kind, default[field_of.get(key, key)]) for key, kind in kinds.items()}


# Every key a run config may hold. A dict is a block of keys that takes its
# defaults when left out; (block, None) is one that is then None. Any other
# entry is (kind, default). The kind is the JSON type of the value: [kind] a
# list of that kind, float admits integers too, and None in a tuple admits
# null. The default is what a key left out takes: a value, _REQUIRED, or a
# function of the resolved top level, whose keys come first.
_CONFIG_KEYS = {
    "seed": (int, 0), "out_dir": (str, "runs/out"), "target_plant": (int, 0),
    "max_lag": (int, 2), "horizons": ([int], (1,)), "family": (str, "lr"),
    "adaptive": (bool, True), "hidden": ([int], (50, 50, 50, 50)),
    "data": {"csv": ((str, None), None), "synth": ({
        **_class_keys(SynthConfig, {"n_plants": int, "n_periods": int, "ar_coefficient": float,
                                    "cross_plant_correlation": float, "noise_std": float,
                                    "obs_noise_std": float}),
        "seed": (int, lambda run: run["seed"]),
    }, None)},
    "split": {"train_frac": (float, 0.5), "val_frac": (float, 0.15)},
    "train": {  # no seed: each training run derives its own (_train_config)
        **_class_keys(TrainConfig, {"learning_rate": float, "max_iters": int, "patience": int,
                                    "batch_size": int, "weight_decay": float, "shuffle": bool}),
        "weight_decay": (float, lambda run: 1e-5 if run["family"] == "nn"
                         else TrainConfig.weight_decay),
    },
    "partition": {
        "mode": (str, "learned"),
        **_class_keys(PartitionConfig, {"q_max": int, "epsilon": float}, q_max="max_subsets"),
        "budget": ((int, None), None),
    },
    "grid": ({"p01": ([float], (0.05, 0.1, 0.2)), "p11": ([float], (0.0, 0.8, 0.9)),
              "methods": ([str], (METHOD_IMP_PERSISTENCE, METHOD_ARF_LEARNED)),
              "runs": (int, 10)}, None),
    "q_sweep": ({"q_list": ([int], _REQUIRED), "p01": (float, 0.2), "p11": (float, 0.9),
                 "method": (str, METHOD_ARF_LEARNED)}, None),
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


def resolve_run_config(obj, allow_unknown=False, *, keys: dict = _CONFIG_KEYS, where: str = "",
                       run: dict | None = None) -> dict:
    """The run config obj in its own JSON key layout, every key left out
    filled with its default: a left-out data.synth, grid or q_sweep is None.
    ConfigError for a value of the wrong type, a missing required key (named
    by its dotted path) or, unless allow_unknown, a key the run config has
    no use for, at any level. keys, where (the dotted path prefix of obj)
    and run (the resolved top level) walk the blocks."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where.rstrip('.') or 'the run config'} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown and not allow_unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(where + k for k in unknown))
    out: dict = {}
    run = out if run is None else run
    for key, entry in keys.items():
        kind, default = (entry, {}) if isinstance(entry, dict) else entry
        value = obj.get(key)
        if key not in obj:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key {where}{key}")
            value = default(run) if callable(default) else default
        elif not isinstance(kind, dict) and not _is_kind(value, kind):
            raise ConfigError(f"{where}{key} must be {_kind_name(kind)}, got {value!r}")
        if isinstance(kind, dict) and (key in obj or value is not None):
            value = resolve_run_config(value, allow_unknown, keys=kind, where=f"{where}{key}.",
                                       run=run)
        out[key] = list(value) if isinstance(kind, list) else value
    return out


def _block_defaults(name: str) -> dict:
    """The defaults of the top-level block name, a required key None: what
    the RunConfig holds for a block the run config leaves out."""
    return {key: None if default is _REQUIRED else default
            for key, (kind, default) in _CONFIG_KEYS[name][0].items()}


def _grid_spec(cfg: RunConfig) -> GridSpec:
    """The grid cfg describes, over its horizons and from its seed."""
    return GridSpec(cfg.grid_p01, cfg.grid_p11, cfg.horizons, cfg.grid_methods, cfg.grid_runs,
                    cfg.seed)


def _sweep_spec(cfg: RunConfig) -> GridSpec:
    """The Q sweep of cfg as a one-cell grid: its cell and method at the
    first horizon, over the grid's runs and from the run seed."""
    return GridSpec((cfg.qsweep_p01,), (cfg.qsweep_p11,), cfg.horizons[:1], (cfg.qsweep_method,),
                    cfg.grid_runs, cfg.seed)


def parse_run_config(obj: dict) -> RunConfig:
    """The RunConfig a run config describes, read from its resolved layout
    (resolve_run_config). ConfigError for a value the run cannot take;
    unknown keys are ignored here (load_run_config rejects them), so a
    caller can still list them."""
    run = resolve_run_config(obj, allow_unknown=True)
    data, split, part = run["data"], run["split"], run["partition"]
    if (data["csv"] is None) == (data["synth"] is None):
        raise ConfigError("config must name exactly one data source: data.csv or data.synth")
    if run["family"] not in ("lr", "nn"):
        raise ConfigError(f"family must be 'lr' or 'nn', got {run['family']!r}")
    if part["mode"] not in ("learned", "fixed", "nominal"):
        raise ConfigError(f"partition.mode must be learned|fixed|nominal, got {part['mode']!r}")
    for name, value in (("target_plant", run["target_plant"]), ("max_lag", run["max_lag"]),
                        ("partition.budget", part["budget"])):
        if value is not None and value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    grid = run["grid"] or _block_defaults("grid")
    qs = run["q_sweep"] or _block_defaults("q_sweep")
    if run["q_sweep"] is not None:
        learned = [m for m, entry in METHODS.items() if entry.artifact is Partition]
        if qs["method"] not in learned:
            raise ConfigError(
                f"q_sweep.method must be a learned method ({' or '.join(learned)}), "
                f"got {qs['method']!r}"
            )
        q_list = qs["q_list"]
        if not q_list or min(q_list) < 1 or len(set(q_list)) < len(q_list):
            raise ConfigError(f"q_sweep.q_list must list distinct Q values >= 1, got {q_list!r}")
    cfg = RunConfig(  # the resolved layout, block by block
        seed=run["seed"], out_dir=run["out_dir"], target_plant=run["target_plant"],
        max_lag=run["max_lag"], horizons=tuple(run["horizons"]), family=run["family"],
        adaptive=run["adaptive"], hidden=tuple(run["hidden"]),
        csv_path=data["csv"],
        synth=None if data["synth"] is None else SynthConfig(**data["synth"]),
        train_frac=split["train_frac"], val_frac=split["val_frac"],
        train=TrainConfig(**run["train"]),
        partition_mode=part["mode"], partition=PartitionConfig(part["q_max"], part["epsilon"]),
        budget=part["budget"],
        has_grid=run["grid"] is not None, grid_p01=tuple(grid["p01"]),
        grid_p11=tuple(grid["p11"]), grid_methods=tuple(grid["methods"]), grid_runs=grid["runs"],
        qsweep_list=None if run["q_sweep"] is None else tuple(qs["q_list"]),
        qsweep_p01=qs["p01"], qsweep_p11=qs["p11"], qsweep_method=qs["method"],
    )
    spec = _grid_spec(cfg)  # refuses a grid that cannot run, and holds probabilities as floats
    if cfg.qsweep_list is not None:
        _sweep_spec(cfg)  # refuses a sweep cell that cannot run
    return replace(cfg, grid_p01=spec.p01_list, grid_p11=spec.p11_list)


def load_run_config(path: str, seed_override: int | None, out_override: str | None) -> RunConfig:
    try:
        with open_utf8(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ParseError as exc:
        raise ConfigError(f"config file {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    resolve_run_config(obj)
    cfg = parse_run_config(obj)
    if seed_override is not None:
        synth = None if cfg.synth is None else replace(cfg.synth, seed=seed_override)
        cfg = replace(cfg, seed=seed_override, synth=synth)
    if out_override is not None:
        cfg = replace(cfg, out_dir=out_override)
    return cfg


def _load_raw(cfg: RunConfig) -> RawSeries:
    if cfg.csv_path is None:
        return gen_synthetic(cfg.synth)
    try:
        return load_csv(cfg.csv_path)
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {cfg.csv_path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read data file {cfg.csv_path}: {exc.strerror}") from None


def _horizon_data(cfg: RunConfig, raw: RawSeries) -> dict[int, HorizonData]:
    """Each horizon's data. ConfigError when the series has no target_plant
    or fewer maskable features than the budget."""
    if cfg.target_plant >= raw.n_plants:
        raise ConfigError(f"target_plant {cfg.target_plant} out of range for a series of "
                          f"{raw.n_plants} plants")
    hds = {
        h: HorizonData.build(
            raw, cfg.target_plant, cfg.max_lag, h, cfg.train_frac, cfg.val_frac
        )
        for h in cfg.horizons
    }
    maskable = len(hds[cfg.horizons[0]].dataset.maskable)
    if cfg.budget is not None and cfg.budget > maskable:
        raise ConfigError(f"partition.budget {cfg.budget} exceeds the data's {maskable} "
                          "maskable features")
    return hds


def _arch_for(cfg: RunConfig, hd: HorizonData, method: str) -> Architecture:
    """The layout of `method`'s models at one horizon: the run config's
    family and hidden widths (none for lr), the method's adaptivity
    (METHODS), over the data's width, bias feature and maskable features."""
    hidden = cfg.hidden if cfg.family == "nn" else ()
    return Architecture(cfg.family, METHODS[method].adaptive, hd.dataset.p, hidden,
                        hd.dataset.bias_index, hd.dataset.maskable)


def _train_config(cfg: RunConfig, name: str, h: int) -> TrainConfig:
    """The training knobs of `name` (a method, or "base") at horizon h, with
    the seed derived from the run seed, the name and h."""
    return replace(cfg.train, seed=derive_seed(cfg.seed, "train", name, h))


def _budget_for(cfg: RunConfig, hd: HorizonData) -> int:
    return cfg.budget if cfg.budget is not None else len(hd.dataset.maskable)


def _artifact_path(out_dir: str, name: str, horizon: int) -> Path:
    return Path(out_dir) / f"{name}_h{horizon}.json"


def _methods_to_train(cfg: RunConfig) -> tuple[str, ...]:
    if cfg.has_grid:
        return cfg.grid_methods
    # no grid block: train the partition method of the mode and adaptivity
    kind = {"learned": Partition, "fixed": FixedPartition}.get(cfg.partition_mode)
    return tuple(method for method, entry in METHODS.items()
                 if entry.artifact is kind and entry.adaptive == cfg.adaptive)


def _make_out_dir(cfg: RunConfig) -> Path:
    """cfg.out_dir, made if absent; ConfigError when a file stands at or above it."""
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"out_dir {out_dir} cannot be a directory: {exc.strerror}") from None
    return out_dir


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise ConfigError("synth subcommand needs a data.synth block")
    raw = gen_synthetic(cfg.synth)
    path = _make_out_dir(cfg) / "synthetic.csv"
    save_csv(raw, path)
    print(f"wrote {path} ({raw.n_periods} periods, {raw.n_plants} plants)")
    return 0


def _train_one_method(method, cfg, hd, h, jobs, in_grid):
    """Train and save the partition artifacts of one method at horizon h, of
    its layout and the run config's budget. The imputation methods score the
    base model and the oracle trains at evaluation, so neither has anything
    to train here."""
    entry = METHODS[method]
    tcfg = _train_config(cfg, method, h)
    arch, budget = _arch_for(cfg, hd, method), _budget_for(cfg, hd)
    out_dir = Path(cfg.out_dir)
    if entry.artifact is Partition:
        # Growth is greedy and seeds each subset by its id, so the tree for
        # any smaller Q is a cut of one growth to the largest Q the run needs.
        sweep = cfg.qsweep_list if cfg.qsweep_list and method == cfg.qsweep_method else ()
        q_grow = max(sweep + ((cfg.partition.max_subsets,) if in_grid else ()))
        grown = learn_partition(
            hd.train, hd.val, budget, replace(cfg.partition, max_subsets=q_grow), tcfg, arch
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
        part = fixed_partition(hd.train, hd.val, budget, tcfg, arch, jobs=jobs)
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
    # the base model, which the imputation methods score, has their layout
    base_archs = {h: _arch_for(cfg, hd, METHOD_IMP_PERSISTENCE) for h, hd in hds.items()}
    _make_out_dir(cfg)  # after the layouts, so a bad hidden writes nothing

    for h, hd in hds.items():
        base = train_nominal(hd.train, hd.val, MissingPattern.zeros(hd.dataset.p),
                             _train_config(cfg, "base", h), base_archs[h])
        save_artifact(base.params, _artifact_path(cfg.out_dir, "base", h))
        print(f"[h={h}] base model: validation loss {base.val_loss:.6e}")
        for method in methods:
            try:
                _train_one_method(method, cfg, hd, h, jobs, in_grid=method in grid_methods)
            except RobustcastError as exc:
                raise RobustcastError(f"training {method} at h={h} failed: {exc}") from exc
    return 0


def _refuse_other(path: Path, what: str, got, want) -> None:
    """ConfigError naming each field in which got, a dataclass the artifact
    at path holds, differs from want, the one the run config gives."""
    if got != want:
        raise ConfigError(f"artifact {path} holds {what}: " + ", ".join(
            f"{f.name} {getattr(got, f.name)} (run config: {getattr(want, f.name)})"
            for f in fields(want) if getattr(got, f.name) != getattr(want, f.name)))


def _load_checked(path: Path, method: str, cfg: RunConfig, hd: HorizonData, q: int):
    """The artifact saved at path, which must exist, be of the kind its
    method needs and hold models of the layout the run config gives the
    method at hd (one layout: load_artifact refuses two); a partition must
    also hold the run config's budget, and a learned one be grown with its
    partition config to q subsets. Anything else is a ConfigError (exit 2)."""
    if not path.is_file():
        raise ConfigError(f"missing artifact {path}; run the train subcommand first")
    artifact, kind = load_artifact(path), METHODS[method].artifact
    if not isinstance(artifact, kind):
        raise ConfigError(
            f"artifact {path} holds a {type(artifact).__name__}, its method needs a {kind.__name__}"
        )
    _refuse_other(path, "a model of another layout", artifact.arch, _arch_for(cfg, hd, method))
    if kind is not ModelParams and artifact.budget != _budget_for(cfg, hd):
        raise ConfigError(f"artifact {path} holds another uncertainty set: budget "
                          f"{artifact.budget} (run config: {_budget_for(cfg, hd)})")
    if kind is Partition:
        _refuse_other(path, "another partition config", artifact.config,
                      replace(cfg.partition, max_subsets=q))
    return artifact


def _load_artifacts(cfg: RunConfig, hds: dict[int, HorizonData]) -> dict:
    artifacts: dict[tuple[str, int], object] = {}
    for h, hd in hds.items():
        for method in cfg.grid_methods:
            entry = METHODS[method]
            if entry.artifact is RetrainOracle:
                artifacts[(method, h)] = RetrainOracle(
                    hd.train, hd.val, _train_config(cfg, method, h), _arch_for(cfg, hd, method)
                )
            else:
                path = _artifact_path(cfg.out_dir, entry.stem, h)
                artifacts[(method, h)] = _load_checked(path, method, cfg, hd,
                                                       cfg.partition.max_subsets)
    return artifacts


def cmd_evaluate(cfg: RunConfig, jobs: int = 1) -> int:
    if not cfg.has_grid:
        raise ConfigError("the evaluate subcommand needs a grid block in the config")
    raw = _load_raw(cfg)
    hds = _horizon_data(cfg, raw)
    artifacts = _load_artifacts(cfg, hds)
    rows = run_grid(_grid_spec(cfg), hds, artifacts, jobs=jobs)

    qrows = None
    if cfg.qsweep_list:
        spec = _sweep_spec(cfg)
        h, stem = spec.horizons[0], METHODS[cfg.qsweep_method].stem
        partitions = {
            q: _load_checked(_artifact_path(cfg.out_dir, f"{stem}_q{q}", h),
                             cfg.qsweep_method, cfg, hds[h], q)
            for q in cfg.qsweep_list
        }
        qrows = q_sweep(spec, partitions, hds, jobs=jobs)
    written = emit_report(rows, cfg.out_dir, qrows)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Rewrite summary.csv from the rows of the grid.csv evaluate wrote
    (read_grid refuses any other file) and print it."""
    summary = write_summary(read_grid(cfg.out_dir), cfg.out_dir)
    print(summary.read_text(encoding="utf-8"), end="")
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
        if name in ("train", "evaluate"):
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:
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
