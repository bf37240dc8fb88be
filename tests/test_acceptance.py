"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run pytest with -s to see them inline)."""
import itertools
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustcast.adversarial import AdvSearchScope, train_adversarial
from robustcast.dataio import SynthConfig, gen_synthetic, split_sequential, build_supervised
from robustcast.evaluation import (
    METHOD_ARF_LEARNED,
    METHOD_IMP_PERSISTENCE,
    dm_test,
)
from robustcast.missingness import (
    MissingnessConfig,
    MissingPattern,
    simulate_markov,
)
from robustcast.models import (
    Architecture,
    _nn_forward,
    _shifts,
    init_params,
    mse_loss,
    predict,
)
from robustcast.partition import (
    PartitionConfig,
    fixed_partition,
    learn_partition,
    locate_rows,
)
from robustcast.training import TrainConfig, train_nominal
from tests.conftest import (
    HEAVY_CELL, LIGHT_CELL, cell_nrmse, cell_sq_errors, enumerate_patterns, finetune, find_on,
    step,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def relative_errors(params, X, y, bits, wd, coords):
    _, grads = step(params, X, y, bits, wd)
    analytic = np.concatenate([grads[k].ravel() for k in params.block_names()])
    vec = params.to_vector()
    eps = 1e-6
    errors = []
    for i in coords:
        vp = vec.copy()
        vp[i] += eps
        vm = vec.copy()
        vm[i] -= eps
        lp, _ = step(params.from_vector(vp), X, y, bits, wd)
        lm, _ = step(params.from_vector(vm), X, y, bits, wd)
        fd = (lp - lm) / (2 * eps)
        errors.append(abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd)))
    return max(errors)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    n, p = 32, 10
    maskable = tuple(range(6))
    worst_lr = 0.0
    worst_nn = 0.0
    rng = np.random.default_rng(101)
    instance = 0
    for adaptive in (False, True):
        for trial in range(5):
            for family, hidden in (("lr", ()), ("nn", (50, 50, 50, 50))):
                arch = Architecture(family, adaptive, p, hidden, p - 1, maskable)
                params = init_params(arch, seed=instance)
                for k in params.block_names():
                    params.arrays[k] = rng.normal(0, 0.4, size=params.arrays[k].shape)
                X = rng.uniform(0, 1, (n, p))
                y = rng.uniform(0, 1, n)
                bits = np.zeros(p, dtype=np.uint8)
                bits[rng.choice(6, size=2, replace=False)] = 1
                wd = 1e-5
                total = params.to_vector().size
                if family == "lr":
                    coords = range(total)
                else:
                    # every block sampled: 12 deterministic coordinates each
                    coords = []
                    offset = 0
                    for name in params.block_names():
                        size = params.arrays[name].size
                        take = min(size, 12)
                        picks = rng.choice(size, size=take, replace=False)
                        coords.extend(int(offset + i) for i in picks)
                        offset += size
                err = relative_errors(params, X, y, bits, wd, coords)
                if family == "lr":
                    worst_lr = max(worst_lr, err)
                else:
                    worst_nn = max(worst_nn, err)
                instance += 1
    elapsed = time.perf_counter() - t0
    ok = worst_lr < 1e-5 and worst_nn < 1e-4 and elapsed < 10.0
    report(1, ok, f"max rel err lr={worst_lr:.2e} nn={worst_nn:.2e}, {elapsed:.1f}s")


def test_criterion_2_adversarial_oracle_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked_exact = 0
    for trial in range(50):
        p = int(rng.integers(4, 10))
        free = tuple(range(p - 1))
        budget = 1 if trial % 3 == 0 else int(rng.integers(2, 4))
        arch = Architecture("lr", False, p, bias_index=p - 1, maskable=free)
        params = init_params(arch, seed=trial)
        params.arrays["w"] = rng.normal(0, 1, p)
        X = rng.uniform(0, 1, (32, p))
        y = rng.uniform(0, 1, 32)
        base = MissingPattern.zeros(p)
        scope = AdvSearchScope(free=free, budget=budget, base=base)
        res = find_on(X, y, scope, params)

        brute = mse_loss(params, X, y, base)
        for size in range(1, budget + 1):
            for combo in itertools.combinations(free, size):
                brute = max(brute, mse_loss(params, X, y,
                                            MissingPattern.from_missing(p, list(combo))))
        single_floor = max(
            [mse_loss(params, X, y, base)]
            + [mse_loss(params, X, y, base.with_missing(j)) for j in free]
        )
        if budget == 1:
            assert res.loss == pytest.approx(brute, rel=1e-12), "budget-1 must be exhaustive"
            checked_exact += 1
        assert res.loss <= brute + 1e-12, "greedy above brute-force max"
        assert res.loss >= single_floor - 1e-12, "greedy below best single"
        losses = [s[1] for s in res.steps]
        assert losses == sorted(losses), "accepted losses decreased"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0 and checked_exact >= 10
    report(2, ok, f"50 instances ({checked_exact} exact budget-1 checks), {elapsed:.1f}s")


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(303)
    # adaptive forward with zero corrections equals base forward, exactly
    p, maskable = 7, (0, 1, 2, 3)
    arch = Architecture("nn", False, p, (8, 8), p - 1, maskable)
    base = init_params(arch, seed=5)
    adap = init_params(replace(arch, adaptive=True), seed=5)
    for name in base.block_names():
        shared = rng.normal(0, 0.5, size=base.arrays[name].shape)
        base.arrays[name] = shared
        adap.arrays[name] = shared.copy()
    exact = True
    for _ in range(25):
        x = rng.uniform(0, 1, p)
        pat = MissingPattern.from_missing(p, rng.choice(4, size=2, replace=False).tolist())
        exact &= predict(adap, x[None], pat)[0] == predict(base, x[None], pat)[0]

    # zero-pattern masking is the identity: a prediction at the all-available
    # pattern is the forward pass over the unmasked inputs
    X, zero = rng.uniform(0, 1, (5, p)), MissingPattern.zeros(p)
    no_shift = np.zeros(len(maskable))
    identity = np.array_equal(predict(adap, X, zero),
                              _nn_forward(adap, X, _shifts(adap, no_shift))[0])

    # adversarial training with no free features is a nominal fine-tune
    raw = gen_synthetic(SynthConfig(2, 1500, 0.95, 0.5, 0.4, seed=31, obs_noise_std=0.2))
    ds = build_supervised(raw, 0, 1, 1)
    train, val, _ = split_sequential(ds, 0.6, 0.25)
    arch2 = Architecture("lr", True, ds.p, bias_index=ds.bias_index, maskable=ds.maskable)
    cfg = TrainConfig(learning_rate=5e-3, max_iters=60, patience=15, batch_size=128, seed=32)
    pat = MissingPattern.from_missing(ds.p, [0])
    theta_opt = train_nominal(train, val, pat, cfg, arch2).params
    adv = train_adversarial(train, val, AdvSearchScope(free=(), budget=2, base=pat), cfg, theta_opt)
    fine = finetune(train, val, pat, cfg, theta_opt)
    gap = abs(adv.loss - fine.loss)
    ok = exact and identity and gap < 1e-9
    report(3, ok, f"forward equality exact={exact}, mask identity={identity}, finetune gap={gap:.1e}")


def test_criterion_4_partition_structure():
    cfg = TrainConfig(learning_rate=3e-2, max_iters=2000, patience=60, batch_size=512, seed=404)

    # correlated toy data so deep subsets keep informative gaps
    rng = np.random.default_rng(404)
    n = 600

    def make_ds(k):
        common = rng.uniform(0, 1, n)
        latent = 0.7 * common[:, None] + 0.3 * rng.uniform(0, 1, (n, k))
        weights = np.linspace(1.0, 0.4, k)
        from robustcast.dataio import Dataset

        X = np.column_stack([latent, np.ones(n)])
        y = latent @ weights + 0.05 * rng.normal(size=n)
        return Dataset(X=X, y=y, bias_index=k, maskable=tuple(range(k)),
                       horizon=1, max_lag=0, obs_periods=np.arange(n))

    # (a) disjoint cover at |P|=6, budget 3: all 42 patterns route to one leaf
    ds6 = make_ds(6)
    tr6, va6, _ = split_sequential(ds6, 0.6, 0.25)
    arch6 = Architecture("lr", False, 7, bias_index=6, maskable=tuple(range(6)))
    part6 = learn_partition(tr6, va6, 3, PartitionConfig(5, 0.0), cfg, arch6)
    patterns = enumerate_patterns(arch6, 3)
    cover_ok = len(patterns) == 42
    leafset = set(part6.leaf_ids)
    for pattern, leaf in zip(patterns, locate_rows(part6, patterns).tolist()):
        hits = [
            sid
            for sid in part6.leaf_ids
            if all(pattern[j] == bit for j, bit in part6.fixed(sid).items())
        ]
        cover_ok &= hits == [leaf] and hits[0] in leafset

    # (b) fixed partition has budget+1 subsets
    ds3 = make_ds(3)
    tr3, va3, _ = split_sequential(ds3, 0.6, 0.25)
    arch3 = Architecture("lr", False, 4, bias_index=3, maskable=(0, 1, 2))
    fixed = fixed_partition(tr3, va3, 3,
                            TrainConfig(learning_rate=3e-2, max_iters=300, patience=30,
                                        batch_size=512, seed=405), arch3)
    fixed_ok = len(fixed.subsets) == 4

    # (c) retraining recovery: 8 singleton leaves enumerate all patterns
    part3 = learn_partition(tr3, va3, 3, PartitionConfig(8, 0.0), cfg, arch3)
    leaves = [part3.subsets[i] for i in part3.leaf_ids]
    recovery_ok = (
        len(leaves) == 8
        and all(leaf.free == () for leaf in leaves)
        and {leaf.opt_pattern.key() for leaf in leaves}
        == {row.tobytes() for row in enumerate_patterns(arch3, 3)}
    )

    # (d) bound inheritance on the growth, by identity: split k's available
    # child, subset 2k - 1, holds its leaf's own optimistic fit (its LB), and
    # its leaf's adversarial fit (its UB) unless the split trained one no
    # worse than the leaf's; the missing child, subset 2k, holds its leaf's
    # own adversarial fit
    inherit_ok = True
    for part in (part6, part3):
        for k, split in enumerate(part.splits, 1):
            leaf, avail, miss = (part.subsets[i] for i in (split.leaf, 2 * k - 1, 2 * k))
            inherit_ok &= avail.opt is leaf.opt and miss.adv is leaf.adv
            if split.adv is None:
                inherit_ok &= avail.adv is leaf.adv
            else:
                inherit_ok &= avail.adv is split.adv and split.adv.loss <= leaf.adv.loss

    ok = cover_ok and fixed_ok and recovery_ok and inherit_ok
    report(4, ok, f"cover={cover_ok} fixed={fixed_ok} recovery={recovery_ok} inheritance={inherit_ok}")


def test_criterion_5_markov_fidelity():
    cfg = MissingnessConfig(p01=0.2, p11=0.9, seed=505)
    steps = 100_000
    plants = 4
    mask = simulate_markov(cfg, steps, plants)
    worst01 = worst11 = 0.0
    for s in range(plants):
        col = mask[:, s].astype(int)
        prev, cur = col[:-1], col[1:]
        worst01 = max(worst01, abs(cur[prev == 0].mean() - cfg.p01))
        worst11 = max(worst11, abs(cur[prev == 1].mean() - cfg.p11))
    frac_err = abs(mask.mean() - 2.0 / 3.0)
    ok = worst01 < 0.01 and worst11 < 0.01 and frac_err < 0.02
    report(5, ok, f"|d01|={worst01:.4f} |d11|={worst11:.4f} |dfrac|={frac_err:.4f}")


def test_criterion_6_qualitative_trend(trend_setup):
    rows = trend_setup.grid
    p01h, p11h = HEAVY_CELL
    imp_heavy = float(np.mean(cell_nrmse(rows, METHOD_IMP_PERSISTENCE, 1, p01h, p11h)))
    arf_heavy = float(np.mean(cell_nrmse(rows, METHOD_ARF_LEARNED, 1, p01h, p11h)))
    scored = (trend_setup.spec, {1: trend_setup.hd}, trend_setup.artifacts, rows)
    arf_losses = cell_sq_errors(*scored, METHOD_ARF_LEARNED, 1, p01h, p11h)
    imp_losses = cell_sq_errors(*scored, METHOD_IMP_PERSISTENCE, 1, p01h, p11h)
    dm = dm_test(arf_losses, imp_losses)
    beats = arf_heavy < imp_heavy and dm.statistic < 0 and dm.p_value < 0.05

    p01l, p11l = LIGHT_CELL
    imp_light = float(np.mean(cell_nrmse(rows, METHOD_IMP_PERSISTENCE, 1, p01l, p11l)))
    arf_light = float(np.mean(cell_nrmse(rows, METHOD_ARF_LEARNED, 1, p01l, p11l)))
    competitive = imp_light <= 1.15 * arf_light

    within_budget = trend_setup.build_seconds < 840.0
    ok = beats and competitive and within_budget
    report(
        6,
        ok,
        f"heavy: arf={arf_heavy:.2f} imp={imp_heavy:.2f} dm_p={dm.p_value:.1e}; "
        f"light: imp={imp_light:.2f} arf={arf_light:.2f}; build={trend_setup.build_seconds:.0f}s",
    )


def test_criterion_7_q_sensitivity(trend_setup):
    rows = trend_setup.qsweep_rows
    qs = [r.n_subsets for r in rows]
    nrmses = [r.mean_nrmse for r in rows]
    relgaps = [r.max_relgap for r in rows]
    assert qs == sorted(qs)
    nrmse_ok = all(nrmses[i + 1] <= nrmses[i] + 2.0 for i in range(len(nrmses) - 1))
    relgap_ok = all(relgaps[i + 1] <= relgaps[i] + 1e-12 for i in range(len(relgaps) - 1))
    ok = nrmse_ok and relgap_ok
    report(
        7,
        ok,
        "nrmse " + "/".join(f"{v:.2f}" for v in nrmses)
        + ", relgap " + "/".join(f"{v:.3f}" for v in relgaps),
    )


def test_criterion_8_early_stopping_contract(val_losses):
    rng = np.random.default_rng(808)
    violations = 0
    for trial in range(10):
        raw = gen_synthetic(
            SynthConfig(2, 900, float(rng.uniform(0.8, 0.97)), 0.5,
                        float(rng.uniform(0.2, 0.6)), seed=trial, obs_noise_std=0.2)
        )
        ds = build_supervised(raw, 0, 1, 1)
        train, val, _ = split_sequential(ds, 0.6, 0.25)
        cfg = TrainConfig(learning_rate=1e-2, max_iters=60, patience=7,
                          batch_size=64, seed=trial)
        val_losses.clear()
        res = train_nominal(train, val, MissingPattern.zeros(ds.p), cfg,
                            Architecture("lr", False, ds.p, bias_index=ds.bias_index,
                                         maskable=ds.maskable))
        if res.iterations > cfg.max_iters:
            violations += 1
        if res.best_iteration < res.iterations - 1 - cfg.patience:
            violations += 1
        if len(val_losses) != res.iterations or res.loss != min(val_losses):
            violations += 1
    ok = violations == 0
    report(8, ok, f"10 trainings, {violations} contract violations")


def _write_cli_config(path: Path, out_dir: Path) -> None:
    config = {
        "seed": 909,
        "out_dir": str(out_dir),
        "data": {
            "synth": {
                "n_plants": 2,
                "n_periods": 1200,
                "ar_coefficient": 0.95,
                "cross_plant_correlation": 0.5,
                "noise_std": 0.4,
                "seed": 17,
            }
        },
        "target_plant": 0,
        "max_lag": 1,
        "horizons": [1],
        "family": "lr",
        "adaptive": True,
        "split": {"train_frac": 0.5, "val_frac": 0.2},
        "train": {
            "learning_rate": 0.01,
            "max_iters": 40,
            "patience": 10,
            "batch_size": 64,
        },
        "partition": {"mode": "learned", "q_max": 2, "epsilon": 0.0},
        "grid": {
            "p01": [0.2],
            "p11": [0.8],
            "methods": ["imp-mean", "arf-learned"],
            "runs": 2,
        },
    }
    path.write_text(json.dumps(config), encoding="utf-8")


def test_criterion_9_cli_determinism(tmp_path):
    from robustcast.cli import main

    digests = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        config_path = tmp_path / f"config_{run}.json"
        _write_cli_config(config_path, out_dir)
        assert main(["train", "--config", str(config_path)]) == 0
        assert main(["evaluate", "--config", str(config_path)]) == 0
        digest = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }
        digests.append(digest)
    same_names = digests[0].keys() == digests[1].keys()
    same_bytes = same_names and all(
        digests[0][name] == digests[1][name] for name in digests[0]
    )
    ok = same_names and same_bytes
    report(9, ok, f"{len(digests[0])} artifact/report files byte-identical across reruns")
