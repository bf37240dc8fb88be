"""Span tracer that wraps robustcast's public functions from outside.

Every public module-level function of the traced modules is replaced by a
wrapper at *every* module attribute that refers to it: modules import
functions by name (``from .models import mse_loss``), so patching only the
defining module would miss most calls. Each call records one span (name,
start, end, parent) in flat in-memory arrays; the per-function table with
calls, inclusive seconds and self seconds is computed once, at the end.

A few functions also report a work count taken from their arguments or their
result (rows predicted, patterns built, epochs run, bytes written...).
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

TRACED_MODULES = (
    "dataio",
    "missingness",
    "models",
    "training",
    "adversarial",
    "partition",
    "evaluation",
    "cli",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _greedy_candidates(args, kwargs, result) -> int:
    """Candidate patterns the greedy search scored: round i scores every
    still-free feature, and a round runs while the budget has room; the last
    round is the rejected one when the search stopped before the budget."""
    scope = _arg(args, kwargs, 2, "scope")
    free = len(scope.free)
    steps = len(result.steps)
    rounds = steps
    if scope.base.popcount() + steps < scope.budget and free > steps:
        rounds += 1
    return sum(free - i for i in range(rounds))


# function -> callable(args, kwargs, result) -> {stat: amount}
COUNTERS = {
    "missingness.expand_obs_mask": lambda a, k, r: {"patterns": len(r)},
    "models.predict": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    "models.loss_and_grad": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    "training.run_training_loop": lambda a, k, r: {"epochs": r.iterations},
    "adversarial.find_adversarial": lambda a, k, r: {
        "candidates": _greedy_candidates(a, k, r),
        "steps": len(r.steps),
    },
    "partition.learn_partition": lambda a, k, r: {"leaves": len(r.leaf_ids)},
    "partition.predict_deployed_rows": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    "partition.predict_fixed_rows": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "X"))},
    "partition.save_artifact": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "partition.load_artifact": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "evaluation.run_grid": lambda a, k, r: {
        "cells": len(_arg(a, k, 0, "spec").p01_list)
        * len(_arg(a, k, 0, "spec").p11_list)
        * _arg(a, k, 0, "spec").runs
    },
}

# functions whose spans are split by one argument, e.g. predict_method.<method>
SPLIT_BY = {"evaluation.predict_method": (0, "method")}


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        split = SPLIT_BY.get(name)
        fixed_id = self._name_id(name)
        stack, starts, ends = self._stack, self._start, self._end
        names, parents, clock = self._name, self._parent, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id
            if split is not None:
                nid = self._name_id(f"{name}.{_arg(args, kwargs, *split)}")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                for stat, amount in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{stat}"] += amount
            return result

        return wrapper

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time covered by direct child spans)."""
        n = len(self._start)
        child = [0.0] * n
        dur = [self._end[i] - self._start[i] for i in range(n)]
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        rows: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = rows.setdefault(self._names[self._name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return rows

    @property
    def span_count(self) -> int:
        return len(self._start)


def rebind(fn, wrapper) -> list[tuple]:
    """Replace ``fn`` by ``wrapper`` at every module attribute of robustcast
    that refers to it. Returns the replaced (module, attribute, original)
    triples, which ``restore`` puts back."""
    replaced = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "robustcast" or modname.startswith("robustcast.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if obj is fn:
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr, fn))
    return replaced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public function defined in the traced modules, wherever
    robustcast refers to it (see ``rebind``)."""
    import importlib

    # import them all first, so that every alias exists when a function is wrapped
    modules = {short: importlib.import_module(f"robustcast.{short}") for short in TRACED_MODULES}
    replaced = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                replaced += rebind(obj, tracer.wrap(f"{short}.{attr}", obj))
    return replaced


def restore(replaced: list[tuple]) -> None:
    for mod, attr, original in replaced:
        setattr(mod, attr, original)
