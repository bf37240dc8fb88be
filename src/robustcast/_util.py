"""Seed derivation, JSON and worker-pool helpers used by several modules."""
from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(base: int, *parts: int | str) -> int:
    """Deterministically derive a child seed from a base seed and a key path.

    Strings are hashed with SHA-256 so the mapping is stable across runs and
    platforms (unlike the builtin ``hash``).
    """
    entropy: list[int] = [int(base) & 0xFFFFFFFFFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "little"))
        else:
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def rng_for(base: int, *parts: int | str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base, *parts))


def array_to_json(arr: np.ndarray) -> dict:
    """Encode an array as shape + row-major flat data (floats round-trip exactly)."""
    a = np.asarray(arr, dtype=np.float64)
    return {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}


def array_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=np.float64).reshape(obj["shape"], order="C")


def map_jobs(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], run in a pool of `jobs` worker processes
    when jobs > 1 and there is more than one task; fn must be picklable."""
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
