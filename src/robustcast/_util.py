"""Seed derivation, JSON and worker-pool helpers used by several modules."""
from __future__ import annotations

import base64
import hashlib
import math

import numpy as np

from .exceptions import ParseError


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
    """Encode an array exactly: its shape and the base64 of its little-endian
    float64 bytes in C order."""
    a = np.asarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def array_from_json(obj: dict) -> np.ndarray:
    """The array `array_to_json` encoded, as a fresh, owned, writeable float64
    array; ParseError when the shape is no list of counts, the base64 is
    malformed or its byte count does not match the shape."""
    shape = obj["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ParseError(f"array shape {shape!r} is not a list of counts")
    try:
        raw = base64.b64decode(obj["f8"], validate=True)
    except ValueError as exc:  # binascii.Error included
        raise ParseError(f"array data is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(f"array of shape {shape} holds {len(raw)} bytes, not 8 per float")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def map_jobs(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], run in a pool of `jobs` worker processes
    when jobs > 1 and there is more than one task; fn must be picklable."""
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
