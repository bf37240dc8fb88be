"""Seed derivation, JSON and worker-pool helpers used by several modules."""
from __future__ import annotations

import hashlib
from contextlib import contextmanager

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


@contextmanager
def open_utf8(path, newline: str | None = None):
    """open(path, encoding="utf-8", newline=newline) for reading, except that
    a byte that is not UTF-8 is a ParseError naming the file. An OSError,
    such as for a directory, passes through."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def only_keys(obj: dict, keys, what: str) -> dict:
    """obj, a JSON object read from a file; ParseError naming `what` and the
    first of its keys outside `keys`, the keys its writer writes."""
    for key in obj:
        if key not in keys:
            raise ParseError(f"{what} holds the key {key!r}, which its writer never writes")
    return obj


def map_jobs(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], run in a pool of `jobs` worker processes
    when jobs > 1 and there is more than one task; fn must be picklable.

    The tasks go out in at most `jobs` runs of consecutive tasks, each
    pickled as one message, so an object several tasks share (the horizon
    data, the artifacts, a retrain oracle and the models it has cached) is
    pickled and rebuilt once per run, not once per task. The pool starts
    one worker per run, never more."""
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures as cf

        chunk = -(-len(tasks) // jobs)
        with cf.ProcessPoolExecutor(max_workers=-(-len(tasks) // chunk)) as pool:
            return list(pool.map(fn, tasks, chunksize=chunk))
    return [fn(task) for task in tasks]
