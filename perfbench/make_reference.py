"""Regenerate the reference outputs the benchmark checks the reference seed
against (perfbench/reference/<workload>.json).

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a source checkout. Only regenerate when a change is
meant to alter what the program computes, and say so in the change.
"""
from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
from run import HERE, REFERENCE_SEED, WORKLOADS, Run


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for workload in sys.argv[1:] or WORKLOADS:
        config = json.loads((HERE / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
        work = root / ".perfbench" / "work" / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = Run(root, workload, REFERENCE_SEED, work, time.perf_counter() + 900.0)
        out_dir = work / "out"
        try:
            if run.child("train", out_dir) is None or run.child("evaluate", out_dir) is None:
                print("\n".join(run.problems), file=sys.stderr)
                return 1
            problems = checks.output_problems(config, out_dir, reference=None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            ref = checks.reference_from_outputs(config, out_dir, REFERENCE_SEED)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        # one grid row per line keeps the file readable in a diff
        rows = ",\n  ".join(json.dumps(row) for row in ref["grid"])
        text = json.dumps(dict(ref, grid="@GRID@"), indent=1)
        path.write_text(text.replace('"@GRID@"', f"[\n  {rows}\n ]") + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
