"""List the statements of src/robustcast that a set of robustcast commands
never runs, module by module.

Each argument is one command line of the CLI, run in this process, in
order, under sys.settrace (standard library only), on the package of this
checkout:

    python tests/trace_commands.py \\
        "train --config perfbench/workloads/lr-pipeline.json --out runs/t" \\
        "evaluate --config perfbench/workloads/lr-pipeline.json --out runs/t"

Pass --module NAME (repeatable) to print only those modules. A statement
counts as run when a line of its header (for a compound statement, the
lines before its body) fires a line event, or when the first statement
of its body runs. Statements that compile to no instruction (docstrings,
`global`) are not listed. An error path, a `raise` or a statement of an
`except` clause, is marked `err`. sys.settrace sees only this process's
main thread, so work done with `--jobs` above 1 in worker processes, or in
a process pool's threads here (its feeder thread pickles the tasks), is
not seen: trace with `--jobs 1`.
"""
from __future__ import annotations

import argparse
import ast
import dis
import os
import shlex
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustcast"


def _line_starts(code: types.CodeType) -> set[int]:
    """Every line on which an instruction of code, or of a code object
    nested in it, starts."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _line_starts(const)
    return lines


def _header(node: ast.stmt) -> range:
    """The lines of node before its body, or all of its lines."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def _error_paths(tree: ast.Module) -> set[ast.stmt]:
    """The raise statements of tree and the statements of its except clauses."""
    found = {node for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    for handler in (node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)):
        found.update(node for stmt in handler.body for node in ast.walk(stmt)
                     if isinstance(node, ast.stmt))
    return found


def unrun_statements(path: Path, ran: set[int]) -> tuple[int, list[tuple[ast.stmt, bool]]]:
    """The number of statements of the module at path that compile to an
    instruction, and those of them none of the lines in ran reached, each
    with whether it is an error path."""
    source = path.read_text(encoding="utf-8")
    executable = _line_starts(compile(source, str(path), "exec"))
    tree = ast.parse(source)
    errors = _error_paths(tree)
    statements = [node for node in ast.walk(tree) if isinstance(node, ast.stmt)]
    runnable = [node for node in statements if executable.intersection(_header(node))]

    def reached(node: ast.stmt) -> bool:
        if ran.intersection(_header(node)):
            return True
        body = getattr(node, "body", None)
        return isinstance(body, list) and bool(body) and reached(body[0])

    unrun = sorted((node for node in runnable if not reached(node)), key=lambda n: n.lineno)
    return len(runnable), [(node, node in errors) for node in unrun]


def trace(commands: list[list[str]]) -> tuple[dict[str, set[int]], list[int]]:
    """The lines of each package file the commands ran, and their exit codes.
    The package is imported under the tracer, so its module-level lines count."""
    ran: dict[str, set[int]] = {}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, or None

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in owner:
            path = os.path.abspath(filename)
            owner[filename] = ran.setdefault(path, set()) \
                if os.path.dirname(path) == str(PACKAGE) else None
        lines = owner[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    codes = []
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        from robustcast.cli import main

        for argv in commands:
            codes.append(main(argv))
    finally:
        sys.settrace(None)
    return ran, codes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="+", help="one robustcast command line each")
    parser.add_argument("--module", action="append", default=[],
                        help="report only this module (e.g. models); repeatable")
    args = parser.parse_args(argv)
    ran, codes = trace([shlex.split(command) for command in args.commands])
    for command, code in zip(args.commands, codes):
        print(f"exit {code}: {command}")
    for path in sorted(PACKAGE.glob("*.py")):
        if args.module and path.stem not in args.module:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        total, unrun = unrun_statements(path, ran.get(str(path), set()))
        errors = sum(error for _, error in unrun)
        print(f"{path.stem}: {len(unrun)} of {total} statements never ran, "
              f"{errors} of them error paths")
        for node, error in unrun:
            mark = "err" if error else "   "
            print(f"  {node.lineno:4d} {mark} {lines[node.lineno - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
