"""Mutation check of one module: does some test fail for each small change?

    python scripts/mutate_audit.py src/tendersim/audit.py [--only disclose,linked] [--jobs 2]

Six kinds of mutant, one change each: the test of an ``if``, a ``while`` or a
conditional expression negated, an ``if`` filter of a comprehension negated
alone, a returned comparison negated, a statement that appends a finding
replaced by ``None``, one operand of an ``and``/``or`` dropped, and the first
operator of a comparison moved across its boundary (``<`` with ``<=``, ``>``
with ``>=``).
``--only`` keeps the mutants inside the named functions, with the functions
nested in them, or module-level assignments such as a table of readers (named
by their target). The unmutated tree runs ``pytest -x`` over ``tests/``, fast
modules first, in one copy of the tree; if a test fails there, no mutant can
be judged, and the script exits 2. Then each mutant runs the same in a copy
of its own: it is killed when a test fails, and timed out, which counts as
killed, when its run takes over ``TIMEOUT_FACTOR`` times the unmutated one.
Prints one line per mutant, then the counts; exits 1 if any mutant survives.
Standard library only; run by hand, not part of the test suite.
"""

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "tests/test_encoding.py", "tests/test_orchestrator.py", "tests/test_audit.py",
          "tests/test_contracts.py", "tests/test_chain.py", "tests/test_scenario_cli.py", "tests"]
BOUNDARY_SHIFTS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
# A mutant's run may take this many times the unmutated one's, which runs alone: lanes
# running side by side slow each other, and a mutant that loops forever stops here.
TIMEOUT_FACTOR = 5


def candidates(tree: ast.AST, only: set[str]):
    """(node, kind) for each place a mutant can change, in a fixed order."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def scope(node):
        # the outermost function that holds ``node`` (for a node in a class, its method), so
        # a nested function belongs to the one it is nested in; else its module-level assignment
        name = None
        while node in parents:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.Assign) and isinstance(parents[node], ast.Module):
                return ast.unparse(node.targets[0])
            node = parents[node]
        return name

    for node in ast.walk(tree):
        if only and scope(node) not in only:
            continue
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            yield node, "negate test"
        elif isinstance(node, ast.comprehension):
            for test in node.ifs:
                yield test, "negate filter"
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Compare):
            yield node, "negate returned comparison"
        elif isinstance(node, ast.BoolOp):
            for operand in node.values:
                yield operand, "drop operand"
        elif isinstance(node, ast.Compare) and type(node.ops[0]) in BOUNDARY_SHIFTS:
            yield node, "shift boundary"
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr in ("append", "extend")
              and any(name in ast.unparse(node.value.func.value)
                      for name in ("violations", "found", "findings"))):
            yield node, "drop finding"


def mutant(source: str, index: int, only: set[str]) -> tuple[int, str, str]:
    """(line, kind, mutated source) of mutant ``index`` of ``source``."""
    tree = ast.parse(source)
    node, kind = list(candidates(tree, only))[index]
    if kind == "negate test":
        node.test = ast.UnaryOp(ast.Not(), node.test)
    elif kind == "negate filter":
        comp = next(c for c in ast.walk(tree) if isinstance(c, ast.comprehension)
                    and any(test is node for test in c.ifs))
        comp.ifs = [ast.UnaryOp(ast.Not(), t) if t is node else t for t in comp.ifs]
    elif kind == "negate returned comparison":
        node.value = ast.UnaryOp(ast.Not(), node.value)
    elif kind == "drop operand":
        op = next(b for b in ast.walk(tree) if isinstance(b, ast.BoolOp)
                  and any(value is node for value in b.values))
        op.values = [value for value in op.values if value is not node]
    elif kind == "shift boundary":
        node.ops[0] = BOUNDARY_SHIFTS[type(node.ops[0])]()
    else:
        node.value = ast.Constant(None)
    return node.lineno, kind, ast.unparse(ast.fix_missing_locations(tree))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module, relative to the repository")
    parser.add_argument("--only", default="",
                        help="comma-separated names of functions or module-level assignments")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    only = {name for name in args.only.split(",") if name}
    source = (ROOT / args.module).read_text()
    count = len(list(candidates(ast.parse(source), only)))
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    lanes: queue.Queue = queue.Queue()
    for k in range(args.jobs):
        lanes.put(Path(shutil.copytree(ROOT, work / str(k), ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}

    started = time.monotonic()
    baseline = subprocess.run(PYTEST, cwd=work / "0", env=env, capture_output=True, text=True)
    if baseline.returncode != 0:
        shutil.rmtree(work)
        print(baseline.stdout[-4000:] + baseline.stderr[-4000:], file=sys.stderr)
        print("the unmutated tree fails its tests, so no mutant can be judged", file=sys.stderr)
        return 2
    timeout = TIMEOUT_FACTOR * (time.monotonic() - started)

    def run(index: int) -> tuple[int, str, str]:
        line, kind, text = mutant(source, index, only)
        lane = lanes.get()
        (lane / args.module).write_text(text)
        try:
            verdict = "killed" if subprocess.run(PYTEST, cwd=lane, env=env, capture_output=True,
                                                 timeout=timeout).returncode else "SURVIVED"
        except subprocess.TimeoutExpired:
            verdict = "timed out"
        (lane / args.module).write_text(source)
        lanes.put(lane)
        print(f"{args.module}:{line} {kind}: {verdict}", flush=True)
        return line, kind, verdict

    with ThreadPoolExecutor(args.jobs) as pool:
        results = list(pool.map(run, range(count)))
    shutil.rmtree(work)
    survivors = [(line, kind) for line, kind, verdict in results if verdict == "SURVIVED"]
    timed_out = sum(verdict == "timed out" for _, _, verdict in results)
    print(f"{count} mutants, {count - len(survivors)} killed ({timed_out} timed out), "
          f"{len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
