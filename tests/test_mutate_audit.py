"""The mutation script's choice of places to change, read from the syntax tree alone."""

import ast
import importlib.util
import sys
from pathlib import Path

import tendersim.encoding

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate_audit", ROOT / "scripts" / "mutate_audit.py")
mutate_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate_audit)


def _places(source: str, only: set[str]) -> list[tuple[str, str]]:
    return [(kind, ast.unparse(node)) for node, kind in
            mutate_audit.candidates(ast.parse(source), only)]


def test_only_a_function_reaches_the_functions_nested_in_it():
    source = Path(tendersim.encoding.__file__).read_text(encoding="utf-8")
    places = _places(source, {"reader"})
    assert ("negate test", "if not test((value := parse(value))):\n"
                           "    raise ValueError(refusal)") in places
    # the nested function is not a scope of its own
    assert _places(source, {"read"}) == []


def test_a_method_and_a_module_level_table_are_scopes():
    source = ("class C:\n"
              "    def m(self, x):\n"
              "        def inner(y):\n"
              "            return y < 1\n"
              "        return x < 1 and inner(x)\n"
              "TABLE = {'k': lambda v: v > 0}\n"
              "def f(x):\n"
              "    return x >= 2\n")
    assert _places(source, {"m"}) == [
        ("negate returned comparison", "return y < 1"), ("drop operand", "x < 1"),
        ("drop operand", "inner(x)"), ("shift boundary", "y < 1"), ("shift boundary", "x < 1")]
    assert _places(source, {"inner"}) == []
    assert _places(source, {"TABLE"}) == [("shift boundary", "v > 0")]
    assert _places(source, {"f"}) == [("negate returned comparison", "return x >= 2"),
                                      ("shift boundary", "x >= 2")]


def _main(monkeypatch, capsys, suite: str, *argv) -> tuple[int, str, str]:
    """The script's exit code, stdout and stderr over ``argv``, the suite it runs replaced
    by the Python code ``suite``, run in each copy of the tree."""
    monkeypatch.setattr(mutate_audit, "PYTEST", [sys.executable, "-c", suite])
    monkeypatch.setattr(sys, "argv", ["mutate_audit.py", *argv])
    code = mutate_audit.main()
    out, err = capsys.readouterr()
    return code, out, err


def test_a_tree_that_fails_unmutated_judges_no_mutant(monkeypatch, capsys):
    code, out, err = _main(monkeypatch, capsys, "raise SystemExit(1)",
                           "src/tendersim/encoding.py", "--only", "json_path")
    assert (code, out) == (2, "")
    assert err.endswith("the unmutated tree fails its tests, so no mutant can be judged\n")


def test_a_mutant_that_outruns_the_unmutated_tree_times_out_and_counts_as_killed(monkeypatch,
                                                                                 capsys):
    # the stand-in suite ends at once on the module as written, and hangs on a mutant,
    # which the script writes back without the module's comments
    hang = ("import time; time.sleep(0 if '# How deep' in "
            "open('src/tendersim/encoding.py').read() else 60)")
    code, out, _ = _main(monkeypatch, capsys, hang, "src/tendersim/encoding.py",
                         "--only", "json_path", "--jobs", "1")
    *mutants, counts = out.splitlines()
    assert code == 0
    assert counts == "2 mutants, 2 killed (2 timed out), 0 survived"
    assert [line.split(": ")[-1] for line in mutants] == ["timed out", "timed out"]
