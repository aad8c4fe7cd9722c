import ast
from pathlib import Path

import tendersim

PACKAGE = Path(tendersim.__file__).resolve().parent


def test_every_error_class_is_raised_in_the_package():
    # A class that is never raised only carries a code; such codes belong in
    # the module that writes them, as constants.
    nodes = [node for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    classes = {"TenderSimError"}
    while True:
        grown = classes | {node.name for node in nodes if isinstance(node, ast.ClassDef)
                           and any(isinstance(base, ast.Name) and base.id in classes
                                   for base in node.bases)}
        if grown == classes:
            break
        classes = grown
    subclasses = classes - {"TenderSimError"}
    raised = set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    assert len(subclasses) >= 15  # the walk found the package's error classes
    assert sorted(subclasses - raised) == []
