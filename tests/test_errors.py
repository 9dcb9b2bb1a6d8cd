"""The package rejects input through one exception class, and only there."""

import ast
import pathlib

from helpers import SRC

_PACKAGE = pathlib.Path(SRC) / "shadowscan"


def test_errors_defines_only_input_error():
    tree = ast.parse((_PACKAGE / "errors.py").read_text())
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [(c.name, [ast.unparse(b) for b in c.bases]) for c in classes] == [("InputError", ["ValueError"])]


def test_every_raise_in_the_package_is_input_error_or_a_re_raise():
    others = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            call = node.exc
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "InputError"):
                others.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert others == []
