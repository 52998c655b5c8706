"""Every spectral norm in the package goes through
``linalg.spectral_norm``: no module calls a ``norm`` with ord 2
anywhere else.

A stdlib ``ast`` pass, so the check runs without a linter installed.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "darlington"
MODULES = sorted(PACKAGE.glob("*.py"))
PRIMITIVE = "spectral_norm"


def _is_ord2_norm(call: ast.Call) -> bool:
    f = call.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return name == "norm" and any(isinstance(o, ast.Constant) and o.value == 2
                                  for o in ords)


def ord2_norm_calls(source: str) -> list[int]:
    """Line numbers of ``norm(x, 2)`` / ``norm(x, ord=2)`` calls outside
    the function named PRIMITIVE."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_ord2_norm(child) and not inside:
                found.append(child.lineno)
            visit(child, inside or (isinstance(child, ast.FunctionDef)
                                    and child.name == PRIMITIVE))

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_spectral_norms_use_the_primitive(path):
    assert ord2_norm_calls(path.read_text()) == []


def test_detects_an_ord2_norm_outside_the_primitive():
    source = ("import numpy as np\n"
              "def spectral_norm(M):\n"
              "    return np.linalg.norm(M, 2)\n"
              "def f(M):\n"
              "    return np.linalg.norm(M) + np.linalg.norm(M, ord=2)\n"
              "def g(F):\n"
              "    return norm(F, 2, axis=(1, 2))\n")
    assert ord2_norm_calls(source) == [5, 7]
