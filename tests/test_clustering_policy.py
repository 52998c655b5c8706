"""One clustering policy: linalg.mirror_split is the only code in the
package that runs cluster_ladder, so every clustering, of the Hamiltonian
spectrum or of the roots of mu, is a mirror split.

A stdlib ``ast`` pass, as in test_imports.py.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "darlington"


def ladder_users(source: str) -> list[str]:
    """The top-level definition (or "<module>") around each reference to
    cluster_ladder, bare or as an attribute, in source order."""
    users = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name == "cluster_ladder":
                users.append(owner)
    return users


def test_only_mirror_split_runs_the_ladder():
    users = {p.name: ladder_users(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in users.items() if u} == {"linalg.py": ["mirror_split"]}


def test_detects_a_second_caller():
    source = ("from . import linalg\n"
              "def mirror_split(z, tol):\n"
              "    return cluster_ladder(z, tol)\n"
              "def roots(z):\n"
              "    return linalg.cluster_ladder(z, 1e-6)\n")
    assert ladder_users(source) == ["mirror_split", "roots"]
