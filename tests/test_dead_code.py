"""No dead code: every module-level function and class of the package is
referenced somewhere outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "divaria"


def _names(tree) -> set:
    """Every name that a node of tree reads, imports or looks up as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_module_level_def_is_referenced():
    defined = {}  # name -> the module that defines it
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) \
            + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE:
                    defined.setdefault(stmt.name, path.name)
                # a recursive call inside the def does not count as a use
                used |= _names(stmt) - {stmt.name}
            else:
                used |= _names(stmt)
    assert defined
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)
    assert dead == []
