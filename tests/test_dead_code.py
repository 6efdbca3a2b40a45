"""Every top-level function and class of the package has a user.

A definition counts as used when its name appears outside its own body
anywhere in `src/`, `tests/` or `perfbench/spans.py`: as a name, an
attribute, an import, or a string that is exactly a (dotted) identifier, the
form in which the benchmark's span table names the functions it wraps.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morreylab"
IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


def _references(tree: ast.Module) -> list[tuple[str, str | None]]:
    """(referenced name, top-level definition it sits in, or None)."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.append((node.name.split(".")[-1], owner))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and IDENTIFIER.fullmatch(node.value)):
                out.extend((part, owner) for part in node.value.split("."))
    return out


def test_every_definition_is_referenced():
    files = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
             + [ROOT / "perfbench" / "spans.py"])
    trees = {path: ast.parse(path.read_text()) for path in files}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in trees[path].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            used = any(name == top.name and (other != path or owner != top.name)
                       for other, pairs in refs.items() for name, owner in pairs)
            if not used:
                unused.append(f"{path.name}:{top.name}")
    assert unused == []
