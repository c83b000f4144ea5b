"""Every name a ``src/`` module imports is read in that module.

A lint for unused imports, since the project installs no linter.  A
name counts as read where it appears as an expression (``Name``), which
covers attribute chains (``np.int32``), and where it appears inside a
string annotation (``"OrderedDict[str, int]"``).  ``__init__.py`` files
are skipped: their imports are the package's public names.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _bound_names(node):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        alias.asname or alias.name.split(".")[0]
        for alias in node.names
        if alias.name != "*"
    ]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(
                    sub.id for sub in ast.walk(inner)
                    if isinstance(sub, ast.Name)
                )
    return names


def unused_imports(root=SRC):
    """``module:line: name`` for every import no code of its module reads."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            found.extend(
                f"{path.relative_to(root)}:{node.lineno}: {name}"
                for name in _bound_names(node)
                if name not in read
            )
    return found


def test_every_imported_name_is_read():
    assert unused_imports() == []


def test_the_lint_sees_an_unused_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from typing import List\n")
    (package / "mod.py").write_text(
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [np.int32(x)]\n"
    )
    assert unused_imports(tmp_path) == ["pkg/mod.py:1: Dict"]
