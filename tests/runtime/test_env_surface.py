"""The environment variables the program reads are a fixed, known set.

Every string literal in ``src/`` that is a whole ``REPRO_[A-Z_]+`` name,
docstrings aside, counts as a read of that variable.  The set must be
exactly :data:`EXPECTED`, and each name must appear in one module only,
so that one rule decides what it means.  A new environment knob has to
change this test on purpose.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")
EXPECTED = {
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_FAULTS",
    "REPRO_FAULTS_SEED",
}


def _docstring_ids(tree):
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                ids.add(id(first.value))
    return ids


def env_names():
    """Environment variable name -> the ``src/`` modules spelling it."""
    modules = defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = _docstring_ids(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and ENV_NAME.fullmatch(node.value)
            ):
                modules[node.value].add(str(path.relative_to(SRC)))
    return modules


def test_the_program_reads_only_the_known_variables():
    assert set(env_names()) == EXPECTED


def test_each_variable_is_spelled_in_one_module():
    spread = {
        name: sorted(paths)
        for name, paths in env_names().items()
        if len(paths) != 1
    }
    assert spread == {}
