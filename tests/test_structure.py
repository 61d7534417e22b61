"""Structure locks read from the package's syntax trees."""

import ast
from pathlib import Path

import ingletonlp

PACKAGE = Path(ingletonlp.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_assert_statement_in_the_package():
    # python -O strips asserts; soundness checks go through _require instead
    trees = _trees()
    assert len(trees) > 5
    found = [(name, node.lineno) for name, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_one_accumulator_and_one_permutation_walk():
    trees = _trees()
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "_combine" in defined and "_bump" not in defined
    walks = [node for node in ast.walk(trees["certify.py"]) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "permutations"]
    assert len(walks) == 1
