"""Checks over the package's source as a whole."""

import ast
from collections import Counter
from pathlib import Path

import ibvq

SRC = Path(ibvq.__file__).resolve().parent

# the module-level functions no other package code refers to, each with the
# reason it is kept
UNREFERENCED = {
    "grad_check": "the finite-difference check of the gradient tests",
    "sum_all": "a scalar loss the gradient and training-loop tests build",
    "sqnorm": "a scalar loss the gradient and training-loop tests build",
    "transpose": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
    "softmax_rows": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
    "unfold_rows": "perfbench's tracer wraps it by name (ROADMAP item 8c)",
}


def _names(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or as an
    attribute (``nc.attention``)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_module_level_function_is_referenced():
    """A module-level function is read somewhere in the package outside its
    own body; an import alone does not count. The functions that are not are
    exactly `UNREFERENCED`, so a function whose last caller goes is deleted
    with it or given a reason here."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    unreferenced = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if used[node.name] <= _names(node)[node.name]:
                    unreferenced.add(node.name)
    assert unreferenced == set(UNREFERENCED)
