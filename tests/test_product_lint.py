"""Every graded product is a row of one pass: ``grassmann._products``.

A lint over the source: ``np.bincount`` sums the product terms into their
targets, so a call to it anywhere else would be a second product path.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "grasschan"
MODULES = sorted(SOURCE.glob("*.py"))


def _bincount_lines(path: Path) -> list:
    """Lines that name ``bincount``, outside ``grassmann._products``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    if path.name == "grassmann.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_products":
                allowed = {id(inner) for inner in ast.walk(node)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            isinstance(node, ast.Attribute) and node.attr == "bincount"
            or isinstance(node, ast.Name) and node.id == "bincount"
            or isinstance(node, ast.alias) and node.name == "bincount"
        )
    ]


def test_the_lint_sees_the_product_pass():
    grassmann = SOURCE / "grassmann.py"
    assert grassmann in MODULES and len(MODULES) >= 10
    tree = ast.parse(grassmann.read_text(encoding="utf-8"))
    (products,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_products"]
    assert sum(isinstance(n, ast.Attribute) and n.attr == "bincount" for n in ast.walk(products)) == 2


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_product_pass_outside_products(path):
    assert _bincount_lines(path) == []
