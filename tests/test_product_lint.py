"""One array product pass: ``grassmann._products``, run by the algebra and the convolution.

A lint over the source: ``np.bincount`` sums the product terms into their
targets, so a call to it anywhere else would be a second array product path.
And ``_products`` itself is named only in ``grassmann.py`` (the element
algebra) and in ``green._apply_kernels`` (the convolution of a stack of
kernels): every kernel is written from its closed form, so a product pass
anywhere else would be a second builder of something that has one.  The
scalar closed forms on Python floats (one kernel, one characteristic
function, one convolution) are not passes; the bit tests hold each of them
to the element algebra or to ``_products``.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "grasschan"
MODULES = sorted(SOURCE.glob("*.py"))


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _lines_naming(path: Path, name: str, homes: dict) -> list:
    """Lines of ``path`` that name ``name`` outside its homes, sorted.

    ``homes`` maps a module's file name to the one function where ``name``
    may appear, or to None for the whole module.  In a module with a home an
    import under its own name is not a use; an import under another name,
    or any import in another module, is.
    """
    if path.name in homes and homes[path.name] is None:
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    if path.name in homes:
        allowed = {id(inner) for inner in ast.walk(_function(tree, homes[path.name]))}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.alias) and node.name == name and (node.asname or path.name not in homes)
        )
    )


#: Where each name of an array product pass may appear.
BINCOUNT_HOMES = {"grassmann.py": "_products"}
PRODUCTS_HOMES = {"grassmann.py": None, "green.py": "_apply_kernels"}


def test_the_lint_sees_the_product_pass():
    grassmann = SOURCE / "grassmann.py"
    assert grassmann in MODULES and len(MODULES) >= 10
    products = _function(ast.parse(grassmann.read_text(encoding="utf-8")), "_products")
    assert sum(isinstance(n, ast.Attribute) and n.attr == "bincount" for n in ast.walk(products)) == 2


def test_the_lint_sees_the_convolution_pass():
    green = SOURCE / "green.py"
    assert green in MODULES
    apply_kernels = _function(ast.parse(green.read_text(encoding="utf-8")), "_apply_kernels")
    assert sum(isinstance(n, ast.Name) and n.id == "_products" for n in ast.walk(apply_kernels)) == 1
    assert apply_kernels.body[-1].lineno in _lines_naming(green, "_products", {"green.py": "_kernel_body"})


def test_the_lint_flags_a_product_pass_outside_its_homes(tmp_path):
    elsewhere = tmp_path / "green.py"
    elsewhere.write_text(
        "from .grassmann import _products\n"
        "from . import grassmann as g\n"
        "from .grassmann import _products as p\n"
        "def _apply_kernels(k, c):\n"
        "    return _products(c, k)\n"
        "def _kernel_rows(a, b):\n"
        "    return g._products(a, _products(a, b))\n",
        encoding="utf-8",
    )
    assert _lines_naming(elsewhere, "_products", PRODUCTS_HOMES) == [3, 7, 7]
    homeless = tmp_path / "verify.py"
    homeless.write_text("from .grassmann import _products\n", encoding="utf-8")
    assert _lines_naming(homeless, "_products", PRODUCTS_HOMES) == [1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_product_pass_outside_products(path):
    assert _lines_naming(path, "bincount", BINCOUNT_HOMES) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_products_call_outside_the_algebra_and_the_convolution(path):
    assert _lines_naming(path, "_products", PRODUCTS_HOMES) == []
