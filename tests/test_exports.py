import ast
import importlib
import pathlib
import pkgutil

import pytest

import grasschan
from grasschan import charfunc, degradability, grassmann, green, qubit

MODULES = [grasschan] + [
    importlib.import_module(f"grasschan.{info.name}") for info in pkgutil.iter_modules(grasschan.__path__)
]
LIBRARY = [charfunc, degradability, grassmann, green, qubit]
SOURCES = sorted(pathlib.Path(grasschan.__file__).parent.glob("*.py"))

# The names the package exported before its namespace was built from the
# modules' ``__all__``, by defining module; each must stay the same object.
EARLIER_EXPORTS = {
    charfunc: [
        "CharFunction", "NotNormalizedError", "NotPhysicalError", "char_function", "displacement",
        "state_from_char",
    ],
    degradability: [
        "ANTI_DEGRADABLE", "NEITHER_CERTIFIED", "NULL_CAPACITY_CLAIMED", "WEAKLY_DEGRADABLE",
        "DegradabilityVerdict", "Dilation", "Prediction", "certify", "classify_by_angles",
        "dilation_from_angles", "weakly_complementary",
    ],
    grassmann: [
        "XI", "XI_STAR", "ZETA", "ZETA_STAR", "Generator", "GrassmannElement", "OperatorElement", "adjoint",
        "berezin_integrate", "delta_pair", "integrate_pair", "multiply", "substitute",
    ],
    green: [
        "AngleParams", "GaussianEquivalent", "GaussianParams", "GreenFunction", "NoSolutionError",
        "angles_from_gaussian", "apply_green", "channel_from_angles", "detect_gaussian", "gaussian_equivalent",
        "green_from_canonical", "green_from_channel", "green_from_channel_trace",
    ],
    qubit: [
        "CptpReport", "NonDiagonalBlockError", "NotCptpError", "NotTracePreservingError", "QubitChannel",
        "QubitState", "apply_channel", "canonical_from_ptm", "choi_from_ptm", "compose", "is_cptp",
        "ptm_from_kraus", "random_cptp_canonical_channel", "random_state",
    ],
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_exports_the_union_of_the_library_modules():
    assert grasschan.__all__ == [name for module in LIBRARY for name in module.__all__]
    assert len(set(grasschan.__all__)) == len(grasschan.__all__)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(grasschan, name) is getattr(module, name), name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_def_and_class_is_in_its_module_all(path):
    tree = ast.parse(path.read_text())
    declared = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            if isinstance(node.value, ast.List):  # the package's own ``__all__`` is computed, and it defines nothing
                declared = set(ast.literal_eval(node.value))
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [name for name in public if name not in declared] == []


def test_earlier_exports_are_the_same_objects():
    assert sum(len(names) for names in EARLIER_EXPORTS.values()) == 57
    for module, names in EARLIER_EXPORTS.items():
        for name in names:
            assert name in grasschan.__all__
            assert getattr(grasschan, name) is getattr(module, name), name
