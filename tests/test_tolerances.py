"""The tolerance policy has one home: ``grasschan/tolerances.py``.

A lint over the source: no other module may hold a tolerance-sized float
literal, round to a literal number of digits (``round(x, 12)`` is a 1e-12
tolerance) or define its own tolerance constant.  The old import paths of
the moved names must keep resolving to the policy's values.
"""

import ast
from pathlib import Path

import pytest

from grasschan import charfunc, degradability, green, qubit, tolerances, verify

SOURCE = Path(__file__).resolve().parents[1] / "src" / "grasschan"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "tolerances.py")
SUFFIXES = ("_ATOL", "_TOL", "_FLOOR", "_MARGIN", "_DIGITS")


def _is_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant)


def _violations(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6
        ):
            found.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "round":
            digits = node.args[1:] + [k.value for k in node.keywords if k.arg == "ndigits"]
            if any(_is_literal(d) for d in digits):
                found.append(f"{path.name}:{node.lineno}: round() to a literal number of digits")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None or not _is_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.endswith(SUFFIXES):
                found.append(f"{path.name}:{node.lineno}: tolerance {target.id} defined here")
    return found


def test_the_lint_sees_every_module():
    assert len(MODULES) >= 10
    assert _violations(SOURCE / "tolerances.py")  # the policy itself would be flagged


def test_the_lint_flags_rounding_to_literal_digits(tmp_path):
    path = tmp_path / "rounding.py"
    path.write_text(
        "a = round(x, 12)\nb = round(x, ndigits=-3)\nc = round(x)\nd = round(x, DIGITS)\n", encoding="utf-8"
    )
    assert [v.split(": ", 1)[0] for v in _violations(path)] == ["rounding.py:1", "rounding.py:2"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_outside_the_policy(path):
    assert _violations(path) == []


@pytest.mark.parametrize(
    "module, name",
    [
        (qubit, "STATE_ATOL"),
        (qubit, "TP_ATOL"),
        (qubit, "CHOI_EIG_FLOOR"),
        (qubit, "DIAG_ATOL"),
        (qubit, "SCREEN_MARGIN"),
        (green, "GAUSSIAN_ATOL"),
        (green, "ANGLE_ATOL"),
        (degradability, "CERT_RESIDUAL_TOL"),
        (degradability, "UNITARITY_ATOL"),
        (degradability, "BOUNDARY_ATOL"),
        (charfunc, "NORMALIZATION_ATOL"),
        (charfunc, "PHYSICALITY_ATOL"),
        (verify, "CALIBRATION_TOL"),
        (verify, "ORACLE_TOL"),
    ],
)
def test_old_import_paths_resolve_to_the_policy(module, name):
    assert getattr(module, name) is getattr(tolerances, name)


def test_policy_values():
    values = {
        name: getattr(tolerances, name) for name in dir(tolerances) if name.endswith(SUFFIXES)
    }
    assert values == {
        "ISCLOSE_ATOL": 1e-12,
        "STATE_ATOL": 1e-9,
        "KRAUS_TP_ATOL": 1e-10,
        "DIAG_ATOL": 1e-10,
        "CHOI_EIG_FLOOR": -1e-9,
        "TP_ATOL": 1e-12,
        "SCREEN_MARGIN": 1e-12,
        "NORMALIZATION_ATOL": 1e-10,
        "PHYSICALITY_ATOL": 1e-9,
        "GAUSSIAN_ATOL": 1e-10,
        "ANGLE_ATOL": 1e-9,
        "ANGLE_RATIO_ATOL": 1e-7,
        "ANGLE_TIE_DIGITS": 12,
        "UNITARITY_ATOL": 1e-12,
        "ENV_ATOL": 1e-12,
        "CERT_RESIDUAL_TOL": 1e-9,
        "BOUNDARY_ATOL": 1e-12,
        "CALIBRATION_TOL": 1e-14,
        "ORACLE_TOL": 1e-12,
    }


def test_docstring_table_lists_every_tolerance_with_its_value():
    rows = {}
    for line in tolerances.__doc__.splitlines():
        if line.startswith("``"):  # a row; continuation lines are indented
            name, value = line.split()[:2]
            rows[name.strip("`")] = float(value)
    values = {
        name: getattr(tolerances, name) for name in dir(tolerances) if name.endswith(SUFFIXES)
    }
    assert rows == values


def test_a_recovered_state_meets_the_state_bounds():
    """``state_from_char`` makes its ``QubitState`` without the state's own
    checks: every ``|gamma|^2`` it accepts is within ``p(1-p) +
    PHYSICALITY_ATOL``, which meets ``QubitState``'s bound only while
    ``PHYSICALITY_ATOL <= STATE_ATOL``."""
    assert tolerances.PHYSICALITY_ATOL <= tolerances.STATE_ATOL
