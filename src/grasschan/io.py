"""JSON channel schema (versioned) and spec parsing for the CLI.

Input schema, ``schema_version`` 1.  Three forms::

    {"type": "canonical", "t": [t1, t2, t3], "lambda": [l1, l2, l3]}
    {"type": "kraus", "matrices": [[[ [re, im], [re, im] ],
                                    [ [re, im], [re, im] ]], ...]}
    {"type": "named", "name": "amplitude_damping", "params": {"n": 0.3}}

Every number of a spec, ``schema_version`` included, is a finite JSON number
(an int or a float); a bool, string, object or array in its place is a
``SpecError`` naming the field.

``channel_to_json`` is ``QubitChannel.to_json``, the package's one writer of
the canonical form, which re-ingests bit-exactly; every channel block of a
report (``channel``, the equivalent's ``channel``, ``complement`` and
``witness``) is therefore a valid input spec.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import catalog
from .qubit import QubitChannel

__all__ = ["SpecError", "channel_from_json", "channel_to_json", "load_channel_spec"]

SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A channel spec does not conform to the documented JSON schema."""


channel_to_json = QubitChannel.to_json


def _number(value, field: str, *index) -> float:
    """A JSON number (an int or a float, not a bool) as a finite float.

    A bool, string, object or array, an int too large for a float, NaN and
    the infinities (which Python's json accepts) raise a ``SpecError``
    naming ``field`` and its ``index``, written out only then.
    """
    if isinstance(value, float) or isinstance(value, int) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            problem = "is too large for a float"
        else:
            if math.isfinite(x):
                return x
            problem = "is a non-finite number"
    else:
        problem = f"must be a number, not {type(value).__name__}"
    raise SpecError(f"{field}{''.join(f'[{k}]' for k in index)} {problem}")


def _numbers(values, field: str, n: int) -> list:
    if not isinstance(values, list) or len(values) != n:
        raise SpecError(f"{field} must be an array of {n} numbers")
    return [_number(v, field, k) for k, v in enumerate(values)]


def _pairs(x) -> bool:
    return isinstance(x, list) and len(x) == 2


def _parse_matrix(entry, k: int) -> np.ndarray:
    if not (_pairs(entry) and all(_pairs(row) and all(map(_pairs, row)) for row in entry)):
        raise SpecError("each Kraus matrix must be a 2x2 array of [re, im] pairs")
    m = np.array(
        [
            [[_number(x, "matrices", k, i, j, part) for part, x in enumerate(z)] for j, z in enumerate(row)]
            for i, row in enumerate(entry)
        ]
    )
    return m[..., 0] + 1j * m[..., 1]


def channel_from_json(obj: dict) -> QubitChannel:
    if not isinstance(obj, dict):
        raise SpecError("channel spec must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if _number(version, "schema_version") != SCHEMA_VERSION:
        raise SpecError(f"unsupported schema_version {version!r}")
    kind = obj.get("type")
    if kind == "canonical":
        return QubitChannel.from_canonical(_numbers(obj.get("t"), "t", 3), _numbers(obj.get("lambda"), "lambda", 3))
    if kind == "kraus":
        matrices = obj.get("matrices")
        if not isinstance(matrices, list) or not matrices:
            raise SpecError("kraus spec needs a non-empty 'matrices' list")
        ops = [_parse_matrix(m, k) for k, m in enumerate(matrices)]
        # trace-preservation / diagonality failures are validation errors and
        # propagate as their own types
        return QubitChannel.from_kraus(ops)
    if kind == "named":
        name = obj.get("name")
        params = obj.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise SpecError("named spec needs a 'name' string and a 'params' object")
        params = {key: _number(value, "params", repr(key)) for key, value in params.items()}
        try:
            return catalog.build(name, params)
        except (KeyError, catalog.OutOfRangeError) as exc:
            raise SpecError(str(exc)) from exc
    raise SpecError(f"unknown channel spec type {kind!r}")


def _json_int(token: str):
    """A JSON integer token as Python's json reads it, except ``-0``, which is
    the float -0.0 (the int 0 has no sign), as ``-0.0`` and ``--param n=-0`` are."""
    return -0.0 if token == "-0" else int(token)


def load_channel_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
