"""JSON channel schema (versioned) and spec parsing for the CLI.

Input schema, ``schema_version`` 1.  Three forms::

    {"type": "canonical", "t": [t1, t2, t3], "lambda": [l1, l2, l3]}
    {"type": "kraus", "matrices": [[[ [re, im], [re, im] ],
                                    [ [re, im], [re, im] ]], ...]}
    {"type": "named", "name": "amplitude_damping", "params": {"n": 0.3}}

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


def _parse_matrix(entry) -> np.ndarray:
    try:
        m = np.asarray(entry, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"bad Kraus matrix entry: {exc}") from exc
    if m.shape != (2, 2, 2):
        raise SpecError("each Kraus matrix must be a 2x2 array of [re, im] pairs")
    _require_finite("Kraus matrix", m.flat)
    return m[..., 0] + 1j * m[..., 1]


def _require_finite(what: str, values) -> None:
    # Python's json accepts NaN and Infinity, which no channel has.
    if not all(map(math.isfinite, values)):
        raise SpecError(f"non-finite number in {what}")


def channel_from_json(obj: dict) -> QubitChannel:
    if not isinstance(obj, dict):
        raise SpecError("channel spec must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(f"unsupported schema_version {version!r}")
    kind = obj.get("type")
    if kind == "canonical":
        try:
            t = [float(v) for v in obj["t"]]
            lam = [float(v) for v in obj["lambda"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"bad canonical spec: {exc}") from exc
        if len(t) != 3 or len(lam) != 3:
            raise SpecError("canonical spec needs 3-vectors 't' and 'lambda'")
        _require_finite("canonical spec", t + lam)
        return QubitChannel.from_canonical(t, lam)
    if kind == "kraus":
        matrices = obj.get("matrices")
        if not isinstance(matrices, list) or not matrices:
            raise SpecError("kraus spec needs a non-empty 'matrices' list")
        ops = [_parse_matrix(m) for m in matrices]
        # trace-preservation / diagonality failures are validation errors and
        # propagate as their own types
        return QubitChannel.from_kraus(ops)
    if kind == "named":
        name = obj.get("name")
        params = obj.get("params", {})
        if not isinstance(name, str) or not isinstance(params, dict):
            raise SpecError("named spec needs a 'name' string and a 'params' object")
        try:
            params = {key: float(value) for key, value in params.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpecError(f"bad named parameters: {exc}") from exc
        _require_finite("named parameters", params.values())
        try:
            return catalog.build(name, params)
        except (KeyError, catalog.OutOfRangeError) as exc:
            raise SpecError(str(exc)) from exc
    raise SpecError(f"unknown channel spec type {kind!r}")


def load_channel_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge integers, deep nesting
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
