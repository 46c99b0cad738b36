"""Byte-level snapshot of the JSON reports.

The analysis reports and the verification result must not change by a single
byte when the algebra is reimplemented: every float is printed with ``repr``
precision, so the snapshot pins the exact bits of every kernel coefficient,
angle, certificate residual and oracle residual.

The fixture ``data/output_snapshot.json`` maps a case key to the exact text.
Regenerate it only for an intended change of results::

    PYTHONPATH=src python tests/test_snapshot.py
"""

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from grasschan import catalog, cli, io, qubit, verify
from grasschan.qubit import QubitChannel

FIXTURE = Path(__file__).parent / "data" / "output_snapshot.json"

# Two parameter points per named channel, on both sides of every verdict
# boundary the catalog documents, plus amplitude damping on the boundary
# itself (n = 1/2, cos 2phi = 0), where both certificate directions run.
NAMED_POINTS = {
    "bit_flip": ({"s": 0.3}, {"s": 0.85}),
    "phase_flip": ({"s": 0.2}, {"s": 0.7}),
    "bit_phase_flip": ({"s": 0.4}, {"s": 0.9}),
    "depolarizing": ({"s": 0.25}, {"s": 0.6}),
    "amplitude_damping": ({"n": 0.3}, {"n": 0.8}, {"n": 0.5}),
    "generalized_amplitude_damping": ({"n": 0.3, "s": 0.2}, {"n": 0.75, "s": 0.6}),
}

# A generic channel (short path), an amplitude-damping channel with its axes
# relabelled so that only the lambda-permutation search recovers it, and a
# generalized-amplitude-damping channel (n = 0.3, s = 0.2) relabelled the same
# way: a mixed environment on the negative side of the sign test.
CANONICAL_CASES = {
    "generic": ((0.1, -0.05, 0.08), (0.4, 0.3, -0.2)),
    "permuted": ((0.36, 0.0, 0.0), (0.64, 0.8, 0.8)),
    "gad_permuted": ((-0.42, 0.0, 0.0), (0.3, math.sqrt(0.3), math.sqrt(0.3))),
}

# Kraus specs read through ``io.channel_from_json``: generalized amplitude
# damping with n = 0.64 and s = 0.36, matrices as 2x2 arrays of [re, im].
KRAUS_SPECS = {
    "gad": {
        "type": "kraus",
        "matrices": [
            [[[0.6, 0], [0, 0]], [[0, 0], [0.48, 0]]],
            [[[0, 0], [0.36, 0]], [[0, 0], [0, 0]]],
            [[[0.64, 0], [0, 0]], [[0, 0], [0.8, 0]]],
            [[[0, 0], [0, 0]], [[0.48, 0], [0, 0]]],
        ],
    },
}


def render(key: str) -> str:
    kind, _, name = key.partition(":")
    if kind == "verify":
        args = dict(item.split("=") for item in name.split(","))
        result = verify.run_verification(trials=int(args["trials"]), seed=int(args["seed"]))
        return json.dumps(result.to_json(), indent=2)
    if kind == "channel":
        report = catalog.analyze_channel(QubitChannel.from_canonical(*CANONICAL_CASES[name]))
        return json.dumps(report, indent=2)
    if kind == "kraus":
        report = catalog.analyze_channel(io.channel_from_json(KRAUS_SPECS[name]))
        return json.dumps(report, indent=2)
    if kind == "text":
        # The CLI's text rendering of a "channel:" report.
        _, _, case = name.partition(":")
        return cli._format_report_text(
            catalog.analyze_channel(QubitChannel.from_canonical(*CANONICAL_CASES[case]))
        )
    name, _, index = name.partition("#")
    return json.dumps(catalog.analyze(name, NAMED_POINTS[name][int(index)]), indent=2)


KEYS = (
    [f"named:{name}#{i}" for name, points in NAMED_POINTS.items() for i in range(len(points))]
    + [f"channel:{name}" for name in CANONICAL_CASES]
    + ["verify:trials=50,seed=42", "verify:trials=300,seed=7"]
    + [f"kraus:{name}" for name in KRAUS_SPECS]
    + ["text:channel:permuted"]
)


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_output_is_byte_identical(snapshot, key):
    assert render(key) == snapshot[key]


def test_sweep_and_verify_digests_are_pinned(report_digest):
    """Two of the three lines of ``scripts/report_digest.py``, in process: the
    bytes of 12,000 benchmark ``sweep`` states through ``char_function``,
    ``apply_green`` and ``state_from_char``, and of ``run_verification(1000,
    seed=42)``.  The ``reports`` line is left out: its bits depend on the
    host's LAPACK and libm."""
    assert report_digest.sweep_digest() == "ce35e153726af61f7a47a83a829bf255f5da464889cdc67ee48a32cbc770b5f3"
    assert report_digest.verify_digest() == "3fcfba861603904937af79dd35aae76f7ab98336f0b6098af7a04c2fb43a1c70"


def test_reports_do_not_depend_on_the_closed_forms(report_digest, monkeypatch):
    """A subset of the ``reports`` corpus of ``scripts/report_digest.py``,
    hashed report by report, with the closed form of the analyze path on
    and then off: the dilation's Kraus pass by matrix products instead of
    ``qubit._monomial_ptms``.  The subset is the ``analyze`` input chunks
    0-2 of each of the three seeds and the whole catalog grid (1,736 of the
    6,056 reports).  Both sides run on one host, so the test holds on any
    host, with no pinned digest."""

    def hashes():
        reports = itertools.chain(report_digest.spec_reports(range(3)), report_digest.catalog_reports())
        return [hashlib.sha256(json.dumps(r, indent=2).encode()).hexdigest() for r in reports]

    closed = hashes()
    products = []
    original = qubit._ptms_by_products
    monkeypatch.setattr(qubit, "_monomial_ptms", lambda stack: None)
    monkeypatch.setattr(qubit, "_ptms_by_products", lambda ops: products.append(1) or original(ops))
    reference = hashes()
    assert len(closed) == 1736 and len(products) > 1000
    assert [k for k, (a, b) in enumerate(zip(closed, reference)) if a != b] == []


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({key: render(key) for key in KEYS}, indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(KEYS)} cases to {FIXTURE}")
