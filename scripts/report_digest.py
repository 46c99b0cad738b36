#!/usr/bin/env python3
"""Print SHA-256 digests of the ``analyze``, ``verify`` and sweep outputs over a fixed corpus.

Three lines, each ``<name> <hex digest>``:

* ``reports``: one hash over the text ``json.dumps(report, indent=2)`` of
  6,056 reports, in this order:
  - ``analyze_channel`` on the specs of the benchmark's ``analyze`` input
    chunks 0-14 of seeds 3, 424242 and 11 (5,400 specs; the chunks are
    generated by ``bench/workloads.py``, which this script only imports);
  - ``catalog.analyze`` on a 41-point grid of every catalog parameter
    (41 x 11 for generalized amplitude damping; 656 reports).
* ``verify``: the hash of ``json.dumps(run_verification(1000, seed=42).to_json())``.
* ``sweep``: one hash over the benchmark's ``sweep`` input chunks 0-3 of the
  same seeds (12 kernels, 12,000 states): for each state ``rho`` of a chunk,
  the coefficient bytes of ``chi = char_function(rho)`` and of
  ``apply_green(kernel, chi)``, then ``(p, gamma.real, gamma.imag)`` of
  ``state_from_char`` of that, as little-endian doubles.

A change that keeps every output byte-identical prints the same three lines.
Run from the repository root (about ten seconds):

    python scripts/report_digest.py

``reports_digest``, ``verify_digest`` and ``sweep_digest`` compute one line
each; ``tests/test_snapshot.py`` pins the last two, and compares a subset of
the reports (``spec_reports`` of chunks 0-2 and ``catalog_reports``) with the
analyze path's Python-float code and with its numpy references, the Kraus
pass by matrix products among them.
"""

import hashlib
import itertools
import json
import pathlib
import struct
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from grasschan import catalog, io  # noqa: E402
from grasschan.charfunc import char_function, state_from_char  # noqa: E402
from grasschan.green import apply_green  # noqa: E402
from grasschan.verify import run_verification  # noqa: E402

SEEDS = (3, 424242, 11)
CHUNKS = range(15)
SWEEP_CHUNKS = range(4)


def reports():
    yield from spec_reports(CHUNKS)
    yield from catalog_reports()


def spec_reports(chunks):
    """``analyze_channel`` on the specs of the ``analyze`` input ``chunks`` of each seed."""
    analyze = workloads.Analyze()
    for seed, k in itertools.product(SEEDS, chunks):
        _, items = analyze.chunk(seed, k)
        for _, spec in items:
            yield catalog.analyze_channel(io.channel_from_json(spec))


def catalog_reports():
    """``catalog.analyze`` on the parameter grid of every catalog channel."""
    for name in catalog.CHANNEL_NAMES:
        names = catalog.channel_info(name).params
        grids = [np.linspace(0, 1, 41)] + [np.linspace(0, 1, 11)] * (len(names) - 1)
        for values in itertools.product(*grids):
            yield catalog.analyze(name, {p: float(v) for p, v in zip(names, values)})


def sweep_outputs():
    sweep = workloads.Sweep()
    for seed, k in itertools.product(SEEDS, SWEEP_CHUNKS):
        channel, states = sweep.chunk(seed, k)
        _, kernel = sweep.prepare(channel)
        for rho in states:
            chi = char_function(rho)
            out = apply_green(kernel, chi)
            state = state_from_char(out)
            yield chi.body.coefficients.tobytes()
            yield out.body.coefficients.tobytes()
            yield struct.pack("<3d", state.p, state.gamma.real, state.gamma.imag)


def reports_digest():
    digest, count = hashlib.sha256(), 0
    for report in reports():
        digest.update(json.dumps(report, indent=2).encode())
        count += 1
    return digest.hexdigest(), count


def verify_digest():
    return hashlib.sha256(json.dumps(run_verification(1000, seed=42).to_json()).encode()).hexdigest()


def sweep_digest():
    digest = hashlib.sha256()
    for chunk in sweep_outputs():
        digest.update(chunk)
    return digest.hexdigest()


def main():
    print("reports {} ({} reports)".format(*reports_digest()))
    print(f"verify {verify_digest()}")
    print(f"sweep {sweep_digest()}")


if __name__ == "__main__":
    main()
