#!/usr/bin/env python3
"""Print SHA-256 digests of the ``analyze`` and ``verify`` outputs over a fixed corpus.

Two lines, each ``<name> <hex digest>``:

* ``reports``: one hash over the text ``json.dumps(report, indent=2)`` of
  6,056 reports, in this order:
  - ``analyze_channel`` on the specs of the benchmark's ``analyze`` input
    chunks 0-14 of seeds 3, 424242 and 11 (5,400 specs; the chunks are
    generated by ``bench/workloads.py``, which this script only imports);
  - ``catalog.analyze`` on a 41-point grid of every catalog parameter
    (41 x 11 for generalized amplitude damping; 656 reports).
* ``verify``: the hash of ``json.dumps(run_verification(1000, seed=42).to_json())``.

A change that keeps every report byte-identical prints the same two lines.
Run from the repository root (about ten seconds):

    python scripts/report_digest.py
"""

import hashlib
import itertools
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from grasschan import catalog, io  # noqa: E402
from grasschan.verify import run_verification  # noqa: E402

SEEDS = (3, 424242, 11)
CHUNKS = range(15)


def reports():
    analyze = workloads.Analyze()
    for seed, k in itertools.product(SEEDS, CHUNKS):
        _, items = analyze.chunk(seed, k)
        for _, spec in items:
            yield catalog.analyze_channel(io.channel_from_json(spec))
    for name in catalog.CHANNEL_NAMES:
        names = catalog.channel_info(name).params
        grids = [np.linspace(0, 1, 41)] + [np.linspace(0, 1, 11)] * (len(names) - 1)
        for values in itertools.product(*grids):
            yield catalog.analyze(name, {p: float(v) for p, v in zip(names, values)})


def main():
    digest, count = hashlib.sha256(), 0
    for report in reports():
        digest.update(json.dumps(report, indent=2).encode())
        count += 1
    print(f"reports {digest.hexdigest()} ({count} reports)")
    verify = json.dumps(run_verification(1000, seed=42).to_json())
    print(f"verify {hashlib.sha256(verify.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
