"""Concurrent use of the pure-function API: results must match serial runs."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from grasschan import catalog, grassmann, verify
from grasschan.charfunc import char_function, state_from_char
from grasschan.green import apply_green, green_from_channel, green_from_channel_trace
from grasschan.qubit import apply_channel, random_cptp_canonical_channel, random_state


def test_parallel_analyses_match_serial():
    jobs = [("amplitude_damping", {"n": n}) for n in np.linspace(0.05, 0.95, 8)]
    jobs += [("phase_flip", {"s": s}) for s in np.linspace(0.1, 0.9, 8)]
    serial = [catalog.analyze(name, params) for name, params in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda job: catalog.analyze(*job), jobs))
    assert serial == parallel


def test_parallel_convolutions_match_dense_path():
    rng = np.random.default_rng(3)
    cases = [(random_cptp_canonical_channel(rng), random_state(rng)) for _ in range(64)]

    def symbolic(case):
        ch, rho = case
        return state_from_char(apply_green(green_from_channel(ch), char_function(rho)))

    with ThreadPoolExecutor(max_workers=8) as pool:
        outputs = list(pool.map(symbolic, cases))
    for (ch, rho), out in zip(cases, outputs):
        dense = apply_channel(ch, rho)
        assert abs(out.p - dense.p) < 1e-12 and abs(out.gamma - dense.gamma) < 1e-12


def test_product_passes_of_mixed_row_counts_match_serial(monkeypatch):
    # One kept product table serves every pass: verify's chunk passes, the
    # eight-row operator products of the trace kernel and one-row convolutions
    # grow it and read its prefixes from many threads at once.
    rng = np.random.default_rng(5)
    cases = [(random_cptp_canonical_channel(rng), random_state(rng)) for _ in range(6)]

    def run(job):
        kind, k = job
        ch, rho = cases[k]
        if kind == "verify":
            return verify.run_verification(trials=5, seed=k).to_json()
        if kind == "trace":
            return green_from_channel_trace(ch).body.coefficients.tobytes()
        return apply_green(green_from_channel(ch), char_function(rho)).body.coefficients.tobytes()

    jobs = [(kind, k) for k in range(len(cases)) for kind in ("verify", "trace", "convolve")]
    serial = [run(job) for job in jobs]
    monkeypatch.setattr(grassmann, "_KEPT_TABLES", grassmann._row_tables(1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(run, jobs * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial * 4
    assert len(grassmann._KEPT_TABLES) - 1 > 1
