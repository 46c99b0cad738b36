"""The three benchmark workloads: seeded inputs, the timed op, and its correctness gate.

Every input is generated here with numpy from ``(seed, chunk index)``; the
program only ever receives the finished inputs.  Inputs come as an endless
stream of chunks, so a run never repeats an input no matter how fast the
program gets, and the first ``count_ops`` ops of the stream are the fixed
prefix over which exact counts and output digests are taken.

Each workload exposes:

* ``chunk(seed, k)`` -> ``(context_input, items)``: chunk ``k`` of the stream;
* ``prepare(context_input)`` -> ``ctx``: timed work shared by the chunk's ops
  (the kernel build on ``sweep``), counted in throughput but not in op latency;
* ``op(ctx, item)``: the timed op, calling only the public ``grasschan`` API;
* ``check(ctx, item, out)`` -> ``(ok, digest_bytes, tags)``: the untimed gate.

The program is called through module attributes (``charfunc.char_function``,
not a name bound at import) so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import inspect
import json
import struct

import numpy as np

from grasschan import catalog, charfunc, green, io, qubit, verify

# A chunk index that the measured stream never reaches; the warm-up op uses it.
WARMUP_CHUNK = 2**32 - 1

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_CHOI_BASIS = np.array([[np.kron(_PAULI[k], _PAULI[l].T) for l in range(4)] for k in range(4)])


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _min_choi_eig(t, lam) -> float:
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 0] = t
    ptm[1:, 1:] = np.diag(lam)
    return float(np.linalg.eigvalsh(0.5 * np.tensordot(ptm, _CHOI_BASIS, axes=2))[0])


def _generic_channel(rng, margin: float = 1e-3):
    """Canonical ``(t, lam)`` with all three t nonzero and Choi eigenvalues >= margin.

    Two nonzero t components rule out every Gaussian equivalent, so these
    specs take the analysis short path; the margin keeps them clear of the
    program's CPTP tolerance.
    """
    while True:
        lam = rng.uniform(-1, 1, size=3)
        t = rng.uniform(-1, 1, size=3) * 0.5
        if _min_choi_eig(t, lam) >= margin:
            return t, lam


def _angles(rng, pure: bool):
    theta = rng.uniform(0, np.pi / 2)
    phi = rng.uniform(-np.pi, np.pi)
    q = float(rng.integers(0, 2)) if pure else rng.uniform(0.05, 0.95)
    return theta, phi, q


def _angle_channel(theta, phi, q):
    """Canonical form of the Gaussian channel with angle form ``(theta, phi, q)``."""
    lam1 = np.cos(theta - phi)
    lam2 = np.cos(theta + phi)
    t3 = (2 * q - 1) * (np.cos(2 * theta) - np.cos(2 * phi)) / 2
    return np.array([0.0, 0.0, t3]), np.array([lam1, lam2, lam1 * lam2])


def _dilation_kraus(theta, phi, q):
    """System Kraus operators of the qubit-qubit dilation (environment index fastest)."""
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    u = np.zeros((4, 4), dtype=complex)
    u[:, 0] = [ct, 0, 0, st]
    u[:, 2] = [0, sp, cp, 0]
    u[:, 1] = [0, cp, -sp, 0]
    u[:, 3] = [-st, 0, 0, ct]
    u = u.reshape(2, 2, 2, 2)  # [s_out, e_out, s_in, e_in]
    return [
        np.sqrt(w) * u[:, k, :, j]
        for j, w in ((0, q), (1, 1 - q))
        if w > 0
        for k in range(2)
    ]


def _canonical_spec(t, lam) -> dict:
    return {"type": "canonical", "t": [float(v) for v in t], "lambda": [float(v) for v in lam]}


def _kraus_spec(ops) -> dict:
    return {
        "type": "kraus",
        "matrices": [[[[float(v.real), float(v.imag)] for v in row] for row in a] for a in ops],
    }


def _random_state(rng):
    p = rng.uniform(0, 1)
    radius = np.sqrt(p * (1 - p)) * np.sqrt(rng.uniform(0, 1))
    return qubit.QubitState(p=p, gamma=radius * np.exp(1j * rng.uniform(0, 2 * np.pi)))


class Verify:
    """One ``run_verification(trials=TRIALS, seed=s_i)`` call per op; ``s_i`` from the seed."""

    name = "verify"
    TRIALS = 5
    chunk_size = 100
    count_ops = 100

    def chunk(self, seed, k):
        seeds = _rng(seed, k).integers(0, 2**63, size=self.chunk_size)
        return None, [int(s) for s in seeds]

    def prepare(self, _):
        return None

    def op(self, _, s):
        return verify.run_verification(trials=self.TRIALS, seed=s)

    def check(self, _, s, result):
        residuals = [c.max_residual for c in result.checks]
        return result.passed, repr(residuals).encode(), ()


# Kind -> specs per chunk; these are the analyze mix shares.  No record of
# real traffic exists, so every kind gets the same share.
ANALYZE_MIX = {
    "named": 20,
    "angle_pure": 20,
    "angle_mixed": 20,
    "permuted": 20,
    "kraus": 20,
    "generic": 20,
}

_NAMED = (
    ("bit_flip", ("s",)),
    ("phase_flip", ("s",)),
    ("bit_phase_flip", ("s",)),
    ("depolarizing", ("s",)),
    ("amplitude_damping", ("n",)),
    ("generalized_amplitude_damping", ("n", "s")),
)
# Fixed parameters the catalog singles out: n = 1/2 is the amplitude-damping
# verdict flip, s = 1 reduces generalized amplitude damping to plain damping.
_NAMED_PINNED = {
    ("amplitude_damping", 0): {"n": 0.5},
    ("generalized_amplitude_damping", 0): {"n": 0.5},
    ("generalized_amplitude_damping", 1): {"s": 1.0},
}
# Axis relabellings that move the third axis, so the Gaussian t3 lands on
# t1 or t2 and only the gaussian_equivalent search recovers the Gaussian form.
_MOVING_PERMS = ((1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0))


class Analyze:
    """``channel_from_json`` -> ``analyze_channel`` -> ``json.dumps`` over a seeded spec mix."""

    name = "analyze"
    chunk_size = sum(ANALYZE_MIX.values())
    count_ops = 2 * chunk_size

    def __init__(self):
        # The tolerance the report was certified against.
        self.residual_tol = inspect.signature(catalog.analyze_channel).parameters[
            "residual_tol"
        ].default

    def _spec(self, rng, kind, i):
        if kind == "named":
            name, params = _NAMED[i % len(_NAMED)]
            values = {p: float(rng.uniform(0, 1)) for p in params}
            values.update(_NAMED_PINNED.get((name, i // len(_NAMED)), {}))
            return {"type": "named", "name": name, "params": values}
        if kind in ("angle_pure", "angle_mixed"):
            return _canonical_spec(*_angle_channel(*_angles(rng, kind == "angle_pure")))
        if kind == "permuted":
            t, lam = _angle_channel(*_angles(rng, pure=bool(i % 2)))
            perm = list(_MOVING_PERMS[i % len(_MOVING_PERMS)])
            return _canonical_spec(t[perm], lam[perm])
        if kind == "kraus":
            return _kraus_spec(_dilation_kraus(*_angles(rng, pure=bool(i % 2))))
        return _canonical_spec(*_generic_channel(rng))

    def chunk(self, seed, k):
        rng = _rng(seed, k)
        items = [(kind, self._spec(rng, kind, i)) for kind, n in ANALYZE_MIX.items() for i in range(n)]
        order = rng.permutation(len(items))
        return None, [items[j] for j in order]

    def prepare(self, _):
        return None

    def op(self, _, item):
        ch = io.channel_from_json(item[1])
        report = catalog.analyze_channel(ch)
        return ch, report, json.dumps(report, indent=2)

    def _witness_ok(self, source_spec, block) -> bool:
        witness = io.channel_from_json(block["witness"])
        n_ch = io.channel_from_json(source_spec)
        comp = io.channel_from_json(block["complement"])
        if block["kind"] == "anti_degradable":
            source, target = comp, n_ch
        else:
            source, target = n_ch, comp
        recomposed = qubit.compose(witness, source)
        residual = float(np.max(np.abs(recomposed.ptm - target.ptm)))
        return residual <= self.residual_tol and qubit.is_cptp(witness).ok

    def check(self, _, item, out):
        ch, report, text = out
        json.dumps(report, allow_nan=False)  # raises on NaN / Infinity
        ok = np.array_equal(io.channel_from_json(report["channel"]).ptm, ch.ptm)
        equivalent = report.get("gaussian_equivalent")
        blocks = [(report["channel"], report.get("degradability"))]
        if equivalent:
            blocks.append((equivalent["channel"], equivalent.get("degradability")))
        verdicts = []
        for source_spec, block in blocks:
            if block is None:
                continue
            verdicts.append(block["kind"])
            if block["witness"] is not None:
                ok = ok and self._witness_ok(source_spec, block)
        if report.get("gaussian") is not None:
            path = "gaussian"
        elif equivalent is not None:
            path = "equivalent"
        else:
            path = "short"
        tags = ("kind." + item[0], "path." + path) + tuple("verdict." + v for v in verdicts)
        return ok, text.encode(), tags


class Sweep:
    """One kernel per chunk, reused for every state of the chunk; one op per state."""

    name = "sweep"
    chunk_size = 1000
    count_ops = 2000
    TOL = 1e-12

    def chunk(self, seed, k):
        rng = _rng(seed, k)
        if k % 2:
            channel = _angle_channel(*_angles(rng, pure=False))
        else:
            channel = _generic_channel(rng)
        return channel, [_random_state(rng) for _ in range(self.chunk_size)]

    def prepare(self, channel):
        ch = qubit.QubitChannel.from_canonical(*channel)
        return ch, green.green_from_channel(ch)

    def op(self, ctx, rho):
        chi = charfunc.char_function(rho)
        return charfunc.state_from_char(green.apply_green(ctx[1], chi))

    def check(self, ctx, rho, out):
        dense = qubit.apply_channel(ctx[0], rho)
        ok = abs(out.p - dense.p) <= self.TOL and abs(out.gamma - dense.gamma) <= self.TOL
        return ok, struct.pack("<3d", out.p, out.gamma.real, out.gamma.imag), ()


WORKLOADS = {w.name: w for w in (Verify, Analyze, Sweep)}
