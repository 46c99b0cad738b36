"""The analyze path's Python-float code against its numpy references (``references.py``).

Each float path must give the bits of the array expression it stands for
(``float.hex`` and ``tobytes``, so signed zeros count), on random rows and
on adversarial ones: +-0.0 in every slot, subnormal ``lam`` below
``degradability._TINY``, ``|lam_k| = 1`` and entries near
``qubit._CHOI_SAFE``.
"""

import itertools

import numpy as np
import pytest
import references

from grasschan import io, qubit
from grasschan.degradability import _TINY, _solve_degrading, dilation_from_angles
from grasschan.green import AngleParams
from grasschan.qubit import QubitChannel

#: +-0.0, subnormals on both sides of ``_TINY``, ``_TINY`` itself, ``|x| = 1`` and a few interior values.
EDGE = [0.0, -0.0, 5e-324, -5e-324, float(np.nextafter(_TINY, 0)), -_TINY, _TINY, 1.0, -1.0, 0.5, -0.3, 1 - 2.0**-53]
SAFE = qubit._CHOI_SAFE
HUGE = [SAFE, -SAFE, float(np.nextafter(SAFE, 0)), -1e300, 1e300, 1.0, -0.0, 0.0]


def random_rows():
    draws = np.random.default_rng(3001).uniform(-1, 1, size=(600, 2, 3))
    return draws[:, 0], draws[:, 1]


def edge_rows():
    """Every sign pattern of zeros, then edge values in every slot."""
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=6)))
    drawn = np.random.default_rng(3002).choice(EDGE, size=(2000, 6))
    rows = np.concatenate([zeros, drawn])
    return rows[:, :3], rows[:, 3:]


def huge_rows():
    """Entries up to ``_CHOI_SAFE``, the largest that ``cptp_report`` decides in floats."""
    rows = np.random.default_rng(3003).choice(HUGE, size=(400, 6))
    return rows[:, :3], rows[:, 3:]


ROWS = {"random": random_rows, "edge": edge_rows, "huge": huge_rows}


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_channel_arrays_ptm_and_tp_deviation_have_the_bits_of_the_array_forms(kind):
    t, lam = ROWS[kind]()
    for t_row, lam_row in zip(t.tolist(), lam.tolist()):
        ch = QubitChannel.from_canonical(t_row, lam_row)
        assert ch.t.tobytes() == references.finite_floats("t", t_row).tobytes()
        assert ch.lam.tobytes() == references.finite_floats("lam", lam_row).tobytes()
        assert ch.ptm.tobytes() == references.ptm(t_row, lam_row).tobytes()
        assert float.hex(ch.cptp_report.tp_deviation) == float.hex(references.tp_deviation(ch.choi))


SHORTCUT_INPUTS = {
    "floats": [0.1, -0.0, 5e-324],
    "tuple": (1.0, -1.0, 0.0),
    "ints": [0, 1, 2],
    "bool": [True, 0.5, 1.0],
    "float64": [np.float64(0.25), 0.5, 1.0],
    "array": np.array([0.1, 0.2, 0.3]),
    "inf_nan": [0.0, float("inf"), float("nan")],
    "nan": [float("nan"), 0.0, 0.0],
    "huge_int": [1.0, 10**400, 0.0],
    "short": [1.0, 2.0],
    "long": [1.0, 2.0, 3.0, 4.0],
    "nested": [[1.0, 2.0, 3.0]],
    "string": ["0.5", 1.0, 1.0],
}


@pytest.mark.parametrize("value", SHORTCUT_INPUTS.values(), ids=SHORTCUT_INPUTS.keys())
def test_the_float_shortcut_gives_the_checked_conversion(value):
    def outcome(convert):
        try:
            a = convert("lam", value)
        except ValueError as exc:
            return type(exc), str(exc)
        return a.tobytes(), a.dtype, a.shape, a.flags.writeable, a.flags.c_contiguous

    assert outcome(qubit._finite_floats) == outcome(references.finite_floats)


def solve_pairs():
    """Canonical pairs with edge values in every slot, and random pairs."""
    rng = np.random.default_rng(3004)
    rows = np.concatenate([rng.choice(EDGE, size=(3000, 4, 3)), rng.uniform(-1, 1, size=(1000, 4, 3))])
    return [(QubitChannel.from_canonical(a, b), QubitChannel.from_canonical(c, d)) for a, b, c, d in rows.tolist()]


def test_the_solve_has_the_bits_of_the_masked_block_operands(monkeypatch):
    operands = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: operands.append((a.tobytes(), b.tobytes())) or lstsq(a, b, rcond))
    for source, target in solve_pairs():
        with np.errstate(over="raise", invalid="raise"):
            got, want = _solve_degrading(source, target), references.solve_degrading(source, target)
        assert operands.pop() == operands.pop()
        assert got["witness"].t.tobytes() == want["witness"].t.tobytes()
        assert got["witness"].lam.tobytes() == want["witness"].lam.tobytes()
        for key in ("residual", "min_choi_eigenvalue"):
            assert float.hex(got[key]) == float.hex(want[key])
        assert got["cptp"] is want["cptp"]


PARTS = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.6, -0.48]


def test_kraus_entries_have_the_bits_of_re_plus_1j_im():
    pairs = [list(p) for p in itertools.product(PARTS, repeat=2)]
    for a, b, c, d in zip(pairs, pairs[1:] + pairs[:1], pairs[2:] + pairs[:2], pairs[3:] + pairs[:3]):
        entry = [[a, b], [c, d]]
        assert np.array(io._parse_matrix(entry, 0)).tobytes() == references.kraus_matrix(entry).tobytes()


def kraus_specs():
    """Dilation Kraus lists with the sign of every zero part drawn at random,
    and lists that only the products pass takes (complex or not monomial)."""
    rng = np.random.default_rng(3005)
    specs = []
    for theta, phi, q in rng.uniform([0, -np.pi, 0], [np.pi / 2, np.pi, 1], size=(200, 3)):
        ops = dilation_from_angles(AngleParams(theta, phi, q)).system_kraus()
        parts = np.stack([np.array(ops).real, np.array(ops).imag], axis=-1)
        parts[parts == 0] = rng.choice([0.0, -0.0], size=int((parts == 0).sum()))
        specs.append(parts.tolist())
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for ops in ([h], [np.diag([1, 1j])], [np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.array([[0, -1j], [1j, 0]])]):
        specs.append(np.stack([np.real(ops), np.imag(ops)], axis=-1).tolist())
    return specs


def test_kraus_specs_read_as_their_arrays_do():
    def outcome(read, matrices):
        try:
            ch = read(matrices)
        except ValueError as exc:
            return type(exc), str(exc)
        return ch.t.tobytes(), ch.lam.tobytes()

    outcomes = set()
    for matrices in kraus_specs():
        got = outcome(lambda m: io.channel_from_json({"type": "kraus", "matrices": m}), matrices)
        assert got == outcome(lambda m: QubitChannel.from_kraus([references.kraus_matrix(x) for x in m]), matrices)
        outcomes.add(type(got[0]))
    assert outcomes == {bytes, type}
