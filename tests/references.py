"""The numpy forms of the analyze path's Python-float code, kept as references.

Each function is the array expression that one float path of the analyze
pipeline stands for.  ``test_float_paths.py`` holds each path to its
reference by ``float.hex`` or ``tobytes``, and ``patch_in`` puts every reference
in place of its path, so that ``test_snapshot.py`` can compare whole reports
with and without them.
"""

from collections import Counter
from functools import cached_property

import numpy as np
from test_green import _reference_angles_from_gaussian

from grasschan import catalog, degradability, io, qubit
from grasschan.degradability import _TINY
from grasschan.qubit import QubitChannel, is_cptp


def ptm_from_canonical(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Transfer matrices of canonical parameters ``t, lam`` of shape ``(..., 3)``."""
    ptm = np.zeros(np.shape(t)[:-1] + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1:, 0] = t
    ptm[..., qubit._BLOCK_DIAG, qubit._BLOCK_DIAG] = lam
    return ptm


def ptm(t, lam) -> np.ndarray:
    """``QubitChannel.ptm`` as ``ptm_from_canonical`` writes it into zeros."""
    return ptm_from_canonical(np.asarray(t, dtype=float), np.asarray(lam, dtype=float))


def tp_deviation(choi) -> float:
    """``cptp_report.tp_deviation``: the largest modulus of ``Tr_out C - I``."""
    choi = np.asarray(choi)
    return float(np.abs(qubit._trace_out_first(choi) - qubit._IDENTITY).max())


def finite_floats(name: str, value) -> np.ndarray:
    """``QubitChannel``'s checked conversion of ``t`` or ``lam``."""
    return qubit._finite_array(name, value, float, 3)


def solve_degrading(source: QubitChannel, target: QubitChannel) -> dict:
    """``degradability._solve_degrading`` on the transfer-matrix blocks: the
    masked source block and the target block, transposed, as ``lstsq``'s
    operands."""
    t_src = source.ptm[1:, 1:]
    t_src = t_src * (np.abs(t_src) >= _TINY)
    delta_t, *_ = np.linalg.lstsq(t_src.T, target.ptm[1:, 1:].T, rcond=None)
    shift = target.ptm[1:, 0] - delta_t.T @ source.ptm[1:, 0]
    witness = QubitChannel.from_canonical(shift, np.diagonal(delta_t))
    residual = float(np.abs(witness.ptm @ source.ptm - target.ptm).max())
    report = is_cptp(witness)
    return {
        "witness": witness,
        "residual": residual,
        "min_choi_eigenvalue": report.min_choi_eigenvalue,
        "cptp": report.ok,
    }


def kraus_matrix(entry) -> np.ndarray:
    """A spec's 2x2 array of ``[re, im]`` pairs as ``re + 1j * im`` on float arrays."""
    m = np.array(entry, dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def _frozen_ptm(ch: QubitChannel) -> np.ndarray:
    out = ptm(ch.t, ch.lam)
    out.setflags(write=False)
    return out


def patch_in(monkeypatch) -> Counter:
    """Run the analyze path on the references instead of its float paths;
    returns the count of calls of each reference."""
    calls = Counter()

    def counted(name, reference):
        def call(*args):
            calls[name] += 1
            return reference(*args)

        return call

    reference_ptm = cached_property(counted("ptm", _frozen_ptm))
    reference_ptm.__set_name__(QubitChannel, "ptm")
    monkeypatch.setattr(QubitChannel, "ptm", reference_ptm)
    monkeypatch.setattr(qubit, "_finite_floats", counted("finite_floats", finite_floats))
    monkeypatch.setattr(qubit, "_tp_deviation", counted("tp_deviation", tp_deviation))
    monkeypatch.setattr(degradability, "_solve_degrading", counted("solve_degrading", solve_degrading))
    monkeypatch.setattr(io, "_parse_matrix", counted("kraus_matrix", lambda entry, k: kraus_matrix(entry).tolist()))
    monkeypatch.setattr(catalog, "angles_from_gaussian", counted("angles", _reference_angles_from_gaussian))
    return calls
