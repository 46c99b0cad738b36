"""The numpy forms of the analyze path's Python-float code, kept as references.

Each function is the array expression that one float path of the analyze
pipeline stands for.  ``test_float_paths.py`` (and ``test_qubit.py`` and
``test_degradability.py`` for the Kraus pass) hold each path to its
reference by ``float.hex`` or ``tobytes``, and ``patch_in`` puts every
reference in place of its path, so that ``test_snapshot.py`` can compare
whole reports with and without them.
"""

from collections import Counter
from functools import cached_property

import numpy as np
from test_green import _reference_angles_from_gaussian

from grasschan import catalog, degradability, io, qubit
from grasschan.degradability import _TINY
from grasschan.qubit import QubitChannel, is_cptp


_BLOCK_DIAG = np.arange(1, 4)
_PAULI_STACK = np.array(qubit.PAULI)


def ptm_from_canonical(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Transfer matrices of canonical parameters ``t, lam`` of shape ``(..., 3)``."""
    ptm = np.zeros(np.shape(t)[:-1] + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1:, 0] = t
    ptm[..., _BLOCK_DIAG, _BLOCK_DIAG] = lam
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


def ptms_by_products(ops: np.ndarray) -> np.ndarray:
    """Transfer matrices of the Kraus lists ``ops[l]`` of an ``(L, K, 2, 2)``
    stack, as ``(L, 4, 4)``, by batched complex matrix products, with the
    errors of ``qubit._kraus_ptms``.

    One batched product forms every ``(A_k sigma_j) A_k^dag`` as ``(L, K,
    4, 2, 2)``, the ``K`` terms of a list are summed in list order from
    +0.0, and one batched product gives every ``sigma_i mapped_j``, whose
    trace is summed from +0.0 (``(0.0 + m00) + m11``, as ``np.trace`` does).
    The bits of a list of real diagonal or antidiagonal operators are those
    of ``qubit._kraus_ptms``; any other list's bits depend on the BLAS
    kernel.
    """
    parts = np.abs(ops.view(float))
    if parts.max(initial=0.0) > 1 + qubit.KRAUS_TP_ATOL:
        l, k, i, j = np.argwhere(parts > 1 + qubit.KRAUS_TP_ATOL)[0]
        raise qubit.NotTracePreservingError(
            f"Kraus operator {k} entry [{i}, {j // 2}] has a part of modulus {parts[l, k, i, j]:.3e}; "
            "sum A^dag A cannot be the identity"
        )
    adjoints = ops.conj().swapaxes(-1, -2)
    deviation = np.abs(np.add.reduce(adjoints @ ops, axis=1, initial=0.0) - np.eye(2)).max()
    if not deviation <= qubit.KRAUS_TP_ATOL:
        raise qubit.NotTracePreservingError(f"sum A^dag A deviates from identity by {deviation:.3e}")
    mapped = np.add.reduce((ops[:, :, None] @ _PAULI_STACK) @ adjoints[:, :, None], axis=1, initial=0.0)
    traced = (_PAULI_STACK[:, None] @ mapped[:, None]).real
    return ((0.0 + traced[..., 0, 0]) + traced[..., 1, 1]) / 2


def kraus_ptms(stack: list) -> list:
    """``qubit._kraus_ptms`` by ``ptms_by_products``: a stack of Kraus lists
    as nested lists of Python numbers in, one flat row of 16 floats per list
    out."""
    ops = np.array(stack, dtype=complex).reshape(len(stack), -1, 2, 2)
    return ptms_by_products(ops).reshape(len(stack), 16).tolist()


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
    monkeypatch.setattr(qubit, "_kraus_ptms", counted("kraus_ptms", kraus_ptms))
    monkeypatch.setattr(io, "_parse_matrix", counted("kraus_matrix", lambda entry, k: kraus_matrix(entry).tolist()))
    monkeypatch.setattr(catalog, "angles_from_gaussian", counted("angles", _reference_angles_from_gaussian))
    return calls
