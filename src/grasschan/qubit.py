"""Dense 2x2 qubit machinery: states, canonical channels, conversions.

A channel is kept in the canonical diagonal form ``r -> t + diag(lam) r`` on
Bloch vectors.  The transfer matrix convention is

    ptm[i, j] = Tr[sigma_i N(sigma_j)] / 2      over (I, x, y, z),

so the first row is ``(1, 0, 0, 0)`` for trace-preserving maps and the first
column is ``(1, t1, t2, t3)``.  The Choi operator is
``sum_ij N(|i><j|) (x) |i><j|`` (trace 2); complete positivity is checked as
Choi positivity and trace preservation as ``Tr_out Choi = I``.

General canonicalization of a non-diagonal transfer block is out of scope:
inputs must already be canonical-diagonal, or Kraus lists whose transfer
matrix has a diagonal block.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .tolerances import (
    CHOI_EIG_FLOOR,
    DIAG_ATOL,
    ISCLOSE_ATOL,
    KRAUS_TP_ATOL,
    SCREEN_MARGIN,
    STATE_ATOL,
    TP_ATOL,
)

__all__ = [
    "PAULI",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "QubitState",
    "QubitChannel",
    "CptpReport",
    "NonDiagonalBlockError",
    "NotTracePreservingError",
    "NotCptpError",
    "ptm_from_kraus",
    "canonical_from_ptm",
    "choi_from_ptm",
    "is_cptp",
    "apply_channel",
    "compose",
    "random_state",
    "random_cptp_canonical_channel",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|

#: First block of ``_sample``, in rows of three doubles per trial: a trial
#: takes ``2k + 1`` rows for ``k`` candidates, about 42 at ``t_scale = 0.8``
#: (5% of candidates are accepted).  The block holds ``trials + 4`` such
#: shares, so that a five-trial chunk needs a second, doubled block in about
#: 2% of calls.
_ROWS_PER_TRIAL = 48


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where it overflows (Python's complex ``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _square(x: float) -> float:
    """``x ** 2``, or inf where it overflows (Python's float ``**`` raises there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _fitted(convert, value, name: str):
    """``convert(value)``; a part too large for a float raises ``ValueError`` naming ``name``."""
    try:
        return convert(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _finite_array(name: str, value, dtype, shape) -> np.ndarray:
    """``value`` as a fresh read-only array; ``ValueError`` names ``name`` or its first non-finite entry."""
    a = _fitted(lambda v: np.asarray(v, dtype=dtype).reshape(shape).copy(), value, name)
    if not all(map(cmath.isfinite, a.ravel().tolist())):  # a third of np.isfinite(a).all()'s time
        index = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{name}{index.tolist()} is not finite: {a[tuple(index)]}")
    a.setflags(write=False)
    return a


class NonDiagonalBlockError(ValueError):
    """The 3x3 transfer block is not diagonal; canonicalize externally."""


class NotTracePreservingError(ValueError):
    """A Kraus list does not satisfy ``sum A_k^dag A_k = I``."""


class NotCptpError(ValueError):
    """A channel failed the complete-positivity / trace-preservation check."""


@dataclass(frozen=True)
class QubitState:
    """Qubit density matrix ``[[p, gamma], [gamma*, 1-p]]``."""

    p: float
    gamma: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _fitted(float, self.p, "p"))
        object.__setattr__(self, "gamma", _fitted(complex, self.gamma, "gamma"))
        if not -STATE_ATOL <= self.p <= 1 + STATE_ATOL:
            raise ValueError(f"p={self.p} outside [0, 1]")
        gamma_sq = _square(_modulus(self.gamma))
        if not gamma_sq <= self.p * (1 - self.p) + STATE_ATOL:
            raise ValueError(
                f"|gamma|^2={gamma_sq:.3e} exceeds p(1-p)={self.p*(1-self.p):.3e}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.p, self.gamma], [np.conj(self.gamma), 1 - self.p]], dtype=complex
        )

    @property
    def bloch(self) -> np.ndarray:
        return np.array(
            [2 * self.gamma.real, -2 * self.gamma.imag, 2 * self.p - 1], dtype=float
        )

    @classmethod
    def from_bloch(cls, r) -> "QubitState":
        r = np.asarray(r, dtype=float)
        return cls(p=(1 + r[2]) / 2, gamma=(r[0] - 1j * r[1]) / 2)

    def isclose(self, other: "QubitState", atol: float = ISCLOSE_ATOL) -> bool:
        return abs(self.p - other.p) <= atol and abs(self.gamma - other.gamma) <= atol


def _check_states(p: np.ndarray, gamma: np.ndarray) -> None:
    """Raise what ``QubitState(p[s], gamma[s])`` raises for the first row out of bounds."""
    ok = (-STATE_ATOL <= p) & (p <= 1 + STATE_ATOL) & (np.abs(gamma) ** 2 <= p * (1 - p) + STATE_ATOL)
    for s in np.flatnonzero(~ok):
        QubitState(p=p[s], gamma=gamma[s])


_PAULI_STACK = np.array(PAULI)


def ptm_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Transfer matrix ``Tr[sigma_i sum_k A_k sigma_j A_k^dag] / 2`` of a Kraus list.

    The list becomes a ``(K, 2, 2)`` array and is one row of
    ``_ptms_from_kraus``, so each entry has the bits of the per-entry loop.
    Operators that are not 2x2 raise ``ValueError``.
    """
    ops = np.ascontiguousarray(kraus, dtype=complex) if len(kraus) else np.empty((0, 2, 2), dtype=complex)
    if ops.shape[1:] != (2, 2):
        raise ValueError(f"expected 2x2 Kraus operators, got shape {ops.shape[1:]}")
    return _ptms_from_kraus(ops[None])[0]


def _ptms_from_kraus(ops: np.ndarray) -> np.ndarray:
    """Transfer matrices of the Kraus lists ``ops[l]`` of an ``(L, K, 2, 2)`` stack, as ``(L, 4, 4)``.

    One stacked pass: one batched product forms every ``(A_k sigma_j)
    A_k^dag`` as ``(L, K, 4, 2, 2)``, the ``K`` terms of a list are summed in
    list order starting from +0.0, and one batched product gives every
    ``sigma_i mapped_j``, whose trace is summed from +0.0 (``(0.0 + m00) +
    m11``, as ``np.trace`` does; without the start a -0.0 would survive).
    Each 2x2 product of the stack has the bits of the same product made
    alone, so every list gets the bits of its own one-list pass.  Raises
    ``NotTracePreservingError`` naming the first entry with a part above
    ``1 + KRAUS_TP_ATOL`` (``sum A^dag A = I`` to ``KRAUS_TP_ATOL`` bounds
    every part by ``sqrt(1 + KRAUS_TP_ATOL)``, and below the bound ``A^dag
    A`` cannot overflow), and else with the largest ``max |sum A^dag A -
    I|`` of the lists when one exceeds ``KRAUS_TP_ATOL``.
    """
    parts = np.abs(ops.view(float))
    if parts.max(initial=0.0) > 1 + KRAUS_TP_ATOL:
        l, k, i, j = np.argwhere(parts > 1 + KRAUS_TP_ATOL)[0]
        raise NotTracePreservingError(
            f"Kraus operator {k} entry [{i}, {j // 2}] has a part of modulus {parts[l, k, i, j]:.3e}; "
            "sum A^dag A cannot be the identity"
        )
    adjoints = ops.conj().swapaxes(-1, -2)
    deviation = np.abs(np.add.reduce(adjoints @ ops, axis=1, initial=0.0) - _IDENTITY).max()
    if not deviation <= KRAUS_TP_ATOL:
        raise NotTracePreservingError(f"sum A^dag A deviates from identity by {deviation:.3e}")
    mapped = np.add.reduce((ops[:, :, None] @ _PAULI_STACK) @ adjoints[:, :, None], axis=1, initial=0.0)
    traced = (_PAULI_STACK[:, None] @ mapped[:, None]).real
    return ((0.0 + traced[..., 0, 0]) + traced[..., 1, 1]) / 2


_BLOCK_DIAG = np.arange(1, 4)
_FIRST_ROW = np.array([1.0, 0.0, 0.0, 0.0])
#: 1 off the diagonal of the 3x3 block, 0 on it: the product keeps every
#: off-diagonal entry and turns a non-finite diagonal entry into NaN.
_OFF_DIAGONAL = 1.0 - np.eye(3)


def canonical_from_ptm(ptm: np.ndarray):
    """Read ``(t, lam)`` off a transfer matrix with a diagonal 3x3 block (to ``DIAG_ATOL``)."""
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.abs(ptm[0] - _FIRST_ROW).max() <= DIAG_ATOL:
        raise NonDiagonalBlockError("first row is not (1, 0, 0, 0)")
    worst = np.abs(ptm[1:, 1:] * _OFF_DIAGONAL).max()
    if not worst <= DIAG_ATOL:
        raise NonDiagonalBlockError(
            f"transfer block has off-diagonal entry {worst:.3e}; canonicalize externally"
        )
    return ptm[1:, 0].copy(), ptm[_BLOCK_DIAG, _BLOCK_DIAG]


def _ptm_from_canonical(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Transfer matrices of canonical parameters ``t, lam`` of shape ``(..., 3)``."""
    ptm = np.zeros(np.shape(t)[:-1] + (4, 4))
    ptm[..., 0, 0] = 1.0
    ptm[..., 1:, 0] = t
    ptm[..., _BLOCK_DIAG, _BLOCK_DIAG] = lam
    return ptm


#: ``sigma_k (x) sigma_l^T`` flattened: row ``4k + l``, column ``4r + c``.
_CHOI_BASIS = np.array(
    [np.kron(PAULI[k], PAULI[l].T) for k in range(4) for l in range(4)]
).reshape(16, 16)


def choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi operator ``sum_ij N(|i><j|) (x) |i><j|`` (trace 2).

    Expanding the basis maps gives the closed form
    ``choi = (1/2) sum_kl ptm[k, l] sigma_k (x) sigma_l^T``.

    Caution: on a stack of transfer matrices this is one GEMM, whose bits
    can differ from the one-matrix product (513 of the Choi matrices of
    2,000 ``random_cptp_canonical_channel`` draws differed), so
    ``cptp_report`` builds its Choi matrix one channel at a time.
    """
    ptm = np.asarray(ptm, dtype=float)
    return 0.5 * np.dot(ptm.reshape(-1, 16), _CHOI_BASIS).reshape(ptm.shape[:-2] + (4, 4))


_IDENTITY = np.eye(2)
#: Each part of a ``choi_from_ptm`` entry is half a sum of transfer-matrix
#: entries times 0 or +-1: at most 1 and the six entries of ``(t, lam)``.
#: With each of these at most ``max_float / 8``, no partial sum can overflow.
_CHOI_SAFE = np.finfo(float).max / 8


def _trace_out_first(op4: np.ndarray) -> np.ndarray:
    return op4[..., :2, :2] + op4[..., 2:, 2:]


@dataclass(frozen=True)
class CptpReport:
    """Outcome of a complete-positivity / trace-preservation check."""

    ok: bool
    min_choi_eigenvalue: float
    tp_deviation: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class QubitChannel:
    """Canonical-form qubit channel ``r -> t + diag(lam) r``.

    ``(t, lam)`` is the whole state: a Kraus list is read into it once by
    :meth:`from_kraus` and not kept.  A non-finite entry raises ``ValueError``.
    """

    t: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("t", "lam"):
            object.__setattr__(self, name, _finite_array(name, getattr(self, name), float, 3))

    @classmethod
    def from_canonical(cls, t, lam) -> "QubitChannel":
        return cls(t=t, lam=lam)

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls.from_canonical([0, 0, 0], [1, 1, 1])

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QubitChannel":
        return cls.from_ptm(ptm_from_kraus(kraus))

    @classmethod
    def from_ptm(cls, ptm: np.ndarray) -> "QubitChannel":
        t, lam = canonical_from_ptm(ptm)
        return cls(t=t, lam=lam)

    @cached_property
    def ptm(self) -> np.ndarray:
        ptm = _ptm_from_canonical(self.t, self.lam)
        ptm.setflags(write=False)
        return ptm

    @cached_property
    def choi(self) -> np.ndarray:
        choi = choi_from_ptm(self.ptm)
        choi.setflags(write=False)
        return choi

    @cached_property
    def cptp_report(self) -> CptpReport:
        """The CPTP check of :func:`is_cptp`.  A channel whose Choi matrix,
        its eigenvalues or its partial trace overflow (only an entry above
        ``_CHOI_SAFE`` can make them) is not CPTP and has no float report:
        ``NotCptpError`` names its largest entry."""
        entries = self.t.tolist() + self.lam.tolist()
        largest = max(map(abs, entries))
        if largest <= _CHOI_SAFE:
            eigs = np.linalg.eigvalsh(self.choi)
            tp_dev = float(np.abs(_trace_out_first(self.choi) - _IDENTITY).max())
        else:
            overflow = None
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(self.choi).all():
                    overflow = "the Choi matrix overflows"
                else:
                    eigs = np.linalg.eigvalsh(self.choi)
                    tp_dev = float(np.abs(_trace_out_first(self.choi) - _IDENTITY).max())
                    if not (np.isfinite(eigs).all() and math.isfinite(tp_dev)):
                        overflow = "the Choi matrix's eigenvalues or partial trace overflow"
            if overflow:
                k = [abs(x) for x in entries].index(largest)
                name = f"t[{k}]" if k < 3 else f"lam[{k - 3}]"
                raise NotCptpError(f"{name}={entries[k]:.3e} is too large: {overflow}, so the channel is not CPTP")
        ok = bool(eigs[0] >= CHOI_EIG_FLOOR and tp_dev <= TP_ATOL)
        return CptpReport(ok=ok, min_choi_eigenvalue=float(eigs[0]), tp_deviation=tp_dev)

    def isclose(self, other: "QubitChannel", atol: float = ISCLOSE_ATOL) -> bool:
        return bool(np.max(np.abs(self.ptm - other.ptm)) <= atol)

    def to_json(self) -> dict:
        """The canonical spec ``{"type": "canonical", "t": ..., "lambda": ...}``.

        The one channel-to-JSON writer (``io.channel_to_json`` is this
        function); the spec re-ingests bit-exactly through
        ``io.channel_from_json``.
        """
        return {
            "type": "canonical",
            "t": self.t.tolist(),
            "lambda": self.lam.tolist(),
        }

    def __repr__(self):
        t = ", ".join(f"{v:.6g}" for v in self.t)
        lam = ", ".join(f"{v:.6g}" for v in self.lam)
        return f"QubitChannel(t=({t}), lam=({lam}))"


def is_cptp(ch: QubitChannel) -> CptpReport:
    """Choi positivity (floor ``CHOI_EIG_FLOOR``) plus trace preservation (``TP_ATOL``)."""
    return ch.cptp_report


def apply_channel(ch: QubitChannel, rho: QubitState) -> QubitState:
    """Apply a CPTP channel to a state: the Bloch map ``r -> t + lam * r``."""
    report = ch.cptp_report
    if not report.ok:
        raise NotCptpError(
            f"channel is not CPTP (min Choi eigenvalue {report.min_choi_eigenvalue:.3e}, "
            f"TP deviation {report.tp_deviation:.3e})"
        )
    return QubitState.from_bloch(ch.t + ch.lam * rho.bloch)


def _bloch_map(t: np.ndarray, lam: np.ndarray, p: np.ndarray, gamma: np.ndarray):
    """``apply_channel`` of canonical rows ``(t[s], lam[s])`` to the states
    ``(p[s], gamma[s])``: arrays ``p`` and ``gamma``, checked like
    ``QubitState``.  The channels must be CPTP.
    """
    r = np.stack([2 * gamma.real, -2 * gamma.imag, 2 * p - 1], axis=1)
    r_out = t + lam * r
    p_out = (1 + r_out[:, 2]) / 2
    gamma_out = (r_out[:, 0] - 1j * r_out[:, 1]) / 2
    _check_states(p_out, gamma_out)
    return p_out, gamma_out


def compose(second: QubitChannel, first: QubitChannel) -> QubitChannel:
    """Channel ``second o first``; transfer matrices multiply."""
    for ch in (second, first):
        if not ch.cptp_report.ok:
            raise NotCptpError("compose requires CPTP channels")
    return QubitChannel.from_ptm(second.ptm @ first.ptm)


def random_state(rng: np.random.Generator) -> QubitState:
    """Uniformly sample p, then gamma uniformly from the allowed disk (see ``_states_from_uniforms``)."""
    p, gamma = _states_from_uniforms(rng.random((1, 3)))
    return QubitState(p=p[0], gamma=gamma[0])


def _states_from_uniforms(u: np.ndarray):
    """States from rows ``u[s]`` of standard uniforms: ``p = u0``, then
    ``gamma = sqrt(p (1 - p)) sqrt(u1) exp(2 pi i u2)``, uniform on the allowed disk.

    ``random_state(rng)`` is row 0 of ``rng.random((1, 3))``, so
    ``rng.random((n, 3))`` gives the bits of ``n`` ``random_state`` calls, as
    arrays ``p`` and ``gamma`` checked like ``QubitState``.
    """
    p = u[:, 0]
    radius = np.sqrt(p * (1 - p)) * np.sqrt(u[:, 1])
    gamma = radius * np.exp(1j * (2 * np.pi * u[:, 2]))
    _check_states(p, gamma)
    return p, gamma


#: Sign patterns ``s_a`` of ``(sigma_x (x) sigma_x, -sigma_y (x) sigma_y,
#: sigma_z (x) sigma_z)`` on the four Bell states: the Choi operator of
#: ``(t, lam)`` has diagonal ``d_a = (1 + s_a . lam) / 2`` in the Bell basis.
_BELL_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
#: ``t_k`` couples, with magnitude ``|t_k| / 2``, the two pairs of Bell
#: states whose sign patterns agree on axis ``k``: pair ``(_BELL_A[m],
#: _BELL_B[m])`` is coupled by ``t[_BELL_AXIS[m]]``.  The six pairs are all
#: the pairs of the four states.
_BELL_A = np.array([0, 2, 0, 1, 0, 1])
_BELL_B = np.array([1, 3, 2, 3, 3, 2])
_BELL_AXIS = np.array([0, 0, 1, 1, 2, 2])


def _choi_prescreen(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Necessary conditions for ``cptp_report.ok`` on rows of ``(t, lam)``.

    With ``f = CHOI_EIG_FLOOR - SCREEN_MARGIN``, a channel whose Choi
    operator ``C`` satisfies ``C - f I >= 0`` has non-negative 2x2 principal
    minors ``(d_a - f)(d_b - f) - t_k^2 / 4`` in the Bell basis.  These also
    give ``d_a - f >= 0``: the ``d_a - f`` sum to ``2 - 4f > 0``, and a
    negative one would need every state it is paired with, so every other
    state, to be non-positive.  An accepted channel has
    ``C - f I >= (SCREEN_MARGIN - O(1e-15)) I``, a slack far above the
    rounding of these few products, so no accepted row is dropped.
    """
    d = (1 + lam @ _BELL_SIGNS.T) / 2 - (CHOI_EIG_FLOOR - SCREEN_MARGIN)
    return (d[:, _BELL_A] * d[:, _BELL_B] >= (t * t)[:, _BELL_AXIS] / 4).all(axis=1)


#: Shifts ``s`` of ``_choi_decision``: it rejects when ``C - (f - M) I`` is
#: not positive semidefinite and accepts when ``C - (f + M) I`` is positive
#: definite, with ``f = CHOI_EIG_FLOOR`` and ``M = SCREEN_MARGIN``.
_DECISION_SHIFTS = np.array([CHOI_EIG_FLOOR - SCREEN_MARGIN, CHOI_EIG_FLOOR + SCREEN_MARGIN])
#: Rounding bound of every ``_choi_invariants`` value of a pre-screen
#: survivor, derived in ``_choi_decision``.
_INVARIANT_ROUNDING = 11 * np.finfo(float).eps


def _choi_invariants(t: np.ndarray, lam: np.ndarray, shifts: np.ndarray) -> tuple:
    """``(e2, e3, e4)`` of ``C - s I`` for every shift ``s`` and row ``(t, lam)``, each of shape ``(len(shifts), n)``.

    ``e_k`` is the k-th elementary symmetric function of the eigenvalues of
    ``C - s I``, ``C`` the Choi operator.  In the Bell basis ``C - s I`` has
    diagonal ``delta_a = d_a - s``, and ``t_k`` puts entries of squared
    modulus ``w_k = t_k^2 / 4`` on the two edges of axis ``k``: edges ``2k``
    and ``2k + 1`` of ``(_BELL_A, _BELL_B)`` are a perfect matching of the
    four states.  Expanding the principal minors, with ``p_m = delta_a
    delta_b`` on edge ``m``, ``P_k = p_2k + p_2k+1`` and ``W = w_0 + w_1 +
    w_2``::

        e1 = delta_0 + delta_1 + delta_2 + delta_3 = 2 - 4 s
        e2 = P_0 + P_1 + P_2 - 2 W
        e3 = p_0 (delta_2 + delta_3) + p_1 (delta_0 + delta_1) - W e1
        e4 = p_0 p_1 - (w_0 P_0 + w_1 P_1 + w_2 P_2) + W^2

    In ``e3``, ``W e1`` is ``sum_m w_m (delta_c + delta_d)`` over the edges,
    ``(c, d)`` the other edge of the same axis.  No 3-cycle term appears:
    ``sigma_x sigma_y sigma_z = iI`` makes each 3-cycle product imaginary,
    so it cancels against its reverse.  The three 4-cycles (``2 w_k w_l``)
    and the three perfect matchings (``w_k^2``) add up to ``W^2``.
    """
    delta = (1 + lam @ _BELL_SIGNS.T) / 2 - shifts[:, None, None]
    w = t * t / 4
    p = delta[..., _BELL_A] * delta[..., _BELL_B]
    matchings = p[..., 0::2] + p[..., 1::2]
    pair_sums = delta[..., _BELL_A[:2]] + delta[..., _BELL_B[:2]]
    W = w.sum(axis=-1)
    e1 = pair_sums[..., 0] + pair_sums[..., 1]
    p0, p1 = p[..., 0], p[..., 1]
    return (
        matchings.sum(axis=-1) - 2 * W,
        p0 * pair_sums[..., 1] + p1 * pair_sums[..., 0] - W * e1,
        p0 * p1 - (w * matchings).sum(axis=-1) + W * W,
    )


def _choi_decision(t: np.ndarray, lam: np.ndarray):
    """``(accept, reject)``: the pre-screen survivors ``(t, lam)`` that ``cptp_report`` surely accepts or rejects.

    A Hermitian matrix is positive definite iff every ``e_k`` of its
    eigenvalues is positive, and positive semidefinite iff none is negative.
    With ``r = _INVARIANT_ROUNDING``, a row is accepted when every ``e_k`` of
    ``C - (f + M) I`` exceeds ``r``, and rejected when some ``e_k`` of ``C -
    (f - M) I`` is below ``-r`` (``e1 = 2 - 4s`` is positive at both shifts).
    A row that is neither is left to the single-channel check.

    Rounding, with ``u = eps / 2`` and ``eps = np.finfo(float).eps``.  The
    computed ``delta_a`` and ``w_k`` are the exact data of a Hermitian ``C'``
    within ``8.7u`` of ``C - s I`` in norm: each ``delta_a`` is off by at
    most ``7.1u`` (a three-term sum of ``|lam_i| <= 1``, the ``1 +`` and the
    shift), each coupling modulus ``|t_k| / 2`` by at most ``0.51u``.  The
    formulas take at most 7 roundings along any term, so each computed
    ``e_k`` is within ``gamma_7 E_k`` of the exact ``e_k`` of ``C'``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 3.1), where ``E_k`` is the same expansion in ``|delta_a|`` and
    ``w_k`` with every minus made a plus.  On a survivor every ``delta_a >=
    -2.01M``, so ``sigma = sum_a |delta_a| <= 2.0001``, and ``w_k`` is at
    most ``p_m`` at ``s = f - M`` (up to a few ulps) on both edges of its
    axis, so ``W <= 3 sigma^2 / 16``: Maclaurin's inequality bounds ``sum_m
    p_m``, the sum of the 3-products and ``prod_a |delta_a|`` by ``3
    sigma^2 / 8``, ``sigma^3 / 16`` and ``sigma^4 / 256``.  Hence ``E_2 <= 3
    sigma^2 / 8 + 2W <= 3.01``, ``E_3 <= sigma^3 / 16 + W sigma <= 2.01`` and
    ``E_4 <= sigma^4 / 256 + 3 W sigma^2 / 8 + W^2 <= 1.76``, and ``gamma_7
    * 3.01 < 10.6 eps < r = 11 eps``.  An accepted row thus has ``C' > 0``
    at ``s = f + M``, so the smallest eigenvalue of ``C`` exceeds ``f + M -
    8.7u``; a rejected one has it below ``f - M + 8.7u``.  The
    single-channel ``eigvalsh`` of ``choi_from_ptm`` is within about 1e-13
    of it (see ``_cptp_candidates`` for the rounding of ``choi_from_ptm``),
    far inside ``M``, so it lands on the same side of ``f``.
    """
    (e2_lo, e2_hi), (e3_lo, e3_hi), (e4_lo, e4_hi) = _choi_invariants(t, lam, _DECISION_SHIFTS)
    r = _INVARIANT_ROUNDING
    accept = (e2_hi > r) & (e3_hi > r) & (e4_hi > r)
    reject = (e2_lo < -r) | (e3_lo < -r) | (e4_lo < -r)
    return accept, reject


def _cptp_candidates(rows: np.ndarray, t_scale: float) -> np.ndarray:
    """``cptp_report.ok`` of every candidate ``lam = rows[j]``, ``t = rows[j + 1] * t_scale``.

    Entry ``j`` of the result covers rows ``j`` and ``j + 1``, so both row
    alignments are decided at once.  The closed-form pre-screen drops
    candidates the exact check rejects, and
    ``_choi_decision`` decides the survivors in real arithmetic, with no
    Choi matrix and no eigenvalue; a survivor within about ``SCREEN_MARGIN``
    of the floor is decided by ``cptp_report`` itself.

    Trace preservation needs no test here.  ``Tr_out C = I`` holds exactly
    for every ``(t, lam)``, and a survivor has ``|lam_k| <= 1`` and ``|t_k|
    <= 2.0001``.  Each entry of ``choi_from_ptm`` is half a sum of 16
    products of transfer-matrix entries with ``0``, ``+-1`` or ``+-i``, each
    exact, whose moduli add up to less than ``1 + 3 * 2.0001 + 3 < 10.01``;
    so each part of an entry is off by at most ``gamma_15 * 5.01 < 75.2u``,
    and ``cptp_report.tp_deviation``, two entries added and ``I`` taken off
    exactly, is below ``sqrt(2) (2 * 75.2u + u) < 250u``, about 2.8e-14, far
    below ``TP_ATOL``.  Dropping the test changes no decision.
    """
    lam, t = rows[:-1], rows[1:] * t_scale
    ok = np.zeros(len(lam), dtype=bool)
    kept = np.flatnonzero(_choi_prescreen(t, lam))
    accept, reject = _choi_decision(t[kept], lam[kept])
    ok[kept] = accept
    for k in kept[~(accept | reject)]:
        ok[k] = QubitChannel.from_canonical(t[k], lam[k]).cptp_report.ok
    return ok


def _walk(ok: np.ndarray, rows: int, trials: int, tail: int, max_tries: int):
    """The accepted candidate of each of ``trials`` consecutive rejection loops.

    A loop starting at row ``pos`` tries the candidates at rows ``pos, pos +
    2, ...``; the first one ``ok`` marks is its channel, and the next loop
    starts ``tail`` rows after that candidate's first row (2 for the channel
    alone, 3 with a state row).  Returns ``(starts, end)``: the accepted rows
    and the rows consumed, with fewer than ``trials`` starts when a loop's
    ``max_tries`` candidates all fail (``end`` is then the end of its last
    candidate), or ``None`` when ``rows`` rows are too few to tell.
    """
    accepted = np.flatnonzero(ok)
    by_parity = (accepted[accepted % 2 == 0].tolist(), accepted[accepted % 2 == 1].tolist())
    starts, pos = [], 0
    for _ in range(trials):
        same_parity = by_parity[pos % 2]
        k = bisect_left(same_parity, pos)
        j = same_parity[k] if k < len(same_parity) else math.inf
        if j >= pos + 2 * max_tries:
            return None if pos + 2 * max_tries > rows else (starts, pos + 2 * max_tries)
        if j + tail > rows:
            return None
        starts.append(j)
        pos = j + tail
    return starts, pos


def _sample(rng, trials: int, tail: int, t_scale: float, max_tries: int):
    """Run ``trials`` rejection loops (see ``_walk``) on one block of draws.

    The generator state is saved; a block ``rng.random((rows, 3))`` is drawn
    and decided in one pass by
    ``_cptp_candidates``, which makes only accept/reject decisions, so the
    drawn bits are those of the per-trial loop; ``-1 + 2 * raw`` gives the
    bits of ``rng.uniform(-1, 1)``.  Then the state is restored and exactly
    the consumed rows are drawn again.  The first block has
    ``_ROWS_PER_TRIAL`` rows per trial plus four spare shares, but never more
    than the ``2 * max_tries + tail - 2`` rows a loop can consume; it is
    doubled until the walk is decided.  Returns ``(raw, starts)``;
    ``RuntimeError`` when a loop runs out of ``max_tries``, with the
    generator just past that loop's last candidate.
    """
    start = rng.bit_generator.state
    rows = min(_ROWS_PER_TRIAL * (trials + 4), trials * (2 * max_tries + tail - 2))
    while True:
        raw = rng.random((rows, 3))
        walk = _walk(_cptp_candidates(-1 + 2 * raw, t_scale), rows, trials, tail, max_tries)
        rng.bit_generator.state = start
        if walk is not None:
            break
        rows *= 2
    starts, end = walk
    rng.random((end, 3))
    if len(starts) < trials:
        raise RuntimeError("failed to sample a CPTP channel")
    return raw, starts


def random_cptp_canonical_channel(
    rng: np.random.Generator, t_scale: float = 0.8, max_tries: int = 10_000
) -> QubitChannel:
    """Rejection-sample a CPTP canonical channel with generic ``t`` and ``lam``.

    Attempt ``k`` draws ``lam = rng.uniform(-1, 1, size=3)`` and then
    ``t = rng.uniform(-1, 1, size=3) * t_scale``; the first attempt whose
    channel passes :func:`is_cptp` is returned (with its report cached), and
    ``RuntimeError`` is raised after ``max_tries`` failures.

    This is the one-trial case of the whole-stream sampler that ``verify``
    runs (``_random_channels_and_states``): a block of candidates (at most
    ``max_tries``) is drawn at once, doubled while too few, and decided in
    one array pass by :func:`_cptp_candidates`: a closed-form
    pre-screen and a closed-form Choi positivity decision in real
    arithmetic, with :func:`is_cptp` itself only for a candidate within
    about ``SCREEN_MARGIN`` of ``CHOI_EIG_FLOOR``.  The sampling is
    stream-exact: for every ``numpy.random.Generator`` (any bit generator;
    its state is saved and restored) and every ``max_tries`` the returned
    channel has the same bits, and ``rng`` is left in the same state, as
    drawing and checking the attempts one at a time.
    """
    raw, (j,) = _sample(rng, 1, 2, t_scale, max_tries)
    lam, t = -1 + 2 * raw[j], -1 + 2 * raw[j + 1]
    ch = QubitChannel.from_canonical(t * t_scale, lam)
    ch.cptp_report  # computed now and cached, for the consumers that check it
    return ch


def _random_channels_and_states(
    rng: np.random.Generator, trials: int, t_scale: float = 0.8, max_tries: int = 10_000
):
    """``trials`` rounds of ``random_cptp_canonical_channel(rng)`` then ``random_state(rng)``.

    Returns ``(t, lam, u)`` of shape ``(trials, 3)``: the canonical
    parameters of each round's channel and the standard uniforms of its state
    (``_states_from_uniforms(u)`` gives the state).  A round with ``k``
    candidates consumes ``6k + 3`` doubles, ``2k + 1`` rows of three, so
    rounds start on rows of either parity.  One block ``rng.random((m,
    3))`` is drawn, ``-1 + 2 * raw`` gives the bits of ``rng.uniform(-1,
    1)``, every candidate of both parities is decided at once, and the
    rounds are walked over the accepted rows.  The bits, the generator's
    final state and any ``RuntimeError`` are those of the per-round loop.
    """
    raw, starts = _sample(rng, trials, 3, t_scale, max_tries)
    starts = np.array(starts, dtype=np.intp)
    return (-1 + 2 * raw[starts + 1]) * t_scale, -1 + 2 * raw[starts], raw[starts + 2]
