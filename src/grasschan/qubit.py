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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .tolerances import (
    CHOI_EIG_FLOOR,
    DIAG_ATOL,
    ISCLOSE_ATOL,
    KRAUS_CONSISTENCY_ATOL,
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

#: Candidates that ``random_cptp_canonical_channel`` screens per batch.
SAMPLER_BLOCK = 32


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
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if not -STATE_ATOL <= self.p <= 1 + STATE_ATOL:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not abs(self.gamma) ** 2 <= self.p * (1 - self.p) + STATE_ATOL:
            raise ValueError(
                f"|gamma|^2={abs(self.gamma)**2:.3e} exceeds p(1-p)={self.p*(1-self.p):.3e}"
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

    @classmethod
    def from_matrix(cls, m) -> "QubitState":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not abs(np.trace(m) - 1) <= STATE_ATOL:
            raise ValueError(f"trace {np.trace(m)} differs from 1")
        if not np.max(np.abs(m - m.conj().T)) <= STATE_ATOL:
            raise ValueError("matrix is not Hermitian")
        return cls(p=m[0, 0].real, gamma=m[0, 1])

    def isclose(self, other: "QubitState", atol: float = ISCLOSE_ATOL) -> bool:
        return abs(self.p - other.p) <= atol and abs(self.gamma - other.gamma) <= atol


def _check_states(p: np.ndarray, gamma: np.ndarray) -> None:
    """Raise what ``QubitState(p[s], gamma[s])`` raises for the first row out of bounds."""
    ok = (-STATE_ATOL <= p) & (p <= 1 + STATE_ATOL) & (np.abs(gamma) ** 2 <= p * (1 - p) + STATE_ATOL)
    for s in np.flatnonzero(~ok):
        QubitState(p=p[s], gamma=gamma[s])


def ptm_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Transfer matrix ``Tr[sigma_i sum_k A_k sigma_j A_k^dag] / 2`` of a Kraus list."""
    ops = [np.asarray(a, dtype=complex) for a in kraus]
    deviation = np.max(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(2)))
    if not deviation <= KRAUS_TP_ATOL:
        raise NotTracePreservingError(f"sum A^dag A deviates from identity by {deviation:.3e}")
    ptm = np.empty((4, 4))
    for j in range(4):
        mapped = sum(a @ PAULI[j] @ a.conj().T for a in ops)
        for i in range(4):
            ptm[i, j] = np.real(np.trace(PAULI[i] @ mapped)) / 2
    return ptm


def canonical_from_ptm(ptm: np.ndarray, atol: float = DIAG_ATOL):
    """Read ``(t, lam)`` off a transfer matrix with a diagonal 3x3 block."""
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.max(np.abs(ptm[0] - np.array([1.0, 0, 0, 0]))) <= atol:
        raise NonDiagonalBlockError("first row is not (1, 0, 0, 0)")
    block = ptm[1:, 1:]
    off = block - np.diag(np.diag(block))
    worst = np.max(np.abs(off))
    if not worst <= atol:
        raise NonDiagonalBlockError(
            f"transfer block has off-diagonal entry {worst:.3e}; canonicalize externally"
        )
    return ptm[1:, 0].copy(), np.diag(block).copy()


_BLOCK_DIAG = np.arange(1, 4)


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
    """
    ptm = np.asarray(ptm, dtype=float)
    return 0.5 * np.dot(ptm.reshape(-1, 16), _CHOI_BASIS).reshape(ptm.shape[:-2] + (4, 4))


_IDENTITY = np.eye(2)


def _trace_out_first(op4: np.ndarray) -> np.ndarray:
    return op4[:2, :2] + op4[2:, 2:]


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

    ``kraus`` optionally carries an operator-sum form; when present it was
    validated to generate the same transfer matrix.
    """

    t: np.ndarray
    lam: np.ndarray
    kraus: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3).copy())
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(3).copy())
        self.t.flags.writeable = False
        self.lam.flags.writeable = False
        if self.kraus is not None:
            ops = tuple(np.asarray(a, dtype=complex) for a in self.kraus)
            object.__setattr__(self, "kraus", ops)
            derived = ptm_from_kraus(ops)
            if not np.max(np.abs(derived - self.ptm)) <= KRAUS_CONSISTENCY_ATOL:
                raise ValueError("Kraus list is inconsistent with the canonical parameters")

    @classmethod
    def from_canonical(cls, t, lam) -> "QubitChannel":
        return cls(t=np.asarray(t, dtype=float), lam=np.asarray(lam, dtype=float))

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls.from_canonical([0, 0, 0], [1, 1, 1])

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QubitChannel":
        ops = tuple(np.asarray(a, dtype=complex) for a in kraus)
        t, lam = canonical_from_ptm(ptm_from_kraus(ops))
        # The transfer matrix is derived once: canonical_from_ptm bounded the
        # dropped entries by DIAG_ATOL, below the KRAUS_CONSISTENCY_ATOL bound
        # that __post_init__ would re-check.
        ch = cls(t=t, lam=lam)
        object.__setattr__(ch, "kraus", ops)
        return ch

    @classmethod
    def from_ptm(cls, ptm: np.ndarray) -> "QubitChannel":
        t, lam = canonical_from_ptm(ptm)
        return cls(t=t, lam=lam)

    @cached_property
    def ptm(self) -> np.ndarray:
        ptm = _ptm_from_canonical(self.t, self.lam)
        ptm.flags.writeable = False
        return ptm

    @cached_property
    def choi(self) -> np.ndarray:
        choi = choi_from_ptm(self.ptm)
        choi.flags.writeable = False
        return choi

    @cached_property
    def cptp_report(self) -> CptpReport:
        try:
            eigs = np.linalg.eigvalsh(self.choi)
        except np.linalg.LinAlgError:  # a Choi matrix that overflowed to inf or NaN
            eigs = np.array([np.nan])
        tp_dev = float(np.abs(_trace_out_first(self.choi) - _IDENTITY).max())
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
            "t": [float(v) for v in self.t],
            "lambda": [float(v) for v in self.lam],
        }

    def __repr__(self):
        t = ", ".join(f"{v:.6g}" for v in self.t)
        lam = ", ".join(f"{v:.6g}" for v in self.lam)
        return f"QubitChannel(t=({t}), lam=({lam}))"


def is_cptp(ch: QubitChannel) -> CptpReport:
    """Choi positivity (floor ``CHOI_EIG_FLOOR``) plus trace preservation (``TP_ATOL``)."""
    return ch.cptp_report


def apply_channel(ch: QubitChannel, rho: QubitState) -> QubitState:
    """Apply a CPTP channel to a state (Kraus sum when available, Bloch map otherwise)."""
    report = ch.cptp_report
    if not report.ok:
        raise NotCptpError(
            f"channel is not CPTP (min Choi eigenvalue {report.min_choi_eigenvalue:.3e}, "
            f"TP deviation {report.tp_deviation:.3e})"
        )
    if ch.kraus is not None:
        out = sum(a @ rho.matrix @ a.conj().T for a in ch.kraus)
        return QubitState.from_matrix(out)
    r = rho.bloch
    r_out = ch.t + ch.lam * r
    return QubitState.from_bloch(r_out)


def _bloch_map(t: np.ndarray, lam: np.ndarray, p: np.ndarray, gamma: np.ndarray):
    """``apply_channel`` of canonical rows ``(t[s], lam[s])`` without Kraus lists
    to the states ``(p[s], gamma[s])``: arrays ``p`` and ``gamma``, checked like
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
    """Uniformly sample p, then gamma uniformly from the allowed disk."""
    p = rng.uniform(0, 1)
    radius = np.sqrt(p * (1 - p)) * np.sqrt(rng.uniform(0, 1))
    phase = rng.uniform(0, 2 * np.pi)
    return QubitState(p=p, gamma=radius * np.exp(1j * phase))


def _states_from_uniforms(u: np.ndarray):
    """The states ``random_state`` draws from the rows ``u[s]`` of standard uniforms.

    ``rng.random((n, 3))`` consumes the stream of ``n`` ``random_state(rng)``
    calls, and row ``s`` gives the bits of call ``s`` as arrays ``p`` and
    ``gamma``, checked like ``QubitState``.
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


def random_cptp_canonical_channel(
    rng: np.random.Generator, t_scale: float = 0.8, max_tries: int = 10_000
) -> QubitChannel:
    """Rejection-sample a CPTP canonical channel with generic ``t`` and ``lam``.

    Attempt ``k`` draws ``lam = rng.uniform(-1, 1, size=3)`` and then
    ``t = rng.uniform(-1, 1, size=3) * t_scale``; the first attempt whose
    channel passes :func:`is_cptp` is returned (with its report cached), and
    ``RuntimeError`` is raised after ``max_tries`` failures.

    Candidates are drawn ``SAMPLER_BLOCK`` at a time and pre-screened by the
    closed-form Bell-basis conditions of :func:`_choi_prescreen`, but the
    sampling is stream-exact: for every ``numpy.random.Generator`` (any bit
    generator; its state is saved and restored) and every ``max_tries`` the
    returned channel has the same bits, and ``rng`` is left in the same state,
    as drawing and checking the attempts one at a time.  The pre-screen only
    drops candidates the exact check would reject; every acceptance is
    decided by the single-channel check.  After an acceptance the generator
    is rewound to the start of the block and advanced by exactly the draws of
    the attempts up to the accepted one.
    """
    tried = 0
    while tried < max_tries:
        n = min(SAMPLER_BLOCK, max_tries - tried)
        start = rng.bit_generator.state
        draws = rng.uniform(-1, 1, size=(n, 2, 3))
        lam = draws[:, 0]
        t = draws[:, 1] * t_scale
        for k in np.flatnonzero(_choi_prescreen(t, lam)):
            ch = QubitChannel.from_canonical(t[k], lam[k])
            if ch.cptp_report.ok:
                rng.bit_generator.state = start
                rng.uniform(-1, 1, size=(k + 1, 2, 3))
                return ch
        tried += n
    raise RuntimeError("failed to sample a CPTP channel")
