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
#: Offsets of a round's rows from its accepted candidate's first row: lam, t, the state.
_ROUND_ROWS = np.arange(3)


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

    A stack of real diagonal or antidiagonal operators (every dilation of
    ``dilation_from_angles``) takes the closed form of ``_monomial_ptms``
    on Python floats, with the bits of ``_ptms_by_products``; any other
    stack, and any stack that is not trace preserving, takes
    ``_ptms_by_products``, which alone raises.
    """
    ptms = _monomial_ptms(ops.tolist())
    return _ptms_by_products(ops) if ptms is None else ptms


def _monomial_ptms(stack: list):
    """``_ptms_by_products`` of a stack given as nested lists of Python
    complex numbers, in closed form, or None when some operator is not real
    and diagonal or antidiagonal, or some list's ``sum A^dag A`` deviates
    from the identity by more than ``KRAUS_TP_ATOL`` (the products pass then
    decides, and raises).

    Real means every imaginary part is zero, of either sign; diagonal and
    antidiagonal are tested by exact zeros.  Why the bits are those of the
    products pass: the operators are real and monomial, and the Pauli
    entries are 0, +-1 or +-i, so every complex product that the pass makes
    has at most one nonzero real term (``x y`` for two entries ``x, y`` of
    one operator, negated or not), and the others are zeros.  Adding a zero
    to a nonzero value is exact, and a fused multiply-add of ``x y`` with a
    zero rounds once, like the plain product; so no BLAS kernel and no FMA
    can change the rounding.  Each ``K``-sum is taken from +0.0 in list
    order, as the pass takes it, and a sum from +0.0 is never -0.0, so every
    structural zero comes out as +0.0 (the literal zeros below).

    With ``A_k = [[a, 0], [0, d]]`` or ``[[0, b], [c, 0]]``, the six sums of
    a list are the entries of ``sum A sigma_j A^dag`` that the traces read::

        m00, m11 (j = 0):  a^2, d^2   or  b^2, c^2
        n00, n11 (j = 3):  a^2, -d^2  or  -b^2, c^2
        s1 (j = 1):        a d        or  b c
        s2 (j = 2):        a d        or  -(b c)

    so ``ptm[0, 0] = (m00 + m11) / 2``, ``ptm[3, 0] = (m00 - m11) / 2``,
    ``ptm[0, 3] = (n00 + n11) / 2``, ``ptm[3, 3] = (n00 - n11) / 2`` (each
    trace is ``(0.0 + x) + y``, and ``0.0 + x`` is ``x``), ``ptm[1, 1] = (s1
    + s1) / 2``, which is ``s1`` exactly, ``ptm[2, 2] = s2`` likewise, and
    every other entry is +0.0.  ``ptm[0, 3]`` is not always zero: at
    ``theta = 0, phi = -pi`` a dilation gives about 7.5e-33.  ``sum A^dag
    A`` is ``diag(a^2, d^2)`` or ``diag(c^2, b^2)``, so the deviation is
    the larger ``|x - 1|`` of its two diagonal sums (the complex ``abs`` of
    ``x - 1 + 0i`` is ``|x - 1|`` exactly).  A part that is NaN, infinite or
    above ``1 + KRAUS_TP_ATOL`` makes one of these sums of non-negative
    squares NaN or above ``1 + KRAUS_TP_ATOL`` (a Python float product
    overflows to inf and raises nothing), so such a stack returns None.
    """
    out = []
    for ops in stack:
        m00 = m11 = n00 = n11 = s1 = s2 = dag00 = dag11 = 0.0
        for (p, q), (r, s) in ops:
            if p.imag or q.imag or r.imag or s.imag:
                return None
            if q == 0 and r == 0:
                a, d = p.real, s.real
                aa, dd, ad = a * a, d * d, a * d
                m00 += aa
                m11 += dd
                n00 += aa
                n11 -= dd
                s1 += ad
                s2 += ad
                dag00 += aa
                dag11 += dd
            elif p == 0 and s == 0:
                b, c = q.real, r.real
                bb, cc, bc = b * b, c * c, b * c
                m00 += bb
                m11 += cc
                n00 -= bb
                n11 += cc
                s1 += bc
                s2 -= bc
                dag00 += cc
                dag11 += bb
            else:
                return None
        if not (abs(dag00 - 1.0) <= KRAUS_TP_ATOL and abs(dag11 - 1.0) <= KRAUS_TP_ATOL):
            return None
        out += [
            (m00 + m11) / 2, 0.0, 0.0, (n00 + n11) / 2,
            0.0, s1, 0.0, 0.0,
            0.0, 0.0, s2, 0.0,
            (m00 - m11) / 2, 0.0, 0.0, (n00 - n11) / 2,
        ]
    return np.array(out).reshape(len(stack), 4, 4)


def _ptms_by_products(ops: np.ndarray) -> np.ndarray:
    """``_ptms_from_kraus`` of any stack, by batched complex matrix products.

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
    ``QubitState``.  Each component of ``r_out = t + lam * r`` is formed as
    ``apply_channel`` forms it, so the rows have its bits.  The channels must
    be CPTP.
    """
    (t1, t2, t3), (lam1, lam2, lam3) = t.T, lam.T
    p_out = (1 + (t3 + lam3 * (2 * p - 1))) / 2
    gamma_out = ((t1 + lam1 * (2 * gamma.real)) - 1j * (t2 + lam2 * (-2 * gamma.imag))) / 2
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
    arrays ``p`` and ``gamma``.  They need no ``QubitState`` check: for
    uniforms in ``[0, 1)``, ``p`` is in ``[0, 1)``, and ``|gamma|^2`` is
    ``p (1 - p) u1 <= p (1 - p)`` up to a relative rounding of a few ulps
    (``1 - p``, the products, the square roots and the unit-modulus
    ``exp``), so it exceeds ``p (1 - p)`` by less than ``1e-15``, far inside
    ``STATE_ATOL``.
    """
    p = u[:, 0]
    radius = np.sqrt(p * (1 - p)) * np.sqrt(u[:, 1])
    gamma = radius * np.exp(1j * (2 * np.pi * u[:, 2]))
    return p, gamma


def _bell_sums(lam1, lam2, lam3):
    """The four sums ``s_a . lam`` that give the Choi operator of ``(t, lam)``
    its Bell-basis diagonal ``d_a = (1 + s_a . lam) / 2``.

    ``s_a`` runs over ``(1, 1, 1)``, ``(1, -1, -1)``, ``(-1, 1, -1)`` and
    ``(-1, -1, 1)``, the signs of ``(sigma_x (x) sigma_x, -sigma_y (x)
    sigma_y, sigma_z (x) sigma_z)`` on the four Bell states.  Each sum is
    the explicit three-term sum taken from the left (``-lam1 + lam2`` is
    ``-(lam1 - lam2)`` and ``-lam1 - lam2`` is ``-(lam1 + lam2)``, exactly),
    so its bits depend on no BLAS kernel.  The arguments are floats (the
    decision of one candidate) or arrays of one shape.
    """
    plus, minus = lam1 + lam2, lam1 - lam2
    return plus + lam3, minus - lam3, -minus - lam3, lam3 - plus


#: ``t_k`` couples, with magnitude ``|t_k| / 2``, the two pairs of Bell
#: states whose sign patterns agree on axis ``k``: pair ``(_BELL_EDGES[0, m],
#: _BELL_EDGES[1, m])`` is coupled by ``t[_BELL_AXIS[m]]``.  The six pairs
#: are all the pairs of the four states.
_BELL_EDGES = np.array([[0, 2, 0, 1, 0, 1], [1, 3, 2, 3, 3, 2]])
_BELL_AXIS = np.array([0, 0, 1, 1, 2, 2])
#: Row ``_BELL_SIGNED[k, a]`` of ``[lam; -lam]`` (six rows) is ``s_a[k] lam_k``,
#: the term of ``lam_k`` in Bell state ``a``'s sum ``s_a . lam`` (``_bell_sums``).
_BELL_SIGNED = np.array([[0, 0, 3, 3], [1, 4, 1, 4], [2, 5, 5, 2]])
#: ``1 - 2 f`` with ``f = CHOI_EIG_FLOOR - SCREEN_MARGIN``: the pre-screen's
#: ``D_a = 2 (d_a - f)`` is ``s_a . lam`` summed from it.
_PRESCREEN_START = 1 - 2 * (CHOI_EIG_FLOOR - SCREEN_MARGIN)


def _choi_prescreen(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Necessary conditions for ``cptp_report.ok`` on rows of ``(t, lam)``.

    With ``f = CHOI_EIG_FLOOR - SCREEN_MARGIN``, a channel whose Choi
    operator ``C`` satisfies ``C - f I >= 0`` has non-negative 2x2 principal
    minors ``(d_a - f)(d_b - f) - t_k^2 / 4`` in the Bell basis, that is
    ``D_a D_b >= t_k^2`` with ``D_a = 2 (d_a - f) = 1 - 2f + s_a . lam``.
    These also give ``D_a >= 0``: the ``D_a`` sum to ``4 - 8f > 0``, and a
    negative one would need every state it is paired with, so every other
    state, to be non-positive.

    The pass runs on the columns (``lam.T``) and makes no matrix product:
    one signed reduction forms the four ``D_a`` (the terms ``+-lam_k`` are
    gathered from ``[lam; -lam]`` and summed from ``1 - 2f``), one gather
    puts the ends of the six edges side by side, and all six minors are
    compared with the gathered ``t_k^2`` at once.  It only filters, so its
    rounding needs only the slack that ``SCREEN_MARGIN`` leaves.  An
    accepted channel has smallest Choi eigenvalue at least ``CHOI_EIG_FLOOR
    - 1e-13`` (see ``_cptp_ok``), so ``C - f I >= m I`` with ``m > 0.9
    SCREEN_MARGIN``; each 2x2 block ``[[D_a, t_k], [t_k, D_b]]`` is then at
    least ``2m I``, and its determinant ``D_a D_b - t_k^2`` is at least
    ``m (D_a + D_b)``.  With ``u = eps / 2``, the computed ``D_a`` is off by
    at most ``14u`` (``1 - 2f`` rounded once, and three additions whose
    results, partial sums of ``1 - 2f`` and terms ``|lam_k| <= 1 + 1e-8``,
    are below 4.1 in magnitude in any order of summation), the product and
    ``t_k^2`` are off by a relative ``u`` each (an underflowed ``t_k^2`` by
    at most ``2^-1075``), and ``t_k^2 <= D_a D_b <= (D_a + D_b)^2 / 4`` with
    ``D_a + D_b <= 4.1``.  So the computed minor is at least ``(D_a + D_b)(m -
    14u - 2.1u)``, which is positive, and no accepted row is dropped
    (``tests/test_exact.py`` checks this against exact rational arithmetic).
    """
    lam = lam.T
    signed = np.array((lam, -lam)).reshape(6, len(t)).take(_BELL_SIGNED, axis=0)
    ends = np.add.reduce(signed, axis=0, initial=_PRESCREEN_START).take(_BELL_EDGES, axis=0)
    return (ends[0] * ends[1] >= (t * t).T.take(_BELL_AXIS, axis=0)).all(axis=0)


#: Shifts ``(f - M, f + M)`` of ``_cptp_ok``, with ``f = CHOI_EIG_FLOOR`` and
#: ``M = SCREEN_MARGIN``: it rejects when ``C - (f - M) I`` is not positive
#: semidefinite and accepts when ``C - (f + M) I`` is positive definite.
_DECISION_SHIFTS = (CHOI_EIG_FLOOR - SCREEN_MARGIN, CHOI_EIG_FLOOR + SCREEN_MARGIN)
#: Rounding bound of every ``_choi_invariants`` value of a pre-screen
#: survivor, derived in ``_cptp_ok``.
_INVARIANT_ROUNDING = float(11 * np.finfo(float).eps)


def _choi_invariants(sums: tuple, w: tuple, s: float) -> tuple:
    """``(e2, e3, e4)`` of ``C - s I`` for one channel, on Python floats.

    ``sums`` are the ``_bell_sums`` of ``lam`` and ``w = (w_0, w_1, w_2)``
    holds ``w_k = t_k^2 / 4``.  ``e_k`` is the k-th elementary symmetric
    function of the eigenvalues of ``C - s I``, ``C`` the Choi operator.  In
    the Bell basis ``C - s I`` has diagonal ``delta_a = d_a - s``, and
    ``t_k`` puts entries of squared modulus ``w_k`` on the two edges of axis
    ``k``: ``(0, 1)`` and ``(2, 3)`` for axis 0, ``(0, 2)`` and ``(1, 3)``
    for axis 1, ``(0, 3)`` and ``(1, 2)`` for axis 2, a perfect matching of
    the four states for each axis.  Expanding the principal minors, with
    ``p_m = delta_a delta_b`` on edge ``m`` (in the order above), ``P_k =
    p_2k + p_2k+1`` and ``W = w_0 + w_1 + w_2``::

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
    s0, s1, s2, s3 = sums
    d0, d1, d2, d3 = (1 + s0) / 2 - s, (1 + s1) / 2 - s, (1 + s2) / 2 - s, (1 + s3) / 2 - s
    w0, w1, w2 = w
    p0, p1 = d0 * d1, d2 * d3
    P0, P1, P2 = p0 + p1, d0 * d2 + d1 * d3, d0 * d3 + d1 * d2
    W = w0 + w1 + w2
    a, b = d0 + d1, d2 + d3
    return (
        P0 + P1 + P2 - 2 * W,
        p0 * b + p1 * a - W * (a + b),
        p0 * p1 - (w0 * P0 + w1 * P1 + w2 * P2) + W * W,
    )


def _cptp_ok(t: list, lam: list) -> bool:
    """``cptp_report.ok`` of one pre-screen survivor ``(t, lam)``, given as Python floats.

    A Hermitian matrix is positive definite iff every ``e_k`` of its
    eigenvalues is positive, and positive semidefinite iff none is negative.
    With ``r = _INVARIANT_ROUNDING``, the candidate is accepted when every
    ``e_k`` of ``C - (f + M) I`` exceeds ``r``, and rejected when some
    ``e_k`` of ``C - (f - M) I`` is below ``-r`` (``e1 = 2 - 4s`` is positive
    at both shifts).  A candidate that is neither, within about
    ``SCREEN_MARGIN`` of the floor, is decided by ``cptp_report`` itself.

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
    of it (see below for the rounding of ``choi_from_ptm``), far inside
    ``M``, so it lands on the same side of ``f``.

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
    sums, w = _bell_sums(*lam), (t[0] * t[0] / 4, t[1] * t[1] / 4, t[2] * t[2] / 4)
    r = _INVARIANT_ROUNDING
    e2, e3, e4 = _choi_invariants(sums, w, _DECISION_SHIFTS[1])
    if e2 > r and e3 > r and e4 > r:
        return True
    e2, e3, e4 = _choi_invariants(sums, w, _DECISION_SHIFTS[0])
    if e2 < -r or e3 < -r or e4 < -r:
        return False
    return QubitChannel.from_canonical(t, lam).cptp_report.ok


def _walk(draws: np.ndarray, t_scale: float, trials: int, tail: int, max_tries: int):
    """The accepted candidate of each of ``trials`` consecutive rejection loops over ``draws``.

    Candidate ``j`` is ``lam = draws[j]``, ``t = draws[j + 1] * t_scale``.  A
    loop starting at row ``pos`` tries the candidates at rows ``pos, pos +
    2, ...``; the first one that passes ``cptp_report`` is its channel, and
    the next loop starts ``tail`` rows after that candidate's first row (2
    for the channel alone, 3 with a state row).  The closed-form pre-screen
    runs over the whole block and drops candidates ``cptp_report`` rejects;
    the walk bisects over the survivors, skips those of the other row
    parity, and decides only the survivors it reaches, one at a time, by
    ``_cptp_ok``, reading each one's ``(t, lam)`` as Python floats when it
    reaches it.  That is about a quarter of the survivors, so two small
    ``tolist`` calls per decision cost less than one gather of every
    survivor's row (about 4 against 16 us for the nine decisions and 43
    survivors of a five-trial block).  Returns ``(starts, end)``: the
    accepted rows and the rows consumed, with fewer than ``trials`` starts
    when a loop's ``max_tries`` candidates all fail (``end`` is then the end
    of its last candidate), or ``None`` when the block's rows are too few to
    tell.
    """
    rows = len(draws)
    lam, t = draws[:-1], draws[1:] * t_scale
    survivors = np.flatnonzero(_choi_prescreen(t, lam)).tolist()
    starts, pos = [], 0
    for _ in range(trials):
        k = bisect_left(survivors, pos)
        while True:
            j = survivors[k] if k < len(survivors) else math.inf
            if j >= pos + 2 * max_tries:
                return None if pos + 2 * max_tries > rows else (starts, pos + 2 * max_tries)
            if (j - pos) % 2 == 0 and _cptp_ok(t[j].tolist(), lam[j].tolist()):
                break
            k += 1
        if j + tail > rows:
            return None
        starts.append(j)
        pos = j + tail
    return starts, pos


def _sample(rng, trials: int, tail: int, t_scale: float, max_tries: int):
    """Run ``trials`` rejection loops (see ``_walk``) on one block of draws.

    The generator state is saved and a block ``rng.random((rows, 3))`` is
    drawn; ``-1 + 2 * raw`` gives the bits of ``rng.uniform(-1, 1)``.  The
    walk decides each candidate it reaches exactly as ``cptp_report`` would,
    so the drawn bits are those of the per-trial loop.  Then the state is
    restored and exactly the consumed rows are drawn again.  The first block
    has ``_ROWS_PER_TRIAL`` rows per trial plus four spare shares, but never
    more than the ``2 * max_tries + tail - 2`` rows a loop can consume; it is
    doubled until the walk is decided.  Returns ``(raw, starts)``;
    ``RuntimeError`` when a loop runs out of ``max_tries``, with the
    generator just past that loop's last candidate.
    """
    start = rng.bit_generator.state
    rows = min(_ROWS_PER_TRIAL * (trials + 4), trials * (2 * max_tries + tail - 2))
    while True:
        raw = rng.random((rows, 3))
        walk = _walk(-1 + 2 * raw, t_scale, trials, tail, max_tries)
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
    ``max_tries``) is drawn at once, doubled while too few, and screened in
    one array pass by the closed-form pre-screen.  The walk then decides
    only the survivors it reaches, in order, each by :func:`_cptp_ok`: a
    closed-form Choi positivity decision on Python floats, with
    :func:`is_cptp` itself only for a candidate within about
    ``SCREEN_MARGIN`` of ``CHOI_EIG_FLOOR``.  The sampling is stream-exact:
    for every ``numpy.random.Generator`` (any bit generator; its state is
    saved and restored) and every ``max_tries`` the returned channel has the
    same bits, and ``rng`` is left in the same state, as drawing and
    checking the attempts one at a time.
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
    1)``, the pre-screen runs over every candidate of both parities at once,
    and the rounds are walked over its survivors, deciding only those they
    reach.  The bits, the generator's final state and any ``RuntimeError``
    are those of the per-round loop.
    """
    raw, starts = _sample(rng, trials, 3, t_scale, max_tries)
    rounds = raw[np.array(starts, dtype=np.intp)[:, None] + _ROUND_ROWS]  # each round's lam, t and state rows
    draws = -1 + 2 * rounds[:, :2]
    return draws[:, 1] * t_scale, draws[:, 0], rounds[:, 2]
