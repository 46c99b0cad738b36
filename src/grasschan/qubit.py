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
    """``value`` as a fresh read-only C-contiguous array (one copy, then a
    reshape view: ``Dilation`` views its unitary as floats); ``ValueError``
    names ``name`` or its first non-finite entry."""
    a = _fitted(lambda v: np.array(v, dtype=dtype, order="C"), value, name).reshape(shape)
    if not all(map(cmath.isfinite, a.ravel().tolist())):  # a third of np.isfinite(a).all()'s time
        index = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{name}{index.tolist()} is not finite: {a[tuple(index)]}")
    a.setflags(write=False)
    return a


def _finite_floats(name: str, value) -> np.ndarray:
    """``_finite_array(name, value, float, 3)``.  A list or tuple of three
    finite Python floats, what the analyze pipeline passes, is copied by
    ``np.array`` straight away: the same array, with no checked conversion.
    ``0.0 * x * y * z`` is a zero exactly when all three are finite (``0 *
    inf`` is NaN, and NaN stays NaN)."""
    if type(value) in (list, tuple) and len(value) == 3:
        x, y, z = value
        if type(x) is type(y) is type(z) is float and 0.0 * x * y * z == 0.0:
            a = np.array(value)
            a.setflags(write=False)
            return a
    return _finite_array(name, value, float, 3)


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


def _kraus_ops(kraus: Sequence[np.ndarray]) -> list:
    """A Kraus list as nested lists of Python complex numbers, ``ops[k][i][j]``;
    operators that are not 2x2 raise ``ValueError``."""
    ops = np.ascontiguousarray(kraus, dtype=complex) if len(kraus) else np.empty((0, 2, 2), dtype=complex)
    if ops.shape[1:] != (2, 2):
        raise ValueError(f"expected 2x2 Kraus operators, got shape {ops.shape[1:]}")
    return ops.tolist()


def ptm_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Transfer matrix ``Tr[sigma_i sum_k A_k sigma_j A_k^dag] / 2`` of a Kraus list.

    The list's row of ``_kraus_ptms``, the one Kraus pass, as a 4x4 array.
    Operators that are not 2x2 raise ``ValueError``, and a list that is not
    trace preserving raises ``NotTracePreservingError``.
    """
    return np.array(_kraus_ptms([_kraus_ops(kraus)])[0]).reshape(4, 4)


def _nan_max(values: list) -> float:
    """``max(values)``, or NaN when one of them is NaN, as numpy's ``max`` gives it."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _kraus_ptms(stack: list) -> list:
    """Transfer matrices of the Kraus lists ``stack[l]``, each a list of 2x2
    operators as nested lists of Python numbers (``stack[l][k][i][j]``), as
    one flat row of 16 Python floats per list (``ptm.ravel()``).

    With ``A = [[a, b], [c, d]]``, the entries of ``sum A sigma_j A^dag``
    that the traces read are sums of the moduli ``|x|^2`` and of the
    products ``x conj(y)`` of two entries.  With every sum over the list::

        ptm[0, 0], ptm[3, 0] = (m00 +- m11) / 2,  m00 = |a|^2 + |b|^2,  m11 = |c|^2 + |d|^2
        ptm[0, 3], ptm[3, 3] = (n00 +- n11) / 2,  n00 = |a|^2 - |b|^2,  n11 = |c|^2 - |d|^2
        ptm[1, 1], ptm[2, 2] = Re a conj(d) +- Re b conj(c)
        ptm[0, 1], ptm[3, 1] = u0 +- u1,  ptm[0, 2], ptm[3, 2] = v0 +- v1
        ptm[1, 0], ptm[1, 3] = ac +- bd,  ptm[2, 0], ptm[2, 3] = ca +- db
        ptm[2, 1], ptm[1, 2] = cb +- da

    where ``u0 + i v0 = a conj(b)``, ``u1 + i v1 = c conj(d)``, ``ac = Re a
    conj(c)``, ``bd = Re b conj(d)`` and ``ca``, ``db``, ``cb``, ``da`` are
    ``Im c conj(a)``, ``Im d conj(b)``, ``Im c conj(b)``, ``Im d conj(a)``.
    Every product is of two real parts, ``x conj(y)`` being ``(xr yr + xi
    yi) + i (xi yr - xr yi)``; Python's complex ``*``, which a build may
    fuse, is not used.  Each list sum starts from +0.0 and runs in list
    order.  The sums of the first three lines, and ``dag00``, ``dag11``
    below, add one two-term expression per operator; the others add
    products and are combined once per list.  A sum from +0.0 is never
    -0.0, nor is the sum or the difference of two such sums, so no negation
    is written and an entry is -0.0 only where halving rounds -2^-1074 to
    it.

    Real diagonal or antidiagonal operators (every dilation of
    ``dilation_from_angles``) get the bits that complex matrix products
    give on any BLAS kernel: each sum then adds at most one nonzero product
    per operator (``x y`` for two entries of the operator, negated or not),
    in list order, as the matrix products do, and adding zeros to it is
    exact, as is a fused multiply-add of it with a zero; the sums that are
    zero on such lists come out +0.0 however they are grouped.
    ``tests/exact.py`` referees every other list.

    ``sum A^dag A`` is ``[[dag00, z], [conj(z), dag11]]`` with ``dag00 =
    |a|^2 + |c|^2``, ``dag11 = |b|^2 + |d|^2`` and ``z = conj(u0 + u1 + i
    (v0 + v1))`` summed, so its deviation from the identity is the largest
    of ``|dag00 - 1|``, ``|dag11 - 1|`` and ``hypot(ptm[0, 1], ptm[0,
    2])``.  When the largest over the stack, NaN if one is NaN, exceeds
    ``KRAUS_TP_ATOL``, ``NotTracePreservingError`` names the first entry
    with a part above ``1 + KRAUS_TP_ATOL`` (list, operator, row, column,
    real then imaginary part), and else that deviation.  The parts need
    scanning only then: a NaN part, or one above ``1 + KRAUS_TP_ATOL``,
    makes ``dag00`` or ``dag11``, a sum of its square and other
    non-negative squares, NaN or above ``1 + 2 KRAUS_TP_ATOL`` (a Python
    float product overflows to inf and raises nothing).
    """
    rows, deviations = [], []
    for ops in stack:
        m00 = m11 = n00 = n11 = dag00 = dag11 = lam1 = lam2 = 0.0
        u0 = u1 = v0 = v1 = ac = bd = ca = db = cb = da = 0.0
        for (a, b), (c, d) in ops:
            ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
            aa, bb, cc, dd = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci, dr * dr + di * di
            m00 += aa + bb
            m11 += cc + dd
            n00 += aa - bb
            n11 += cc - dd
            dag00 += aa + cc
            dag11 += bb + dd
            re_ad, re_bc = ar * dr + ai * di, br * cr + bi * ci
            lam1 += re_ad + re_bc
            lam2 += re_ad - re_bc
            u0 += ar * br + ai * bi
            u1 += cr * dr + ci * di
            v0 += ai * br - ar * bi
            v1 += ci * dr - cr * di
            ac += ar * cr + ai * ci
            bd += br * dr + bi * di
            ca += ci * ar - cr * ai
            db += di * br - dr * bi
            cb += ci * br - cr * bi
            da += di * ar - dr * ai
        r01, r02 = u0 + u1, v0 + v1
        deviations += [abs(dag00 - 1.0), abs(dag11 - 1.0), math.hypot(r01, r02)]
        rows.append([
            (m00 + m11) / 2, r01, r02, (n00 + n11) / 2,
            ac + bd, lam1, cb - da, ac - bd,
            ca + db, cb + da, lam2, ca - db,
            (m00 - m11) / 2, u0 - u1, v0 - v1, (n00 - n11) / 2,
        ])
    deviation = _nan_max(deviations)
    if not deviation <= KRAUS_TP_ATOL:
        large = [
            (k, i, j, abs(x))
            for ops in stack
            for k, op in enumerate(ops)
            for i, entries in enumerate(op)
            for j, z in enumerate(entries)
            for x in (z.real, z.imag)
            if abs(x) > 1 + KRAUS_TP_ATOL
        ]
        if large:
            k, i, j, part = large[0]
            raise NotTracePreservingError(
                f"Kraus operator {k} entry [{i}, {j}] has a part of modulus {part:.3e}; sum A^dag A cannot be the identity"
            )
        raise NotTracePreservingError(f"sum A^dag A deviates from identity by {deviation:.3e}")
    return rows


def canonical_from_ptm(ptm: np.ndarray):
    """Read ``(t, lam)`` off a transfer matrix with a diagonal 3x3 block (to
    ``DIAG_ATOL``), as two float arrays (see ``_canonical``)."""
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    t, lam = _canonical(ptm.ravel().tolist())
    return np.array(t), np.array(lam)


def _canonical(row: list):
    """``(t, lam)`` as two lists of Python floats, read off a transfer matrix
    given as its 16 entries row by row: the one transfer-matrix reader.

    ``NonDiagonalBlockError`` unless the first row is ``(1, 0, 0, 0)`` and
    every off-diagonal entry of the 3x3 block is at most ``DIAG_ATOL`` in
    modulus.  The block's largest off-diagonal modulus, which the error
    prints, is NaN when an entry is NaN or a diagonal one is infinite
    (``x - x``).
    """
    r00, r01, r02, r03, t1, lam1, x12, x13, t2, x21, lam2, x23, t3, x31, x32, lam3 = row
    if not (abs(r00 - 1.0) <= DIAG_ATOL and abs(r01) <= DIAG_ATOL and abs(r02) <= DIAG_ATOL and abs(r03) <= DIAG_ATOL):
        raise NonDiagonalBlockError("first row is not (1, 0, 0, 0)")
    worst = _nan_max([abs(x12), abs(x13), abs(x21), abs(x23), abs(x31), abs(x32), lam1 - lam1, lam2 - lam2, lam3 - lam3])
    if not worst <= DIAG_ATOL:
        raise NonDiagonalBlockError(
            f"transfer block has off-diagonal entry {worst:.3e}; canonicalize externally"
        )
    return [t1, t2, t3], [lam1, lam2, lam3]


def _ptm_entries(t: list, lam: list) -> list:
    """The 16 entries of the transfer matrix of ``(t, lam)``, row by row, as Python floats."""
    (t1, t2, t3), (lam1, lam2, lam3) = t, lam
    return [1.0, 0.0, 0.0, 0.0, t1, lam1, 0.0, 0.0, t2, 0.0, lam2, 0.0, t3, 0.0, 0.0, lam3]


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


def _tp_deviation(c: list) -> float:
    """``np.abs(_trace_out_first(choi) - _IDENTITY).max()`` of the
    ``choi_from_ptm`` matrix of a canonical ``(t, lam)`` with no entry above
    ``_CHOI_SAFE``, given as ``choi.tolist()``.

    The complex adds and the subtraction of 1 are numpy's, part by part
    (subtracting the identity's +0.0 off the diagonal changes no modulus).
    The moduli agree too, although numpy's SIMD ``abs`` of a complex array
    is not libm's ``hypot``: the two partial-trace blocks read only the
    ``sigma_0`` and ``sigma_3`` rows of the transfer matrix, whose entries
    in the ``sigma_0`` and ``sigma_3`` columns meet real basis entries and
    whose ``sigma_1`` and ``sigma_2`` entries are zero; so every entry read
    has a +-0 imaginary part, where both moduli are ``|re|`` exactly.  Each
    entry is finite below ``_CHOI_SAFE``, so ``max`` meets no NaN.
    """
    return max(
        abs(c[0][0] + c[2][2] - 1.0),
        abs(c[0][1] + c[2][3]),
        abs(c[1][0] + c[3][2]),
        abs(c[1][1] + c[3][3] - 1.0),
    )


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
        object.__setattr__(self, "t", _finite_floats("t", self.t))
        object.__setattr__(self, "lam", _finite_floats("lam", self.lam))

    @classmethod
    def from_canonical(cls, t, lam) -> "QubitChannel":
        return cls(t=t, lam=lam)

    @classmethod
    def identity(cls) -> "QubitChannel":
        return cls.from_canonical([0, 0, 0], [1, 1, 1])

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "QubitChannel":
        """``from_ptm(ptm_from_kraus(kraus))``, bit for bit (see ``_channel_from_kraus``)."""
        return _channel_from_kraus(_kraus_ops(kraus))

    @classmethod
    def from_ptm(cls, ptm: np.ndarray) -> "QubitChannel":
        t, lam = canonical_from_ptm(ptm)
        return cls(t=t, lam=lam)

    @cached_property
    def ptm(self) -> np.ndarray:
        ptm = np.array(_ptm_entries(self.t.tolist(), self.lam.tolist())).reshape(4, 4)
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
            choi = self.choi
            eigs = np.linalg.eigvalsh(choi)
            tp_dev = _tp_deviation(choi.tolist())
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
        smallest = float(eigs[0])
        return CptpReport(ok=smallest >= CHOI_EIG_FLOOR and tp_dev <= TP_ATOL, min_choi_eigenvalue=smallest, tp_deviation=tp_dev)

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


def _channel_from_kraus(ops: list) -> QubitChannel:
    """The channel of one Kraus list given as nested lists of Python numbers,
    ``ops[k][i][j]``: ``_canonical`` of its ``_kraus_ptms`` row, with the
    bits of ``QubitChannel.from_ptm(ptm_from_kraus(ops))``."""
    return QubitChannel(*_canonical(_kraus_ptms([ops])[0]))


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
