"""Qubit-qubit dilations, weakly complementary channels, degradability certificates.

Every Gaussian channel in angle form ``(theta, phi, q)`` is realized by a
two-qubit unitary acting on system (x) environment (environment index
fastest) with columns::

    |0>_S |0>_E  ->  cos(theta)|00> + sin(theta)|11>
    |1>_S |0>_E  ->  sin(phi)|01> + cos(phi)|10>
    |0>_S |1>_E  ->  cos(phi)|01> - sin(phi)|10>
    |1>_S |1>_E  -> -sin(theta)|00> + cos(theta)|11>

and the environment prepared in ``diag(q, 1-q)``.  The completion on the
``|1>_E`` sector is the orthonormal one that keeps the traced-out system
channel inside the Gaussian family for every ``q`` (the alternative pairing
of the completion vectors only reproduces it at ``q = 1``); the dilation
soundness tests verify this numerically rather than trusting the structure.

A channel N with weakly complementary channel N~ is *weakly degradable* when
``D o N = N~`` for some channel D, and *anti-degradable* when
``D' o N~ = N`` for some D'; anti-degradability forces zero quantum
capacity.  Certificates are produced by a least-squares solve on the
diagonal transfer blocks, whose solution is itself a canonical ``(t, lam)``
channel, followed by honest re-verification (residual and Choi positivity);
a failed search is reported as "neither certified", an unknown rather than a
proof.  For a pure environment (q in {0, 1}) the sign test
``cos(2 theta)/cos(2 phi) >= 0`` predicts weak degradability, and
anti-degradability otherwise; for a mixed environment the negative side of
the test claims null quantum capacity (claimed, never computed here).

Where the bosonic analogy stops.  The weak complement of the dilation is, with
``e = 2q - 1``, ``t = (0, 0, e (cos 2theta + cos 2phi) / 2)`` and ``lam = (e
sin(theta + phi), e sin(phi - theta), sin(theta + phi) sin(phi - theta))``:
linear in ``q``, so ``lam1 lam2 = e^2 lam3``.  It is therefore Gaussian only
for a pure environment or where ``lam3 = 0``, while a one-mode bosonic
Gaussian channel with a thermal environment has a Gaussian weak complement
(Caruso, Giovannetti and Holevo, NJP 8, 310, 2006).  ``certify`` takes the
dilation itself and reads the weak complement from it, so the complement is
a Stinespring output, CPTP by construction, and is not decided again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import qubit
from .green import AngleParams
from .qubit import NotCptpError, QubitChannel, QubitState, _finite_array, is_cptp
from .tolerances import BOUNDARY_ATOL, CERT_RESIDUAL_TOL, ENV_ATOL, UNITARITY_ATOL

__all__ = [
    "Dilation",
    "DegradabilityVerdict",
    "Prediction",
    "WEAKLY_DEGRADABLE",
    "ANTI_DEGRADABLE",
    "NEITHER_CERTIFIED",
    "NULL_CAPACITY_CLAIMED",
    "dilation_from_angles",
    "weakly_complementary",
    "certify",
    "classify_by_angles",
]

#: Flat indices ``8 s_out + 4 e_out + 2 s_in + e_in`` of the unitary's entries
#: in the Kraus operators: ``_KRAUS_INDEX[side][e_in][k]`` is operator ``k``
#: of the system (side 0, ``k = e_out``, rows ``s_out``) or environment (side
#: 1, ``k = s_out``, rows ``e_out``) list for the environment input ``e_in``,
#: with columns ``s_in``.
_KRAUS_INDEX = [
    [[[[8 * i + 4 * k + 2 * s + j for s in (0, 1)] for i in (0, 1)] for k in (0, 1)] for j in (0, 1)],
    [[[[8 * k + 4 * i + 2 * s + j for s in (0, 1)] for i in (0, 1)] for k in (0, 1)] for j in (0, 1)],
]
#: The smallest normal double; ``_solve_degrading`` reads smaller source entries as zero.
_TINY = float(np.finfo(float).tiny)

WEAKLY_DEGRADABLE = "weakly_degradable"
ANTI_DEGRADABLE = "anti_degradable"
NEITHER_CERTIFIED = "neither_certified"
NULL_CAPACITY_CLAIMED = "null_capacity_claimed"


@dataclass(frozen=True, eq=False)
class Dilation:
    """Two-qubit unitary plus environment state realizing a channel by partial trace.

    An environment weight ``p`` that ``QubitState`` lets through outside
    [0, 1] (by at most ``STATE_ATOL``) is clamped into it, so ``q``, the
    reported purity and the Kraus weights ``sqrt(q)``, ``sqrt(1 - q)`` agree.

    Everything a dilation computes runs on the unitary's Python numbers:
    the unitarity check (``_unitarity_deviation``), the system and
    environment Kraus lists (``_kraus_lists``), one ``qubit._kraus_ptms``
    pass over both, and ``qubit._canonical`` of each row for the marginal
    and the weak complement.  ``system_kraus`` and ``env_kraus`` give the
    same operators as numpy arrays.
    """

    unitary: np.ndarray
    env_state: QubitState

    def __post_init__(self):
        u = _finite_array("unitary", self.unitary, complex, (4, 4))
        object.__setattr__(self, "unitary", u)
        entries = u.ravel().tolist()
        dev = _unitarity_deviation(entries)
        if not dev <= UNITARITY_ATOL:
            # A part above 1 + UNITARITY_ATOL fails the deviation too (see
            # _unitarity_deviation), and may overflow it: it is named first.
            largest = max(abs(p) for z in entries for p in (z.real, z.imag))
            if not largest <= 1 + UNITARITY_ATOL:
                raise ValueError(f"matrix is not unitary (an entry has a part of modulus {largest:.3e})")
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        if not abs(self.env_state.gamma) <= ENV_ATOL:
            raise ValueError("environment state must be diagonal diag(q, 1-q)")
        q = self.env_state.p
        if not 0.0 <= q <= 1.0:
            clamped = QubitState(p=min(max(q, 0.0), 1.0), gamma=self.env_state.gamma)
            object.__setattr__(self, "env_state", clamped)

    @property
    def q(self) -> float:
        return self.env_state.p

    def _kraus_lists(self) -> list:
        """``system_kraus()`` and ``env_kraus()`` as nested lists of Python
        numbers: ``sqrt(w_j) * U[i]``, ``U`` the flat unitary and ``i`` from
        ``_KRAUS_INDEX``, for the environment inputs ``j`` of nonzero weight
        ``w_j``.  ``math.sqrt`` rounds as ``np.sqrt`` does, and a float times
        a complex number has numpy's parts up to the sign of a zero imaginary
        part, which changes no sum of ``qubit._kraus_ptms``."""
        flat, lists = self.unitary.ravel().tolist(), [[], []]
        for j, weight in enumerate((self.q, 1 - self.q)):
            if weight:
                root = math.sqrt(weight)
                scaled = [root * x for x in flat]
                for ops, blocks in zip(lists, _KRAUS_INDEX):
                    for (a, b), (c, d) in blocks[j]:
                        ops.append([[scaled[a], scaled[b]], [scaled[c], scaled[d]]])
        return lists

    @cached_property
    def _rows(self) -> list:
        """The flat transfer-matrix rows of the system and environment lists,
        from one pass over both.  The pass and the reader are looked up on
        ``qubit`` when called, so replacing one there replaces it here too."""
        return qubit._kraus_ptms(self._kraus_lists())

    def _read(self, side: int) -> QubitChannel:
        """The system (0) or environment (1) channel; each is read on its own,
        so a non-diagonal block on one side does not stop the other."""
        return QubitChannel(*qubit._canonical(self._rows[side]))

    @cached_property
    def _marginal(self) -> QubitChannel:
        return self._read(0)

    @cached_property
    def _complement(self) -> QubitChannel:
        return self._read(1)

    def _kraus(self, system: bool) -> list:
        u = self.unitary.reshape(2, 2, 2, 2)  # [s_out, e_out, s_in, e_in]
        return [
            np.sqrt(weight) * (u[:, k, :, j] if system else u[k, :, :, j])
            for j, weight in enumerate((self.q, 1 - self.q)) if weight
            for k in (0, 1)
        ]

    def system_kraus(self) -> list:
        """Kraus list of the system-output channel Tr_E[U (rho (x) rho_E) U^dag]."""
        return self._kraus(True)

    def env_kraus(self) -> list:
        """Kraus list of the environment-output channel Tr_S[U (rho (x) rho_E) U^dag]."""
        return self._kraus(False)

    def channel(self) -> QubitChannel:
        return self._marginal


def _unitarity_deviation(entries: list) -> float:
    """``max |U^dag U - I|`` of a 4x4 matrix given as its 16 entries row by
    row, on Python floats: ``|x|^2 - 1`` for each column ``x`` and, once for
    each pair of columns, the modulus of ``conj(x) . y``, every product of
    two real parts (no complex ``*``).  A part above ``1 + UNITARITY_ATOL``
    makes its column's ``|x|^2 - 1`` exceed ``UNITARITY_ATOL`` (inf where
    the square overflows), so ``max`` returns that, a larger value or a NaN
    met before it."""
    columns = [
        (entries[c].real, entries[c].imag, entries[c + 4].real, entries[c + 4].imag,
         entries[c + 8].real, entries[c + 8].imag, entries[c + 12].real, entries[c + 12].imag)
        for c in range(4)
    ]
    deviations = []
    for a, (xr0, xi0, xr1, xi1, xr2, xi2, xr3, xi3) in enumerate(columns):
        deviations.append(abs(xr0 * xr0 + xi0 * xi0 + xr1 * xr1 + xi1 * xi1 + xr2 * xr2 + xi2 * xi2 + xr3 * xr3 + xi3 * xi3 - 1.0))
        for yr0, yi0, yr1, yi1, yr2, yi2, yr3, yi3 in columns[a + 1:]:
            deviations.append(math.hypot(
                xr0 * yr0 + xi0 * yi0 + xr1 * yr1 + xi1 * yi1 + xr2 * yr2 + xi2 * yi2 + xr3 * yr3 + xi3 * yi3,
                xr0 * yi0 - xi0 * yr0 + xr1 * yi1 - xi1 * yr1 + xr2 * yi2 - xi2 * yr2 + xr3 * yi3 - xi3 * yr3,
            ))
    return max(deviations)


def dilation_from_angles(ap: AngleParams) -> Dilation:
    """Construct the dilation of the Gaussian channel with angle form ``ap``."""
    ct, st = float(np.cos(ap.theta)), float(np.sin(ap.theta))
    cp, sp = float(np.cos(ap.phi)), float(np.sin(ap.phi))
    # basis order |s e>: 00, 01, 10, 11; column k is the image of basis ket k
    # (see the module docstring); Dilation makes the one complex array
    u = [[ct, 0.0, 0.0, -st], [0.0, cp, sp, 0.0], [0.0, -sp, cp, 0.0], [st, 0.0, 0.0, ct]]
    return Dilation(unitary=u, env_state=QubitState(p=ap.q))


def weakly_complementary(d: Dilation) -> QubitChannel:
    """Environment-output channel of a dilation, as a canonical-form channel."""
    return d._complement


@dataclass(frozen=True, eq=False)
class DegradabilityVerdict:
    """Outcome of the degradability search.

    ``residual`` and ``min_choi_eigenvalue`` describe the accepted witness;
    for a "neither certified" outcome they describe the better-residual
    attempt.  ``attempts`` keeps the diagnostics of both solve directions
    ("anti" is None when the weak direction already succeeded).
    """

    kind: str
    witness: Optional[QubitChannel]
    residual: float
    min_choi_eigenvalue: float
    attempts: dict

    def to_json(self) -> dict:
        def attempt_json(a):
            if a is None:
                return None
            return {
                "residual": a["residual"],
                "min_choi_eigenvalue": a["min_choi_eigenvalue"],
                "cptp": a["cptp"],
            }

        return {
            "kind": self.kind,
            "witness": None if self.witness is None else self.witness.to_json(),
            "residual": float(self.residual),
            "min_choi_eigenvalue": float(self.min_choi_eigenvalue),
            "attempts": {k: attempt_json(v) for k, v in self.attempts.items()},
        }


def _solve_degrading(source: QubitChannel, target: QubitChannel):
    """Least-squares D with ``D o source ~= target``; returns diagnostics.

    The solve is restricted to the transfer-matrix block form
    ``[[1, 0], [d, Delta]]``, which keeps trace preservation exact; the
    minimum-norm solution is used where ``source`` is singular.  Both
    transfer blocks are diagonal, so the ``lstsq`` solution is diagonal too
    (its off-diagonal entries come out as exact zeros) and D is the
    canonical channel ``(d, diag(Delta))``.  A subnormal entry of the source
    block is read as zero: ``lstsq``'s relative cutoff would keep it and
    overflow the solve.  The result is only trusted after residual and Choi
    re-verification by the caller.

    The residual ``max |D S - T|`` takes the product ``D S`` of the two
    transfer matrices from one GEMM and the rest on Python floats, with
    numpy's value: each entry of ``D S`` is finite, so ``max`` meets no NaN.
    For ``certify``'s channels (entries of modulus at most about 1) ``D`` has
    entries below ``(1 + 1e-9) / _TINY``, about 4.5e307, and no sum in the
    product exceeds twice that.
    """
    s1, s2, s3 = [x if abs(x) >= _TINY else x * 0.0 for x in source.lam.tolist()]
    target_t, target_lam = target.t.tolist(), target.lam.tolist()
    m1, m2, m3 = target_lam
    # The masked source block and the target block: diagonal, so each is its
    # own transpose; x * 0.0 keeps the sign of a masked entry, as the mask's
    # product did.
    blocks = np.array([s1, 0.0, 0.0, 0.0, s2, 0.0, 0.0, 0.0, s3, m1, 0.0, 0.0, 0.0, m2, 0.0, 0.0, 0.0, m3])
    delta_t, *_ = np.linalg.lstsq(blocks[:9].reshape(3, 3), blocks[9:].reshape(3, 3), rcond=None)
    moved = (delta_t.T @ source.ptm[1:, 0]).tolist()
    (d1, _, _), (_, d2, _), (_, _, d3) = delta_t.tolist()
    witness = QubitChannel.from_canonical([x - y for x, y in zip(target_t, moved)], [d1, d2, d3])
    product = (witness.ptm @ source.ptm).ravel().tolist()
    residual = max(map(abs, map(operator.sub, product, qubit._ptm_entries(target_t, target_lam))))
    report = is_cptp(witness)
    return {
        "witness": witness,
        "residual": residual,
        "min_choi_eigenvalue": report.min_choi_eigenvalue,
        "cptp": report.ok,
    }


def certify(
    n_ch: QubitChannel,
    dilation: Dilation,
    residual_tol: float = CERT_RESIDUAL_TOL,
    attempt_both: bool = False,
) -> DegradabilityVerdict:
    """Certify weak degradability or anti-degradability of ``n_ch`` against
    the weak complement ``N~ = weakly_complementary(dilation)``.

    Tries ``D o N = N~`` first, then ``D' o N~ = N``.  A direction is accepted
    only when the recomposition residual is within ``residual_tol`` and the
    witness passes the CPTP check; otherwise the result is
    ``neither_certified`` with both attempts reported.  ``attempt_both``
    forces the anti-degrading solve to run even when the weak direction
    already succeeded (useful at classification boundaries).  ``n_ch`` must
    be CPTP; the complement is not checked.  A Kraus map is completely
    positive for any operators, and reading it into ``(t, lam)`` drops at
    most 10 transfer-matrix entries (the first row's deviations and the
    off-diagonal block), each at most ``DIAG_ATOL``; as every ``sigma_k (x)
    sigma_l^T`` of ``choi_from_ptm`` has norm 1, the Choi matrix moves by at most ``10 *
    DIAG_ATOL / 2 = 5e-10``, so its smallest eigenvalue, less about 1e-13 of
    rounding, stays above ``CHOI_EIG_FLOOR``.  Trace preservation is exact
    for a canonical ``(t, lam)``, and ``tp_deviation`` stays below 2.8e-14
    (the bound in ``qubit._cptp_ok``; every entry is at most ``1 +
    KRAUS_TP_ATOL``).
    """
    if not is_cptp(n_ch).ok:
        raise NotCptpError("channel is not CPTP")
    comp = dilation._complement
    weak = _solve_degrading(n_ch, comp)
    weak_ok = weak["residual"] <= residual_tol and weak["cptp"]
    anti = _solve_degrading(comp, n_ch) if attempt_both or not weak_ok else None
    if weak_ok:
        kind, chosen = WEAKLY_DEGRADABLE, weak
    elif anti["residual"] <= residual_tol and anti["cptp"]:
        kind, chosen = ANTI_DEGRADABLE, anti
    else:
        kind, chosen = NEITHER_CERTIFIED, weak if weak["residual"] <= anti["residual"] else anti
    return DegradabilityVerdict(
        kind=kind,
        witness=None if kind == NEITHER_CERTIFIED else chosen["witness"],
        residual=chosen["residual"],
        min_choi_eigenvalue=chosen["min_choi_eigenvalue"],
        attempts={"weak": weak, "anti": anti},
    )


@dataclass(frozen=True)
class Prediction:
    """Verdict kind predicted from the sign of ``cos(2 theta)/cos(2 phi)``.

    ``boundary`` flags the pole ``cos(2 phi) = 0``, where the sign test is
    ill-defined and only numeric certification is meaningful.
    """

    kind: str
    ratio: float
    boundary: bool


def classify_by_angles(ap: AngleParams) -> Prediction:
    """Predict the verdict kind for the Gaussian channel with angle form ``ap``."""
    num = float(np.cos(2 * ap.theta))
    den = float(np.cos(2 * ap.phi))
    boundary = abs(den) <= BOUNDARY_ATOL
    ratio = float("inf") if boundary else num / den
    if boundary or ratio >= 0:
        kind = WEAKLY_DEGRADABLE
    elif ap.q <= BOUNDARY_ATOL or ap.q >= 1 - BOUNDARY_ATOL:
        kind = ANTI_DEGRADABLE
    else:
        kind = NULL_CAPACITY_CLAIMED
    return Prediction(kind=kind, ratio=ratio, boundary=boundary)
