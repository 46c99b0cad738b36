"""Green-function representation of canonical qubit channels.

A channel with canonical parameters ``(t, lam)`` acts on characteristic
functions by the Berezin convolution

    chi_out(xi) = integrate_pair( chi(zeta) * G(zeta, xi) )

where the kernel combines a Grassmann delta, a terminating exponential and
two additive correction terms::

    G = delta_pair(zeta - a xi - b xi*) * (1 + (t3/2) xi xi*)
        + (lam3 - lam1 lam2) xi xi*
        + ((t1 - i t2)/2) zeta zeta* xi
        - ((t1 + i t2)/2) zeta zeta* xi*

with ``a = (lam1 + lam2)/2`` and ``b = (lam2 - lam1)/2``.  The additive
combination is the one fixed by the oracle-equivalence suite: the same
kernel also falls out of the trace construction
``trace(N(sigma3 D(-zeta)) D(xi))`` implemented by
:func:`green_from_channel_trace`, and the convolution path agrees with the
dense Bloch map on random channels and states.

The convolution is one product pass over the 16 of its 81 terms that can
count, with the relabelling ``chi(xi) -> chi(zeta)`` and the pair integral
folded into the pass's index table (``_convolution_table``).  A stack of
kernels and characteristic functions runs that table as one array pass; one
chi runs the same terms on Python floats with the same bits, except those
whose product is a signed zero for a finite kernel and chi (an exact-zero
kernel coefficient, the +-0 imaginary part of a real one), which never
changes a sum taken from +0.0.

A kernel is Gaussian when it matches ``delta_pair(zeta - a xi - b xi*)
* (1 + c xi xi*)`` exactly; for canonical provenance this happens iff
``t1 = t2 = 0`` and ``lam3 = lam1 lam2``.  Gaussian kernels admit the angle
form ``a = cos(theta)cos(phi)``, ``b = -sin(theta)sin(phi)``,
``c = (2q - 1)(cos 2theta - cos 2phi)/4`` realized by a qubit-qubit
dilation with environment ``diag(q, 1-q)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .charfunc import CharFunction, displacement
from .grassmann import (
    MONOMIAL_NAMES,
    _PRODUCT,
    _ZETA_PAIR,
    GrassmannElement,
    OperatorElement,
    _PairTable,
    _adjoint_coeffs,
    _element,
    _products,
)
from .qubit import PAULI, NotCptpError, QubitChannel, _fitted, is_cptp
from .tolerances import ANGLE_ATOL, ANGLE_RATIO_ATOL, ENV_ATOL, GAUSSIAN_ATOL

__all__ = [
    "GreenFunction",
    "GaussianParams",
    "AngleParams",
    "GaussianEquivalent",
    "NoSolutionError",
    "green_from_canonical",
    "green_from_channel",
    "green_from_channel_trace",
    "apply_green",
    "detect_gaussian",
    "angles_from_gaussian",
    "channel_from_angles",
    "gaussian_equivalent",
]


#: The largest angle ``AngleParams`` takes: ``2 theta`` and ``theta +- phi`` stay finite.
_ANGLE_MAX = np.finfo(float).max / 4


class NoSolutionError(ValueError):
    """No (theta, phi, q) reproduces the requested Gaussian parameters."""


@dataclass(frozen=True, eq=False)
class GreenFunction:
    """Symbolic channel kernel plus, when known, its source parameters."""

    body: GrassmannElement
    provenance: Optional[tuple] = None

    def __post_init__(self):
        # A convolution skips the kernel's products with the exact zeros of
        # chi, which is exact only for a finite kernel (0 * inf is NaN).
        finite = np.isfinite(self.body.coefficients)
        if not finite.all():
            m = np.flatnonzero(~finite)[0]
            raise ValueError(
                f"kernel coefficient of {MONOMIAL_NAMES[m]} is not finite: "
                f"{complex(self.body.coefficients[m])}"
            )

    @cached_property
    def _convolution_operand(self) -> tuple:
        """``_CONVOLUTION`` with this kernel read in, for :func:`apply_green`.

        One ``(target, terms)`` entry per target that keeps a term, in mask
        order; ``terms`` are its table terms in table order, each ``(chi
        index, re, im)``: the kernel coefficient times the term's sign (an
        exact negation), with ``im`` None where the coefficient is real.
        Terms whose kernel coefficient is an exact zero are dropped.  The
        body is read-only, so the operand never goes stale.
        """
        chi_index, kernel_index, sign, target = (a.tolist() for a in _CONVOLUTION.pairs)
        kernel = self.body.coefficients.tolist()
        terms = {}
        for i, j, s, t in zip(chi_index, kernel_index, sign, target):
            k = kernel[j]
            if k:
                terms.setdefault(t, []).append((i, s * k.real, s * k.imag if k.imag else None))
        return tuple((t, tuple(terms[t])) for t in sorted(terms))

    def pretty(self) -> str:
        return self.body.pretty()

    def to_table(self) -> dict:
        return self.body.to_table()


@dataclass(frozen=True)
class GaussianParams:
    """Parameters of a Gaussian kernel ``delta(zeta - a xi - b xi*) (1 + c xi xi*)``."""

    a: complex
    b: complex
    c: float


@dataclass(frozen=True)
class AngleParams:
    """Angle form of a Gaussian channel with environment weight ``q``, as
    floats: ``|theta|, |phi| <= _ANGLE_MAX`` and ``q`` in [0, 1] (to
    ``ENV_ATOL``), or a ``ValueError`` naming the field."""

    theta: float
    phi: float
    q: float

    def __post_init__(self):
        for name in ("theta", "phi", "q"):
            object.__setattr__(self, name, _fitted(float, getattr(self, name), name))
        for name in ("theta", "phi"):
            angle = getattr(self, name)
            if not abs(angle) <= _ANGLE_MAX:
                raise ValueError(f"{name}={angle} is not an angle in [-{_ANGLE_MAX:.3e}, {_ANGLE_MAX:.3e}]")
        if not -ENV_ATOL <= self.q <= 1 + ENV_ATOL:
            raise ValueError(f"q={self.q} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class GaussianEquivalent:
    """An axis relabelling (lambda permutation) that lands on a Gaussian channel.

    ``signs`` is a class constant: no lambda sign flip is ever applied.
    """

    perm: tuple
    channel: QubitChannel
    signs = (1, 1, 1)


# Monomial masks of the kernel's coefficients.
_ZETA = 0b0001
_XI = 0b0100
_XI_STAR = 0b1000
_XI_XI_STAR = 0b1100
_ZETA_ZETA_STAR_XI = 0b0111
_ZETA_ZETA_STAR_XI_STAR = 0b1011


def _convolution_table() -> _PairTable:
    """The terms of ``integrate_pair(relabel(chi) * kernel)`` that can count.

    Of the product's 81 pairs ``(i, j)`` only those with ``i`` in the zeta
    pair (``i`` in {1, zeta, zeta*, zeta zeta*}: ``chi`` lives on the xi
    subalgebra, so every other coefficient of ``relabel(chi)`` is zero) and
    with ``i | j`` holding both zeta and zeta* (the pair integral discards
    every other target) are kept: 16 of 81, in the product's order and with
    its signs.  The relabelling xi -> zeta, xi* -> zeta* keeps the relative
    order, so it is the signless shift ``i << 2`` into ``chi``'s own masks;
    the zeta pair leads every kept target, so the integral strips it with
    sign +1.  The 65 dropped terms are a finite kernel coefficient times an
    exact zero, or land on a discarded target; a +-0 term never changes a sum
    taken from +0.0, so the kept terms give the same bits.
    """
    i, j, sign, target = _PRODUCT.pairs
    keep = ((i & ~_ZETA_PAIR) == 0) & ((target & _ZETA_PAIR) == _ZETA_PAIR)
    return _PairTable(i[keep] << 2, j[keep], sign[keep], target[keep] & ~_ZETA_PAIR)


_CONVOLUTION = _convolution_table()


def green_from_canonical(t, lam) -> GreenFunction:
    """Kernel of the CPTP canonical channel ``(t, lam)``."""
    return green_from_channel(QubitChannel.from_canonical(t, lam))


def green_from_channel(ch: QubitChannel) -> GreenFunction:
    """Kernel of a CPTP channel; uses the channel's cached CPTP report."""
    report = is_cptp(ch)
    if not report.ok:
        raise NotCptpError(
            f"canonical parameters are not CPTP (min Choi eigenvalue "
            f"{report.min_choi_eigenvalue:.3e})"
        )
    body = _kernel_bodies(ch.t[None], ch.lam[None])[0]
    return GreenFunction(body=_element(body), provenance=(ch.t, ch.lam))


def _kernel_bodies(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Kernel bodies of the canonical rows ``(t[s], lam[s])``, as ``(n, 16)`` rows.

    The module docstring's kernel, assembled coefficient by coefficient: the
    delta argument ``zeta - a xi - b xi*`` and the factor ``1 + (t3/2) xi xi*``
    are set directly, and the three additive terms land on their monomials
    (``xi xi*``, ``zeta zeta* xi``, ``zeta zeta* xi*``, each with coefficient
    +1 in the product basis).  Rows do not depend on each other.
    """
    t1, t2, t3 = t.T
    lam1, lam2, lam3 = lam.T
    arg = np.zeros((len(t), 16), dtype=complex)
    arg[:, _ZETA] = 1.0
    arg[:, _XI] = -(lam1 + lam2) / 2
    arg[:, _XI_STAR] = -(lam2 - lam1) / 2
    delta = _products(arg, _adjoint_coeffs(arg))
    factor = np.zeros_like(arg)
    factor[:, 0] = 1.0
    factor[:, _XI_XI_STAR] = t3 / 2
    body = _products(delta, factor)
    body[:, _XI_XI_STAR] += lam3 - lam1 * lam2
    body[:, _ZETA_ZETA_STAR_XI] += (t1 - 1j * t2) / 2
    body[:, _ZETA_ZETA_STAR_XI_STAR] -= (t1 + 1j * t2) / 2
    return body


def green_from_channel_trace(ch: QubitChannel) -> GreenFunction:
    """Kernel from its trace definition ``trace(N(sigma3 D(-zeta)) D(xi))``.

    Independent of :func:`green_from_canonical`'s closed-form assembly; used
    to cross-check the additive combination of the kernel.
    """
    x = OperatorElement.from_matrix(PAULI[3]) * displacement(sign=-1, pair="zeta")
    mapped = {}
    for mask in range(16):
        m = x.monomial_matrix(mask)
        if not m.any():
            continue
        coeffs = np.array([np.trace(PAULI[k] @ m) / 2 for k in range(4)])
        out_coeffs = ch.ptm @ coeffs
        mapped[mask] = sum(out_coeffs[k] * PAULI[k] for k in range(4))
    transformed = OperatorElement.from_monomial_matrices(mapped)
    body = (transformed * displacement(sign=1, pair="xi")).trace()
    return GreenFunction(body=body, provenance=(ch.t, ch.lam))


def _apply_kernels(kernels: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """Berezin convolutions of ``(n, 16)`` kernel rows with characteristic-function
    rows, as one pass of the convolution's 16-pair table; row ``s`` has the
    bits of ``_apply_operand`` (and so of ``apply_green``) and is not validated."""
    return _products(chis, kernels, _CONVOLUTION)


def _apply_operand(operand: tuple, chi: np.ndarray) -> np.ndarray:
    """The Berezin convolution of one kernel, as its ``_convolution_operand``,
    with one finite characteristic-function row ``chi``; not validated.

    Each target is summed from +0.0 in table order, and each term is
    ``ar*br - ai*bi`` and ``ar*bi + ai*br`` as separate float operations on
    the signed coefficient, so every operation rounds once, as in the array
    pass, and the row has the bits of ``_apply_kernels``: rounding is
    symmetric and ``x + (-y)`` is ``x - y``, and a zero term leaves the sum,
    never -0.0, as it is.  Python's complex ``*`` is not used: a build may
    compile that one C function with fused multiply-adds.
    """
    c = chi.tolist()
    out = np.zeros(16, dtype=complex)
    for target, terms in operand:
        re = im = 0.0
        for i, br, bi in terms:
            a = c[i]
            ar, ai = a.real, a.imag
            if bi is None:
                re += ar * br
                im += ai * br
            else:
                re += ar * br - ai * bi
                im += ar * bi + ai * br
        out[target] = complex(re, im)
    return out


def apply_green(green: GreenFunction, chi: CharFunction) -> CharFunction:
    """Berezin convolution of a kernel with an input characteristic function."""
    return CharFunction(_element(_apply_operand(green._convolution_operand, chi.body.coefficients)))


_GAUSSIAN_ZERO_MONOMIALS = (
    "1", "ζ", "ζ*", "ξ", "ξ*", "ζζ*ξ", "ζζ*ξ*", "ζξξ*", "ζ*ξξ*",
)


def detect_gaussian(green: GreenFunction) -> Optional[GaussianParams]:
    """Match the kernel against the Gaussian pattern; None when it fails.

    Each coefficient is held to ``GAUSSIAN_ATOL``: on a canonical kernel that
    bounds ``|t1 - i t2| / 2`` (so ``|t1|`` up to ``2 GAUSSIAN_ATOL`` passes)
    and ``|lam3 - lam1 lam2|`` up to the rounding of the ``xi xi*`` term.
    ``analyze`` decides in canonical terms, by :func:`gaussian_equivalent`.
    """
    body = green.body
    if not abs(body.coefficient("ζζ*") - 1) <= GAUSSIAN_ATOL:
        return None
    a = body.coefficient("ζ*ξ")
    b = body.coefficient("ζ*ξ*")
    c = body.coefficient("ζζ*ξξ*")
    if not abs(c.imag) <= GAUSSIAN_ATOL:
        return None
    checks = (
        abs(body.coefficient("ζξ") + np.conj(b)),
        abs(body.coefficient("ζξ*") + np.conj(a)),
        abs(body.coefficient("ξξ*") - (abs(a) ** 2 - abs(b) ** 2)),
    )
    checks += tuple(abs(body.coefficient(name)) for name in _GAUSSIAN_ZERO_MONOMIALS)
    if not all(x <= GAUSSIAN_ATOL for x in checks):
        return None
    return GaussianParams(a=a, b=b, c=float(c.real))


def _gaussian_params(ch: QubitChannel) -> GaussianParams:
    """``a = (lam1 + lam2)/2``, ``b = (lam2 - lam1)/2``, ``c = t3/2`` of a Gaussian frame.

    These are the bits :func:`detect_gaussian` reads off the frame's kernel,
    which sums each coefficient from +0.0 (so ``+ 0.0``: a -0.0 reads as +0.0).
    """
    lam1, lam2, _ = ch.lam.tolist()
    t3 = ch.t.tolist()[2]
    return GaussianParams(complex((lam1 + lam2) / 2 + 0.0), complex((lam2 - lam1) / 2 + 0.0), t3 / 2 + 0.0)


def _candidate_angles(u: float, v: float) -> list:
    """Raw (theta, phi) branch candidates from theta-phi = ±u, theta+phi = ±v.

    Each candidate is normalized by the joint symmetries
    ``(theta, phi) -> (-theta, -phi)`` and ``-> (theta + pi, phi + pi)`` so
    that ``theta`` lands in [0, pi/2]; phi then lies in (-pi, pi].  The
    arithmetic is on Python floats: ``%`` has the bits of ``np.mod``.
    """
    seen = set()
    out = []
    for s_u, s_v in itertools.product((1, -1), repeat=2):
        theta = (s_v * v + s_u * u) / 2
        phi = (s_v * v - s_u * u) / 2
        if theta < 0:
            theta, phi = -theta, -phi
        if theta > np.pi / 2:
            theta, phi = np.pi - theta, np.pi - phi
        phi = (phi + np.pi) % (2 * np.pi) - np.pi
        if phi == -np.pi:
            phi = np.pi
        key = (round(theta, 12), round(phi, 12))
        if key not in seen:
            seen.add(key)
            out.append((theta, phi))
    return out


def angles_from_gaussian(gp: GaussianParams) -> AngleParams:
    """Solve ``cos(theta)cos(phi) = a``, ``sin(theta)sin(phi) = -b`` and the
    exponent relation for ``q``.

    Branch policy: theta is normalized into [0, pi/2]; among consistent
    candidates the smallest theta wins, ties broken toward q = 1.  When
    ``cos 2theta = cos 2phi`` the exponent constrains nothing, ``c`` must
    vanish and q defaults to 1.

    Clipping is ``min(max(x, lo), hi)`` on Python floats, with the bits of
    ``np.clip``; the cosines stay numpy calls, whose bits ``math`` does not
    always share.
    """
    a, b, c = complex(gp.a), complex(gp.b), float(gp.c)
    if not (abs(a.imag) <= ANGLE_ATOL and abs(b.imag) <= ANGLE_ATOL):
        raise NoSolutionError("a and b must be real for the angle parametrization")
    if not (abs(a) <= 1 + ANGLE_ATOL and abs(b) <= 1 + ANGLE_ATOL):
        raise NoSolutionError(f"|a|={abs(a):.6g} or |b|={abs(b):.6g} exceeds 1")
    lam1 = a.real - b.real
    lam2 = a.real + b.real
    if not (abs(lam1) <= 1 + ANGLE_ATOL and abs(lam2) <= 1 + ANGLE_ATOL):
        raise NoSolutionError("difference/sum of a and b exceed the cosine range")
    u = float(np.arccos(min(max(lam1, -1.0), 1.0)))
    v = float(np.arccos(min(max(lam2, -1.0), 1.0)))
    valid = []
    for theta, phi in _candidate_angles(u, v):
        denom = (float(np.cos(2 * theta)) - float(np.cos(2 * phi))) / 4
        if abs(denom) <= ANGLE_ATOL:
            if not abs(c) <= ANGLE_ATOL:
                continue
            q = 1.0
        else:
            ratio = c / denom
            if not -1 - ANGLE_RATIO_ATOL <= ratio <= 1 + ANGLE_RATIO_ATOL:
                continue
            q = min(max((1 + ratio) / 2, 0.0), 1.0)
        valid.append(AngleParams(theta=theta, phi=phi, q=q))
    if not valid:
        raise NoSolutionError(
            f"no (theta, phi, q) reproduces a={a.real:.6g}, b={b.real:.6g}, c={c:.6g}"
        )
    valid.sort(key=lambda ap: (round(ap.theta, 12), round(abs(ap.q - 1), 12), round(abs(ap.phi), 12), -ap.phi))
    return valid[0]


def channel_from_angles(ap: AngleParams) -> QubitChannel:
    """Canonical channel of the angle-parametrized Gaussian family."""
    lam1 = float(np.cos(ap.theta - ap.phi))
    lam2 = float(np.cos(ap.theta + ap.phi))
    lam3 = lam1 * lam2
    t3 = (2 * ap.q - 1) * (np.cos(2 * ap.theta) - np.cos(2 * ap.phi)) / 2
    return QubitChannel.from_canonical([0.0, 0.0, float(t3)], [lam1, lam2, lam3])


# The even permutations, identity first.  This order makes an already-Gaussian
# channel report the identity permutation and sends the phase-flip pattern
# (m, m, 1) to the bit-flip pattern (1, m, m).  No odd permutation can be the
# first match: swapping the first two axes of a match keeps |t1|, |t2| and
# lam1 lam2 exactly (IEEE products commute), and that swap turns every odd
# permutation into an even one.
_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
#: ``(perm, inverse)``: the relabelled axis ``k`` is the original axis ``inverse[k]``.
_RELABELLINGS = tuple((perm, tuple(perm.index(i) for i in range(3))) for perm in _PERMUTATIONS)


def gaussian_equivalent(ch: QubitChannel) -> Optional[GaussianEquivalent]:
    """Search the axis relabellings for a Gaussian form.

    A relabelling permutes ``lam`` and ``t`` together; the result is Gaussian
    when ``|t1|``, ``|t2|`` and ``|lam3 - lam1 lam2|`` are within
    ``GAUSSIAN_ATOL``.  Returns the first hit in the fixed order of
    ``_PERMUTATIONS`` (the three even permutations; an odd one never matches
    first), or None.  The residuals are Python float arithmetic, with the
    bits of the same operations on numpy scalars.
    """
    t, lam = ch.t.tolist(), ch.lam.tolist()
    for perm, inv in _RELABELLINGS:
        new_t, new_lam = [t[k] for k in inv], [lam[k] for k in inv]
        residuals = (new_t[0], new_t[1], new_lam[2] - new_lam[0] * new_lam[1])
        if all(abs(r) <= GAUSSIAN_ATOL for r in residuals):
            channel = QubitChannel.from_canonical([0.0, 0.0, new_t[2]], new_lam)
            return GaussianEquivalent(perm=perm, channel=channel)
    return None
