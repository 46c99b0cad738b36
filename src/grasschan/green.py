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

Each kernel is written straight from this closed form on Python floats
(``_kernel_body``): ``green_from_channel`` builds one, and ``verify`` one per
trial.  Its bits are those of the formula evaluated in the element algebra
(``delta_pair``, ``multiply`` and element sums), to which the tests hold it.

The convolution is one product pass over the 16 of its 81 terms that can
count, with the relabelling ``chi(xi) -> chi(zeta)`` and the pair integral
folded into the pass's index table (``_convolution_table``).  A stack of
kernels and characteristic functions runs that table as one array pass
(``_apply_kernels``).  On the four coefficients of one chi the table is a 4x4
map.  A kernel of the canonical form above, as every kernel
``_kernel_body`` writes, has 7 of its 16 entries zero and 7 more real, and
``apply_green`` runs it as its closed form: four straight-line sums on
Python floats, the Bloch map ``r -> t + lam r`` written in Grassmann
variables.  They have the bits of the array pass: the terms they leave out
are those whose product is a signed zero for a finite kernel and chi (a
structural zero of the kernel, the +-0 imaginary part of a real
coefficient), which never changes a sum taken from +0.0.  Any other kernel
(only hand-built bodies have one) runs its row through the array pass.
Either way the result is the four target sums, made a ``CharFunction``
without a 16-slot body.

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

from .charfunc import _XI_SUBALGEBRA, CharFunction, _char, displacement
from .grassmann import (
    MONOMIAL_NAMES,
    _PRODUCT,
    _ZETA_PAIR,
    GrassmannElement,
    OperatorElement,
    _PairTable,
    _element,
    _products,
)
from .qubit import PAULI, NotCptpError, QubitChannel, _fitted, is_cptp
from .tolerances import ANGLE_ATOL, ANGLE_RATIO_ATOL, ANGLE_TIE_DIGITS, ENV_ATOL, GAUSSIAN_ATOL

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
    "compose_gaussian",
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
    def _closed_form(self) -> Optional[tuple]:
        """The 11 floats :func:`apply_green` reads of a kernel with the
        canonical pattern, or None for any other kernel.

        The pattern: the coefficients of 1, zeta, zeta*, xi, xi*, zeta xi xi*
        and zeta* xi xi* are zero, and those of zeta zeta*, zeta xi, zeta* xi,
        zeta xi*, zeta* xi*, xi xi* and zeta zeta* xi xi* are real (a zero of
        either sign counts, in either part).  Every kernel ``_kernel_body``
        writes has it.  The floats are read in the order of the four target
        sums: zeta zeta*; zeta zeta* xi (both parts), zeta* xi, zeta xi; zeta
        zeta* xi* (both parts), zeta* xi*, zeta xi*; zeta zeta* xi xi*, xi xi*.
        The body is read-only, so the cache never goes stale.
        """
        one, z, zs, zz, x, zx, sx, zzx, xs, zxs, sxs, zzxs, pair, zxx, sxx, full = self.body.coefficients.tolist()
        if any((one, z, zs, x, xs, zxx, sxx)) or any(k.imag for k in (zz, zx, sx, zxs, sxs, pair, full)):
            return None
        return (
            zz.real,
            zzx.real, zzx.imag, sx.real, zx.real,
            zzxs.real, zzxs.imag, sxs.real, zxs.real,
            full.real, pair.real,
        )

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
    body = _kernel_body(ch.t.tolist(), ch.lam.tolist())
    return GreenFunction(body=_element(body), provenance=(ch.t, ch.lam))


def _kernel_body(t: list, lam: list) -> np.ndarray:
    """The kernel body of one finite canonical ``(t, lam)``, written from its
    closed form on Python floats with the bits of the module docstring's
    formula evaluated in the element algebra: ``delta_pair`` (the argument
    times its adjoint), ``multiply`` by the factor, and the three additive
    terms added as elements.

    With ``a = -(lam1 + lam2)/2`` and ``b = -(lam2 - lam1)/2`` the delta
    argument's xi and xi* coefficients, and ``a' = a + 0.0``, ``b' = b +
    0.0`` the adjoint's (its sign-multiply and ``+ 0.0`` turn a -0.0 into
    +0.0), ``delta_pair`` has zeta zeta* 1, zeta xi ``b'``, zeta xi* ``a'``,
    zeta* xi ``-a``, zeta* xi* ``-b`` and xi xi* ``a a' - b b'``; the factor
    adds zeta zeta* xi xi* ``t3/2``.  Each product sums a target from
    +0.0 in table order, and its other terms are signed zeros, so each
    coefficient is its one term with a -0.0 made +0.0 (``0.0 - a``, ``t3/2
    + 0.0``), and xi xi* is ``(0.0 + a a') - b b'``, with ``lam3 - lam1
    lam2`` added after it.  The formula forms ``(t1 -+ i t2)/2`` in
    complex arithmetic (the quotient's parts are ``(x + y*0.0) * 0.5`` and
    ``(y - x*0.0) * 0.5``) and adds it to an exact +0.0 coefficient, which
    leaves ``t1/2`` and ``-+t2/2`` with a -0.0 made +0.0.  Every imaginary
    part not written here is +0.0.
    """
    t1, t2, t3 = t
    lam1, lam2, lam3 = lam
    a = -(lam1 + lam2) / 2
    b = -(lam2 - lam1) / 2
    a_adj, b_adj = a + 0.0, b + 0.0
    h1, h2 = t1 / 2, t2 / 2
    return np.array(
        [
            0j, 0j, 0j, 1 + 0j,                                  # 1, ζ, ζ*, ζζ*
            0j, b_adj, 0.0 - a, complex(h1 + 0.0, 0.0 - h2),     # ξ, ζξ, ζ*ξ, ζζ*ξ
            0j, a_adj, 0.0 - b, complex(0.0 - h1, 0.0 - h2),     # ξ*, ζξ*, ζ*ξ*, ζζ*ξ*
            (0.0 + a * a_adj) - b * b_adj + (lam3 - lam1 * lam2),  # ξξ*
            0j, 0j, t3 / 2 + 0.0,                                # ζξξ*, ζ*ξξ*, ζζ*ξξ*
        ],
        dtype=complex,
    )


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
    rows, as one pass of the convolution's 16-pair table; columns 0, 4, 8 and
    12 of row ``s`` are ``apply_green``'s four coefficients, not validated."""
    return _products(chis, kernels, _CONVOLUTION)


def apply_green(green: GreenFunction, chi: CharFunction) -> CharFunction:
    """Berezin convolution of a kernel with an input characteristic function.

    For a kernel with the canonical pattern (``GreenFunction._closed_form``)
    the convolution of ``chi = c0 + c1 xi + c2 xi* + c3 xi xi*`` is, with
    ``k(m)`` the kernel's coefficient of ``m``::

        1:      c0 k(zeta zeta*)
        xi:     c0 k(zeta zeta* xi)  + c1 k(zeta* xi)  - c2 k(zeta xi)
        xi*:    c0 k(zeta zeta* xi*) + c1 k(zeta* xi*) - c2 k(zeta xi*)
        xi xi*: c0 k(zeta zeta* xi xi*) + c3 k(xi xi*)

    the table's terms without those whose kernel coefficient is a
    structural zero.  Each sum starts from +0.0 and adds its terms in table
    order, on Python floats.  A complex coefficient's term is ``ar*br -
    ai*bi`` and ``ar*bi + ai*br`` as separate float operations, a real one's
    ``ar*br`` and ``ai*br``: each operation rounds once, as in the array pass
    ``_apply_kernels``, and rounding is symmetric, so ``x - y`` is ``x +
    (-y)``.  What is left out (the structural zeros' terms and the products
    with a real coefficient's +-0 imaginary part) is a signed zero for a
    finite kernel and chi, which never changes a sum taken from +0.0.  So the
    four coefficients have the bits of columns 0, 4, 8 and 12 of the array
    pass.  Python's complex ``*`` is not used: a build may compile that one C
    function with fused multiply-adds.

    Any other kernel runs its row through ``_apply_kernels``, where overflow
    gives inf or NaN without a warning, as on Python floats; either way
    ``_char`` then names the first coefficient that is not finite.
    """
    k = green._closed_form
    if k is None:
        with np.errstate(over="ignore", invalid="ignore"):
            row = _apply_kernels(green.body.coefficients[None], chi.body.coefficients[None])[0]
        return _char(*row[_XI_SUBALGEBRA].tolist())
    zz, zzx_r, zzx_i, sx, zx, zzxs_r, zzxs_i, sxs, zxs, full, pair = k
    c0, c1, c2, c3 = chi.coefficients
    a0, b0, a1, b1, a2, b2 = c0.real, c0.imag, c1.real, c1.imag, c2.real, c2.imag
    return _char(
        complex(0.0 + a0 * zz, 0.0 + b0 * zz),
        complex(
            0.0 + (a0 * zzx_r - b0 * zzx_i) + a1 * sx - a2 * zx,
            0.0 + (a0 * zzx_i + b0 * zzx_r) + b1 * sx - b2 * zx,
        ),
        complex(
            0.0 + (a0 * zzxs_r - b0 * zzxs_i) + a1 * sxs - a2 * zxs,
            0.0 + (a0 * zzxs_i + b0 * zzxs_r) + b1 * sxs - b2 * zxs,
        ),
        complex(0.0 + a0 * full + c3.real * pair, 0.0 + b0 * full + c3.imag * pair),
    )


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


def compose_gaussian(second: GaussianParams, first: GaussianParams) -> GaussianParams:
    """The Gaussian kernel of ``second`` after ``first``, by the qubit semigroup law

        a = a2 a1 + b2 b1,   b = a2 b1 + b2 a1,   c = (a2^2 - b2^2) c1 + c2,

    the analogue of the bosonic ``(X, Y) -> (X2 X1, X2 Y1 X2^T + Y2)``
    (Holevo and Werner, PRA 63, 032312, 2001).  It holds for the real ``a``
    and ``b`` of canonical channels (``detect_gaussian`` returns them as
    complex numbers with a zero imaginary part), so ``c`` takes the real part
    of ``a2^2 - b2^2``.
    """
    a1, b1, c1 = first.a, first.b, first.c
    a2, b2, c2 = second.a, second.b, second.c
    return GaussianParams(a=a2 * a1 + b2 * b1, b=a2 * b1 + b2 * a1, c=(a2**2 - b2**2).real * c1 + c2)


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
        key = (round(theta, ANGLE_TIE_DIGITS), round(phi, ANGLE_TIE_DIGITS))
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
    digits = ANGLE_TIE_DIGITS
    valid.sort(key=lambda ap: (round(ap.theta, digits), round(abs(ap.q - 1), digits), round(abs(ap.phi), digits), -ap.phi))
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
