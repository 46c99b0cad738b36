"""Characteristic-function layer: displacement operators, chi from rho, rho from chi.

The displacement operator is the exactly truncated exponential of
``sigma_+ g - g* sigma_-`` over a chosen generator pair (the series stops at
second order by nilpotency).  With the calibrated operator convention its
matrix over the xi pair is::

    [[1 + xi xi*/2,  -xi*      ],
     [xi,            1 - xi xi*/2]]

and the characteristic function of ``rho = [[p, gamma], [gamma*, 1-p]]`` is

    chi(xi) = 1 + (2p - 1) xi xi*/2 + gamma xi - gamma* xi*.

This closed form is the calibration invariant that pins every sign
convention in the algebra; the test suite rejects any convention change that
breaks it.

For a Hermitian source state the adjoint of the body equals the body with
both generators negated (even part fixed, odd part sign-flipped), the
Grassmann analogue of ``chi(xi)* = chi(-xi)``.

The array pass ``_char_bodies`` is that trace, contracted with the cached
displacement entries; one state's ``char_function`` is the closed form on
Python floats, spelled to have the same bits.  ``verify``'s calibration suite
holds the trace to the closed form, so the array pass stays the trace.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .grassmann import (
    MONOMIAL_NAMES,
    Generator,
    GrassmannElement,
    OperatorElement,
    _element,
)
from .qubit import SIGMA_MINUS, SIGMA_PLUS, QubitState, _check_states, _modulus, _square
from .tolerances import NORMALIZATION_ATOL, PHYSICALITY_ATOL

__all__ = [
    "CharFunction",
    "NotNormalizedError",
    "NotPhysicalError",
    "displacement",
    "char_function",
    "state_from_char",
]

_PAIRS = {
    "xi": (Generator.XI, Generator.XI_STAR),
    "zeta": (Generator.ZETA, Generator.ZETA_STAR),
}

_XI_MASK = (1 << Generator.XI) | (1 << Generator.XI_STAR)
_XI, _XI_STAR, _XI_XI_STAR = (MONOMIAL_NAMES.index(name) for name in ("ξ", "ξ*", "ξξ*"))

_MASKS = np.arange(16)
# Monomials that hold zeta or zeta*.
_OFF_XI_MASKS = _MASKS[(_MASKS & ~_XI_MASK) != 0]
# The off-xi coefficients of a ``tolist()`` row, as a tuple.
_off_xi = operator.itemgetter(*_OFF_XI_MASKS.tolist())
_XI_MONOMIALS = (_XI, _XI_STAR, _XI_XI_STAR)


class NotNormalizedError(ValueError):
    """Constant coefficient of a characteristic function differs from 1."""


class NotPhysicalError(ValueError):
    """A coefficient is not finite, or the recovered (p, gamma) violates state positivity."""


@dataclass(frozen=True)
class CharFunction:
    """Characteristic function supported on the xi subalgebra, constant term 1,
    with finite coefficients."""

    body: GrassmannElement

    def __post_init__(self):
        c = self.body.coefficients.tolist()
        if any(_off_xi(c)):
            raise ValueError("characteristic function must live on the xi subalgebra")
        if not _modulus(c[0] - 1) <= NORMALIZATION_ATOL:
            raise NotNormalizedError(f"constant coefficient {c[0]} differs from 1")
        for m in _XI_MONOMIALS:
            if not cmath.isfinite(c[m]):
                raise NotPhysicalError(
                    f"characteristic function coefficient of {MONOMIAL_NAMES[m]} is not finite: {c[m]}"
                )


@functools.lru_cache(maxsize=None)
def displacement(sign: int = 1, pair: str = "xi") -> OperatorElement:
    """Displacement operator ``exp(sigma_+ g - g* sigma_-)`` for ``g = sign * pair``.

    ``pair`` selects the generator pair ("xi" or "zeta"); ``sign=-1`` displaces
    along the negated generators.  Values are immutable, so the four variants
    are computed once and shared.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    try:
        g, g_star = _PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown generator pair {pair!r}") from None
    g_el = sign * GrassmannElement.generator(g)
    g_star_el = sign * GrassmannElement.generator(g_star)
    exponent = OperatorElement.from_matrix(SIGMA_PLUS) * g_el - OperatorElement.from_matrix(
        SIGMA_MINUS
    ) * g_star_el
    result = OperatorElement.identity()
    term = OperatorElement.identity()
    k = 1
    while True:
        term = term * exponent * (1.0 / k)
        if all(term.entry(i, j).is_zero() for i in range(2) for j in range(2)):
            break
        result = result + term
        k += 1
    return result


#: ``displacement()`` read for ``_char_bodies``: row ``2i + j`` holds ``D[j, i]``.
_TRACE_OPERAND = displacement()._a.transpose(1, 0, 2).reshape(4, 16)


def _char_bodies(rho: np.ndarray) -> np.ndarray:
    """Bodies ``trace(rho D(xi))`` of density matrices, as ``(n, 16)`` rows.

    ``rho`` holds ``(n, 2, 2)`` matrices or ``(n, 4)`` rows of their entries
    ``[rho00, rho01, rho10, rho11]``.  It is an ordinary matrix, so the trace
    is the contraction ``sum_ij rho[i, j] D[j, i]`` of scalars with the cached
    ``displacement()`` entries (``_TRACE_OPERAND``), summed in trace order
    ``(rho00 D00 + rho01 D10) + (rho10 D01 + rho11 D11)``: row ``s`` has the
    bits of the full Grassmann product trace
    ``(OperatorElement.from_matrix(rho[s]) * displacement()).trace()``.  The
    rows are not validated.
    """
    terms = rho.reshape(-1, 4, 1) * _TRACE_OPERAND
    return (terms[:, 0] + terms[:, 1]) + (terms[:, 2] + terms[:, 3])


def _check_char_bodies(bodies: np.ndarray) -> None:
    """Raise what ``CharFunction`` raises for the first invalid row of ``bodies``."""
    bad = bodies[:, _OFF_XI_MASKS].any(axis=1) | ~(np.abs(bodies[:, 0] - 1) <= NORMALIZATION_ATOL)
    finite = np.isfinite(bodies)
    if not finite.all():  # one whole-block test first: the rows of valid states are finite
        bad |= ~finite.all(axis=1)
    for s in np.flatnonzero(bad):
        CharFunction(_element(bodies[s].copy()))


def char_function(rho: QubitState) -> CharFunction:
    """``trace(rho D(xi))`` as a Grassmann element of the xi subalgebra.

    The closed form, spelled to have the bits of row 0 of ``_char_bodies``:
    each entry of ``displacement()`` is 0, +-1 or +-1/2, so a column of the
    trace sums at most two nonzero products, and its signed zeros include
    ``p*0.0`` or ``(1 - p)*0.0``, which is +0.0 for a finite state (hence
    ``+ 0.0`` on gamma's parts, and +0.0 in the other 12 columns).
    """
    p, gamma = rho.p, rho.gamma
    q = 1 - p
    body = np.zeros(16, dtype=complex)
    body[0] = p + q
    body[_XI] = complex(gamma.real + 0.0, gamma.imag + 0.0)
    body[_XI_STAR] = complex(-gamma.real + 0.0, gamma.imag + 0.0)
    body[_XI_XI_STAR] = 0.5 * p - 0.5 * q
    return CharFunction(_element(body))


def state_from_char(chi: CharFunction) -> QubitState:
    """Invert the closed form of a normalized ``chi``: p from xi xi*, gamma from xi."""
    c = chi.body.coefficients.tolist()
    pair_coeff, gamma, mirror = c[_XI_XI_STAR], c[_XI], c[_XI_STAR]
    if not abs(pair_coeff.imag) <= PHYSICALITY_ATOL:
        raise NotPhysicalError(f"xi xi* coefficient {pair_coeff} is not real")
    p = pair_coeff.real + 0.5
    if not _modulus(mirror + gamma.conjugate()) <= PHYSICALITY_ATOL:
        raise NotPhysicalError(
            f"xi* coefficient {mirror} is inconsistent with -conj(xi coefficient)"
        )
    if not -PHYSICALITY_ATOL <= p <= 1 + PHYSICALITY_ATOL:
        raise NotPhysicalError(f"recovered p={p} outside [0, 1]")
    gamma_sq = _square(_modulus(gamma))
    if not gamma_sq <= p * (1 - p) + PHYSICALITY_ATOL:
        raise NotPhysicalError(
            f"recovered |gamma|^2={gamma_sq:.3e} exceeds p(1-p)={p*(1-p):.3e}"
        )
    return QubitState(p=min(max(p, 0.0), 1.0), gamma=gamma)


def _states_from_bodies(bodies: np.ndarray):
    """``state_from_char`` on ``(n, 16)`` valid bodies: arrays ``p`` and ``gamma``.

    Every row gets the checks of ``CharFunction``, ``state_from_char`` and
    ``QubitState``; the first failing row raises their exception and message.
    """
    pair = bodies[:, _XI_XI_STAR]
    gamma = bodies[:, _XI]
    p = pair.real + 0.5
    ok = (
        (np.abs(bodies[:, 0] - 1) <= NORMALIZATION_ATOL)
        & (np.abs(pair.imag) <= PHYSICALITY_ATOL)
        & (np.abs(bodies[:, _XI_STAR] + np.conj(gamma)) <= PHYSICALITY_ATOL)
        & (-PHYSICALITY_ATOL <= p)
        & (p <= 1 + PHYSICALITY_ATOL)
        & (np.abs(gamma) ** 2 <= p * (1 - p) + PHYSICALITY_ATOL)
    )
    for s in np.flatnonzero(~ok):
        state_from_char(CharFunction(_element(bodies[s].copy())))
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    _check_states(p, gamma)
    return p, gamma
