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

A ``CharFunction`` holds the four coefficients ``(1, xi, xi*, xi xi*)`` of
its xi subalgebra as Python complex numbers, checked once when it is made.
Its 16-slot ``body`` (a ``GrassmannElement``) is built only when it is first
read, with +0.0 in the other 12 slots, and then kept; ``CharFunction(body)``
keeps the element it was given.  So ``char_function``, ``apply_green`` with
a kernel of the canonical form, and ``state_from_char`` on one state touch no
numpy array.

The array pass ``_char_bodies`` is that trace, contracted with the cached
displacement entries; one state's ``char_function`` is the closed form on
Python floats, spelled to have the same bits.  ``verify``'s calibration suite
holds the trace to the closed form, so the array pass stays the trace.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import FrozenInstanceError

import numpy as np

from .grassmann import (
    MONOMIAL_NAMES,
    Generator,
    GrassmannElement,
    OperatorElement,
    _element,
)
from .qubit import SIGMA_MINUS, SIGMA_PLUS, QubitState, _modulus, _square
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
#: The masks of the four coefficients a ``CharFunction`` holds, in its order.
_XI_SUBALGEBRA = [0, _XI, _XI_STAR, _XI_XI_STAR]

_new = object.__new__
_set = object.__setattr__


class NotNormalizedError(ValueError):
    """Constant coefficient of a characteristic function differs from 1."""


class NotPhysicalError(ValueError):
    """A coefficient is not finite, or the recovered (p, gamma) violates state positivity."""


class CharFunction:
    """Characteristic function supported on the xi subalgebra, constant term 1,
    with finite coefficients.

    ``coefficients`` is the tuple of its four coefficients ``(1, xi, xi*,
    xi xi*)``, as Python complex numbers.  ``CharFunction(body)`` reads them
    from a ``GrassmannElement`` and checks, in this order, that ``body`` has
    no coefficient off the xi subalgebra, that its constant is 1 to
    ``NORMALIZATION_ATOL`` and that the other three are finite.  ``body`` is
    that element; on an instance made from four coefficients it is built on
    its first read, a read-only element with the four in their slots and +0.0
    in the other 12, and the same object is returned after.  Instances are
    immutable; ``==`` and ``hash`` are those of the bodies (``-0.0 == +0.0``).
    """

    # ``_body`` stays unset until ``body`` is read.
    __slots__ = ("coefficients", "_body")

    def __new__(cls, body: GrassmannElement):
        c = body.coefficients.tolist()
        if any(_off_xi(c)):
            raise ValueError("characteristic function must live on the xi subalgebra")
        chi = _char(c[0], c[_XI], c[_XI_STAR], c[_XI_XI_STAR])
        _set(chi, "_body", body)
        return chi

    @property
    def body(self) -> GrassmannElement:
        try:
            return self._body
        except AttributeError:
            c = np.zeros(16, dtype=complex)
            c[_XI_SUBALGEBRA] = self.coefficients
            _set(self, "_body", _element(c))
            return self._body

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, CharFunction):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __reduce__(self):
        return CharFunction, (self.body,)

    def __repr__(self):
        return f"CharFunction(body={self.body!r})"


def _char(c0: complex, c1: complex, c2: complex, c3: complex) -> CharFunction:
    """The ``CharFunction`` with coefficients ``(c0, c1, c2, c3)`` on ``(1, xi,
    xi*, xi xi*)``, checked as ``CharFunction(body)`` checks its body."""
    if not _modulus(c0 - 1) <= NORMALIZATION_ATOL:
        raise NotNormalizedError(f"constant coefficient {c0} differs from 1")
    if not (cmath.isfinite(c1) and cmath.isfinite(c2) and cmath.isfinite(c3)):
        for m, value in zip(_XI_MONOMIALS, (c1, c2, c3)):
            if not cmath.isfinite(value):
                raise NotPhysicalError(
                    f"characteristic function coefficient of {MONOMIAL_NAMES[m]} is not finite: {value}"
                )
    chi = _new(CharFunction)
    _set(chi, "coefficients", (c0, c1, c2, c3))
    return chi


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


def char_function(rho: QubitState) -> CharFunction:
    """``trace(rho D(xi))`` as a characteristic function on the xi subalgebra.

    The closed form, spelled to have the bits of row 0 of ``_char_bodies``:
    each entry of ``displacement()`` is 0, +-1 or +-1/2, so a column of the
    trace sums at most two nonzero products, and its signed zeros include
    ``p*0.0`` or ``(1 - p)*0.0``, which is +0.0 for a finite state (hence
    ``+ 0.0`` on gamma's parts, the +0.0 imaginary parts of the real
    coefficients, and +0.0 in the other 12 columns of ``body``).
    """
    p, gamma = rho.p, rho.gamma
    q = 1 - p
    return _char(
        complex(p + q),
        complex(gamma.real + 0.0, gamma.imag + 0.0),
        complex(-gamma.real + 0.0, gamma.imag + 0.0),
        complex(0.5 * p - 0.5 * q),
    )


def state_from_char(chi: CharFunction) -> QubitState:
    """Invert the closed form of a normalized ``chi``: p from xi xi*, gamma from xi.

    After its four checks the ``QubitState`` is made as ``_char`` makes a
    ``CharFunction``, without running ``QubitState``'s checks again, which
    always pass on these values.  The clamped ``p`` lies in [0, 1].  It gives
    ``p(1-p) >= 0``, while the unclamped ``p`` already checked gives at most
    that, plus ``PHYSICALITY_ATOL``, which is no larger than the state's
    ``STATE_ATOL`` (both are 1e-9), so ``|gamma|^2`` meets the state's bound
    too.  ``p`` and ``gamma`` are a Python float and complex, which ``float``
    and ``complex`` return as they are.
    """
    _, gamma, mirror, pair_coeff = chi.coefficients
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
    rho = _new(QubitState)
    _set(rho, "p", min(max(p, 0.0), 1.0))
    _set(rho, "gamma", gamma)
    return rho


def _states_from_bodies(bodies: np.ndarray):
    """``state_from_char(CharFunction(row))`` on each row of ``(n, 16)`` bodies: arrays ``p`` and ``gamma``.

    Every row gets the checks of ``CharFunction`` and ``state_from_char`` in
    one pass, and the first row that fails any of them raises their
    exception and message, as a loop over the rows would.  The pass tests
    the 12 coefficients off the xi subalgebra (NaN counts as nonzero), the
    constant, and each condition of ``state_from_char``.  It has no
    finiteness test of its own, because these imply ``CharFunction``'s: a
    row that passes them has a finite constant (within
    ``NORMALIZATION_ATOL`` of 1), a finite xi xi* (its imaginary part within
    ``PHYSICALITY_ATOL`` of 0 and ``p`` in range), a finite xi (``|gamma|^2``
    at most the finite ``p(1-p) + PHYSICALITY_ATOL``) and a finite xi*
    (within ``PHYSICALITY_ATOL`` of ``-conj(gamma)``).  ``QubitState``'s
    checks always pass on the rows returned, by ``state_from_char``'s
    argument: the clamped ``p`` lies in [0, 1], and ``PHYSICALITY_ATOL <=
    STATE_ATOL``.
    """
    pair = bodies[:, _XI_XI_STAR]
    gamma = bodies[:, _XI]
    p = pair.real + 0.5
    ok = (
        ~bodies.take(_OFF_XI_MASKS, axis=1).any(axis=1)
        & (np.abs(bodies[:, 0] - 1) <= NORMALIZATION_ATOL)
        & (np.abs(pair.imag) <= PHYSICALITY_ATOL)
        & (np.abs(bodies[:, _XI_STAR] + np.conj(gamma)) <= PHYSICALITY_ATOL)
        & (-PHYSICALITY_ATOL <= p)
        & (p <= 1 + PHYSICALITY_ATOL)
        & (np.abs(gamma) ** 2 <= p * (1 - p) + PHYSICALITY_ATOL)
    )
    for s in np.flatnonzero(~ok):
        state_from_char(CharFunction(_element(bodies[s].copy())))
    return np.minimum(np.maximum(p, 0.0), 1.0), gamma
