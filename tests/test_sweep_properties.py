"""Property tests: the one-state entry points end in finite values or a named error.

``CharFunction``, ``apply_green`` and ``state_from_char`` are driven with
coefficients whose parts are finite, huge, subnormal, signed zeros, infinite
or NaN.  Each call either returns finite values or raises a library error
(``NotNormalizedError``, ``NotPhysicalError`` or the plain ``ValueError`` of
the support check) whose message names the coefficient or the recovered
quantity that failed: for ``CharFunction`` and ``state_from_char`` a
coefficient of their input, for ``apply_green`` a coefficient of the
convolution that overflowed.  The kernels are CPTP kernels, some with one
finite, possibly huge, coefficient added.  No other exception and no warning
may escape.

The sweep's entry constructors get the same parts: ``QubitState`` returns a
finite state or names ``p`` or ``|gamma|^2``, and ``char_function`` of every
state it accepts has the bits of the array pass ``_char_bodies``;
``GrassmannElement.from_table`` keeps each coefficient as given (it is the
algebra's constructor, so a non-finite one is kept too), and
``GreenFunction`` returns such an element when it is finite and otherwise
names its first non-finite coefficient.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasschan.charfunc import CharFunction, _char_bodies, char_function, state_from_char
from grasschan.grassmann import MONOMIAL_NAMES, GrassmannElement
from grasschan.green import GreenFunction, apply_green, green_from_canonical
from grasschan.qubit import QubitState

INF, NAN = math.inf, math.nan
PARTS = st.one_of(
    st.floats(-1, 1),
    st.floats(),  # NaN and the infinities included
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.3e-308, 0.5, 1e154, 1e200, 1e308, 1.7e308, -1.7e308, INF, -INF, NAN]
    ),
)
COEFFICIENTS = st.builds(complex, PARTS, PARTS)
CONSTANTS = st.one_of(st.just(1.0), st.builds(lambda d: 1 + d, st.floats(-2e-10, 2e-10)), COEFFICIENTS)
# Kernels of CPTP channels: identity, amplitude damping, a depolarizing-like
# contraction and one with every t component nonzero (complex coefficients).
KERNELS = [
    green_from_canonical([0, 0, 0], [1, 1, 1]),
    green_from_canonical([0, 0, 0.4], [0.6**0.5, 0.6**0.5, 0.6]),
    green_from_canonical([0, 0, 0], [-1 / 3, -1 / 3, -1 / 3]),
    green_from_canonical([0.1, -0.2, 0.15], [0.5, 0.4, 0.3]),
]
FINITE_PARTS = PARTS.filter(math.isfinite)


@st.composite
def kernels(draw):
    """A CPTP kernel, or one with a finite, possibly huge, coefficient added on
    one monomial (finite kernels only: ``GreenFunction`` rejects the others)."""
    kernel = draw(st.sampled_from(KERNELS))
    if draw(st.booleans()):
        return kernel
    c = kernel.body.coefficients.copy()
    c[draw(st.integers(0, 15))] += complex(draw(FINITE_PARTS), draw(FINITE_PARTS))
    return GreenFunction(GrassmannElement(c))


NAMED_ERRORS = (
    "constant coefficient",
    "coefficient of ξ",
    "xi subalgebra",
    "xi xi* coefficient",
    "xi* coefficient",
    "recovered p=",
    "recovered |gamma|^2=",
)


def finite_coefficients(chi):
    return bool(np.isfinite(chi.body.coefficients).all())


def finite_state(rho):
    return isinstance(rho, QubitState) and math.isfinite(rho.p) and cmath.isfinite(rho.gamma)


def outcome(call, *args):
    """The call's result, or its library error after checking that it names the input."""
    try:
        return call(*args)
    except ValueError as exc:  # NotNormalizedError and NotPhysicalError included
        message = str(exc)
        assert any(name in message for name in NAMED_ERRORS), message
        return None


@settings(max_examples=400, deadline=None)
@given(
    constant=CONSTANTS,
    xi=COEFFICIENTS,
    xi_star=COEFFICIENTS,
    pair=COEFFICIENTS,
    zeta=st.sampled_from([0j, complex(-0.0, -0.0), complex(0, 5e-324), NAN]),
    kernel=kernels(),
)
@example(constant=1.0, xi=INF, xi_star=-INF, pair=0j, zeta=0j, kernel=KERNELS[0])
@example(constant=1.0, xi=1e200, xi_star=-1e200, pair=0j, zeta=0j, kernel=KERNELS[0])
@example(constant=1.0, xi=complex(1.5e308, 1.5e308), xi_star=complex(-1.5e308, 1.5e308), pair=0j, zeta=0j, kernel=KERNELS[3])
@example(constant=complex(1.5e308, 1.5e308), xi=0j, xi_star=0j, pair=0j, zeta=0j, kernel=KERNELS[0])
@example(constant=1.0, xi=1.7e308, xi_star=-1.7e308, pair=1e308, zeta=0j, kernel=KERNELS[3])
@example(  # the convolution's xi coefficient overflows
    constant=1.0, xi=1.7e308, xi_star=-1.7e308, pair=0j, zeta=0j,
    kernel=GreenFunction(KERNELS[0].body + GrassmannElement.from_table({"ζζ*ξ": 1e308})),
)
def test_char_function_apply_green_and_state_from_char(constant, xi, xi_star, pair, zeta, kernel):
    table = {"1": constant, "ξ": xi, "ξ*": xi_star, "ξξ*": pair, "ζ": zeta}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi = outcome(CharFunction, GrassmannElement.from_table(table))
        if chi is None:
            return
        assert finite_coefficients(chi)
        rho = outcome(state_from_char, chi)
        assert rho is None or finite_state(rho)
        out = outcome(apply_green, kernel, chi)
        if out is None:
            return
        assert finite_coefficients(out)
        rho = outcome(state_from_char, out)
        assert rho is None or finite_state(rho)


@pytest.mark.parametrize(
    "table, message",
    [
        ({"1": 1, "ξ": INF, "ξ*": -INF}, "coefficient of ξ is not finite"),
        ({"1": 1, "ξ*": complex(0, NAN)}, "coefficient of ξ* is not finite"),
        ({"1": 1, "ξξ*": -INF}, "coefficient of ξξ* is not finite"),
        ({"1": complex(1.5e308, 1.5e308)}, "constant coefficient"),
        ({"1": 1, "ξ": 1e200, "ξ*": -1e200}, "recovered |gamma|^2=inf"),
        ({"1": 1, "ξ": complex(1.5e308, 1.5e308), "ξ*": complex(-1.5e308, 1.5e308)}, "recovered |gamma|^2=inf"),
        ({"1": 1, "ξ": complex(1.5e308, 1.5e308), "ξ*": complex(1.5e308, 1.5e308)}, "xi* coefficient"),
    ],
)
def test_overflowing_moduli_are_named_errors(table, message):
    """Python's complex ``abs`` and float ``**`` raise ``OverflowError`` on
    finite inputs whose result overflows; the checks read such a modulus as inf."""
    with pytest.raises(ValueError) as raised:
        state_from_char(CharFunction(GrassmannElement.from_table(table)))
    assert message in str(raised.value)


# p near and off [0, 1], by about STATE_ATOL, and the extreme parts.
P_PARTS = st.one_of(
    st.floats(0, 1),
    st.sampled_from([-5e-10, -2e-9, 1 + 5e-10, 1 + 2e-9, 1.0, 0.5]),
    PARTS,
)
GAMMA_PARTS = st.one_of(st.floats(-0.5, 0.5), PARTS)


@settings(max_examples=400, deadline=None)
@given(p=P_PARTS, gamma_re=GAMMA_PARTS, gamma_im=GAMMA_PARTS)
@example(p=0.5, gamma_re=1e200, gamma_im=0.0)
@example(p=0.5, gamma_re=1.5e308, gamma_im=1.5e308)
@example(p=-0.0, gamma_re=-0.0, gamma_im=-0.0)
@example(p=5e-324, gamma_re=-5e-324, gamma_im=0.0)
@example(p=-5e-10, gamma_re=0.0, gamma_im=-0.0)
@example(p=1 + 5e-10, gamma_re=-0.0, gamma_im=5e-324)
@example(p=NAN, gamma_re=0.0, gamma_im=0.0)
@example(p=0.5, gamma_re=INF, gamma_im=NAN)
def test_qubit_state_and_its_char_function(p, gamma_re, gamma_im):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rho = QubitState(p=p, gamma=complex(gamma_re, gamma_im))
        except ValueError as exc:
            assert "p=" in str(exc) or "|gamma|^2=" in str(exc), str(exc)
            return
        assert finite_state(rho)
        chi = char_function(rho).body.coefficients
        assert chi.tobytes() == _char_bodies(rho.matrix[None])[0].tobytes()


@settings(max_examples=400, deadline=None)
@given(table=st.dictionaries(st.sampled_from(MONOMIAL_NAMES), COEFFICIENTS, max_size=6))
@example(table={"ζζ*": 1.0, "ξ": complex(-0.0, 5e-324), "ζξξ*": 1e308})
@example(table={"1": complex(INF, 0.0), "ξξ*": NAN})
@example(table={"ζ*": complex(0.0, INF)})
def test_from_table_and_green_function(table):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        body = GrassmannElement.from_table(table)
        expected = np.zeros(16, dtype=complex)
        for name, value in table.items():
            expected[MONOMIAL_NAMES.index(name)] = value
        assert body.coefficients.tobytes() == expected.tobytes()
        bad = [m for m in range(16) if not cmath.isfinite(expected[m])]
        if not bad:
            assert GreenFunction(body).body is body
            return
        with pytest.raises(ValueError, match=re.escape(f"kernel coefficient of {MONOMIAL_NAMES[bad[0]]} is not finite")):
            GreenFunction(body)
