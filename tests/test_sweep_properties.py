"""Property tests: the entry points end in finite values or a named error.

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
names its first non-finite coefficient.  Python ints are drawn too, up to
some too large for a float; the error then names the input that held one.

The channel-side constructors get the same parts: ``QubitChannel.from_canonical``,
``AngleParams`` (with ``channel_from_angles``, ``classify_by_angles`` and
``dilation_from_angles`` on every one it accepts) and ``Dilation`` return
finite values or name the field that failed.  ``cptp_report`` of every
channel ``QubitChannel`` accepts gives finite numbers, or ``NotCptpError``
naming an entry too large for its Choi matrix, and ``green_from_channel`` of
every CPTP one has the bits of the element-algebra reference kernel.
"""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_verify import reference_kernel

from grasschan.charfunc import CharFunction, _char_bodies, char_function, state_from_char
from grasschan.degradability import (
    ANTI_DEGRADABLE,
    NULL_CAPACITY_CLAIMED,
    WEAKLY_DEGRADABLE,
    Dilation,
    classify_by_angles,
    dilation_from_angles,
    weakly_complementary,
)
from grasschan.grassmann import MONOMIAL_NAMES, GrassmannElement
from grasschan.green import (
    _ANGLE_MAX,
    AngleParams,
    GreenFunction,
    apply_green,
    channel_from_angles,
    green_from_canonical,
    green_from_channel,
)
from grasschan.qubit import _CHOI_SAFE, NotCptpError, QubitChannel, QubitState

INF, NAN = math.inf, math.nan
PARTS = st.one_of(
    st.floats(-1, 1),
    st.floats(),  # NaN and the infinities included
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.3e-308, 0.5, 1e154, 1e200, 1e308, 1.7e308, -1.7e308, INF, -INF, NAN]
    ),
)
COEFFICIENTS = st.builds(complex, PARTS, PARTS)
# Python ints, small and too large for a float (from 2**1024 - 2**970, which
# rounds up to 2**1024, on).
INTS = st.one_of(
    st.integers(-2, 2),
    st.integers(2**1023, 10**400),
    st.integers(-(10**400), -(2**1023)),
    st.sampled_from([2**1024 - 2**970, 2**1024 - 2**970 - 1, 10**400]),
)


def too_large(value):
    return isinstance(value, int) and abs(value) >= 2**1024 - 2**970


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
    st.sampled_from([-5e-10, -2e-9, 1 + 5e-10, 1 + 2e-9, 1.0, 0.5, -2**-53, 2**-54]),
    PARTS,
    INTS,
)
GAMMA_PARTS = st.one_of(st.floats(-0.5, 0.5), PARTS)
GAMMAS = st.one_of(st.builds(complex, GAMMA_PARTS, GAMMA_PARTS), INTS)


@settings(max_examples=400, deadline=None)
@given(p=P_PARTS, gamma=GAMMAS)
@example(p=0.5, gamma=1e200)
@example(p=0.5, gamma=complex(1.5e308, 1.5e308))
@example(p=-0.0, gamma=complex(-0.0, -0.0))
@example(p=5e-324, gamma=complex(-5e-324, 0.0))
@example(p=-5e-10, gamma=complex(0.0, -0.0))
@example(p=1 + 5e-10, gamma=complex(-0.0, 5e-324))
@example(p=NAN, gamma=0j)
@example(p=0.5, gamma=complex(INF, NAN))
@example(p=10**400, gamma=0j)
@example(p=0.5, gamma=10**400)
def test_qubit_state_and_its_char_function(p, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rho = QubitState(p=p, gamma=gamma)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(("p=", "p is too large", "gamma is too large")) or "|gamma|^2=" in message, message
            return
        assert finite_state(rho)
        chi = char_function(rho).body.coefficients
        assert chi.tobytes() == _char_bodies(rho.matrix[None])[0].tobytes()


@settings(max_examples=400, deadline=None)
@given(table=st.dictionaries(st.sampled_from(MONOMIAL_NAMES), st.one_of(COEFFICIENTS, INTS), max_size=6))
@example(table={"ζζ*": 1.0, "ξ": complex(-0.0, 5e-324), "ζξξ*": 1e308})
@example(table={"1": complex(INF, 0.0), "ξξ*": NAN})
@example(table={"ζ*": complex(0.0, INF)})
@example(table={"1": 10**400})
def test_from_table_and_green_function(table):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = [name for name, value in table.items() if too_large(value)]
        if huge:
            with pytest.raises(ValueError, match=re.escape(f"coefficient of {huge[0]} is too large for a float")):
                GrassmannElement.from_table(table)
            return
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


def named(message, *fields):
    """Assert that a ``ValueError`` message starts by naming one of ``fields``."""
    assert re.match(rf"({'|'.join(map(re.escape, fields))})(\[| is too large|=)", message), message


CANONICAL = st.lists(st.one_of(st.floats(-1, 1), PARTS, INTS), min_size=3, max_size=3)


@settings(max_examples=400, deadline=None)
@given(t=CANONICAL, lam=CANONICAL)
@example(t=[10**400, 0, 0], lam=[1, 1, 1])
@example(t=[INF, 0, 0], lam=[1, 1, 1])
@example(t=[0.0, 0.0, 0.0], lam=[1.0, NAN, 1.0])
@example(t=[0, 0, 1.7e308], lam=[1, 1, 1.7e308])
@example(t=[0, 0, 1e200], lam=[1, 1, 1e200])
@example(t=[0.0, 1.7e308, 2.0**1023], lam=[0.0, 1.7976931348623157e308, 0.0])
@example(t=[0.0, -0.0, 5e-324], lam=[5e-324, 0.0, -0.0])
@example(t=[-0.0, 0.0, 0.5], lam=[-0.5, 0.5, -0.0])
def test_canonical_channel(t, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ch = QubitChannel.from_canonical(t, lam)
        except ValueError as exc:
            named(str(exc), "t", "lam")
            assert any(too_large(x) or not math.isfinite(x) for x in t + lam)
            return
        assert ch.t.tobytes() == np.array(t, dtype=float).tobytes()
        assert ch.lam.tobytes() == np.array(lam, dtype=float).tobytes()
        assert np.isfinite(ch.ptm).all()
        try:
            report = ch.cptp_report
        except NotCptpError as exc:
            named(str(exc), "t", "lam")
            assert max(map(abs, ch.t.tolist() + ch.lam.tolist())) > _CHOI_SAFE
            with pytest.raises(NotCptpError, match="is too large: the Choi matrix"):
                green_from_channel(ch)
            return
        assert math.isfinite(report.min_choi_eigenvalue) and math.isfinite(report.tp_deviation)
        if not report.ok:
            with pytest.raises(NotCptpError, match=re.escape("not CPTP (min Choi eigenvalue ")):
                green_from_channel(ch)
            return
        body = green_from_channel(ch).body.coefficients
        assert body.tobytes() == reference_kernel(ch.t, ch.lam).coefficients.tobytes()


ANGLES = st.one_of(
    st.floats(-7, 7),
    PARTS,
    INTS,
    st.sampled_from([_ANGLE_MAX, -_ANGLE_MAX, float(np.nextafter(_ANGLE_MAX, INF))]),
)
WEIGHTS = st.one_of(st.floats(0, 1), st.sampled_from([-1e-12, 1 + 1e-12, -2e-12, 1 + 2e-12, -0.0]), PARTS, INTS)


@settings(max_examples=400, deadline=None)
@given(theta=ANGLES, phi=ANGLES, q=WEIGHTS)
@example(theta=NAN, phi=0.0, q=0.5)
@example(theta=INF, phi=0.2, q=0.5)
@example(theta=NAN, phi=NAN, q=0.5)
@example(theta=_ANGLE_MAX, phi=-_ANGLE_MAX, q=1e-12 + 1)
@example(theta=0.3, phi=0.3, q=1e308)
def test_angle_form_channel_prediction_and_dilation(theta, phi, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ap = AngleParams(theta, phi, q)
        except ValueError as exc:
            named(str(exc), "theta", "phi", "q")
            return
        assert all(type(x) is float and math.isfinite(x) for x in (ap.theta, ap.phi, ap.q))
        ch = channel_from_angles(ap)
        assert np.isfinite(ch.ptm).all()
        prediction = classify_by_angles(ap)
        assert prediction.kind in (WEAKLY_DEGRADABLE, ANTI_DEGRADABLE, NULL_CAPACITY_CLAIMED)
        assert not math.isnan(prediction.ratio)
        dilation = dilation_from_angles(ap)
        assert 0.0 <= dilation.q <= 1.0
        for channel in (dilation.channel(), weakly_complementary(dilation)):
            assert np.isfinite(channel.ptm).all()


UNITARIES = [np.eye(4), dilation_from_angles(AngleParams(0.3, -1.1, 0.4)).unitary]
ENVIRONMENTS = [QubitState(1.0), QubitState(0.0), QubitState(0.25), QubitState(-5e-10), QubitState(1 + 5e-10)]


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(UNITARIES),
    entry=st.one_of(st.none(), st.tuples(st.integers(0, 15), st.one_of(COEFFICIENTS, INTS))),
    env=st.sampled_from(ENVIRONMENTS),
)
@example(base=UNITARIES[0], entry=(15, 1e200), env=ENVIRONMENTS[0])
@example(base=UNITARIES[0], entry=(15, 10**400), env=ENVIRONMENTS[0])
@example(base=UNITARIES[1], entry=(0, complex(NAN, 0.0)), env=ENVIRONMENTS[2])
@example(base=UNITARIES[1], entry=(5, complex(1.7e308, -1.7e308)), env=ENVIRONMENTS[2])
def test_dilation(base, entry, env):
    """A unitary, or one with one entry replaced, and a diagonal environment state."""
    unitary = base.tolist()
    if entry is not None:
        unitary[entry[0] // 4][entry[0] % 4] = entry[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dilation = Dilation(unitary, env)
        except ValueError as exc:
            message = str(exc)
            if message.startswith("matrix is not unitary"):
                assert "nan" not in message and "inf" not in message, message
            else:
                named(message, "unitary")
            return
        assert np.isfinite(dilation.unitary).all() and 0.0 <= dilation.q <= 1.0
        assert np.isfinite(dilation._ptms).all()
