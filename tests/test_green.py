import itertools
import re

import numpy as np
import pytest

from grasschan.charfunc import char_function, state_from_char
from grasschan.grassmann import XI, XI_STAR, ZETA, GrassmannElement, delta_pair
from grasschan.green import (
    AngleParams,
    GaussianParams,
    GreenFunction,
    NoSolutionError,
    angles_from_gaussian,
    apply_green,
    channel_from_angles,
    compose_gaussian,
    detect_gaussian,
    gaussian_equivalent,
    green_from_canonical,
    green_from_channel,
    green_from_channel_trace,
    _gaussian_params,
)
from grasschan.qubit import (
    NotCptpError,
    QubitChannel,
    QubitState,
    apply_channel,
    compose,
    random_cptp_canonical_channel,
    random_state,
)
from grasschan.tolerances import ANGLE_ATOL, ANGLE_RATIO_ATOL, GAUSSIAN_ATOL


def bit_flip(s):
    return QubitChannel.from_canonical([0, 0, 0], [1, 2 * s - 1, 2 * s - 1])


def amplitude_damping(n):
    return QubitChannel.from_canonical([0, 0, 1 - n], [np.sqrt(n), np.sqrt(n), n])


class TestGreenFromCanonical:
    def test_bit_flip_delta_form(self):
        s = 0.75
        kernel = green_from_channel(bit_flip(s))
        expected = delta_pair(ZETA - s * XI - (s - 1) * XI_STAR)
        assert kernel.body.isclose(expected, atol=1e-15)

    def test_amplitude_damping_form(self):
        n = 0.41
        kernel = green_from_channel(amplitude_damping(n))
        expected = delta_pair(ZETA - np.sqrt(n) * XI) * (
            GrassmannElement.one() + ((1 - n) / 2) * (XI * XI_STAR)
        )
        assert kernel.body.isclose(expected, atol=1e-15)

    def test_depolarizing_form(self):
        s = 0.37
        kernel = green_from_canonical([0, 0, 0], [1 - s] * 3)
        expected = delta_pair(ZETA - (1 - s) * XI) + s * (1 - s) * (XI * XI_STAR)
        assert kernel.body.isclose(expected, atol=1e-15)

    def test_rejects_non_cptp(self):
        message = r"canonical parameters are not CPTP \(min Choi eigenvalue -1\.000e\+00\)"
        with pytest.raises(NotCptpError, match=message):
            green_from_canonical([0, 0, 0], [1, 1, -1])
        with pytest.raises(NotCptpError, match=message):
            green_from_channel(QubitChannel.from_canonical([0, 0, 0], [1, 1, -1]))

    def test_channel_kernel_reuses_the_cached_cptp_report(self, monkeypatch):
        ch = random_cptp_canonical_channel(np.random.default_rng(59))
        expected = green_from_canonical(ch.t, ch.lam)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any new CPTP check would fail
        kernel = green_from_channel(ch)
        assert kernel.body.coefficients.tobytes() == expected.body.coefficients.tobytes()
        assert kernel.provenance[0] is ch.t and kernel.provenance[1] is ch.lam

    def test_matches_trace_definition(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            ch = random_cptp_canonical_channel(rng)
            closed = green_from_channel(ch)
            traced = green_from_channel_trace(ch)
            assert closed.body.isclose(traced.body, atol=1e-13)


class TestApplyGreen:
    def test_identity_kernel_sifts(self):
        rng = np.random.default_rng(67)
        kernel = green_from_canonical([0, 0, 0], [1, 1, 1])
        for _ in range(100):
            chi = char_function(random_state(rng))
            assert apply_green(kernel, chi).body.isclose(chi.body, atol=1e-14)

    def test_amplitude_damping_on_excited_state(self):
        n = 0.23
        kernel = green_from_channel(amplitude_damping(n))
        chi_out = apply_green(kernel, char_function(QubitState(p=0.0)))
        expected = GrassmannElement.from_table({"1": 1, "ξξ*": (1 - 2 * n) / 2})
        assert chi_out.body.isclose(expected, atol=1e-14)

    def test_bit_flip_on_ground_state(self):
        s = 0.8
        kernel = green_from_channel(bit_flip(s))
        chi_out = apply_green(kernel, char_function(QubitState(p=1.0)))
        expected = GrassmannElement.from_table({"1": 1, "ξξ*": (2 * s - 1) / 2})
        assert chi_out.body.isclose(expected, atol=1e-14)

    def test_master_oracle_equivalence(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            ch = random_cptp_canonical_channel(rng)
            rho = random_state(rng)
            symbolic = state_from_char(apply_green(green_from_channel(ch), char_function(rho)))
            dense = apply_channel(ch, rho)
            assert abs(symbolic.p - dense.p) < 1e-12
            assert abs(symbolic.gamma - dense.gamma) < 1e-12

    def test_composition_matches_ptm_product(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            first = random_cptp_canonical_channel(rng)
            second = random_cptp_canonical_channel(rng)
            rho = random_state(rng)
            chained = apply_green(
                green_from_channel(second),
                apply_green(green_from_channel(first), char_function(rho)),
            )
            direct = char_function(apply_channel(compose(second, first), rho))
            assert chained.body.isclose(direct.body, atol=1e-12)

    def test_output_constant_term_is_one(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            ch = random_cptp_canonical_channel(rng)
            chi_out = apply_green(green_from_channel(ch), char_function(random_state(rng)))
            assert chi_out.body.constant == pytest.approx(1.0, abs=1e-12)


class TestFiniteKernel:
    @pytest.mark.parametrize(
        "first, later",
        [
            (("ζξ", np.inf), ("ζζ*ξξ*", np.nan)),
            (("1", complex(0, np.nan)), ("ξ", np.inf)),
            (("ζζ*ξξ*", -np.inf), None),
        ],
    )
    def test_non_finite_body_is_rejected_naming_its_first_monomial(self, first, later):
        table = green_from_channel(amplitude_damping(0.64)).to_table()
        for name, value in filter(None, (later, first)):
            table[name] = value
        with pytest.raises(ValueError, match=f"kernel coefficient of {re.escape(first[0])} is not finite"):
            GreenFunction(GrassmannElement.from_table(table))

    @pytest.mark.parametrize("t, lam", [([np.inf, 0, 0], [1, 1, 1]), ([0, 0, 0], [np.nan, 1, 1])])
    def test_trace_kernel_of_a_non_finite_channel_is_rejected(self, t, lam):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="is not finite"):
            green_from_channel_trace(QubitChannel.from_canonical(t, lam))


class TestDetectGaussian:
    def test_amplitude_damping_params(self):
        gp = detect_gaussian(green_from_channel(amplitude_damping(0.64)))
        assert gp is not None
        assert gp.a == pytest.approx(0.8, abs=1e-12)
        assert gp.b == pytest.approx(0.0, abs=1e-12)
        assert gp.c == pytest.approx(0.18, abs=1e-12)

    def test_depolarizing_absent(self):
        assert detect_gaussian(green_from_canonical([0, 0, 0], [0.5] * 3)) is None

    def test_identity(self):
        gp = detect_gaussian(green_from_canonical([0, 0, 0], [1, 1, 1]))
        assert (gp.a, gp.b, gp.c) == (1, 0, 0)

    @pytest.mark.parametrize("monomial, shift", [("ζζ*", 0.5), ("ζζ*ξξ*", 0.1j)])
    def test_none_when_a_fixed_coefficient_is_off(self, monomial, shift):
        table = green_from_channel(amplitude_damping(0.64)).to_table()
        table[monomial] += shift
        assert detect_gaussian(GreenFunction(GrassmannElement.from_table(table))) is None

    def test_matches_closed_condition_on_random_channels(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            ch = random_cptp_canonical_channel(rng)
            detected = detect_gaussian(green_from_channel(ch)) is not None
            closed = (
                abs(ch.t[0]) <= 1e-10
                and abs(ch.t[1]) <= 1e-10
                and abs(ch.lam[2] - ch.lam[0] * ch.lam[1]) <= 1e-10
            )
            assert detected == closed

    def test_gaussian_after_forcing_condition(self):
        rng = np.random.default_rng(89)
        hits = 0
        for _ in range(500):
            ch = random_cptp_canonical_channel(rng)
            lam = np.array([ch.lam[0], ch.lam[1], ch.lam[0] * ch.lam[1]])
            forced = QubitChannel.from_canonical([0, 0, ch.t[2] * 0.5], lam)
            if not forced.cptp_report.ok:
                continue
            hits += 1
            assert detect_gaussian(green_from_channel(forced)) is not None
        assert hits > 100


class TestGaussianSemigroup:
    """Angle-form Gaussian channels compose in closed form: ``second o first``
    has the kernel ``compose_gaussian`` gives, ``a = a2 a1 + b2 b1``,
    ``b = a2 b1 + b2 a1`` and ``c = (a2^2 - b2^2) c1 + c2``, the qubit
    analogue of the bosonic law ``(X, Y) -> (X2 X1, X2 Y1 X2^T + Y2)``."""

    def test_composition_law(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(250):
            first, second = (
                channel_from_angles(
                    AngleParams(theta=rng.uniform(0, np.pi / 2), phi=rng.uniform(-np.pi, np.pi), q=rng.uniform(0, 1))
                )
                for _ in range(2)
            )
            g1, g2 = (detect_gaussian(green_from_channel(ch)) for ch in (first, second))
            composed = detect_gaussian(green_from_channel(compose(second, first)))
            assert g1 is not None and g2 is not None and composed is not None
            law = compose_gaussian(g2, g1)
            assert type(law) is GaussianParams and type(law.c) is float
            worst = max(worst, *(abs(getattr(composed, f) - getattr(law, f)) for f in ("a", "b", "c")))
        assert worst <= 1e-14

    def test_identity_is_a_unit_and_damping_multiplies(self):
        identity = GaussianParams(1 + 0j, 0j, 0.0)
        g = GaussianParams(0.6 + 0j, -0.3 + 0j, 0.125)
        assert compose_gaussian(identity, g) == g == compose_gaussian(g, identity)
        n1, n2 = 0.64, 0.36
        damped = compose_gaussian(
            GaussianParams(complex(np.sqrt(n2)), 0j, (1 - n2) / 2),
            GaussianParams(complex(np.sqrt(n1)), 0j, (1 - n1) / 2),
        )
        assert damped.a == pytest.approx(np.sqrt(n1 * n2), abs=1e-15) and damped.b == 0
        assert damped.c == pytest.approx((1 - n1 * n2) / 2, abs=1e-15)


class TestAngles:
    def test_amplitude_damping_branch(self):
        n = 0.64
        ap = angles_from_gaussian(GaussianParams(np.sqrt(n), 0, (1 - n) / 2))
        assert ap.theta == pytest.approx(0.0, abs=1e-12)
        assert ap.phi == pytest.approx(np.arccos(np.sqrt(n)), abs=1e-12)
        assert ap.q == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        ap = angles_from_gaussian(GaussianParams(1, 0, 0))
        assert (ap.theta, ap.phi, ap.q) == (0.0, 0.0, 1.0)

    def test_bit_phase_flip_uses_opposite_angles(self):
        s = 0.3
        ap = angles_from_gaussian(GaussianParams(s, 1 - s, 0))
        assert ap.theta == pytest.approx(-ap.phi, abs=1e-12)
        assert np.cos(2 * ap.theta) == pytest.approx(2 * s - 1, abs=1e-12)
        assert ap.q == 1.0

    def test_generalized_damping_recovers_mixing_weight(self):
        n = 0.64
        for s in (0.2, 0.5, 0.8):
            ap = angles_from_gaussian(GaussianParams(np.sqrt(n), 0, (2 * s - 1) * (1 - n) / 2))
            assert ap.q == pytest.approx(s, abs=1e-10)
            assert ap.theta == pytest.approx(0.0, abs=1e-12)

    def test_no_solution_out_of_range(self):
        with pytest.raises(NoSolutionError):
            angles_from_gaussian(GaussianParams(1.5, 0, 0))
        with pytest.raises(NoSolutionError):
            angles_from_gaussian(GaussianParams(0.5, 0.2j, 0))
        with pytest.raises(NoSolutionError):
            # theta = phi forces c = 0
            angles_from_gaussian(GaussianParams(0.5, -0.5, 0.3))
        with pytest.raises(NoSolutionError, match="exceed the cosine range"):
            angles_from_gaussian(GaussianParams(0.6, 0.6, 0.0))

    def test_round_trip_through_channel(self):
        rng = np.random.default_rng(97)
        for _ in range(300):
            ap_in = AngleParams(
                theta=rng.uniform(0, np.pi), phi=rng.uniform(-np.pi, np.pi), q=rng.uniform(0, 1)
            )
            ch = channel_from_angles(ap_in)
            gp = detect_gaussian(green_from_channel(ch))
            assert gp is not None
            ap = angles_from_gaussian(gp)
            rebuilt = channel_from_angles(ap)
            assert np.max(np.abs(rebuilt.ptm - ch.ptm)) < 1e-10


def _reference_candidate_angles(u, v):
    seen = set()
    out = []
    for s_u, s_v in itertools.product((1, -1), repeat=2):
        theta = (s_v * v + s_u * u) / 2
        phi = (s_v * v - s_u * u) / 2
        if theta < 0:
            theta, phi = -theta, -phi
        if theta > np.pi / 2:
            theta, phi = np.pi - theta, np.pi - phi
        phi = float(np.mod(phi + np.pi, 2 * np.pi) - np.pi)
        if phi == -np.pi:
            phi = np.pi
        key = (round(theta, 12), round(phi, 12))
        if key not in seen:
            seen.add(key)
            out.append((float(theta), float(phi)))
    return out


def _reference_angles_from_gaussian(gp):
    """``angles_from_gaussian`` as written with ``np.clip`` and ``np.mod``: the
    reference the Python-float version must reproduce bit for bit."""
    a, b, c = complex(gp.a), complex(gp.b), float(gp.c)
    if not (abs(a.imag) <= ANGLE_ATOL and abs(b.imag) <= ANGLE_ATOL):
        raise NoSolutionError("a and b must be real for the angle parametrization")
    if not (abs(a) <= 1 + ANGLE_ATOL and abs(b) <= 1 + ANGLE_ATOL):
        raise NoSolutionError(f"|a|={abs(a):.6g} or |b|={abs(b):.6g} exceeds 1")
    lam1 = a.real - b.real
    lam2 = a.real + b.real
    if not (abs(lam1) <= 1 + ANGLE_ATOL and abs(lam2) <= 1 + ANGLE_ATOL):
        raise NoSolutionError("difference/sum of a and b exceed the cosine range")
    u = float(np.arccos(np.clip(lam1, -1.0, 1.0)))
    v = float(np.arccos(np.clip(lam2, -1.0, 1.0)))
    valid = []
    for theta, phi in _reference_candidate_angles(u, v):
        denom = (np.cos(2 * theta) - np.cos(2 * phi)) / 4
        if abs(denom) <= ANGLE_ATOL:
            if not abs(c) <= ANGLE_ATOL:
                continue
            q = 1.0
        else:
            ratio = c / denom
            if not -1 - ANGLE_RATIO_ATOL <= ratio <= 1 + ANGLE_RATIO_ATOL:
                continue
            q = float(np.clip((1 + ratio) / 2, 0.0, 1.0))
        valid.append(AngleParams(theta=theta, phi=phi, q=q))
    if not valid:
        raise NoSolutionError(
            f"no (theta, phi, q) reproduces a={a.real:.6g}, b={b.real:.6g}, c={c:.6g}"
        )
    valid.sort(key=lambda ap: (round(ap.theta, 12), round(abs(ap.q - 1), 12), round(abs(ap.phi), 12), -ap.phi))
    return valid[0]


def _angle_outcome(solve, gp):
    """The result's types and ``float.hex`` bits, or the error's type and message."""
    try:
        ap = solve(gp)
    except NoSolutionError as exc:
        return type(exc), str(exc)
    return tuple((type(x), float(x).hex()) for x in (ap.theta, ap.phi, ap.q))


def _angle_edge_params():
    """Kernel parameters at the edges of the angle solve.

    ``lam1 = a - b`` and ``lam2 = a + b`` run over +-1, +-(1 + ANGLE_ATOL/2),
    +-0.0 and interior values; ``c`` over +-0.0, the degeneracy tolerance and
    the ratios +-1 and +-(1 + ANGLE_RATIO_ATOL/2) of every branch candidate;
    a and b also get imaginary parts and moduli around 1 + ANGLE_ATOL.
    """
    edge = 1 + ANGLE_ATOL / 2
    lams = [1.0, -1.0, edge, -edge, 1 + 2 * ANGLE_ATOL, 0.0, -0.0, 0.5, -0.3, np.nextafter(1.0, 0.0)]
    out = []
    for lam1, lam2 in itertools.product(lams, repeat=2):
        a, b = (lam1 + lam2) / 2, (lam2 - lam1) / 2
        cs = [0.0, -0.0, ANGLE_ATOL / 2, -2 * ANGLE_ATOL, 0.1, -0.25]
        u = float(np.arccos(np.clip(a - b, -1.0, 1.0)))
        v = float(np.arccos(np.clip(a + b, -1.0, 1.0)))
        for theta, phi in _reference_candidate_angles(u, v):
            denom = (np.cos(2 * theta) - np.cos(2 * phi)) / 4
            for ratio in (1.0, -1.0, 1 + ANGLE_RATIO_ATOL / 2, -1 - ANGLE_RATIO_ATOL / 2, 1 + 2 * ANGLE_RATIO_ATOL):
                cs.append(float(ratio * denom))
        out += [GaussianParams(a, b, c) for c in cs]
    for imag in (ANGLE_ATOL / 2, -2 * ANGLE_ATOL):
        out += [GaussianParams(complex(0.5, imag), 0.1, 0.0), GaussianParams(0.5, complex(-0.1, imag), 0.0)]
    out += [GaussianParams(a, b, 0.0) for a, b in itertools.product([edge, 1 + 2 * ANGLE_ATOL, -edge], [0.0, edge])]
    return out


def _angle_form_params():
    """``_gaussian_params`` of angle-form channels: theta in {0, -0.0, pi/2},
    phi in {-pi, +-0.0, pi}, q in {0, 1}, then random angles and weights."""
    angles = [
        AngleParams(theta, phi, q)
        for theta in (0.0, -0.0, np.pi / 2, 0.3)
        for phi in (-np.pi, -0.0, 0.0, np.pi, 1.1)
        for q in (0.0, 1.0, 0.35)
    ]
    rng = np.random.default_rng(1729)
    angles += [AngleParams(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi), rng.uniform(0, 1)) for _ in range(2000)]
    return [_gaussian_params(channel_from_angles(ap)) for ap in angles]


class TestAnglesMatchReference:
    """``angles_from_gaussian`` on Python floats has the bits of the numpy version."""

    def test_edges_and_no_solution_cases(self):
        outcomes = [_angle_outcome(_reference_angles_from_gaussian, gp) for gp in _angle_edge_params()]
        assert outcomes == [_angle_outcome(angles_from_gaussian, gp) for gp in _angle_edge_params()]
        errors = {o[1].split("=")[0] for o in outcomes if o[0] is NoSolutionError}
        assert errors == {
            "a and b must be real for the angle parametrization",
            "|a|",
            "difference/sum of a and b exceed the cosine range",
            "no (theta, phi, q) reproduces a",
        }
        q_bits = {o[2][1] for o in outcomes if o[0] is not NoSolutionError}
        assert {float(0.0).hex(), float(1.0).hex()} <= q_bits

    def test_angle_form_channels(self):
        for gp in _angle_form_params():
            assert _angle_outcome(angles_from_gaussian, gp) == _angle_outcome(_reference_angles_from_gaussian, gp)


class TestGaussianEquivalent:
    @pytest.mark.parametrize("s", np.linspace(0.05, 0.95, 20))
    def test_phase_flip_maps_to_bit_flip(self, s):
        pf = QubitChannel.from_canonical([0, 0, 0], [2 * s - 1, 2 * s - 1, 1])
        eq = gaussian_equivalent(pf)
        assert eq is not None
        assert eq.channel.isclose(bit_flip(s), atol=1e-12)

    def test_already_gaussian_uses_identity_permutation(self):
        eq = gaussian_equivalent(bit_flip(0.3))
        assert eq.perm == (0, 1, 2) and eq.signs == (1, 1, 1)

    @pytest.mark.parametrize("s", np.linspace(0.06, 0.94, 12))
    def test_depolarizing_has_no_equivalent(self, s):
        assert gaussian_equivalent(QubitChannel.from_canonical([0, 0, 0], [1 - s] * 3)) is None

    def test_equivalent_channel_is_cptp(self):
        # Angle-form Gaussian channels under a random axis relabelling: every
        # draw has an equivalent, and every equivalent must verify.
        rng = np.random.default_rng(101)
        draws = 300
        found = 0
        for _ in range(draws):
            ap = AngleParams(
                theta=rng.uniform(0, np.pi / 2), phi=rng.uniform(-np.pi, np.pi), q=rng.uniform(0, 1)
            )
            gauss = channel_from_angles(ap)
            perm = list(rng.permutation(3))
            ch = QubitChannel.from_canonical(gauss.t[perm], gauss.lam[perm])
            eq = gaussian_equivalent(ch)
            if eq is not None:
                found += 1
                assert eq.channel.cptp_report.ok
                assert detect_gaussian(green_from_channel(eq.channel)) is not None
        assert found == draws

    def test_shift_vector_is_permuted_with_the_lambdas(self):
        # t along y plus a lambda pattern that needs the y axis moved to z
        ch = QubitChannel.from_canonical([0, 0.3, 0], [0.7, 0.49, 0.7])
        eq = gaussian_equivalent(ch)
        assert eq is not None
        assert np.allclose(eq.channel.t, [0, 0, 0.3], atol=1e-12)
        assert np.allclose(eq.channel.lam, [0.7, 0.7, 0.49], atol=1e-12)
        assert detect_gaussian(green_from_channel(eq.channel)) is not None

    def test_no_equivalent_when_shift_cannot_reach_the_z_axis(self):
        # same lambda pattern but shifts on two axes: no frame makes t transverse-free
        ch = QubitChannel.from_canonical([0.1, 0.15, 0], [0.7, 0.49, 0.7])
        assert ch.cptp_report.ok
        assert gaussian_equivalent(ch) is None


# The frame search as it was before the sign loop was removed: 6 axis
# permutations x 4 even lambda sign patterns, in this order.  Kept as the
# reference the 6-candidate search must reproduce bit for bit.
_REFERENCE_PERMUTATIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
_REFERENCE_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _reference_gaussian_equivalent(ch):
    t = ch.t
    lam = ch.lam
    for perm in _REFERENCE_PERMUTATIONS:
        inv = tuple(perm.index(i) for i in range(3))
        for signs in _REFERENCE_SIGN_PATTERNS:
            new_lam = np.array([signs[inv[i]] * lam[inv[i]] for i in range(3)])
            new_t = np.array([t[inv[i]] for i in range(3)])
            if abs(new_t[0]) > GAUSSIAN_ATOL or abs(new_t[1]) > GAUSSIAN_ATOL:
                continue
            if abs(new_lam[2] - new_lam[0] * new_lam[1]) > GAUSSIAN_ATOL:
                continue
            channel = QubitChannel.from_canonical([0.0, 0.0, float(new_t[2])], new_lam)
            return perm, signs, channel
    return None


def _relabellings(t, lam):
    """The channel ``(t, lam)`` under all six axis relabellings."""
    t, lam = np.asarray(t, dtype=float), np.asarray(lam, dtype=float)
    return [QubitChannel.from_canonical(t[list(p)], lam[list(p)]) for p in _REFERENCE_PERMUTATIONS]


def _random_channels():
    rng = np.random.default_rng(2718)
    return [random_cptp_canonical_channel(rng) for _ in range(200)]


def _angle_form_channels():
    out = []
    for theta in np.linspace(0, np.pi / 2, 7):
        for phi in np.linspace(-np.pi, np.pi, 9):
            for q in (1.0, 0.0, 0.25, 0.6):  # pure, then mixed environments
                ch = channel_from_angles(AngleParams(theta=theta, phi=phi, q=q))
                out.extend(_relabellings(ch.t, ch.lam))
    return out


def _depolarizing_channels():
    return [QubitChannel.from_canonical([0, 0, 0], [1 - s] * 3) for s in np.linspace(0, 1, 21)]


def _tolerance_edge_channels():
    # Amplitude damping (n = 0.64) with |t1|, |t2| or |lam3 - lam1 lam2| moved
    # to just inside and just outside GAUSSIAN_ATOL, under every relabelling.
    steps = [f * GAUSSIAN_ATOL for f in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0)]
    steps += [GAUSSIAN_ATOL, np.nextafter(GAUSSIAN_ATOL, 1.0)]
    out = []
    for d in steps:
        for sign in (1, -1):
            for t, lam in (
                ([sign * d, 0, 0.36], [0.8, 0.8, 0.64]),
                ([0, sign * d, 0.36], [0.8, 0.8, 0.64]),
                ([0, 0, 0.36], [0.8, 0.8, 0.8 * 0.8 + sign * d]),
            ):
                out.extend(_relabellings(t, lam))
    return out


class TestFrameSearchMatchesReference:
    """The 6-candidate search returns what the 24-candidate loop returned."""

    def _compare(self, channels):
        matched = []
        for ch in channels:
            ref = _reference_gaussian_equivalent(ch)
            eq = gaussian_equivalent(ch)
            if ref is None:
                assert eq is None
                continue
            perm, signs, channel = ref
            assert eq is not None
            assert (eq.perm, eq.signs) == (perm, signs)
            assert eq.channel.t.tobytes() == channel.t.tobytes()
            assert eq.channel.lam.tobytes() == channel.lam.tobytes()
            matched.append(eq.perm)
        return matched

    def test_random_channels(self):
        self._compare(_random_channels())

    def test_angle_form_channels_under_every_relabelling(self):
        matched = self._compare(_angle_form_channels())
        # Swapping the first two axes keeps a Gaussian form Gaussian, so the
        # even permutations, tried first, take every match.
        assert set(matched) == set(_REFERENCE_PERMUTATIONS[:3])

    def test_depolarizing_channels(self):
        matched = self._compare(_depolarizing_channels())
        assert matched  # s = 0 and s = 1 are Gaussian

    def test_channels_at_the_gaussian_tolerance(self):
        channels = _tolerance_edge_channels()
        matched = self._compare(channels)
        # both sides of the tolerance are exercised
        assert 0 < len(matched) < len(channels)


def test_green_serialization_table():
    kernel = green_from_channel(amplitude_damping(0.64))
    table = kernel.to_table()
    assert len(table) == 16
    assert table["ζζ*"] == pytest.approx(1.0)
    assert table["ζζ*ξξ*"] == pytest.approx(0.18)
    assert kernel.pretty().startswith("1·ζζ*")
