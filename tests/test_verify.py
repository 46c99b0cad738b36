"""The trial-batched verification suites against the per-trial loops they replace.

The reference suites below are the loops ``verify`` ran before its array
passes, built from the public element algebra only: the kernel as products
of elements, the characteristic function as an operator product, and the
convolution through ``substitute``.  The array passes must give the same
bits, raise the same exceptions and leave the generator in the same state.
"""

import functools
import itertools

import numpy as np
import pytest
from scripted_stream import ScriptedStream
from test_grassmann import awkward_element, fresh_kept_table

from grasschan import grassmann, green, qubit, verify
from grasschan.charfunc import (
    CharFunction,
    NotNormalizedError,
    NotPhysicalError,
    _char_bodies,
    _states_from_bodies,
    char_function,
    displacement,
    state_from_char,
)
from grasschan.grassmann import (
    XI,
    XI_STAR,
    ZETA,
    ZETA_STAR,
    Generator,
    GrassmannElement,
    OperatorElement,
    delta_pair,
    integrate_pair,
    substitute,
)
from grasschan.green import _apply_kernels, apply_green, green_from_channel
from grasschan.qubit import (
    QubitChannel,
    QubitState,
    _bloch_map,
    _check_states,
    _choi_prescreen,
    _random_channels_and_states,
    _states_from_uniforms,
    apply_channel,
    random_cptp_canonical_channel,
    random_state,
)
from grasschan.tolerances import CALIBRATION_TOL, CHOI_EIG_FLOOR, ORACLE_TOL, SCREEN_MARGIN, STATE_ATOL
from grasschan.verify import CHUNK_TRIALS, CheckResult, run_verification


def reference_char_function(rho):
    return CharFunction((OperatorElement.from_matrix(rho.matrix) * displacement()).trace())


EDGE_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324, 3 * 5e-324, 1e-310, -1e-310, 2.2e-308, 1e-300, 0.3, -0.7]


def reference_kernel(t, lam):
    """The kernel of canonical ``(t, lam)``, CPTP or not, as products of elements."""
    t1, t2, t3 = (float(v) for v in t)
    lam1, lam2, lam3 = (float(v) for v in lam)
    a = (lam1 + lam2) / 2
    b = (lam2 - lam1) / 2
    body = delta_pair(ZETA - a * XI - b * XI_STAR) * (GrassmannElement.one() + (t3 / 2) * (XI * XI_STAR))
    body = body + (lam3 - lam1 * lam2) * (XI * XI_STAR)
    body = body + ((t1 - 1j * t2) / 2) * (ZETA * ZETA_STAR * XI)
    body = body - ((t1 + 1j * t2) / 2) * (ZETA * ZETA_STAR * XI_STAR)
    return body


def reference_convolution(kernel, chi_body):
    """``integrate_pair(relabel(chi) * kernel)`` on elements, not validated."""
    relabeled = substitute(chi_body, {Generator.XI: ZETA, Generator.XI_STAR: ZETA_STAR})
    return integrate_pair(relabeled * kernel)


def reference_apply(kernel, chi):
    return CharFunction(reference_convolution(kernel, chi.body))


def reference_calibration_suite(rng, trials, tol):
    worst = 0.0
    for _ in range(trials):
        rho = random_state(rng)
        chi = reference_char_function(rho)
        expected = GrassmannElement.from_table(
            {"1": 1.0, "ξξ*": (2 * rho.p - 1) / 2, "ξ": rho.gamma, "ξ*": -np.conj(rho.gamma)}
        )
        worst = max(worst, float(np.max(np.abs(chi.body.coefficients - expected.coefficients))))
    return CheckResult("characteristic_function_closed_form", worst <= tol, worst, trials, tol)


def reference_symbolic(ch, rho):
    """One oracle trial's symbolic path on elements: kernel, characteristic
    function, convolution, inversion."""
    return state_from_char(reference_apply(reference_kernel(ch.t, ch.lam), reference_char_function(rho)))


def reference_oracle_suite(rng, trials, tol):
    worst = 0.0
    for _ in range(trials):
        ch = random_cptp_canonical_channel(rng)
        rho = random_state(rng)
        symbolic = reference_symbolic(ch, rho)
        dense = apply_channel(ch, rho)
        worst = max(worst, abs(symbolic.p - dense.p), abs(symbolic.gamma - dense.gamma))
    return CheckResult("convolution_vs_dense_oracle", worst <= tol, worst, trials, tol)


def reference_suites(rng, trials, calibration_tol, oracle_tol):
    """The calibration over all trials, then the oracle, one trial at a time."""
    return (reference_calibration_suite(rng, trials, calibration_tol), reference_oracle_suite(rng, trials, oracle_tol))


def run_both(seed, trials):
    """(batched, reference) results of both suites, plus each side's next draw."""
    out = []
    for suites in (verify._suites, reference_suites):
        rng = np.random.default_rng(seed)
        checks = suites(rng, trials, CALIBRATION_TOL, ORACLE_TOL)
        out.append((checks, rng.random()))
    return out


def assert_same_checks(got, expected):
    assert got == expected
    for g, e in zip(got, expected):
        assert g.max_residual.hex() == e.max_residual.hex()


def test_result_json_is_the_fields_in_order():
    result = run_verification(trials=3, seed=5)
    report = result.to_json()
    assert list(report) == ["schema_version", "passed", "seed", "checks"]
    assert report["schema_version"] == 1 and (report["passed"], report["seed"]) == (result.passed, 5)
    assert isinstance(report["checks"], list)
    assert report["checks"] == [check.to_json() for check in result.checks]
    for check, entry in zip(result.checks, report["checks"]):
        assert list(entry) == ["name", "passed", "max_residual", "trials", "tolerance"]
        assert list(entry.values()) == [check.name, check.passed, check.max_residual, check.trials, check.tolerance]


class TestBatchedSuitesMatchPerTrialLoops:
    @pytest.mark.parametrize("trials", [0, 1, 2, 5, 50])
    def test_seeds(self, trials):
        for seed in range(200):
            (got, got_next), (expected, expected_next) = run_both(seed, trials)
            assert_same_checks(got, expected)
            assert got_next == expected_next

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 3])
    def test_chunk_boundaries(self, trials):
        (got, got_next), (expected, expected_next) = run_both(11, trials)
        assert_same_checks(got, expected)
        assert got_next == expected_next

    def test_stream_order_across_many_chunks(self, monkeypatch):
        """With three trials per chunk, runs of 0 to 20 trials cross up to six
        chunk boundaries; each chunk's calibration rows keep their place in
        the stream, before every oracle draw.  The oracle's streams of one
        seed meet again (a round that starts on one run's row ends on
        another's), so the reference computes the symbolic path of a trial it
        has seen, by bytes, once."""
        monkeypatch.setattr(verify, "CHUNK_TRIALS", 3)
        seen, symbolic = {}, reference_symbolic

        def once(ch, rho):
            key = (ch.t.tobytes(), ch.lam.tobytes(), np.array([rho.p, rho.gamma]).tobytes())
            if key not in seen:
                seen[key] = symbolic(ch, rho)
            return seen[key]

        monkeypatch.setitem(globals(), "reference_symbolic", once)
        for seed in range(50):
            for trials in range(21):
                (got, got_next), (expected, expected_next) = run_both(seed, trials)
                assert_same_checks(got, expected)
                assert got_next.hex() == expected_next.hex()

    def test_run_verification_and_zero_trials(self):
        result = run_verification(trials=0, seed=3)
        assert result.passed and all(c.max_residual == 0.0 and c.trials == 0 for c in result.checks)
        result = run_verification(trials=20, seed=3)
        assert_same_checks(result.checks, run_both(3, 20)[1][0])


class TestArrayPassesMatchSingleObjects:
    def test_rows_have_the_bits_of_the_single_object_paths(self):
        rng = np.random.default_rng(8)
        channels = [random_cptp_canonical_channel(rng) for _ in range(64)]
        states = [random_state(np.random.default_rng(seed)) for seed in range(64)]
        t = np.array([ch.t for ch in channels])
        lam = np.array([ch.lam for ch in channels])
        p = np.array([rho.p for rho in states])
        gamma = np.array([rho.gamma for rho in states])

        kernels = np.array([green._kernel_body(t_row, lam_row) for t_row, lam_row in zip(t.tolist(), lam.tolist())])
        chis = _char_bodies(np.array([rho.matrix for rho in states]))
        outs = _apply_kernels(kernels, chis)
        symbolic_p, symbolic_gamma = _states_from_bodies(outs)
        dense_p, dense_gamma = _bloch_map(t, lam, p, gamma)
        for s, (ch, rho) in enumerate(zip(channels, states)):
            kernel = reference_kernel(ch.t, ch.lam)
            chi = reference_char_function(rho)
            out = reference_apply(kernel, chi)
            assert kernels[s].tobytes() == kernel.coefficients.tobytes()
            assert green_from_channel(ch).body.coefficients.tobytes() == kernel.coefficients.tobytes()
            assert chis[s].tobytes() == chi.body.coefficients.tobytes()
            assert char_function(rho).body.coefficients.tobytes() == chi.body.coefficients.tobytes()
            assert outs[s].tobytes() == out.body.coefficients.tobytes()
            single = apply_green(green_from_channel(ch), chi)
            assert single.body.coefficients.tobytes() == out.body.coefficients.tobytes()
            state = state_from_char(out)
            assert (symbolic_p[s], symbolic_gamma[s]) == (state.p, state.gamma)
            dense = apply_channel(ch, rho)
            assert (dense_p[s], dense_gamma[s]) == (dense.p, dense.gamma)

        # rng.random((n, 3)) is the stream of n random_state calls
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
        p, gamma = _states_from_uniforms(rng_a.random((40, 3)))
        for s in range(40):
            rho = random_state(rng_b)
            assert (p[s], gamma[s]) == (rho.p, rho.gamma)
        assert rng_a.random() == rng_b.random()

    def test_the_closed_form_kernel_has_the_bits_of_the_reference_on_edge_rows(self):
        """``green._kernel_body`` against the element-algebra reference, CPTP
        or not: half the entries uniform, half signed zeros, subnormals, tiny
        and unit values.  ``lam = (5e-324, 0.0, -0.0)`` makes ``a`` an
        underflowed -0.0 and ``lam3 - lam1 lam2`` a -0.0, where xi xi* needs
        its sum started from +0.0."""
        rng = np.random.default_rng(19)
        n = 20_000
        rows = np.where(rng.random((n, 6)) < 0.5, rng.uniform(-1, 1, (n, 6)), rng.choice(EDGE_ENTRIES, (n, 6)))
        rows[:2] = [[0.0, -0.0, 0.5, 5e-324, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0, -0.0, -0.0]]
        for s, row in enumerate(rows.tolist()):
            kernel = reference_kernel(row[:3], row[3:]).coefficients
            if s == 0:
                assert kernel[0b1100] == 0 and not np.signbit(kernel[0b1100].real)
            assert green._kernel_body(row[:3], row[3:]).tobytes() == kernel.tobytes(), row

    def test_one_channel_kernel_has_the_bits_of_the_reference(self):
        """``green_from_channel`` on CPTP channels with ``lam1 = -lam2`` (``a``
        is +-0.0), ``lam1 = lam2`` (``b`` is +-0.0), ``t1`` and ``t2`` at
        +-0.0 and subnormal entries, and on random CPTP channels, against the
        element-algebra reference."""
        zeros = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]
        lams = [(x, y, z) for x in zeros + [0.5, -0.5] for y in (x, -x) for z in zeros + [0.25]]
        ts = list(itertools.product([0.0, -0.0], [0.0, -0.0, 5e-324], [0.0, -0.0, -1e-310, 0.25]))
        channels = [QubitChannel.from_canonical(ts[k % len(ts)], lam) for k, lam in enumerate(lams + lams[::-1])]
        rng = np.random.default_rng(190)
        channels = [ch for ch in channels if ch.cptp_report.ok]
        assert len(channels) > 200
        channels += [random_cptp_canonical_channel(rng) for _ in range(100)]
        for ch in channels:
            body = green_from_channel(ch).body.coefficients.tobytes()
            assert body == reference_kernel(ch.t, ch.lam).coefficients.tobytes(), ch

    def test_char_function_on_edge_states_has_the_bits_of_the_reference(self):
        """Weights at and just outside [0, 1], a subnormal weight, and
        signed-zero and subnormal coherences: ``char_function``, verify's rows
        and ``state_from_char`` against the operator-product trace.  At
        ``p = -2**-53`` the constant ``p + (1 - p)`` is not 1.0, and at
        ``p = 2**-54`` and 0.3 the xi xi* coefficient is not ``(2p - 1)/2``."""
        edge_p = [0.0, -0.0, -5e-10, 1 + 5e-10, 5e-324, 1.0, 0.5, 0.3, -2**-53, 2**-54]
        edge_gamma = [
            0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
            5e-324, complex(-0.0, -5e-324), complex(1e-310, -2.3e-308), complex(-1e-5, 1e-5),
        ]
        states = [QubitState(p=p, gamma=g) for p in edge_p for g in edge_gamma]
        rows = verify._density_rows(np.array([rho.p for rho in states]), np.array([rho.gamma for rho in states]))
        bodies = _char_bodies(rows)
        assert bodies.tobytes() == _char_bodies(np.array([rho.matrix for rho in states])).tobytes()
        p, gamma = _states_from_bodies(bodies)
        for s, rho in enumerate(states):
            expected = reference_char_function(rho).body.coefficients.tobytes()
            chi = char_function(rho)
            assert chi.body.coefficients.tobytes() == bodies[s].tobytes() == expected
            back = state_from_char(chi)
            assert (back.p.hex(), back.gamma.real.hex(), back.gamma.imag.hex()) == (
                float(p[s]).hex(), gamma[s].real.hex(), gamma[s].imag.hex()
            )


XI_SUBALGEBRA = [0b0000, 0b0100, 0b1000, 0b1100]


def awkward_convolution_inputs(seed, n):
    """``n`` finite kernel rows and ``n`` chi rows, with exact zeros and -0.0 in both.

    The kernels are random elements, not CPTP kernels.  A chi row holds random
    values on the xi subalgebra, its constant included, and a signed zero on
    every other monomial, which ``CharFunction`` lets through.  The last
    three rows are an all +0.0 pair, an all -0.0 pair, and a pair whose terms
    cancel to an exact zero in every target.
    """
    rng = np.random.default_rng(seed)
    kernels = np.array(
        [awkward_element(rng, (0.3, 1.0)[k % 2], small_integers=k % 3 == 1).coefficients for k in range(n)]
    )
    chis = np.array([awkward_element(rng, density=0.0).coefficients for _ in range(n)])
    chis[:, XI_SUBALGEBRA] = [awkward_element(rng, k % 3 / 2).coefficients[:4] for k in range(n)]
    signed_zero = complex(-0.0, -0.0)
    kernels[-3:] = np.array([0.0, signed_zero, -2.0])[:, None]
    chis[-3:] = np.array([0.0, signed_zero, 0.0])[:, None]
    chis[-1, XI_SUBALGEBRA] = [1.0, 1.0, 2.0, -0.0]  # every target sums 1 + 1 - 2 - 0 times -2
    return kernels, chis


EXTREME_PARTS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.3e-308, 1e-160, 1.0, -1.0, 1e154, -1.3e154, 1e300, 1.7e308, -1.7e308]
)


def extreme_convolution_inputs(seed, n):
    """``n`` finite kernel rows and ``n`` chi rows whose parts are subnormal,
    tiny, unit or near overflow, so that products underflow or overflow and
    sums reach inf or cancel inf - inf to NaN.  Off the xi subalgebra a chi row
    holds signed zeros, as in ``awkward_convolution_inputs``."""
    rng = np.random.default_rng(seed)

    def rows():
        c = np.empty((n, 16), dtype=complex)
        c.real, c.imag = rng.choice(EXTREME_PARTS, size=(2, n, 16))
        return c

    kernels, chis = rows(), rows()
    off_xi = [m for m in range(16) if m not in XI_SUBALGEBRA]
    for part in (chis.real, chis.imag):
        part[:, off_xi] = rng.choice([0.0, -0.0], size=(n, len(off_xi)))
    return kernels, chis


def exact_zero_convolution_inputs(seed, n):
    """``n`` CPTP-derived kernel rows with exact zeros where the table reads
    them, and ``n`` chi rows.

    The kernels cycle through Gaussian kernels (``t1 = t2 = 0``: the
    ``zeta zeta* xi`` and ``zeta zeta* xi*`` coefficients are exact zeros),
    the identity channel's kernel, and random CPTP kernels with three of the
    coefficients the table reads set to a signed zero pair, ``complex(x, -0.0)``
    or ``complex(+-0.0, y)``.  The chi rows alternate the awkward rows of
    ``awkward_convolution_inputs`` and characteristic functions of random states.
    """
    rng = np.random.default_rng(seed)
    read = sorted(set(green._CONVOLUTION.pairs[1].tolist()))
    _, awkward_chis = awkward_convolution_inputs(seed, n)
    kernels, chis = [], []
    for k in range(n):
        if k % 3 == 0:
            angles = green.AngleParams(theta=rng.uniform(0, np.pi / 2), phi=rng.uniform(-np.pi, np.pi), q=rng.random())
            channel = green.channel_from_angles(angles)
        elif k % 3 == 1:
            channel = QubitChannel.from_canonical([0, 0, 0], [1, 1, 1])
        else:
            channel = random_cptp_canonical_channel(rng)
        body = green_from_channel(channel).body.coefficients.copy()
        if k % 3 == 2:
            x, y = rng.normal(size=2)
            zeros = [complex(0.0, -0.0), complex(-0.0, -0.0), complex(x, -0.0), complex(0.0, y), complex(-0.0, y)]
            for j in rng.choice(read, size=3, replace=False):
                body[j] = zeros[rng.integers(len(zeros))]
        kernels.append(body)
        chis.append(char_function(random_state(rng)).body.coefficients if k % 2 else awkward_chis[k])
    return np.array(kernels), np.array(chis)


class TestConvolutionTable:
    def test_is_the_product_table_filtered_to_the_terms_that_count(self):
        product = (grassmann._PAIR_I, grassmann._PAIR_J, grassmann._PAIR_SIGN, grassmann._PAIR_TARGET)
        expected = [
            (i << 2, j, sign, target & ~0b0011)
            for i, j, sign, target in zip(*(a.tolist() for a in product))
            if i & ~0b0011 == 0 and target & 0b0011 == 0b0011
        ]
        assert len(expected) == 16
        assert list(zip(*(a.tolist() for a in green._CONVOLUTION.pairs))) == expected

    def test_rows_match_the_reference_and_grow_the_kept_tables_by_prefix(self, monkeypatch):
        fresh_kept_table(monkeypatch)
        kernels, chis = awkward_convolution_inputs(283, 300)
        for side in (kernels, chis):
            zeros = side[side == 0]
            assert np.signbit(zeros.real).any() and np.signbit(zeros.imag).any()
        expected = [
            reference_convolution(GrassmannElement(k), GrassmannElement(c)).coefficients.tobytes()
            for k, c in zip(kernels, chis)
        ]
        conv, product = green._CONVOLUTION, grassmann._PRODUCT
        grown = []
        for n in (1, 5, 257, 300, 5):
            outs = _apply_kernels(kernels[-n:], chis[-n:])
            grown.append(len(conv.kept) - 1)
            assert [row.tobytes() for row in outs] == expected[-n:]
        assert grown == [1, 5, 257, 300, 300]
        assert np.shares_memory(conv.kept[5][0], conv.kept[300][0])
        # the reference's one-row products are the only product passes
        assert len(product.kept) - 1 == 1

    def test_the_closed_form_holds_a_canonical_kernels_floats(self):
        """``_closed_form`` is None unless the kernel has the canonical pattern
        (zeros on ``CANONICAL_ZEROS``, a zero imaginary part on
        ``CANONICAL_REALS``, of either sign), and otherwise holds the kernel's
        coefficients in the order of the four target sums; it is read once."""
        kernels, _ = exact_zero_convolution_inputs(3, 30)
        awkward, _ = awkward_convolution_inputs(3, 30)
        kinds = set()
        for body in np.concatenate([kernels, awkward, canonical_projection(awkward)]):
            kernel = green.GreenFunction(GrassmannElement(body))
            closed = kernel._closed_form
            assert kernel._closed_form is closed
            k = dict(zip(grassmann.MONOMIAL_NAMES, body.tolist()))
            canonical = not any(k[m] for m in CANONICAL_ZEROS) and not any(k[m].imag for m in CANONICAL_REALS)
            kinds.add(canonical)
            if not canonical:
                assert closed is None
                continue
            expected = (
                k["ζζ*"].real,
                k["ζζ*ξ"].real, k["ζζ*ξ"].imag, k["ζ*ξ"].real, k["ζξ"].real,
                k["ζζ*ξ*"].real, k["ζζ*ξ*"].imag, k["ζ*ξ*"].real, k["ζξ*"].real,
                k["ζζ*ξξ*"].real, k["ξξ*"].real,
            )
            assert [type(x) for x in closed] == [float] * 11
            assert np.array(closed).tobytes() == np.array(expected).tobytes()
        assert kinds == {True, False}

    @pytest.mark.parametrize("inputs", ["awkward", "extreme", "exact_zeros"])
    def test_one_chi_rows_have_the_bits_of_the_stacked_pass_and_the_reference(self, inputs, monkeypatch):
        """Each set runs as given and with its kernels projected on the
        canonical pattern, so both the closed form and the array pass run; the
        four coefficients of ``apply_green`` (validation switched off, so that
        unnormalized, overflowing and NaN sums come back) equal, by bytes,
        columns 0, 4, 8 and 12 of the stacked row and of the element-algebra
        reference, whose other 12 columns are +0.0 bytes."""
        if inputs == "awkward":
            kernels, chis = awkward_convolution_inputs(293, 300)
        elif inputs == "extreme":
            kernels, chis = extreme_convolution_inputs(307, 300)
        else:
            kernels, chis = exact_zero_convolution_inputs(311, 300)
        kernels = np.concatenate([kernels, canonical_projection(kernels)])
        chis = np.concatenate([chis, chis])
        with np.errstate(all="ignore"):
            stacked = _apply_kernels(kernels, chis)
            expected = [
                reference_convolution(GrassmannElement(k), GrassmannElement(c)).coefficients.tobytes()
                for k, c in zip(kernels, chis)
            ]
        if inputs == "extreme":
            values = np.concatenate([stacked.real, stacked.imag]).ravel()
            assert np.isinf(values).any() and np.isnan(values).any()
            assert ((values != 0) & (np.abs(values) < np.finfo(float).tiny)).any()
        monkeypatch.setattr(green, "_char", unchecked_char)
        off_xi = [m for m in range(16) if m not in XI_SUBALGEBRA]
        paths = set()
        for k, c, row, ref in zip(kernels, chis, stacked, expected):
            kernel = green.GreenFunction(GrassmannElement(k))
            paths.add(kernel._closed_form is None)
            one = apply_green(kernel, unchecked_char(*c[XI_SUBALGEBRA].tolist())).coefficients
            assert type(one) is tuple and len(one) == 4 and all(type(x) is complex for x in one)
            ref = np.frombuffer(ref, dtype=complex)
            assert np.array(one).tobytes() == row[XI_SUBALGEBRA].tobytes() == ref[XI_SUBALGEBRA].tobytes()
            assert row[off_xi].tobytes() == ref[off_xi].tobytes() == bytes(16 * len(off_xi))
        assert paths == {True, False}

    def test_apply_green_builds_the_operand_once_per_kernel_and_runs_no_product_pass(self, monkeypatch):
        """A canonical kernel's operand is its cached ``_closed_form``."""
        rng = np.random.default_rng(17)
        kernels = [green_from_channel(random_cptp_canonical_channel(rng)) for _ in range(3)]
        chis = [char_function(random_state(rng)) for _ in range(50)]
        builds, passes = count_closed_forms_and_passes(monkeypatch)
        for kernel in kernels:
            for chi in chis:
                apply_green(kernel, chi)
        assert builds == kernels and passes == []
        assert all(kernel._closed_form is not None for kernel in kernels)

    def test_any_other_kernel_runs_one_product_pass_per_call(self, monkeypatch):
        rng = np.random.default_rng(19)
        kernels = []
        for names, shift in ((CANONICAL_ZEROS, 1e-3), (CANONICAL_REALS, 1e-3j)) * 2:
            body = green_from_channel(random_cptp_canonical_channel(rng)).body.coefficients.copy()
            body[grassmann.MONOMIAL_NAMES.index(rng.choice(names))] += shift
            kernels.append(green.GreenFunction(GrassmannElement(body)))
        chis = [char_function(random_state(rng)) for _ in range(50)]
        builds, passes = count_closed_forms_and_passes(monkeypatch)
        for kernel in kernels:
            for chi in chis:
                apply_green(kernel, chi)
        assert builds == kernels and len(passes) == len(kernels) * len(chis)
        assert all(kernel._closed_form is None for kernel in kernels)


#: The canonical pattern of a kernel: exact zeros, and real coefficients.
CANONICAL_ZEROS = ("1", "ζ", "ζ*", "ξ", "ξ*", "ζξξ*", "ζ*ξξ*")
CANONICAL_REALS = ("ζζ*", "ζξ", "ζ*ξ", "ζξ*", "ζ*ξ*", "ξξ*", "ζζ*ξξ*")


def canonical_projection(kernels):
    """``(n, 16)`` kernel rows with the canonical pattern imposed: each part
    that must be zero is multiplied by 0.0, which keeps its sign."""
    out = kernels.copy()
    zeros = [grassmann.MONOMIAL_NAMES.index(m) for m in CANONICAL_ZEROS]
    reals = [grassmann.MONOMIAL_NAMES.index(m) for m in CANONICAL_REALS]
    out[:, zeros] *= 0.0
    out.imag[:, reals] *= 0.0
    return out


def unchecked_char(*coefficients):
    """A ``CharFunction`` holding ``coefficients`` without its checks."""
    chi = object.__new__(CharFunction)
    object.__setattr__(chi, "coefficients", coefficients)
    return chi


def count_closed_forms_and_passes(monkeypatch):
    """Record each kernel whose ``_closed_form`` is built, and each product pass."""
    builds, passes = [], []
    cached = green.GreenFunction.__dict__["_closed_form"]

    def counted_build(kernel):
        builds.append(kernel)
        return cached.func(kernel)

    counted = functools.cached_property(counted_build)
    counted.__set_name__(green.GreenFunction, "_closed_form")

    def counted_products(*args, **kwargs):
        passes.append(1)
        return grassmann._products(*args, **kwargs)

    monkeypatch.setattr(green.GreenFunction, "_closed_form", counted)
    monkeypatch.setattr(green, "_products", counted_products)
    return builds, passes


def valid_bodies(n=4):
    rng = np.random.default_rng(5)
    return np.array([char_function(random_state(rng)).body.coefficients for _ in range(n)])


class TestPerTrialChecks:
    def test_char_function_support_and_normalisation(self):
        _states_from_bodies(valid_bodies())
        bodies = valid_bodies()
        bodies[2, 0b0001] = 0.1  # a zeta monomial
        with pytest.raises(ValueError, match="xi subalgebra"):
            _states_from_bodies(bodies)
        bodies = valid_bodies()
        bodies[1, 0] = 1.5
        bodies[3, 0b0010] = 0.1  # a later row fails another check
        with pytest.raises(NotNormalizedError):
            _states_from_bodies(bodies)
        bodies = valid_bodies()
        bodies[2, 0b0111] = complex("nan")  # NaN off the xi subalgebra is not zero
        with pytest.raises(ValueError, match="xi subalgebra"):
            _states_from_bodies(bodies)
        bodies = valid_bodies()
        bodies[2, 0] = complex("nan")  # NaN fails every "within tolerance" rule
        with pytest.raises(NotNormalizedError) as batched:
            _states_from_bodies(bodies)
        with pytest.raises(NotNormalizedError) as single:
            CharFunction(GrassmannElement(bodies[2]))
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("mask", [0b0100, 0b1000, 0b1100])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf), np.nan])
    def test_a_non_finite_coefficient_is_rejected_by_name(self, mask, value):
        """The pass has no finiteness test of its own; its other checks reject
        every non-finite row, which then raises ``CharFunction``'s error."""
        bodies = valid_bodies()
        bodies[1, mask] = value
        bodies[3, 0] = 2.0  # a later row fails another check
        with pytest.raises(NotPhysicalError) as batched:
            _states_from_bodies(bodies)
        with pytest.raises(NotPhysicalError) as single:
            CharFunction(GrassmannElement(bodies[1]))
        assert str(batched.value) == str(single.value)
        assert f"coefficient of {grassmann.MONOMIAL_NAMES[mask]} is not finite" in str(single.value)

    @pytest.mark.parametrize(
        "mask, value, error",
        [
            (0, 1.1, NotNormalizedError),
            (0b1100, 0.1j, NotPhysicalError),
            (0b1000, 0.3, NotPhysicalError),
            (0b1100, 1.5, NotPhysicalError),
            (0b0100, 0.7, NotPhysicalError),
            (0, float("nan"), NotNormalizedError),
            (0b1100, complex(0, float("nan")), NotPhysicalError),
            (0b1100, float("nan"), NotPhysicalError),
            (0b0100, float("nan"), NotPhysicalError),
            (0b1000, complex(float("nan"), 0), NotPhysicalError),
        ],
    )
    def test_state_from_char_physicality(self, mask, value, error):
        bodies = valid_bodies()
        bodies[1, mask] += value
        with pytest.raises(error) as batched:
            _states_from_bodies(bodies)
        with pytest.raises(error) as single:
            state_from_char(CharFunction(GrassmannElement(bodies[1])))
        assert str(batched.value) == str(single.value)

    def test_state_bounds(self):
        _check_states(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.0]))
        for p, gamma in ((1.2, 0.0), (0.5, 0.6), (float("nan"), 0.0), (0.5, complex("nan"))):
            with pytest.raises(ValueError) as batched:
                _check_states(np.array([0.5, p]), np.array([0.1, gamma]))
            with pytest.raises(ValueError) as single:
                QubitState(p=p, gamma=gamma)
            assert str(batched.value) == str(single.value)

    def test_uniform_states_are_inside_the_bounds_by_construction(self):
        """``_states_from_uniforms`` runs no state check: on edge and random
        uniforms ``p`` is in ``[0, 1)`` and ``|gamma|^2`` exceeds ``p (1 - p)``
        by less than ``1e-15``, far inside ``STATE_ATOL``."""
        top = 1 - 2.0**-53
        edges = itertools.product(
            [0.0, 2.0**-53, 0.5, top], [0.0, top], [0.0, 2.0**-53, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, top]
        )
        u = np.concatenate([np.array(list(edges)), np.random.default_rng(409).random((100_000, 3))])
        p, gamma = _states_from_uniforms(u)
        assert ((0 <= p) & (p < 1)).all()
        assert (np.abs(gamma) ** 2 - p * (1 - p)).max() < 1e-15
        assert 1e-15 < STATE_ATOL / 1e5
        _check_states(p, gamma)
        # random_state still builds a checked QubitState, with the same values
        assert [random_state(ScriptedStream(row)) for row in u[:80]] == [
            QubitState(p=a, gamma=b) for a, b in zip(p[:80], gamma[:80])
        ]

    def test_trace_rows_of_edge_uniform_states_pass_the_char_function_checks(self):
        """``verify`` runs no ``CharFunction`` check on its input rows: the
        trace rows of states made from uniforms in ``[0, 1)`` are finite, are
        zero off the xi subalgebra and have a constant within an ulp of 1."""
        top = 1 - 2.0**-53
        extremes = [0.0, 2.0**-53, 0.5, top]
        edges = itertools.product([0.0, 2.0**-53, 0.5, 1 - 2.0**-52, top], extremes, extremes + [0.25, 0.75])
        edges = np.array(list(edges))
        u = np.concatenate([edges, np.random.default_rng(410).random((20_000, 3))])
        p, gamma = _states_from_uniforms(u)
        bodies = _char_bodies(verify._density_rows(p, gamma))
        assert np.isfinite(bodies).all()
        assert not bodies[:, [m for m in range(16) if m not in XI_SUBALGEBRA]].any()
        assert np.abs(bodies[:, 0] - 1).max() <= 2.0**-52
        for row in bodies[: len(edges)]:
            chi = CharFunction(GrassmannElement(row))
            assert chi.body.coefficients.tobytes() == row.tobytes()

    def test_a_failing_trial_fails_the_run(self, monkeypatch):
        calls = []

        def doubled_last_kernel(t, lam):
            calls.append(1)
            body = green._kernel_body(t, lam)
            return body * 2 if len(calls) == 5 else body

        monkeypatch.setattr(verify, "_kernel_body", doubled_last_kernel)
        with pytest.raises(NotNormalizedError):
            run_verification(trials=5, seed=1)

    def test_the_first_failing_trial_raises_its_own_error(self, monkeypatch):
        """Trial 2's convolved row fails only a state check (its xi xi*
        coefficient puts ``p`` out of range) and trial 4's fails a
        ``CharFunction`` check (its constant is 3).  The per-trial loop
        raises trial 2's error, and so does the chunk's one check of its
        convolved rows."""
        calls, convolved = [], []

        def shifted_kernels(t, lam):
            calls.append(1)
            body = green._kernel_body(t, lam)
            if len(calls) in (2, 4):
                body[0b1111 if len(calls) == 2 else 0b0011] += 2.0
            return body

        def recorded_convolution(kernels, chis):
            out = _apply_kernels(kernels, chis)
            convolved.extend(out.copy())
            return out

        monkeypatch.setattr(verify, "_kernel_body", shifted_kernels)
        monkeypatch.setattr(verify, "_apply_kernels", recorded_convolution)
        with pytest.raises(ValueError) as batched:
            run_verification(trials=5, seed=1)
        errors = []
        for row in convolved:  # the per-trial order
            try:
                state_from_char(CharFunction(GrassmannElement(row)))
            except ValueError as error:
                errors.append(error)
        assert [type(e) for e in errors] == [NotPhysicalError, NotNormalizedError]
        assert "outside [0, 1]" in str(errors[0])
        assert type(batched.value) is NotPhysicalError and str(batched.value) == str(errors[0])

    def test_a_nan_residual_fails_its_suite(self, monkeypatch):
        def dense_with_nan(t, lam, p, gamma):
            p_out, gamma_out = _bloch_map(t, lam, p, gamma)
            gamma_out[1] = complex("nan")
            return p_out, gamma_out

        monkeypatch.setattr(verify, "_bloch_map", dense_with_nan)
        result = run_verification(trials=5, seed=2)
        assert result.checks[0].passed
        assert not result.checks[1].passed and np.isnan(result.checks[1].max_residual)
        assert not result.passed

    def test_one_convolution_pass_per_chunk_and_one_kernel_per_trial(self, monkeypatch):
        """A run's only product passes are the oracle chunks' convolutions, one
        per chunk; each trial's kernel is one closed-form call."""
        products, kernel_body = grassmann._products, green._kernel_body
        passes, kernels = [], []

        def counted_products(xc, yc, table=grassmann._PRODUCT):
            passes.append((table, len(xc)))
            return products(xc, yc, table)

        def counted_kernel_body(t, lam):
            kernels.append((t, lam))
            return kernel_body(t, lam)

        monkeypatch.setattr(grassmann, "_products", counted_products)
        monkeypatch.setattr(green, "_products", counted_products)
        monkeypatch.setattr(verify, "_kernel_body", counted_kernel_body)
        trials = 2 * CHUNK_TRIALS + 3
        assert run_verification(trials=trials, seed=4).passed
        assert passes == [(green._CONVOLUTION, n) for n in (CHUNK_TRIALS, CHUNK_TRIALS, 3)]
        assert len(kernels) == trials

    def test_one_state_and_char_function_pass_per_chunk(self, monkeypatch):
        """Each chunk makes its states and characteristic functions once, for
        the calibration and the oracle together, and checks only the
        convolved rows, once."""
        calls = []
        for name in ("_states_from_uniforms", "_char_bodies", "_states_from_bodies"):
            real = getattr(verify, name)
            monkeypatch.setattr(
                verify, name, lambda rows, name=name, real=real: calls.append((name, len(rows))) or real(rows)
            )
        assert run_verification(trials=2 * CHUNK_TRIALS + 3, seed=4).passed
        assert calls == [
            call
            for n in (CHUNK_TRIALS, CHUNK_TRIALS, 3)
            for call in (
                ("_states_from_uniforms", 2 * n),
                ("_char_bodies", 2 * n),
                ("_states_from_bodies", n),
            )
        ]


def reference_channels_and_states(rng, trials, t_scale=0.8, max_tries=10_000):
    """The per-trial loop the whole-stream sampler replaces: a channel, then a state's uniforms."""
    rows = []
    for _ in range(trials):
        ch = random_cptp_canonical_channel(rng, t_scale=t_scale, max_tries=max_tries)
        rows.append((ch.t, ch.lam, rng.random(3)))
    return tuple(np.array([row[i] for row in rows]).reshape(-1, 3) for i in range(3))


def draws_and_next(sampler, rng, trials, **kwargs):
    """The ``(t, lam, u)`` bytes (or ``"RuntimeError"``) and the generator's next draw."""
    try:
        out = tuple(a.tobytes() for a in sampler(rng, trials, **kwargs))
    except RuntimeError:
        out = "RuntimeError"
    return out, rng.random()


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox]


class TestWholeStreamSampler:
    """``_random_channels_and_states`` against per-trial channel-then-state draws."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("trials", [1, 5, 255, 256, 257])
    def test_matches_per_trial_loop(self, bit_generator, trials):
        for seed in range(20 if trials < 100 else 3):
            ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for _ in range(2):  # the second pass starts mid-stream, at either row alignment
                got = draws_and_next(_random_channels_and_states, ours, trials)
                assert got == draws_and_next(reference_channels_and_states, ref, trials)
                assert got[0] != "RuntimeError"

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("first_rows_per_trial, t_scale", [(1, 0.8), (48, 1.0)])
    def test_block_growth(self, monkeypatch, bit_generator, first_rows_per_trial, t_scale):
        blocks, grown = [], 0
        real = qubit._walk
        monkeypatch.setattr(qubit, "_ROWS_PER_TRIAL", first_rows_per_trial)
        for seed in range(10):
            ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for trials in (1, 5, 40):
                blocks.clear()
                with monkeypatch.context() as m:
                    m.setattr(qubit, "_walk", lambda draws, *rest: blocks.append(len(draws)) or real(draws, *rest))
                    got = draws_and_next(_random_channels_and_states, ours, trials, t_scale=t_scale)
                assert got == draws_and_next(reference_channels_and_states, ref, trials, t_scale=t_scale)
                assert blocks == [blocks[0] * 2**k for k in range(len(blocks))]
                grown += len(blocks) > 1
        assert grown >= 10

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("max_tries", [0, 1, 2, 60])
    def test_max_tries_runs_out_at_the_same_stream_position(self, bit_generator, max_tries):
        accepted_before_raising = []
        for seed in range(30):
            ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            got = draws_and_next(_random_channels_and_states, ours, 40, max_tries=max_tries)
            assert got == draws_and_next(reference_channels_and_states, ref, 40, max_tries=max_tries)
            if got[0] == "RuntimeError":
                replay, done = np.random.Generator(bit_generator(seed)), 0
                while True:
                    try:
                        reference_channels_and_states(replay, 1, max_tries=max_tries)
                    except RuntimeError:
                        break
                    done += 1
                accepted_before_raising.append(done)
        if max_tries < 60:
            assert len(accepted_before_raising) == 30
        else:
            # some runs finish; some raise inside the pass, after accepted trials
            assert 0 < len(accepted_before_raising) < 30 and max(accepted_before_raising) > 0

    def test_near_floor_survivor_is_decided_by_the_single_channel_check(self, monkeypatch):
        # Depolarizing lam = (l, l, l) has smallest Choi eigenvalue (1 + 3l)/2.
        def raw_at(eig):
            return ((2 * eig - 1) / 3 + 1) / 2

        below, above = raw_at(CHOI_EIG_FLOOR - SCREEN_MARGIN / 2), raw_at(CHOI_EIG_FLOOR + SCREEN_MARGIN / 2)
        lam_below, lam_above = -1 + 2 * below, -1 + 2 * above
        eig_below = np.linalg.eigvalsh(QubitChannel.from_canonical([0, 0, 0], [lam_below] * 3).choi)[0]
        assert CHOI_EIG_FLOOR - SCREEN_MARGIN < eig_below < CHOI_EIG_FLOOR
        assert _choi_prescreen(np.zeros((1, 3)), np.full((1, 3), lam_below)).all()
        # trial 0: a near-floor candidate the exact check rejects, then one it accepts, then a state;
        # trial 1 starts on the other row alignment and takes lam = t = 0.
        script = [below] * 3 + [0.5] * 3 + [above] * 3 + [0.5] * 3 + [0.25, 0.5, 0.75] + [0.5] * 3000
        checked = []
        report = QubitChannel.__dict__["cptp_report"].func

        def counting_report(ch):
            checked.append(ch.lam[0])
            return report(ch)

        ours, ref = ScriptedStream(script), ScriptedStream(script)
        with monkeypatch.context() as m:
            m.setattr(QubitChannel, "cptp_report", property(counting_report))
            t, lam, u = _random_channels_and_states(ours, 2)
        assert lam_below in checked and lam_above in checked
        ref_t, ref_lam, ref_u = reference_channels_and_states(ref, 2)
        assert (t.tobytes(), lam.tobytes(), u.tobytes()) == (ref_t.tobytes(), ref_lam.tobytes(), ref_u.tobytes())
        assert lam[0].tolist() == [lam_above] * 3 and u[0].tolist() == [0.25, 0.5, 0.75]
        assert ours.position == ref.position == 24

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("max_tries", [2, 10_000])
    def test_one_row_per_trial_block(self, monkeypatch, bit_generator, max_tries):
        """A first block of one row per trial, plus four, ends inside most
        loops.  With room for many tries, a loop's accepted survivor then
        often lies within ``tail`` rows of a block's end, so that its state
        row is not in the block; with two tries, most runs raise."""
        monkeypatch.setattr(qubit, "_ROWS_PER_TRIAL", 1)
        walk, decide = qubit._walk, qubit._cptp_ok
        passes, cut_after_acceptance = [], 0

        def recorded_walk(draws, *rest):
            passes.append((draws, []))
            return walk(draws, *rest)

        def recorded_decision(t, lam):
            ok = decide(t, lam)
            passes[-1][1].append((lam, ok))
            return ok

        for seed in range(40):
            ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for trials in (1, 2, 5, 40):
                passes.clear()
                with monkeypatch.context() as m:
                    m.setattr(qubit, "_walk", recorded_walk)
                    m.setattr(qubit, "_cptp_ok", recorded_decision)
                    got = draws_and_next(_random_channels_and_states, ours, trials, max_tries=max_tries)
                assert got == draws_and_next(reference_channels_and_states, ref, trials, max_tries=max_tries)
                for draws, decisions in passes[:-1]:  # every pass but the last is cut short
                    if decisions and decisions[-1][1]:
                        (j,) = np.flatnonzero((draws[:-1] == decisions[-1][0]).all(axis=1))
                        cut_after_acceptance += j + 3 > len(draws)
        if max_tries == 10_000:
            assert cut_after_acceptance >= 5

    def test_decisions_are_the_survivors_the_walk_reaches(self, monkeypatch):
        """Each pass over a block decides only the pre-screen survivors the
        per-trial loop meets in it: all of them when the first block
        suffices, and a prefix of them in a pass that is cut short."""
        walk, decide, screen = qubit._walk, qubit._cptp_ok, qubit._choi_prescreen
        passes, decided, screened = [], [], []

        def counted_walk(*args):
            passes.append(1)
            return walk(*args)

        def counted_decision(t, lam):
            decided.append(1)
            return decide(t, lam)

        def counted_screen(t, lam):
            kept = screen(t, lam)
            screened.append(int(kept.sum()))
            return kept

        monkeypatch.setattr(qubit, "_walk", counted_walk)
        monkeypatch.setattr(qubit, "_cptp_ok", counted_decision)
        monkeypatch.setattr(qubit, "_choi_prescreen", counted_screen)
        grown = total_decided = 0
        for seed in range(200):
            passes.clear()
            decided.clear()
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _random_channels_and_states(ours, 5)
            met = survivors_met_by_the_per_trial_loop(ref, 5, screen)
            if len(passes) == 1:
                assert len(decided) == met
            else:
                assert met <= len(decided) <= len(passes) * met
                grown += 1
            assert ours.random() == ref.random()
            total_decided += len(decided)
        # the walk decides about a quarter of the survivors of its blocks
        assert total_decided < sum(screened) / 3 and grown > 0

    def test_closed_form_decides_every_candidate_of_the_default_run(self, monkeypatch):
        decided, checked, dense = [], [], []
        decide, report = qubit._cptp_ok, QubitChannel.__dict__["cptp_report"].func
        monkeypatch.setattr(qubit, "_cptp_ok", lambda t, lam: decided.append(1) or decide(t, lam))
        monkeypatch.setattr(QubitChannel, "cptp_report", property(lambda ch: checked.append(ch) or report(ch)))
        for module, name in ((qubit, "choi_from_ptm"), (np.linalg, "eigvalsh")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name: dense.append(name) or real(*args))
        assert run_verification(1000, seed=42).passed
        # no survivor the walk reaches is left to the single-channel check,
        # and no Choi matrix or eigenvalue is computed
        assert checked == [] and dense == [] and len(decided) > 1000


def survivors_met_by_the_per_trial_loop(rng, trials, screen, t_scale=0.8):
    """Pre-screen survivors among the candidates that ``trials`` per-trial
    rounds (a channel, then a state's uniforms) try before each acceptance."""
    met = 0
    for _ in range(trials):
        while True:
            lam = rng.uniform(-1, 1, size=3)
            t = rng.uniform(-1, 1, size=3) * t_scale
            if screen(t[None], lam[None])[0]:
                met += 1
                if QubitChannel.from_canonical(t, lam).cptp_report.ok:
                    break
        rng.random(3)
    return met
