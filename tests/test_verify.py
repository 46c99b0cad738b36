"""The trial-batched verification suites against the per-trial loops they replace.

The reference suites below are the loops ``verify`` ran before its array
passes, built from the public element algebra only: the kernel as products
of elements, the characteristic function as an operator product, and the
convolution through ``substitute``.  The array passes must give the same
bits, raise the same exceptions and leave the generator in the same state.
"""

import numpy as np
import pytest

from grasschan import verify
from grasschan.charfunc import (
    CharFunction,
    NotNormalizedError,
    NotPhysicalError,
    _char_bodies,
    _check_char_bodies,
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
from grasschan.green import _apply_kernels, _kernel_bodies, apply_green, green_from_channel
from grasschan.qubit import (
    QubitState,
    _bloch_map,
    _check_states,
    _states_from_uniforms,
    apply_channel,
    random_cptp_canonical_channel,
    random_state,
)
from grasschan.tolerances import CALIBRATION_TOL, ORACLE_TOL
from grasschan.verify import CHUNK_TRIALS, CheckResult, run_verification


def reference_char_function(rho):
    return CharFunction((OperatorElement.from_matrix(rho.matrix) * displacement()).trace())


def reference_kernel(ch):
    t1, t2, t3 = (float(v) for v in ch.t)
    lam1, lam2, lam3 = (float(v) for v in ch.lam)
    a = (lam1 + lam2) / 2
    b = (lam2 - lam1) / 2
    body = delta_pair(ZETA - a * XI - b * XI_STAR) * (GrassmannElement.one() + (t3 / 2) * (XI * XI_STAR))
    body = body + (lam3 - lam1 * lam2) * (XI * XI_STAR)
    body = body + ((t1 - 1j * t2) / 2) * (ZETA * ZETA_STAR * XI)
    body = body - ((t1 + 1j * t2) / 2) * (ZETA * ZETA_STAR * XI_STAR)
    return body


def reference_apply(kernel, chi):
    relabeled = substitute(chi.body, {Generator.XI: ZETA, Generator.XI_STAR: ZETA_STAR})
    return CharFunction(integrate_pair(relabeled * kernel))


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


def reference_oracle_suite(rng, trials, tol):
    worst = 0.0
    for _ in range(trials):
        ch = random_cptp_canonical_channel(rng)
        rho = random_state(rng)
        symbolic = state_from_char(reference_apply(reference_kernel(ch), reference_char_function(rho)))
        dense = apply_channel(ch, rho)
        worst = max(worst, abs(symbolic.p - dense.p), abs(symbolic.gamma - dense.gamma))
    return CheckResult("convolution_vs_dense_oracle", worst <= tol, worst, trials, tol)


def run_both(seed, trials):
    """(batched, reference) results of both suites, plus each side's next draw."""
    out = []
    for calibration, oracle in (
        (verify._calibration_suite, verify._oracle_suite),
        (reference_calibration_suite, reference_oracle_suite),
    ):
        rng = np.random.default_rng(seed)
        checks = (calibration(rng, trials, CALIBRATION_TOL), oracle(rng, trials, ORACLE_TOL))
        out.append((checks, rng.random()))
    return out


def assert_same_checks(got, expected):
    assert got == expected
    for g, e in zip(got, expected):
        assert g.max_residual.hex() == e.max_residual.hex()


class TestBatchedSuitesMatchPerTrialLoops:
    @pytest.mark.parametrize("trials", [0, 1, 2, 5, 50])
    def test_seeds(self, trials):
        for seed in range(200):
            (got, got_next), (expected, expected_next) = run_both(seed, trials)
            assert_same_checks(got, expected)
            assert got_next == expected_next

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1])
    def test_chunk_boundaries(self, trials):
        (got, got_next), (expected, expected_next) = run_both(11, trials)
        assert_same_checks(got, expected)
        assert got_next == expected_next

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

        kernels = _kernel_bodies(t, lam)
        chis = _char_bodies(np.array([rho.matrix for rho in states]))
        outs = _apply_kernels(kernels, chis)
        symbolic_p, symbolic_gamma = _states_from_bodies(outs)
        dense_p, dense_gamma = _bloch_map(t, lam, p, gamma)
        for s, (ch, rho) in enumerate(zip(channels, states)):
            kernel = reference_kernel(ch)
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


def valid_bodies(n=4):
    rng = np.random.default_rng(5)
    return np.array([char_function(random_state(rng)).body.coefficients for _ in range(n)])


class TestPerTrialChecks:
    def test_char_function_support_and_normalisation(self):
        _check_char_bodies(valid_bodies())
        bodies = valid_bodies()
        bodies[2, 0b0001] = 0.1  # a zeta monomial
        with pytest.raises(ValueError, match="xi subalgebra"):
            _check_char_bodies(bodies)
        bodies = valid_bodies()
        bodies[1, 0] = 1.5
        bodies[3, 0b0010] = 0.1  # a later row fails another check
        with pytest.raises(NotNormalizedError):
            _check_char_bodies(bodies)
        bodies = valid_bodies()
        bodies[2, 0] = complex("nan")  # NaN fails every "within tolerance" rule
        with pytest.raises(NotNormalizedError) as batched:
            _check_char_bodies(bodies)
        with pytest.raises(NotNormalizedError) as single:
            CharFunction(GrassmannElement(bodies[2]))
        assert str(batched.value) == str(single.value)

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

    def test_a_failing_trial_fails_the_run(self, monkeypatch):
        def doubled_kernel(t, lam):
            kernels = _kernel_bodies(t, lam)
            kernels[-1] *= 2
            return kernels

        monkeypatch.setattr(verify, "_kernel_bodies", doubled_kernel)
        with pytest.raises(NotNormalizedError):
            run_verification(trials=5, seed=1)

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
