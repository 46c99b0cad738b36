"""Randomized self-verification suites: calibration and oracle equivalence.

Two independent paths must agree on every channel application:

* symbolic — characteristic function, Berezin convolution with the kernel,
  inversion back to a state;
* dense — the Bloch map applied with plain matrix arithmetic.

``run_verification`` draws seeded random channels and states, runs both
paths, and reports the worst residual per suite.  The calibration suite
additionally pins the closed form of the characteristic function itself.

The suites run as array passes over chunks of up to ``CHUNK_TRIALS``
trials.  The oracle suite samples a chunk's channels and states in one
stream-exact pass (``qubit._random_channels_and_states``): the bits and the
generator's final state are those of drawing each trial's channel, then its
state, one at a time.  The chunk then runs both paths as ``(n, 16)``
coefficient arrays.  Every row has the bits of the single-object path
(``char_function``, ``green_from_channel``, ``apply_green``,
``state_from_char``, ``apply_channel``), every per-trial check runs on every
row and raises that check's exception, and a NaN residual makes its suite
fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfunc import _char_bodies, _check_char_bodies, _states_from_bodies
from .grassmann import MONOMIAL_NAMES
from .green import _apply_kernels, _kernel_bodies
from .qubit import _bloch_map, _random_channels_and_states, _states_from_uniforms
from .tolerances import CALIBRATION_TOL, ORACLE_TOL

__all__ = ["CheckResult", "VerificationResult", "run_verification", "DEFAULT_SEED"]

DEFAULT_SEED = 42

#: Trials per array pass: bounds the memory of a run with many trials.
CHUNK_TRIALS = 256


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    trials: int
    tolerance: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "trials": self.trials,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    seed: int
    checks: tuple

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "passed": self.passed,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
        }


def _chunks(trials: int):
    """Sizes of the array passes that cover ``trials`` trials, in order."""
    for done in range(0, trials, CHUNK_TRIALS):
        yield min(CHUNK_TRIALS, trials - done)


def _matrices(p: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Density matrices ``[[p, gamma], [gamma*, 1 - p]]`` of the rows, as ``QubitState.matrix``."""
    return np.stack([p, gamma, np.conj(gamma), 1 - p], axis=1).reshape(-1, 2, 2)


def _calibration_suite(rng: np.random.Generator, trials: int, tol: float) -> CheckResult:
    worst = 0.0
    for n in _chunks(trials):
        p, gamma = _states_from_uniforms(rng.random((n, 3)))
        chi = _char_bodies(_matrices(p, gamma))
        _check_char_bodies(chi)
        expected = np.zeros_like(chi)
        for name, value in (("1", 1.0), ("ξξ*", (2 * p - 1) / 2), ("ξ", gamma), ("ξ*", -np.conj(gamma))):
            expected[:, MONOMIAL_NAMES.index(name)] = value
        worst = float(np.max([worst, np.max(np.abs(chi - expected))]))
    return CheckResult(
        name="characteristic_function_closed_form",
        passed=worst <= tol,
        max_residual=worst,
        trials=trials,
        tolerance=tol,
    )


def _oracle_suite(rng: np.random.Generator, trials: int, tol: float) -> CheckResult:
    worst = 0.0
    for n in _chunks(trials):
        t, lam, u = _random_channels_and_states(rng, n)
        p, gamma = _states_from_uniforms(u)
        chi = _char_bodies(_matrices(p, gamma))
        _check_char_bodies(chi)
        chi_out = _apply_kernels(_kernel_bodies(t, lam), chi)
        _check_char_bodies(chi_out)
        symbolic_p, symbolic_gamma = _states_from_bodies(chi_out)
        dense_p, dense_gamma = _bloch_map(t, lam, p, gamma)
        worst = float(
            np.max(
                [worst, np.max(np.abs(symbolic_p - dense_p)), np.max(np.abs(symbolic_gamma - dense_gamma))]
            )
        )
    return CheckResult(
        name="convolution_vs_dense_oracle",
        passed=worst <= tol,
        max_residual=worst,
        trials=trials,
        tolerance=tol,
    )


def run_verification(
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    calibration_tol: float = CALIBRATION_TOL,
    oracle_tol: float = ORACLE_TOL,
) -> VerificationResult:
    """Run both suites with a fixed seed; ``trials=0`` passes vacuously."""
    rng = np.random.default_rng(seed)
    checks = (
        _calibration_suite(rng, trials, calibration_tol),
        _oracle_suite(rng, trials, oracle_tol),
    )
    return VerificationResult(
        passed=all(c.passed for c in checks),
        seed=seed,
        checks=checks,
    )
