"""Randomized self-verification suites: calibration and oracle equivalence.

Two independent paths must agree on every channel application:

* symbolic — characteristic function, Berezin convolution with the kernel,
  inversion back to a state;
* dense — the Bloch map applied with plain matrix arithmetic.

``run_verification`` draws seeded random channels and states, runs both
paths, and reports the worst residual per suite.  The calibration suite
additionally pins the closed form of the characteristic function itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfunc import char_function, state_from_char
from .grassmann import GrassmannElement
from .green import apply_green, green_from_channel
from .qubit import apply_channel, random_cptp_canonical_channel, random_state
from .tolerances import CALIBRATION_TOL, ORACLE_TOL

__all__ = ["CheckResult", "VerificationResult", "run_verification", "DEFAULT_SEED"]

DEFAULT_SEED = 42


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


def _calibration_suite(rng: np.random.Generator, trials: int, tol: float) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        rho = random_state(rng)
        chi = char_function(rho)
        expected = GrassmannElement.from_table(
            {
                "1": 1.0,
                "ξξ*": (2 * rho.p - 1) / 2,
                "ξ": rho.gamma,
                "ξ*": -np.conj(rho.gamma),
            }
        )
        worst = max(worst, float(np.max(np.abs(chi.body.coefficients - expected.coefficients))))
    return CheckResult(
        name="characteristic_function_closed_form",
        passed=worst <= tol,
        max_residual=worst,
        trials=trials,
        tolerance=tol,
    )


def _oracle_suite(rng: np.random.Generator, trials: int, tol: float) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        ch = random_cptp_canonical_channel(rng)
        rho = random_state(rng)
        kernel = green_from_channel(ch)
        symbolic = state_from_char(apply_green(kernel, char_function(rho)))
        dense = apply_channel(ch, rho)
        worst = max(
            worst,
            abs(symbolic.p - dense.p),
            abs(symbolic.gamma - dense.gamma),
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
