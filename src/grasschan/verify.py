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
state, one at a time.  Each trial's kernel is the closed form of
``green_from_channel`` (``green._kernel_body``, one call per trial); the
chunk then runs both paths as ``(n, 16)`` coefficient arrays, with one
convolution pass.  Every row has the bits of the single-object path
(``char_function``, ``green_from_channel``, ``apply_green``,
``state_from_char``, ``apply_channel``), every per-trial check runs on every
row and raises that check's exception, and a NaN residual makes its suite
fail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .charfunc import _char_bodies, _check_char_bodies, _states_from_bodies
from .grassmann import MONOMIAL_NAMES
from .green import _apply_kernels, _kernel_body
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
        return asdict(self)


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    seed: int
    checks: tuple

    def to_json(self) -> dict:
        report = {"schema_version": 1, **asdict(self)}
        report["checks"] = list(report["checks"])
        return report


def _chunks(trials: int):
    """Sizes of the array passes that cover ``trials`` trials, in order."""
    for done in range(0, trials, CHUNK_TRIALS):
        yield min(CHUNK_TRIALS, trials - done)


def _density_rows(p: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Entries ``[p, gamma, gamma*, 1 - p]`` of the density matrices, one row per state."""
    return np.stack([p, gamma, np.conj(gamma), 1 - p], axis=1)


def _calibration_suite(rng: np.random.Generator, trials: int, tol: float) -> CheckResult:
    worst = 0.0
    for n in _chunks(trials):
        p, gamma = _states_from_uniforms(rng.random((n, 3)))
        chi = _char_bodies(_density_rows(p, gamma))
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
        chi = _char_bodies(_density_rows(p, gamma))
        _check_char_bodies(chi)
        kernels = np.array([_kernel_body(t_row, lam_row) for t_row, lam_row in zip(t.tolist(), lam.tolist())])
        chi_out = _apply_kernels(kernels, chi)
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
    tol: Optional[float] = None,
) -> VerificationResult:
    """Run both suites with a fixed seed; ``trials=0`` passes vacuously.

    ``tol`` overrides both suites' tolerances; None keeps each suite's own
    (``CALIBRATION_TOL``, ``ORACLE_TOL``).
    """
    rng = np.random.default_rng(seed)
    checks = (
        _calibration_suite(rng, trials, CALIBRATION_TOL if tol is None else tol),
        _oracle_suite(rng, trials, ORACLE_TOL if tol is None else tol),
    )
    return VerificationResult(
        passed=all(c.passed for c in checks),
        seed=seed,
        checks=checks,
    )
