"""Randomized self-verification suites: calibration and oracle equivalence.

Two independent paths must agree on every channel application:

* symbolic — characteristic function, Berezin convolution with the kernel,
  inversion back to a state;
* dense — the Bloch map applied with plain matrix arithmetic.

``run_verification`` draws seeded random channels and states, runs both
paths, and reports the worst residual per suite.  The calibration suite
additionally pins the closed form of the characteristic function itself.

The suites run as one array pass per chunk of up to ``CHUNK_TRIALS``
trials.  The oracle samples a chunk's channels and states in one
stream-exact pass (``qubit._random_channels_and_states``): the bits and the
generator's final state are those of drawing each trial's channel, then its
state, one at a time.  The pass draws a block of candidates, pre-screens
them all in closed form, and decides CPTP only for the survivors the
rejection walk reaches, each on Python floats (``qubit._cptp_ok``), about a
quarter of them.  The chunk's calibration uniforms are stacked on top
of the oracle's state uniforms, and the states, their density rows, their
characteristic functions (the trace pass ``charfunc._char_bodies``) and the
characteristic-function checks are made once over the stack: the
calibration compares its rows, the first ``n``, with the closed form, and
the oracle takes the rest.  Each trial's kernel is the closed form of
``green_from_channel`` (``green._kernel_body``, one call per trial); the
oracle then runs both paths as ``(n, 16)`` coefficient arrays, with one
convolution pass.  Every row has the bits of the single-object path
(``char_function``, ``green_from_channel``, ``apply_green``,
``state_from_char``, ``apply_channel``), every per-trial check runs on every
row and raises that check's exception, and a NaN residual makes its suite
fail.

The draws keep the order of running the calibration over all trials, then
the oracle: ``3 * trials`` doubles of state uniforms, then the oracle's
rounds.  The generator is PCG64, whose ``random`` takes one 64-bit draw per
double, so the oracle's stream starts ``advance(3 * trials)`` past the
saved start; each chunk draws its calibration rows from the saved
calibration state and puts the oracle's state back.  A run holds one
chunk's arrays at a time, however many trials it has.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .charfunc import _XI, _XI_STAR, _XI_XI_STAR, _char_bodies, _check_char_bodies, _states_from_bodies
from .green import _apply_kernels, _kernel_body
from .qubit import _bloch_map, _random_channels_and_states, _states_from_uniforms
from .tolerances import CALIBRATION_TOL, ORACLE_TOL

__all__ = ["CheckResult", "VerificationResult", "run_verification", "DEFAULT_SEED"]

DEFAULT_SEED = 42

#: Trials per array pass.  A pass holds ``2 * CHUNK_TRIALS`` states (the
#: calibration's and the oracle's), which bounds the memory of a run with
#: many trials.
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
    rows = np.empty((len(p), 4), dtype=complex)
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = p, gamma, np.conj(gamma), 1 - p
    return rows


def _suites(rng: np.random.Generator, trials: int, calibration_tol: float, oracle_tol: float):
    """The calibration and oracle ``CheckResult``s of ``trials`` trials drawn from ``rng``.

    ``rng`` must be a PCG64 generator (see the module docstring for the
    stream order); it is left where the oracle's draws end, as after the
    calibration's draws and then the oracle's.
    """
    bits = rng.bit_generator
    calibration = bits.state
    bits.advance(3 * trials)  # the oracle's draws start after the calibration's 3 * trials doubles
    worst_calibration = worst_oracle = 0.0
    for n in _chunks(trials):
        t, lam, u = _random_channels_and_states(rng, n)
        # this chunk's calibration rows, from the calibration's place in the stream
        oracle, bits.state = bits.state, calibration
        u = np.concatenate([rng.random((n, 3)), u])
        calibration, bits.state = bits.state, oracle
        p, gamma = _states_from_uniforms(u)
        chi = _char_bodies(_density_rows(p, gamma))
        _check_char_bodies(chi)

        expected = np.zeros((n, 16), dtype=complex)
        expected[:, 0] = 1.0
        expected[:, _XI_XI_STAR] = (2 * p[:n] - 1) / 2
        expected[:, _XI] = gamma[:n]
        expected[:, _XI_STAR] = -np.conj(gamma[:n])
        worst_calibration = np.max(np.abs(chi[:n] - expected), initial=worst_calibration)

        kernels = np.array([_kernel_body(t_row, lam_row) for t_row, lam_row in zip(t.tolist(), lam.tolist())])
        chi_out = _apply_kernels(kernels, chi[n:])
        _check_char_bodies(chi_out)
        symbolic_p, symbolic_gamma = _states_from_bodies(chi_out)
        dense_p, dense_gamma = _bloch_map(t, lam, p[n:], gamma[n:])
        residual = np.maximum(np.abs(symbolic_p - dense_p), np.abs(symbolic_gamma - dense_gamma))
        worst_oracle = np.max(residual, initial=worst_oracle)
    return (
        _check_result("characteristic_function_closed_form", worst_calibration, trials, calibration_tol),
        _check_result("convolution_vs_dense_oracle", worst_oracle, trials, oracle_tol),
    )


def _check_result(name: str, worst, trials: int, tol: float) -> CheckResult:
    worst = float(worst)
    return CheckResult(name=name, passed=worst <= tol, max_residual=worst, trials=trials, tolerance=tol)


def run_verification(
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
    tol: Optional[float] = None,
) -> VerificationResult:
    """Run both suites with a fixed seed; ``trials=0`` passes vacuously.

    ``tol`` overrides both suites' tolerances; None keeps each suite's own
    (``CALIBRATION_TOL``, ``ORACLE_TOL``).
    """
    checks = _suites(
        np.random.default_rng(seed),
        trials,
        CALIBRATION_TOL if tol is None else tol,
        ORACLE_TOL if tol is None else tol,
    )
    return VerificationResult(
        passed=all(c.passed for c in checks),
        seed=seed,
        checks=checks,
    )
