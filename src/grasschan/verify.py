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
of the oracle's state uniforms, and the states, their density rows and
their characteristic functions (the trace pass ``charfunc._char_bodies``)
are made once over the stack: the calibration compares its rows, the first
``n``, with the closed form, and the oracle takes the rest.  These rows
need no ``CharFunction`` check at run time: they are the trace rows of
states made from uniforms in ``[0, 1)``, which are in bounds by
construction (``qubit._states_from_uniforms``), so every entry is finite,
the 12 columns off the xi subalgebra are sums of finite entries times the
zero entries of ``displacement()``, which are zeros, and the constant is
``p + (1 - p)``, within an ulp of 1 (``tests/test_verify.py`` holds this on
the extreme uniforms).  Each trial's kernel is the closed form of
``green_from_channel`` (``green._kernel_body``, one call per trial); the
oracle then runs both paths as ``(n, 16)`` coefficient arrays, with one
convolution pass, and the convolved rows get the checks of
``CharFunction`` and ``state_from_char`` in one pass
(``charfunc._states_from_bodies``).  Every row has the bits of the
single-object path (``char_function``, ``green_from_channel``,
``apply_green``, ``state_from_char``, ``apply_channel``), the first
convolved row that fails a check raises that check's exception, as the
per-trial loop does, and a NaN residual makes its suite fail.

The draws keep the order of running the calibration over all trials, then
the oracle: ``3 * trials`` doubles of state uniforms, then the oracle's
rounds.  The first chunk's calibration rows are the first ``3 n`` doubles,
so it draws them where the stream starts.  The generator is PCG64, whose
``random`` takes one 64-bit draw per double, so the oracle's stream starts
``advance(3 * (trials - n))`` past them.  Only a run of more than one chunk
saves the calibration's place before that advance; each later chunk draws
its calibration rows from there and puts the oracle's state back.  A run
holds one chunk's arrays at a time, however many trials it has.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .charfunc import _XI, _XI_STAR, _XI_XI_STAR, _char_bodies, _states_from_bodies
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
    worst_calibration = worst_oracle = 0.0
    for done in range(0, trials, CHUNK_TRIALS):
        n = min(CHUNK_TRIALS, trials - done)
        if done == 0:  # the first chunk's calibration rows come first in the stream
            u = rng.random((n, 3))
            if n < trials:  # the later chunks' rows follow; the oracle's draws start after them
                calibration = bits.state
                bits.advance(3 * (trials - n))
        else:  # a later chunk's calibration rows, from the calibration's place in the stream
            oracle, bits.state = bits.state, calibration
            u = rng.random((n, 3))
            calibration, bits.state = bits.state, oracle
        t, lam, oracle_u = _random_channels_and_states(rng, n)
        p, gamma = _states_from_uniforms(np.concatenate([u, oracle_u]))
        chi = _char_bodies(_density_rows(p, gamma))

        expected = np.zeros((n, 16), dtype=complex)
        expected[:, 0] = 1.0
        expected[:, _XI_XI_STAR] = (2 * p[:n] - 1) / 2
        expected[:, _XI] = gamma[:n]
        expected[:, _XI_STAR] = -np.conj(gamma[:n])
        worst_calibration = np.max(np.abs(chi[:n] - expected), initial=worst_calibration)

        kernels = np.array([_kernel_body(t_row, lam_row) for t_row, lam_row in zip(t.tolist(), lam.tolist())])
        symbolic_p, symbolic_gamma = _states_from_bodies(_apply_kernels(kernels, chi[n:]))
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
