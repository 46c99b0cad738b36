"""Acceptance suite: the release gates of the toolkit.

One test per criterion; each prints a ``PASS``/``FAIL`` line (visible with
``pytest -s`` or on failure) and enforces its tolerance and runtime budget.
"""

import itertools
import time

import numpy as np

from grasschan import catalog
from grasschan.charfunc import char_function, state_from_char
from grasschan.degradability import (
    ANTI_DEGRADABLE,
    NEITHER_CERTIFIED,
    WEAKLY_DEGRADABLE,
    certify,
    dilation_from_angles,
    weakly_complementary,
)
from grasschan.grassmann import (
    XI,
    XI_STAR,
    ZETA,
    Generator,
    GrassmannElement,
    adjoint,
    delta_pair,
    integrate_pair,
    substitute,
)
from grasschan.green import (
    AngleParams,
    angles_from_gaussian,
    apply_green,
    channel_from_angles,
    detect_gaussian,
    gaussian_equivalent,
    green_from_channel,
)
from grasschan.qubit import (
    QubitChannel,
    apply_channel,
    compose,
    is_cptp,
    random_cptp_canonical_channel,
    random_state,
)


class Criterion:
    """Collects a pass/fail verdict, prints one line, and enforces a time budget."""

    def __init__(self, number, label, budget_seconds=None):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.label}) in {elapsed:.2f}s")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_calibration_closed_form():
    with Criterion(1, "characteristic-function closed form", budget_seconds=1.0):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
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
            residual = np.max(np.abs(chi.body.coefficients - expected.coefficients))
            assert residual <= 1e-14


def test_criterion_2_golden_green_functions():
    with Criterion(2, "golden Green-function tables", budget_seconds=5.0):
        data = catalog.golden_tables()
        assert set(data["channels"]) == set(catalog.CHANNEL_NAMES)
        for name, entries in data["channels"].items():
            assert len(entries) == 20
            for entry in entries:
                ch = catalog.build(name, entry["params"])
                table = green_from_channel(ch).to_table()
                for monomial, (re, im) in entry["table"].items():
                    assert abs(table[monomial] - complex(re, im)) <= 1e-12


def test_criterion_3_master_oracle_equivalence():
    with Criterion(3, "Berezin convolution vs dense Bloch map", budget_seconds=30.0):
        rng = np.random.default_rng(2024)
        transverse = 0
        non_gaussian = 0
        for _ in range(1000):
            ch = random_cptp_canonical_channel(rng)
            if abs(ch.t[0]) > 1e-3 or abs(ch.t[1]) > 1e-3:
                transverse += 1
            if abs(ch.lam[2] - ch.lam[0] * ch.lam[1]) > 1e-3:
                non_gaussian += 1
            rho = random_state(rng)
            symbolic = state_from_char(apply_green(green_from_channel(ch), char_function(rho)))
            dense = apply_channel(ch, rho)
            assert abs(symbolic.p - dense.p) <= 1e-12
            assert abs(symbolic.gamma - dense.gamma) <= 1e-12
        # the sample must genuinely cover transverse shifts and non-Gaussian cases
        assert transverse > 500 and non_gaussian > 500


def test_criterion_4_gaussianity_criterion_agreement():
    with Criterion(4, "pattern match vs closed Gaussian condition"):
        rng = np.random.default_rng(777)
        disagreements = 0
        for k in range(1000):
            if k % 3 == 0:
                # force the closed condition so positives appear in the sample
                base = random_cptp_canonical_channel(rng)
                lam = np.array([base.lam[0], base.lam[1], base.lam[0] * base.lam[1]])
                ch = QubitChannel.from_canonical([0, 0, base.t[2] * 0.5], lam)
                if not ch.cptp_report.ok:
                    ch = base
            else:
                ch = random_cptp_canonical_channel(rng)
            detected = detect_gaussian(green_from_channel(ch)) is not None
            closed = (
                abs(ch.t[0]) <= 1e-10
                and abs(ch.t[1]) <= 1e-10
                and abs(ch.lam[2] - ch.lam[0] * ch.lam[1]) <= 1e-10
            )
            disagreements += detected != closed
        assert disagreements == 0


def test_criterion_5_dilation_soundness_and_env_purity():
    with Criterion(5, "dilation marginals and environment purity"):
        rng = np.random.default_rng(31415)
        for k in range(200):
            q = float(rng.integers(0, 2)) if k % 2 else float(rng.uniform(0.05, 0.95))
            ap = AngleParams(
                theta=float(rng.uniform(0, np.pi)),
                phi=float(rng.uniform(0, np.pi)),
                q=q,
            )
            dilation = dilation_from_angles(ap)
            marginal = dilation.channel()
            assert np.max(np.abs(marginal.ptm - channel_from_angles(ap).ptm)) <= 1e-10
            env = dilation.env_state.matrix
            purity = float(np.trace(env @ env).real)
            if q in (0.0, 1.0):
                assert abs(purity - 1.0) <= 1e-12
            else:
                assert purity < 1.0 - 1e-12


def _certified(ch):
    gp = detect_gaussian(green_from_channel(ch))
    ap = angles_from_gaussian(gp)
    dilation = dilation_from_angles(ap)
    comp = weakly_complementary(dilation)
    verdict = certify(ch, dilation)
    # every returned witness re-verifies against the channels it links
    if verdict.witness is not None:
        if verdict.kind == WEAKLY_DEGRADABLE:
            recomposed, target = compose(verdict.witness, ch), comp
        else:
            recomposed, target = compose(verdict.witness, comp), ch
        assert np.max(np.abs(recomposed.ptm - target.ptm)) <= 1e-9
        assert is_cptp(verdict.witness).min_choi_eigenvalue >= -1e-9
    return verdict


def test_criterion_6_degradability_reproduction():
    with Criterion(6, "degradability verdicts for the named channels", budget_seconds=10.0):
        for s in np.linspace(0.0, 1.0, 21):
            verdict = _certified(catalog.build("bit_flip", {"s": s}))
            assert verdict.kind == WEAKLY_DEGRADABLE
            verdict = _certified(catalog.build("bit_phase_flip", {"s": s}))
            assert verdict.kind == WEAKLY_DEGRADABLE
        for n in (0.55, 0.75, 0.9):
            verdict = _certified(catalog.build("amplitude_damping", {"n": n}))
            assert verdict.kind == WEAKLY_DEGRADABLE
        for n in (0.1, 0.25, 0.45):
            verdict = _certified(catalog.build("amplitude_damping", {"n": n}))
            assert verdict.kind == ANTI_DEGRADABLE
        for s in (0.2, 0.5, 0.8):
            for n in (0.5, 0.6, 0.75, 0.9):
                verdict = _certified(
                    catalog.build("generalized_amplitude_damping", {"n": n, "s": s})
                )
                assert verdict.kind == WEAKLY_DEGRADABLE
            for n in (0.1, 0.25, 0.45):
                verdict = _certified(
                    catalog.build("generalized_amplitude_damping", {"n": n, "s": s})
                )
                assert verdict.kind in (ANTI_DEGRADABLE, NEITHER_CERTIFIED)
                report = catalog.analyze(
                    "generalized_amplitude_damping", {"n": n, "s": s}
                )
                assert any("null" in note for note in report["notes"])


def test_criterion_7_phase_flip_equivalence():
    with Criterion(7, "phase-flip permutation equivalence"):
        for s in np.linspace(0.05, 0.95, 20):
            eq = gaussian_equivalent(catalog.build("phase_flip", {"s": s}))
            assert eq is not None
            assert eq.channel.isclose(catalog.build("bit_flip", {"s": s}), atol=1e-12)
        for s in np.linspace(0.051, 0.949, 25):
            assert gaussian_equivalent(catalog.build("depolarizing", {"s": s})) is None


def test_criterion_8_algebra_laws():
    with Criterion(8, "algebra law suites"):
        rng = np.random.default_rng(271828)
        generators = [GrassmannElement.generator(g) for g in Generator]
        # exhaustive anticommutation over all 12 ordered pairs, and nilpotency
        for a, b in itertools.permutations(generators, 2):
            assert a * b == -(b * a)
        for g in generators:
            assert g * g == GrassmannElement.zero()

        def random_element():
            return GrassmannElement(
                rng.uniform(-0.5, 0.5, size=16) + 1j * rng.uniform(-0.5, 0.5, size=16)
            )

        for _ in range(1000):
            x, y, z = random_element(), random_element(), random_element()
            assert ((x * y) * z).isclose(x * (y * z), atol=1e-14)
            assert (x * (y + z)).isclose(x * y + x * z, atol=1e-14)
        for _ in range(1000):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            eta = a * XI + b * XI_STAR
            f = random_element()
            sifted = integrate_pair(delta_pair(ZETA - eta) * f)
            expected = substitute(
                f, {Generator.ZETA: eta, Generator.ZETA_STAR: adjoint(eta)}
            )
            assert sifted.isclose(expected, atol=1e-12)
