import warnings

import numpy as np
import pytest

from grasschan.charfunc import (
    CharFunction,
    NotNormalizedError,
    NotPhysicalError,
    char_function,
    displacement,
    state_from_char,
)
from grasschan.grassmann import Generator, GrassmannElement, OperatorElement, adjoint, substitute
from grasschan.qubit import QubitState, random_state


def closed_form(p, gamma):
    return GrassmannElement.from_table(
        {"1": 1.0, "ξξ*": (2 * p - 1) / 2, "ξ": gamma, "ξ*": -np.conj(gamma)}
    )


class TestDisplacement:
    def test_matrix_form(self):
        d = displacement()
        assert d.entry(0, 0) == GrassmannElement.from_table({"1": 1, "ξξ*": 0.5})
        assert d.entry(0, 1) == GrassmannElement.from_table({"ξ*": -1})
        assert d.entry(1, 0) == GrassmannElement.from_table({"ξ": 1})
        assert d.entry(1, 1) == GrassmannElement.from_table({"1": 1, "ξξ*": -0.5})

    def test_constant_part_is_identity(self):
        assert np.allclose(displacement().monomial_matrix(0), np.eye(2))
        assert np.allclose(displacement(sign=-1, pair="zeta").monomial_matrix(0), np.eye(2))

    def test_unitary(self):
        d = displacement()
        assert (d * d.adjoint()).isclose(OperatorElement.identity(), atol=1e-15)
        assert (d.adjoint() * d).isclose(OperatorElement.identity(), atol=1e-15)

    def test_negated_argument_is_inverse(self):
        d = displacement()
        d_inv = displacement(sign=-1)
        assert (d * d_inv).isclose(OperatorElement.identity(), atol=1e-15)

    def test_zeta_pair_variant(self):
        d = displacement(sign=-1, pair="zeta")
        assert d.entry(1, 0) == GrassmannElement.from_table({"ζ": -1})
        assert d.entry(0, 1) == GrassmannElement.from_table({"ζ*": 1})

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            displacement(sign=2)
        with pytest.raises(ValueError):
            displacement(pair="chi")


class TestCharFunction:
    def test_closed_form_calibration(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho = random_state(rng)
            chi = char_function(rho)
            assert chi.body.isclose(closed_form(rho.p, rho.gamma), atol=1e-14)

    def test_maximally_mixed(self):
        chi = char_function(QubitState(p=0.5))
        assert chi.body == GrassmannElement.one()

    def test_ground_state(self):
        chi = char_function(QubitState(p=1.0))
        assert chi.body == GrassmannElement.from_table({"1": 1, "ξξ*": 0.5})

    def test_hermiticity_via_generator_negation(self):
        # adjoint(chi) equals chi with xi -> -xi: even part fixed, odd part flipped
        rng = np.random.default_rng(13)
        negation = {g: -GrassmannElement.generator(g) for g in Generator}
        for _ in range(300):
            body = char_function(random_state(rng)).body
            assert adjoint(body).isclose(substitute(body, negation), atol=1e-14)

    def test_rejects_zeta_content(self):
        from grasschan.grassmann import ZETA

        with pytest.raises(ValueError):
            CharFunction(GrassmannElement.one() + 0.1 * ZETA)

    def test_rejects_an_infinite_coherence_at_construction(self):
        inf = float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPhysicalError, match=r"coefficient of ξ is not finite: \(inf\+0j\)"):
                CharFunction(GrassmannElement.from_table({"1": 1, "ξ": inf, "ξ*": -inf}))


class TestStateFromChar:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(57)
        for _ in range(1000):
            rho = random_state(rng)
            back = state_from_char(char_function(rho))
            assert back.p == pytest.approx(rho.p, abs=1e-14)
            assert back.gamma == pytest.approx(rho.gamma, abs=1e-14)

    def test_ground_state_table(self):
        chi = CharFunction(GrassmannElement.from_table({"1": 1, "ξξ*": 0.5}))
        assert state_from_char(chi).isclose(QubitState(p=1.0), atol=1e-14)

    def test_constant_one_gives_maximally_mixed(self):
        chi = CharFunction(GrassmannElement.one())
        assert state_from_char(chi).isclose(QubitState(p=0.5), atol=1e-14)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            CharFunction(2 * GrassmannElement.one())

    def test_not_physical_p(self):
        chi = CharFunction(GrassmannElement.from_table({"1": 1, "ξξ*": 1.5}))
        with pytest.raises(NotPhysicalError):
            state_from_char(chi)

    def test_not_physical_coherence(self):
        chi = CharFunction(
            GrassmannElement.from_table({"1": 1, "ξξ*": 0.5, "ξ": 0.4, "ξ*": -0.4})
        )
        with pytest.raises(NotPhysicalError):
            state_from_char(chi)

    def test_inconsistent_conjugate_pair(self):
        chi = CharFunction(GrassmannElement.from_table({"1": 1, "ξ": 0.1, "ξ*": 0.1}))
        with pytest.raises(NotPhysicalError):
            state_from_char(chi)
