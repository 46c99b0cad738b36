import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from grasschan import charfunc, grassmann, green, qubit
from grasschan.charfunc import (
    CharFunction,
    NotNormalizedError,
    NotPhysicalError,
    _char_bodies,
    char_function,
    displacement,
    state_from_char,
)
from grasschan.grassmann import Generator, GrassmannElement, OperatorElement, adjoint, substitute
from grasschan.green import _apply_kernels, _kernel_body, apply_green, green_from_channel
from grasschan.qubit import QubitState, random_cptp_canonical_channel, random_state


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


XI_SUBALGEBRA = [0b0000, 0b0100, 0b1000, 0b1100]
EDGE_STATES = [
    QubitState(p=p, gamma=g)
    for p in (0.0, -0.0, 1.0, 0.5, 5e-324)
    for g in (0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 5e-324))
]


class TestRepresentation:
    def test_a_sweep_builds_no_element_and_touches_no_numpy(self, monkeypatch, report_digest):
        """``char_function``, ``apply_green`` and ``state_from_char`` over the
        1,000 states of a benchmark ``sweep`` chunk, with the kernel built and
        its operand read before: no ``GrassmannElement`` is made, and ``np``
        is never looked up in the modules on the path."""
        sweep = report_digest.workloads.Sweep()
        channel, states = sweep.chunk(11, 0)
        _, kernel = sweep.prepare(channel)
        kernel._convolution_operand
        builds = []

        def counted(wrapped):
            def wrapper(*args, **kwargs):
                builds.append(1)
                return wrapped(*args, **kwargs)

            return wrapper

        for module in (grassmann, charfunc, green):
            monkeypatch.setattr(module, "_element", counted(module._element))
        monkeypatch.setattr(GrassmannElement, "__init__", counted(GrassmannElement.__init__))
        for module in (grassmann, charfunc, green, qubit):
            monkeypatch.setattr(module, "np", None)
        outs = [state_from_char(apply_green(kernel, char_function(rho))) for rho in states]
        assert len(outs) == 1000 and builds == []

    def test_a_late_body_read_has_the_bits_of_the_array_passes(self):
        """The body of ``char_function`` and of ``apply_green``, read after
        both have run, has the bits of the ``_char_bodies`` and
        ``_apply_kernels`` rows, and each read returns the same read-only
        element."""
        rng = np.random.default_rng(29)
        states = EDGE_STATES + [random_state(rng) for _ in range(60)]
        channels = [random_cptp_canonical_channel(rng) for _ in states]
        chis = [char_function(rho) for rho in states]
        outs = [apply_green(green_from_channel(ch), chi) for ch, chi in zip(channels, chis)]
        rows = _char_bodies(np.array([rho.matrix for rho in states]))
        kernels = np.array([_kernel_body(ch.t.tolist(), ch.lam.tolist()) for ch in channels])
        out_rows = _apply_kernels(kernels, rows)
        for s, (chi, out) in enumerate(zip(chis, outs)):
            for x, row in ((chi, rows[s]), (out, out_rows[s])):
                body = x.body
                assert x.body is body and not body.coefficients.flags.writeable
                assert body.coefficients.tobytes() == row.tobytes()
                assert [type(c) for c in x.coefficients] == [complex] * 4
                assert np.array(x.coefficients).tobytes() == row[XI_SUBALGEBRA].tobytes()

    def test_equality_and_hash_are_those_of_the_bodies(self):
        rng = np.random.default_rng(31)
        for rho in EDGE_STATES + [random_state(rng) for _ in range(30)]:
            chi = char_function(rho)
            signed = chi.body.coefficients.copy()
            signed[1] = signed[0b0110] = complex(-0.0, -0.0)  # off the xi subalgebra
            for m in XI_SUBALGEBRA:
                c = signed[m]
                signed[m] = complex(c.real or -0.0, c.imag or -0.0)
            element = GrassmannElement(signed)
            other = CharFunction(element)
            assert other.body is element and other.body == chi.body
            assert other == chi and hash(other) == hash(chi)
            assert len({chi, other, CharFunction(chi.body)}) == 1
            moved = signed.copy()
            moved[0b1100] += 0.25
            assert CharFunction(GrassmannElement(moved)) != chi
        assert chi != chi.body and chi != chi.coefficients

    def test_is_immutable_picklable_and_printed_as_its_body(self):
        chi = char_function(QubitState(p=0.25, gamma=0.1 - 0.2j))
        for name in ("coefficients", "body", "_body", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(chi, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(chi, name)
        back = pickle.loads(pickle.dumps(chi))
        assert back == chi and back.body.coefficients.tobytes() == chi.body.coefficients.tobytes()
        assert repr(chi) == f"CharFunction(body={chi.body!r})"
