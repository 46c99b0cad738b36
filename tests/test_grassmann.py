import itertools
import re

import numpy as np
import pytest

from grasschan.grassmann import (
    MONOMIAL_NAMES,
    XI,
    XI_STAR,
    ZETA,
    ZETA_STAR,
    Generator,
    GrassmannElement,
    OperatorElement,
    adjoint,
    berezin_integrate,
    delta_pair,
    integrate_pair,
    multiply,
    substitute,
)

GENERATORS = [GrassmannElement.generator(g) for g in Generator]


def random_element(rng):
    return GrassmannElement(rng.normal(size=16) + 1j * rng.normal(size=16))


def test_multiply_examples():
    assert multiply(XI, XI_STAR) == GrassmannElement.from_table({"ξξ*": 1})
    assert multiply(XI, XI) == GrassmannElement.zero()
    assert multiply(XI_STAR, XI) == GrassmannElement.from_table({"ξξ*": -1})


def test_anticommutation_all_ordered_pairs():
    for a, b in itertools.permutations(GENERATORS, 2):
        assert a * b == -(b * a)


def test_nilpotency():
    for g in GENERATORS:
        assert g * g == GrassmannElement.zero()


def test_associativity_distributivity_random():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        x, y, z = (random_element(rng) for _ in range(3))
        assert ((x * y) * z).isclose(x * (y * z), atol=1e-12)
        assert (x * (y + z)).isclose(x * y + x * z, atol=1e-12)
    # and bilinearity in scalars
    x, y = random_element(rng), random_element(rng)
    assert ((2.5 - 1j) * x * y).isclose(x * ((2.5 - 1j) * y), atol=1e-12)


def test_adjoint_examples():
    gamma = 0.3 - 0.7j
    assert adjoint(gamma * XI) == np.conj(gamma) * XI_STAR
    assert adjoint(XI * XI_STAR) == XI * XI_STAR


def test_adjoint_involution_and_antihomomorphism():
    rng = np.random.default_rng(7)
    for _ in range(500):
        x, y = random_element(rng), random_element(rng)
        assert adjoint(adjoint(x)).isclose(x, atol=1e-14)
        assert adjoint(x * y).isclose(adjoint(y) * adjoint(x), atol=1e-12)
    # conjugate linearity
    x = random_element(rng)
    c = 1.2 - 0.4j
    assert adjoint(c * x).isclose(np.conj(c) * adjoint(x), atol=1e-14)


def test_berezin_rules():
    assert berezin_integrate(XI, Generator.XI) == GrassmannElement.one()
    assert berezin_integrate(GrassmannElement.one(), Generator.XI) == GrassmannElement.zero()
    # sign from commuting the generator to the front
    assert berezin_integrate(XI * XI_STAR, Generator.XI_STAR) == -XI
    assert berezin_integrate(XI * XI_STAR, Generator.XI) == XI_STAR


def test_berezin_linearity():
    rng = np.random.default_rng(11)
    for v in Generator:
        x, y = random_element(rng), random_element(rng)
        lhs = berezin_integrate(x + 2j * y, v)
        rhs = berezin_integrate(x, v) + 2j * berezin_integrate(y, v)
        assert lhs.isclose(rhs, atol=1e-14)
        # no trace of v left
        for mask in berezin_integrate(x, v).support():
            assert not mask >> int(v) & 1


def test_integrate_pair_convention():
    assert integrate_pair(GrassmannElement.one()) == GrassmannElement.zero()
    assert integrate_pair(3.5 * ZETA * ZETA_STAR) == GrassmannElement.from_scalar(3.5)
    # anything without the full zeta pair dies
    assert integrate_pair(ZETA * XI) == GrassmannElement.zero()


def test_delta_pair_sifting_exact():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        eta = a * XI + b * XI_STAR
        f = random_element(rng)
        lhs = integrate_pair(delta_pair(ZETA - eta) * f)
        rhs = substitute(f, {Generator.ZETA: eta, Generator.ZETA_STAR: adjoint(eta)})
        assert lhs.isclose(rhs, atol=1e-12)


def test_delta_pair_sifting_at_zero():
    rng = np.random.default_rng(29)
    f = random_element(rng)
    sifted = integrate_pair(delta_pair(ZETA) * f)
    expected = substitute(
        f, {Generator.ZETA: GrassmannElement.zero(), Generator.ZETA_STAR: GrassmannElement.zero()}
    )
    assert sifted.isclose(expected, atol=1e-14)


def test_delta_pair_bit_flip_form():
    # the s = 0.75 delta argument: zeta - 0.75 xi + 0.25 xi*
    d = delta_pair(ZETA - 0.75 * XI + 0.25 * XI_STAR)
    expected = GrassmannElement.from_table(
        {
            "ζζ*": 1.0,
            "ζξ": 0.25,
            "ζξ*": -0.75,
            "ζ*ξ": 0.75,
            "ζ*ξ*": -0.25,
            "ξξ*": 0.75 ** 2 - 0.25 ** 2,
        }
    )
    assert d.isclose(expected, atol=1e-15)


def test_delta_pair_rejects_nonlinear_arguments():
    with pytest.raises(ValueError):
        delta_pair(GrassmannElement.one() + ZETA)
    with pytest.raises(ValueError):
        delta_pair(ZETA + XI * XI_STAR)


def test_delta_is_central():
    rng = np.random.default_rng(31)
    d = delta_pair(ZETA - random_linear_xi(rng))
    f = random_element(rng)
    assert (d * f).isclose(f * d, atol=1e-12)


def random_linear_xi(rng):
    a = rng.normal() + 1j * rng.normal()
    b = rng.normal() + 1j * rng.normal()
    return a * XI + b * XI_STAR


def test_substitute_relabels_xi_pair_to_zeta_pair():
    rng = np.random.default_rng(37)
    body = GrassmannElement.from_table({"1": 1, "ξ": 0.2 + 0.1j, "ξ*": -0.2 + 0.1j, "ξξ*": 0.4})
    relabeled = substitute(body, {Generator.XI: ZETA, Generator.XI_STAR: ZETA_STAR})
    assert relabeled == GrassmannElement.from_table(
        {"1": 1, "ζ": 0.2 + 0.1j, "ζ*": -0.2 + 0.1j, "ζζ*": 0.4}
    )


def test_pretty_format_golden():
    e = GrassmannElement.from_table({"1": 1, "ξξ*": 0.5, "ξ": 0.3 - 0.1j})
    assert e.pretty() == "1 + (0.3-0.1i)·ξ + 0.5·ξξ*"
    assert GrassmannElement.zero().pretty() == "0"
    assert (ZETA - 0.25 * XI).pretty() == "1·ζ - 0.25·ξ"


def test_monomial_names_cover_all_masks():
    assert len(MONOMIAL_NAMES) == 16
    assert MONOMIAL_NAMES[0] == "1"
    assert MONOMIAL_NAMES[0b1111] == "ζζ*ξξ*"


def test_coefficient_table_round_trip():
    rng = np.random.default_rng(41)
    x = random_element(rng)
    assert GrassmannElement.from_table(x.to_table()) == x


def test_monomial_masks_must_name_one_of_the_sixteen_monomials():
    x = GrassmannElement(np.arange(16) + 1.0)
    op = OperatorElement.from_matrix(np.eye(2)) * x
    for mask in (0, 3, 15, np.int64(3), np.uint8(15)):
        assert x.coefficient(mask) == 1.0 + int(mask)
        assert np.array_equal(op.monomial_matrix(mask), (1.0 + int(mask)) * np.eye(2))
    for mask in (-1, -16, 16, np.int64(-1), np.int64(16)):
        with pytest.raises(ValueError, match=f"mask {mask} "):
            x.coefficient(mask)
        with pytest.raises(ValueError, match=f"mask {mask} "):
            op.monomial_matrix(mask)
        with pytest.raises(ValueError, match=f"mask {mask} "):
            OperatorElement.from_monomial_matrices({mask: np.eye(2)})
    assert x.coefficient([Generator.XI, 0]) == 1.0 + 0b0101
    for generators in ([4], [-1], [0, 7]):
        with pytest.raises(ValueError, match="not a valid Generator"):
            x.coefficient(generators)


def test_monomial_names_must_be_canonical():
    x = GrassmannElement(np.arange(16) + 1.0)
    assert x.coefficient("ξξ*") == 1.0 + 0b1100
    assert GrassmannElement.from_table({"ξξ*": 2}).coefficient(0b1100) == 2
    for name in ("xi", "ξ*ξ", ""):
        message = re.escape(f"monomial name {name!r} is not one of {', '.join(MONOMIAL_NAMES)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            x.coefficient(name)
        with pytest.raises(ValueError, match=f"^{message}$"):
            GrassmannElement.from_table({"ξ": 1, name: 1})


def test_constructor_and_shape_checks():
    with pytest.raises(ValueError, match="expected 16 coefficients"):
        GrassmannElement(np.zeros(15))
    with pytest.raises(ValueError, match="repeated generator"):
        XI.coefficient([Generator.XI, Generator.XI])
    with pytest.raises(ValueError, match="images must be linear"):
        substitute(XI, {Generator.XI: XI * XI_STAR})
    with pytest.raises(TypeError, match="GrassmannElement instances"):
        OperatorElement([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="2x2"):
        OperatorElement.from_matrix(np.eye(3))


def test_operators_take_elements_and_scale_by_scalars_only():
    x = GrassmannElement.one()
    op = OperatorElement.identity()
    for make in (
        lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x, lambda: x / 2,
        lambda: None * x, lambda: x + op, lambda: x - op,
        lambda: op + x, lambda: op - x, lambda: op * None, lambda: None * op,
        lambda: 2 * op, lambda: -op, lambda: op @ op,
    ):
        with pytest.raises(TypeError):
            make()
    assert x != 1.0 and op != 1.0
    assert 2 * x == x * 2 and op * 2 == OperatorElement.from_matrix(2 * np.eye(2))
    # One home per operation: the module functions, not method twins.
    for cls, name in (
        (GrassmannElement, "adjoint"), (GrassmannElement, "integrate"),
        (OperatorElement, "zero"), (OperatorElement, "constant_part"),
    ):
        assert not hasattr(cls, name), name


@pytest.mark.parametrize("text", ["a", "1", b"a", b"1", np.str_("1"), np.bytes_(b"1")])
def test_strings_are_unsupported_operands(text):
    # np.isscalar admits str and bytes; a product with one must be Python's operand TypeError.
    x = GrassmannElement.one()
    op = OperatorElement.identity()
    for make in (lambda: x * text, lambda: text * x, lambda: op * text):
        with pytest.raises(TypeError, match="unsupported operand|can't multiply sequence"):
            make()


@pytest.mark.parametrize(
    "scalar",
    [2, 2.5, 1 - 2j, True, np.float64(2.5), np.float32(0.1), np.int64(-3), np.uint8(7),
     np.complex128(1 - 2j), np.complex64(0.5j), np.bool_(True), np.longdouble(0.1)],
    ids=lambda s: type(s).__name__,
)
def test_numeric_scalars_scale_as_complex(scalar):
    x = GrassmannElement.from_table({"1": 1, "ξ": 0.5 - 1j, "ζζ*ξξ*": 3})
    op = OperatorElement.from_matrix([[1, 2j], [0.5, -1]]) * XI
    expected = x.coefficients * complex(scalar)
    assert (x * scalar).coefficients.tobytes() == expected.tobytes()
    assert (scalar * x).coefficients.tobytes() == expected.tobytes()
    scaled = (op * scalar).entry(0, 1).coefficients
    assert scaled.tobytes() == (op.entry(0, 1).coefficients * complex(scalar)).tobytes()


def test_hash_agrees_with_equality_on_negative_zeros():
    negative = GrassmannElement(np.full(16, complex(-0.0, -0.0)))
    assert np.signbit(negative.coefficients.real).all() and np.signbit(negative.coefficients.imag).all()
    assert negative == GrassmannElement() and hash(negative) == hash(GrassmannElement())
    assert len({negative, GrassmannElement()}) == 1
    op = OperatorElement.from_matrix(np.full((2, 2), -0.0))
    zero = OperatorElement.from_matrix(np.zeros((2, 2)))
    assert np.signbit(op.monomial_matrix(0).real).all()
    assert op == zero and hash(op) == hash(zero)
    assert len({op, zero}) == 1


def test_repr():
    assert repr(GrassmannElement.from_table({"1": 1, "ξξ*": 0.5})) == "GrassmannElement(1 + 0.5·ξξ*)"
    op = OperatorElement.from_matrix([[1, 2j], [0, -1]])
    assert repr(op) == "OperatorElement([1, (0+2i); 0, -1])"


def test_operator_element_matrix_product_and_trace():
    sx = np.array([[0, 1], [1, 0]])
    a = OperatorElement.from_matrix(sx) * XI
    b = OperatorElement.from_matrix(sx) * XI_STAR
    prod = a * b
    # sx * sx = I, xi * xi* keeps its order
    assert prod.entry(0, 0) == XI * XI_STAR
    assert prod.entry(1, 1) == XI * XI_STAR
    assert prod.trace() == 2 * (XI * XI_STAR)


def test_operator_element_adjoint_matches_dagger():
    m = np.array([[0.3, 0.1 - 0.2j], [0.5j, -0.7]])
    op = OperatorElement.from_matrix(m)
    assert np.allclose(op.adjoint().monomial_matrix(0), m.conj().T)


# -- bit identity with the term-by-term reference ---------------------------
#
# The loops below are the reference implementation: one scalar complex product
# per pair of nonzero monomials, accumulated in pair order into a zero array.
# The table-driven core must reproduce their results bit for bit.


def _generators_of(mask):
    return [g for g in range(4) if mask >> g & 1]


def _ordering_sign(seq):
    inversions = sum(a > b for k, a in enumerate(seq) for b in seq[k + 1:])
    return np.int8(-1 if inversions & 1 else 1)


def ref_multiply(x, y):
    out = np.zeros(16, dtype=complex)
    xc, yc = x.coefficients, y.coefficients
    for i in np.nonzero(xc)[0]:
        xi_coeff = xc[i]
        for j in np.nonzero(yc)[0]:
            if i & j:
                continue
            sign = _ordering_sign(_generators_of(i) + _generators_of(j))
            out[i | j] += sign * xi_coeff * yc[j]
    return GrassmannElement(out)


def ref_adjoint(x):
    out = np.zeros(16, dtype=complex)
    for m in np.nonzero(x.coefficients)[0]:
        partner = ((m & 0b0101) << 1) | ((m & 0b1010) >> 1)
        sign = _ordering_sign([g ^ 1 for g in reversed(_generators_of(m))])
        out[partner] += sign * np.conj(x.coefficients[m])
    return GrassmannElement(out)


def ref_berezin_integrate(x, v):
    bit = 1 << int(v)
    below = bit - 1
    out = np.zeros(16, dtype=complex)
    for m in np.nonzero(x.coefficients)[0]:
        if not m & bit:
            continue
        sign = -1 if bin(int(m) & below).count("1") & 1 else 1
        out[m & ~bit] += sign * x.coefficients[m]
    return GrassmannElement(out)


def awkward_element(rng, density=1.0, small_integers=False):
    """Random element with exact zeros and -0.0 in its real and imaginary parts.

    ``small_integers`` draws from {-2, -1, 1, 2}, so that products cancel
    exactly and the sign of a zero sum is exercised.
    """
    parts = []
    for _ in range(2):
        if small_integers:
            part = rng.choice([-2.0, -1.0, 1.0, 2.0], size=16)
        else:
            part = rng.normal(size=16)
        u = rng.random(16)
        part[u < 0.2] = 0.0
        part[(u >= 0.2) & (u < 0.35)] = -0.0
        parts.append(part)
    c = np.empty(16, dtype=complex)
    c.real, c.imag = parts
    dropped = rng.random(16) >= density
    c.real[dropped] = rng.choice([0.0, -0.0], size=dropped.sum())
    c.imag[dropped] = rng.choice([0.0, -0.0], size=dropped.sum())
    return GrassmannElement(c)


def awkward_elements(seed, n=300):
    rng = np.random.default_rng(seed)
    for k in range(n):
        yield awkward_element(rng, density=(0.15, 0.5, 1.0)[k % 3], small_integers=k % 2 == 1)


def same_bits(x, y):
    return x.coefficients.tobytes() == y.coefficients.tobytes()


def test_awkward_elements_hold_negative_zeros():
    c = np.concatenate([x.coefficients for x in awkward_elements(1, n=20)])
    assert np.signbit(c.real[c.real == 0]).any() and np.signbit(c.imag[c.imag == 0]).any()


def test_multiply_bit_identical_to_term_loop():
    xs = list(awkward_elements(211))
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert same_bits(multiply(x, y), ref_multiply(x, y))
    for g in GENERATORS:
        assert same_bits(multiply(g, xs[0]), ref_multiply(g, xs[0]))


def test_adjoint_bit_identical_to_term_loop():
    for x in awkward_elements(223):
        assert same_bits(adjoint(x), ref_adjoint(x))


def test_berezin_integrals_bit_identical_to_term_loop():
    for x in awkward_elements(227):
        for v in Generator:
            assert same_bits(berezin_integrate(x, v), ref_berezin_integrate(x, v))
        twice = ref_berezin_integrate(ref_berezin_integrate(x, Generator.ZETA), Generator.ZETA_STAR)
        assert same_bits(integrate_pair(x), twice)


def test_apply_green_bit_identical_to_substitute_path():
    from grasschan.charfunc import CharFunction
    from grasschan.green import apply_green, green_from_channel
    from grasschan.qubit import random_cptp_canonical_channel

    rng = np.random.default_rng(233)
    relabel = {Generator.XI: ZETA, Generator.XI_STAR: ZETA_STAR}
    for k, x in enumerate(awkward_elements(239, n=60)):
        c = np.zeros(16, dtype=complex)
        for mask in (0b0100, 0b1000, 0b1100):
            c[mask] = x.coefficients[mask]
        c[0] = 1.0
        chi = CharFunction(GrassmannElement(c))
        kernel = green_from_channel(random_cptp_canonical_channel(rng))
        expected = integrate_pair(ref_multiply(substitute(chi.body, relabel), kernel.body))
        assert same_bits(apply_green(kernel, chi).body, expected)


def ref_operator_product(e, f):
    return [
        [ref_multiply(e[i][0], f[0][j]) + ref_multiply(e[i][1], f[1][j]) for j in range(2)]
        for i in range(2)
    ]


def test_operator_element_bit_identical_to_entrywise_reference():
    xs = list(awkward_elements(241, n=96))
    for k in range(0, len(xs) - 8, 8):
        a = OperatorElement((xs[k:k + 2], xs[k + 2:k + 4]))
        b = OperatorElement((xs[k + 4:k + 6], xs[k + 6:k + 8]))
        g = xs[k + 8]
        e, f = a.entries, b.entries
        expected = {
            "product": ref_operator_product(e, f),
            "right": [[ref_multiply(e[i][j], g) for j in range(2)] for i in range(2)],
            "left": [[ref_multiply(g, e[i][j]) for j in range(2)] for i in range(2)],
            "adjoint": [[ref_adjoint(e[j][i]) for j in range(2)] for i in range(2)],
            "sum": [[e[i][j] + f[i][j] for j in range(2)] for i in range(2)],
            "scaled": [[e[i][j] * (0.3 - 1.7j) for j in range(2)] for i in range(2)],
        }
        got = {
            "product": a * b,
            "right": a * g,
            "left": g * a,
            "adjoint": a.adjoint(),
            "sum": a + b,
            "scaled": a * (0.3 - 1.7j),
        }
        for name, op in got.items():
            for i in range(2):
                for j in range(2):
                    assert same_bits(op.entry(i, j), expected[name][i][j]), (name, i, j)
        assert same_bits(a.trace(), e[0][0] + e[1][1])


def test_product_trace_bit_identical_to_full_product_trace():
    from grasschan.charfunc import char_function, displacement
    from grasschan.qubit import random_state

    rng = np.random.default_rng(257)
    for _ in range(200):
        rho = random_state(rng)
        expected = (OperatorElement.from_matrix(rho.matrix) * displacement()).trace()
        assert same_bits(char_function(rho).body, expected)


def awkward_densities():
    """Density matrices with exact zeros and -0.0 parts, at p in {0, 1/2, 1} and between."""
    rng = np.random.default_rng(263)
    zeros = (0.0, -0.0)
    for p in (0.0, -0.0, 0.5, 1.0, 0.25, 0.8):
        r = np.sqrt(max(p * (1 - p), 0.0))
        for gamma in (
            complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
            complex(r * 0.6, 0.0), complex(-r * 0.6, -0.0), complex(0.0, r * 0.7),
            complex(-0.0, -r * 0.7), complex(-r * 0.5, r * 0.5),
        ):
            for im in zeros:
                rho = np.array([[p, gamma], [np.conj(gamma), 1 - p]])
                rho.imag[0, 0] = rho.imag[1, 1] = im
                yield rho
    for _ in range(200):
        p = rng.random()
        gamma = np.sqrt(p * (1 - p)) * rng.random() * np.exp(2j * np.pi * rng.random())
        yield np.array([[p, gamma], [np.conj(gamma), 1 - p]])


def test_char_bodies_bit_identical_to_full_product_trace_row_by_row():
    from grasschan.charfunc import _char_bodies, displacement

    rhos = np.array(list(awkward_densities()))
    assert np.signbit(rhos.real[rhos.real == 0]).any() and np.signbit(rhos.imag[rhos.imag == 0]).any()
    bodies = _char_bodies(rhos)
    for s, rho in enumerate(rhos):
        expected = (OperatorElement.from_matrix(rho) * displacement()).trace()
        assert bodies[s].tobytes() == expected.coefficients.tobytes()
        assert _char_bodies(rho[None])[0].tobytes() == bodies[s].tobytes()


def fresh_kept_table(monkeypatch):
    """Restart the product and convolution passes from their one-row tables;
    the kept tables are restored afterwards."""
    from grasschan import grassmann, green

    for table in (grassmann._PRODUCT, green._CONVOLUTION):
        monkeypatch.setattr(table, "kept", table.row_tables(1))
    return grassmann


def test_stacked_products_reuse_the_kept_table_by_prefix(monkeypatch):
    grassmann = fresh_kept_table(monkeypatch)
    xs = list(awkward_elements(269, n=300))
    ys = list(awkward_elements(271, n=300))
    xc, yc = (np.array([x.coefficients for x in e]) for e in (xs, ys))
    built = []
    for n in (300, 5, 257):
        out = grassmann._products(xc[:n], yc[-n:])
        built.append(len(grassmann._PRODUCT.kept) - 1)
        assert out.shape == (n, 16)
        for s in range(n):
            assert out[s].tobytes() == ref_multiply(xs[s], ys[len(ys) - n + s]).coefficients.tobytes()
    # the 300-row table is kept: the shorter passes use its prefixes
    assert built == [300, 300, 300]
    assert np.shares_memory(grassmann._PRODUCT.kept[5][0], grassmann._PRODUCT.kept[300][0])


def test_operator_products_on_a_prefix_of_a_grown_table(monkeypatch):
    grassmann = fresh_kept_table(monkeypatch)
    rows = np.array([x.coefficients for x in awkward_elements(277, n=300)])
    grassmann._products(rows, rows[::-1])
    xs = list(awkward_elements(281, n=90))
    for k in range(0, len(xs), 9):
        a = OperatorElement((xs[k:k + 2], xs[k + 2:k + 4]))
        b = OperatorElement((xs[k + 4:k + 6], xs[k + 6:k + 8]))
        g = xs[k + 8]
        e, f = a.entries, b.entries
        for got, expected in (
            (a * b, ref_operator_product(e, f)),
            (a * g, [[ref_multiply(e[i][j], g) for j in range(2)] for i in range(2)]),
            (g * a, [[ref_multiply(g, e[i][j]) for j in range(2)] for i in range(2)]),
        ):
            assert all(same_bits(got.entry(i, j), expected[i][j]) for i in range(2) for j in range(2))
        assert same_bits(multiply(g, xs[k]), ref_multiply(g, xs[k]))
    assert len(grassmann._PRODUCT.kept) - 1 == 300


def test_operator_element_data_cannot_be_written():
    from grasschan.charfunc import displacement

    for op in (OperatorElement.from_matrix(np.eye(2)) * XI, displacement(), displacement(-1, "zeta")):
        snapshot = OperatorElement(op.entries)
        for e in [e for row in op.entries for e in row] + [op.entry(1, 0)]:
            with pytest.raises(ValueError):
                e.coefficients[0] = 7.0
            # even an entry forced writable is a copy
            e.coefficients.flags.writeable = True
            e.coefficients[0] = 7.0
        m = op.monomial_matrix(0)
        m[:] = 7.0
        assert op == snapshot
    assert displacement().entry(0, 0) == GrassmannElement.from_table({"1": 1, "ξξ*": 0.5})
