"""Exact symbolic algebra over four anticommuting generators.

The algebra is generated by two conjugate pairs of Grassmann variables,
``(zeta, zeta*)`` and ``(xi, xi*)``, with the fixed total order

    zeta < zeta* < xi < xi*.

An element is a complex polynomial over the 16 canonical monomials (one per
subset of the generator set, factors written in ascending order), so two
elements are equal iff all 16 coefficients agree (``-0.0 == 0.0``, and the
hash agrees with ``==``).

Each operation has one home:

* the module functions ``multiply``, ``adjoint``, ``berezin_integrate``,
  ``integrate_pair``, ``delta_pair`` and ``substitute``;
* the operators of ``GrassmannElement``: ``+``, ``-``, ``==`` and
  ``isclose`` take two elements; ``*`` is ``multiply`` on two elements and
  scales by a scalar on either side; unary ``-`` negates;
* the operators of ``OperatorElement``: ``+``, ``-``, ``==`` and
  ``isclose`` take two operators; ``*`` is the matrix product of two
  operators, multiplies every entry by an element on either side, and
  scales by a scalar on the right; ``adjoint()`` and ``trace()``.

Storage and arithmetic:

* A ``GrassmannElement`` holds one read-only complex array of its 16
  coefficients, indexed by monomial mask (bit ``i`` marks generator ``i``).
  An ``OperatorElement`` holds one read-only ``(2, 2, 16)`` array indexed
  ``[row, column, monomial]``.
* Every operation applies a fixed index table to these arrays.  A product
  runs over the table of the 81 non-vanishing monomial pairs ``(i, j)``
  (``i & j == 0``), ordered by ``i`` and then by ``j``, each with its target
  ``i | j`` and merge sign.  The adjoint, the Berezin integrals and
  ``integrate_pair`` are fixed signed maps from source to target monomials.
* Every graded product is a row of one stacked pass, ``_products`` on two
  ``(..., 16)`` arrays of one shape (the index maps also take ``(..., 16)``
  arrays): the pair tables are offset by row, so each row gets the bits of
  its own single-pair pass.  ``multiply`` is one row, an operator product
  eight (``e[i, k] f[k, j]``, summed over ``k``), an operator times an
  element four.  ``green`` writes each kernel from its closed form on Python
  floats, with the bits of the same kernel built here from ``delta_pair``
  and ``multiply``.
  ``_products`` runs any table of signed terms (``_PairTable``): the Berezin
  convolution of ``green`` is one pass of the 81-pair table cut to 16 terms,
  one row per kernel, and ``apply_green`` runs its terms that can be nonzero
  for one characteristic function on Python floats, with the same bits.
  Each table keeps its offset tables for the most rows needed so far, with
  their prefix views for fewer rows.
* For finite coefficients, results are bit-identical to the term-by-term
  definition: one scalar product ``sign * x[i] * y[j]`` per pair of nonzero
  coefficients, added to a zero target in pair order.  The complex product
  is written out in real arithmetic (``re = ar*br - ai*bi``,
  ``im = ar*bi + ai*br``), because numpy's vectorised complex multiply
  rounds some terms differently, and each target is summed from zero in
  pair order by ``np.bincount``.  The tests keep the term-by-term loops as
  the reference and compare bytes.
* All values are immutable: the arrays are read-only, ``OperatorElement``
  entry accessors return copies, and every operation is a pure function
  that returns fresh arrays.  Values, including shared cached ones such as
  ``charfunc.displacement()``, are safe to share and to read concurrently.

Conventions frozen by the calibration tests:

* Berezin integration: ``berezin_integrate(1, g) = 0`` and
  ``berezin_integrate(g, g) = 1`` for a bare generator ``g``; a generator is
  commuted to the leftmost position of its monomial before being stripped.
* ``integrate_pair`` integrates zeta first, then zeta* (measure
  ``dzeta* dzeta`` with the innermost differential acting first).
* ``delta_pair(a) = a * adjoint(a)``.  With the pair-integral order above
  this realizes the sifting identity
  ``integrate_pair(delta_pair(zeta - eta) * f(zeta, zeta*)) = f(eta, eta*)``
  for any odd linear ``eta`` in the xi pair.
* ``OperatorElement`` treats Grassmann coefficients as scalars that commute
  with the 2x2 matrix factors.  This assignment is pinned by the
  characteristic-function calibration test (the closed form with a
  ``-gamma* xi*`` term only emerges for it) and by the displacement-matrix
  golden test.

Pretty-print format (stable; golden-tested): terms in ascending
monomial-index order, joined with `` + `` / `` - ``; real coefficients
print bare in ``%g`` style, complex ones parenthesized as ``(re+imi)``;
the constant monomial prints as a bare number, every other monomial as
``coeff·monomial``, e.g. ``1 + (0.3-0.1i)·ξ + 0.5·ξξ*``.
"""

from __future__ import annotations

import enum
import numbers
from typing import Iterable, Mapping

import numpy as np

from .tolerances import ISCLOSE_ATOL

__all__ = [
    "Generator",
    "GrassmannElement",
    "OperatorElement",
    "ZETA",
    "ZETA_STAR",
    "XI",
    "XI_STAR",
    "multiply",
    "adjoint",
    "berezin_integrate",
    "integrate_pair",
    "delta_pair",
    "substitute",
    "MONOMIAL_NAMES",
]

N_GENERATORS = 4
N_MONOMIALS = 16


class Generator(enum.IntEnum):
    """The four anticommuting generators in their fixed total order."""

    ZETA = 0
    ZETA_STAR = 1
    XI = 2
    XI_STAR = 3


_GLYPHS = ("ζ", "ζ*", "ξ", "ξ*")


def _monomial_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(_GLYPHS[i] for i in range(N_GENERATORS) if mask >> i & 1)


#: Canonical monomial name for each of the 16 monomial indices (bit ``i`` of
#: the index marks the presence of generator ``i``).
MONOMIAL_NAMES = tuple(_monomial_name(m) for m in range(N_MONOMIALS))

_NAME_TO_MASK = {name: mask for mask, name in enumerate(MONOMIAL_NAMES)}


def _generators_of(mask: int) -> list:
    return [g for g in range(N_GENERATORS) if mask >> g & 1]


def _sequence_sign(seq: Iterable[int]) -> int:
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                swaps += 1
    return -1 if swaps & 1 else 1


def _partner_mask(mask: int) -> int:
    return ((mask & 0b0101) << 1) | ((mask & 0b1010) >> 1)


def _build_tables():
    pairs = [(a, b) for a in range(N_MONOMIALS) for b in range(N_MONOMIALS) if not a & b]
    pair_i, pair_j = (np.array(side, dtype=np.intp) for side in zip(*pairs))
    pair_sign = np.array(
        [float(_sequence_sign(_generators_of(a) + _generators_of(b))) for a, b in pairs]
    )

    adj_mask = np.array([_partner_mask(m) for m in range(N_MONOMIALS)], dtype=np.intp)
    adj_sign = np.array(
        [
            float(_sequence_sign(g ^ 1 for g in reversed(_generators_of(m))))
            for m in range(N_MONOMIALS)
        ]
    )

    # Integrating generator v: monomials holding v lose it, with the sign of
    # commuting v past the generators below it.
    berezin = []
    for v in range(N_GENERATORS):
        bit = 1 << v
        src = np.array([m for m in range(N_MONOMIALS) if m & bit], dtype=np.intp)
        sign = np.array([-1.0 if bin(m & (bit - 1)).count("1") & 1 else 1.0 for m in src])
        berezin.append((src, src & ~bit, sign))
    return pair_i, pair_j, pair_sign, adj_mask, adj_sign, tuple(berezin)


#: The 81 non-vanishing monomial pairs ``(i, j)``, ordered by ``i`` and then
#: by ``j``, with the sign of merging ``j`` into ``i``; the target is ``i | j``.
_PAIR_I, _PAIR_J, _PAIR_SIGN, _ADJ_MASK, _ADJ_SIGN, _BEREZIN = _build_tables()
_PAIR_TARGET = _PAIR_I | _PAIR_J
_ALL_MASKS = np.arange(N_MONOMIALS)
#: The adjoint's sign of the source of each target: ``_ADJ_SIGN[_ADJ_MASK]``.
_ADJ_GATHER_SIGN = _ADJ_SIGN[_ADJ_MASK]
#: ``integrate_pair`` keeps the monomials that hold both zeta and zeta*; the
#: pair leads every such monomial, so stripping it never permutes (sign +1).
_ZETA_PAIR = 0b0011
_PAIR_INTEGRAL_SRC = _ALL_MASKS[(_ALL_MASKS & _ZETA_PAIR) == _ZETA_PAIR]
_PAIR_INTEGRAL_DST = _PAIR_INTEGRAL_SRC & ~_ZETA_PAIR


def _checked_mask(mask) -> int:
    """``mask`` as an int, if it is an integer naming one of the 16 monomials."""
    if isinstance(mask, (int, np.integer)) and 0 <= mask < N_MONOMIALS:
        return int(mask)
    raise ValueError(f"monomial mask {mask} is not an integer in 0..{N_MONOMIALS - 1}")


def _named_mask(name) -> int:
    """The mask of a canonical monomial name (one of ``MONOMIAL_NAMES``)."""
    try:
        return _NAME_TO_MASK[name]
    except KeyError:
        raise ValueError(f"monomial name {name!r} is not one of {', '.join(MONOMIAL_NAMES)}") from None


def _element(c: np.ndarray) -> "GrassmannElement":
    """Wrap a coefficient array that nothing else holds, without copying it."""
    c.setflags(write=False)
    x = object.__new__(GrassmannElement)
    object.__setattr__(x, "_c", c)
    return x


def _is_number(x) -> bool:
    """A Python or numpy numeric scalar (``np.isscalar`` also admits ``str`` and ``bytes``)."""
    return isinstance(x, (numbers.Number, np.bool_))


class _PairTable:
    """The terms of a product pass on one row, ``(x_index, y_index, sign,
    target)``: term ``k`` adds ``sign[k] * x[x_index[k]] * y[y_index[k]]`` to
    ``out[target[k]]``.

    ``kept[n]`` holds these tables offset by row for ``n`` rows, for every
    ``n`` up to the most rows a pass has needed so far.  The tables for ``n``
    rows are the first ``n`` row blocks of the tables for any ``m >= n`` rows,
    so every entry is a prefix view of the last one.
    """

    __slots__ = ("pairs", "kept")

    def __init__(self, x_index, y_index, sign, target):
        self.pairs = (x_index, y_index, sign, target)
        self.kept = self.row_tables(1)

    def row_tables(self, rows: int) -> tuple:
        """``kept`` for passes of up to ``rows`` rows."""
        offset = N_MONOMIALS * np.arange(rows)[:, None]
        x_index, y_index, sign, target = self.pairs
        tables = (
            (x_index + offset).ravel(),
            (y_index + offset).ravel(),
            np.tile(sign, rows),
            (target + offset).ravel(),
        )
        return tuple(tuple(t[:n * len(sign)] for t in tables) for n in range(rows + 1))


#: The graded product: every pair of ``_PAIR_I``, ``_PAIR_J`` in order.
_PRODUCT = _PairTable(_PAIR_I, _PAIR_J, _PAIR_SIGN, _PAIR_TARGET)


def _products(xc: np.ndarray, yc: np.ndarray, table: _PairTable = _PRODUCT) -> np.ndarray:
    """The pass of ``table`` on two ``(..., 16)`` coefficient arrays of one
    shape, row by row: by default output row ``s`` is ``xc[s] * yc[s]``.

    The tables are offset by row, so every target sums its own terms in
    table order and each row has the bits of its one-row pass.  They are kept
    for the most rows needed so far, with their prefixes for fewer rows; a
    pass that needs more rows rebuilds them.  The complex product is written
    out in real arithmetic so that every term has the bits of the scalar
    product ``sign * x[i] * y[j]``, and each target is summed from zero in
    term order.
    """
    size = xc.size
    n = size // N_MONOMIALS
    kept = table.kept
    if n >= len(kept):
        kept = table.kept = table.row_tables(n)
    x_index, y_index, sign, target = kept[n]
    a, b = xc.reshape(-1)[x_index], yc.reshape(-1)[y_index]
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(target, sign * (ar * br - ai * bi), size)
    out.imag = np.bincount(target, sign * (ar * bi + ai * br), size)
    return out.reshape(xc.shape)


def _index_map(c: np.ndarray, src, dst, sign=None) -> np.ndarray:
    """Move ``c[..., src]`` to ``dst`` (optionally times ``sign``); the rest is zero.

    ``dst`` holds no index twice.  Accumulating into zeros turns a ``-0.0``
    into ``+0.0``, exactly as adding each term to a zero coefficient does.
    """
    moved = c[..., src]
    if sign is not None:
        moved = sign * moved
    out = np.zeros(c.shape, dtype=complex)
    out[..., dst] += moved
    return out


class GrassmannElement:
    """Immutable complex polynomial over the 16 canonical monomials."""

    __slots__ = ("_c",)

    def __init__(self, coefficients=None):
        c = np.zeros(N_MONOMIALS, dtype=complex)
        if coefficients is not None:
            arr = np.asarray(coefficients, dtype=complex)
            if arr.shape != (N_MONOMIALS,):
                raise ValueError(f"expected {N_MONOMIALS} coefficients, got shape {arr.shape}")
            c[:] = arr
        c.setflags(write=False)
        object.__setattr__(self, "_c", c)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "GrassmannElement":
        return cls()

    @classmethod
    def one(cls) -> "GrassmannElement":
        return cls.from_scalar(1.0)

    @classmethod
    def from_scalar(cls, value: complex) -> "GrassmannElement":
        c = np.zeros(N_MONOMIALS, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def generator(cls, g: Generator) -> "GrassmannElement":
        c = np.zeros(N_MONOMIALS, dtype=complex)
        c[1 << int(g)] = 1.0
        return cls(c)

    @classmethod
    def from_table(cls, table: Mapping[str, complex]) -> "GrassmannElement":
        """Build from a ``{monomial name: coefficient}`` mapping (see MONOMIAL_NAMES)."""
        c = np.zeros(N_MONOMIALS, dtype=complex)
        for name, value in table.items():
            try:
                c[_named_mask(name)] = complex(value)
            except OverflowError:
                raise ValueError(f"coefficient of {name} is too large for a float") from None
        return cls(c)

    # -- accessors -------------------------------------------------------

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only view of the 16 monomial coefficients."""
        return self._c

    def coefficient(self, monomial) -> complex:
        """Coefficient of a monomial given by name, mask, or generator iterable."""
        if isinstance(monomial, str):
            mask = _named_mask(monomial)
        elif isinstance(monomial, (int, np.integer)):
            mask = _checked_mask(monomial)
        else:
            mask = 0
            for g in monomial:
                bit = 1 << Generator(int(g))
                if mask & bit:
                    raise ValueError("repeated generator in monomial")
                mask |= bit
        return complex(self._c[mask])

    def to_table(self) -> dict:
        """All 16 coefficients keyed by canonical monomial name."""
        return dict(zip(MONOMIAL_NAMES, self._c.tolist()))

    @property
    def constant(self) -> complex:
        return complex(self._c[0])

    def is_zero(self) -> bool:
        return not self._c.any()

    def support(self) -> tuple:
        """Masks of the monomials with nonzero coefficient."""
        return tuple(int(m) for m in np.nonzero(self._c)[0])

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return _element(self._c + other._c)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return _element(self._c - other._c)

    def __neg__(self):
        return _element(-self._c)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return multiply(self, other)
        if _is_number(other):
            return _element(self._c * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if _is_number(other):
            return _element(self._c * complex(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        # ``+ 0.0`` turns -0.0 into +0.0 in both parts, as ``==`` does.
        return hash((self._c + 0.0).tobytes())

    def isclose(self, other: "GrassmannElement", atol: float = ISCLOSE_ATOL) -> bool:
        return bool(np.max(np.abs(self._c - other._c)) <= atol)

    # -- formatting ------------------------------------------------------

    def pretty(self) -> str:
        """Stable human-readable form; see the module docstring."""
        parts = [(mask, coeff) for mask, coeff in enumerate(self._c.tolist()) if coeff != 0]
        if not parts:
            return "0"
        out = []
        for idx, (mask, coeff) in enumerate(parts):
            if coeff.imag == 0:
                text = f"{coeff.real:g}"
            else:
                text = f"({coeff.real:g}{coeff.imag:+g}i)"
            if mask != 0:
                text = f"{text}·{MONOMIAL_NAMES[mask]}"
            if idx == 0:
                out.append(text)
            elif text.startswith("-"):
                out.append(" - " + text[1:])
            else:
                out.append(" + " + text)
        return "".join(out)

    def __repr__(self):
        return f"GrassmannElement({self.pretty()})"


def _adjoint_coeffs(c: np.ndarray) -> np.ndarray:
    """``out[..., _ADJ_MASK[m]] = _ADJ_SIGN[m] * conj(c[..., m])`` as one signed
    gather (``_ADJ_MASK`` is an involution); ``+ 0.0`` turns a -0.0 into +0.0,
    as adding each term to a zero coefficient does."""
    return _ADJ_GATHER_SIGN * np.conj(c)[..., _ADJ_MASK] + 0.0


# Module-level singletons for the four generators.
ZETA = GrassmannElement.generator(Generator.ZETA)
ZETA_STAR = GrassmannElement.generator(Generator.ZETA_STAR)
XI = GrassmannElement.generator(Generator.XI)
XI_STAR = GrassmannElement.generator(Generator.XI_STAR)


def multiply(x: GrassmannElement, y: GrassmannElement) -> GrassmannElement:
    """Graded product of two elements, in canonical form."""
    return _element(_products(x._c, y._c))


def adjoint(x: GrassmannElement) -> GrassmannElement:
    """Conjugate coefficients, swap each generator with its partner, reverse factors.

    A conjugate-linear involution and antihomomorphism:
    ``adjoint(x * y) == adjoint(y) * adjoint(x)``.
    """
    return _element(_adjoint_coeffs(x._c))


def berezin_integrate(x: GrassmannElement, v: Generator) -> GrassmannElement:
    """Berezin integral over a single generator.

    Annihilates monomials not containing ``v``; otherwise commutes ``v`` to the
    leftmost position (with the permutation sign) and strips it.
    """
    return _element(_index_map(x._c, *_BEREZIN[int(v)]))


def integrate_pair(x: GrassmannElement) -> GrassmannElement:
    """Berezin integral over the zeta pair: zeta first, then zeta*."""
    return _element(_index_map(x._c, _PAIR_INTEGRAL_SRC, _PAIR_INTEGRAL_DST))


def delta_pair(argument: GrassmannElement) -> GrassmannElement:
    """Grassmann delta of ``(argument, adjoint(argument))``.

    ``argument`` must be odd and linear (a combination of bare generators,
    e.g. ``zeta - a*xi - b*xi_star``).  The representation is
    ``argument * adjoint(argument)``, whose sign convention together with
    ``integrate_pair`` yields the exact sifting property.
    """
    bad = [m for m in argument.support() if bin(m).count("1") != 1]
    if bad:
        names = ", ".join(MONOMIAL_NAMES[m] for m in bad)
        raise ValueError(f"delta argument must be linear in the generators; offending monomials: {names}")
    return multiply(argument, adjoint(argument))


def substitute(x: GrassmannElement, mapping: Mapping[Generator, GrassmannElement]) -> GrassmannElement:
    """Replace generators by odd linear elements and re-expand.

    Each monomial ``g1 g2 ... gk`` is rebuilt as the ordered product of the
    generator images; generators absent from ``mapping`` map to themselves.
    Images must be linear in the generators so that the substitution is a
    well-defined algebra homomorphism.
    """
    images = {}
    for g, image in mapping.items():
        bad = [m for m in image.support() if bin(m).count("1") != 1]
        if bad:
            raise ValueError("substitution images must be linear in the generators")
        images[int(g)] = image
    result = GrassmannElement.zero()
    for m in x.support():
        term = GrassmannElement.from_scalar(x.coefficients[m])
        for i in range(N_GENERATORS):
            if m >> i & 1:
                term = term * images.get(i, GrassmannElement.generator(Generator(i)))
        result = result + term
    return result


class OperatorElement:
    """2x2 matrix of Grassmann elements in the qubit basis ``(|0>, |1>)``.

    Products are matrix products with entrywise Grassmann multiplication;
    Grassmann coefficients commute with the matrix factors (see the module
    docstring for why this assignment is the calibrated one).  The value is
    one read-only ``(2, 2, 16)`` coefficient array, indexed
    ``[row, column, monomial]``.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        rows = [[entries[i][j] for j in range(2)] for i in range(2)]
        for row in rows:
            for e in row:
                if not isinstance(e, GrassmannElement):
                    raise TypeError("entries must be GrassmannElement instances")
        a = np.array([[e._c for e in row] for row in rows], dtype=complex)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "OperatorElement":
        """Wrap a ``(2, 2, 16)`` array that nothing else holds, without copying it."""
        a.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "_a", a)
        return op

    @classmethod
    def identity(cls) -> "OperatorElement":
        return cls.from_matrix(np.eye(2))

    @classmethod
    def from_matrix(cls, matrix) -> "OperatorElement":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        a = np.zeros((2, 2, N_MONOMIALS), dtype=complex)
        a[:, :, 0] = m
        return cls._wrap(a)

    @classmethod
    def from_monomial_matrices(cls, matrices: Mapping[int, np.ndarray]) -> "OperatorElement":
        """Build from ``{monomial mask: 2x2 complex matrix}``."""
        a = np.zeros((2, 2, N_MONOMIALS), dtype=complex)
        for mask, mat in matrices.items():
            a[:, :, _checked_mask(mask)] += np.asarray(mat, dtype=complex)
        return cls._wrap(a)

    @property
    def entries(self):
        """The four entries as a tuple of rows of elements (copies)."""
        return tuple(tuple(self.entry(i, j) for j in range(2)) for i in range(2))

    def entry(self, i: int, j: int) -> GrassmannElement:
        """One entry, as a copy: values such as ``displacement()`` are shared."""
        return _element(self._a[i, j].copy())

    def monomial_matrix(self, mask: int) -> np.ndarray:
        """The 2x2 complex matrix multiplying one monomial (a fresh copy)."""
        return self._a[:, :, _checked_mask(mask)].copy()

    def __add__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return OperatorElement._wrap(self._a + other._a)

    def __sub__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return OperatorElement._wrap(self._a - other._a)

    def __mul__(self, other):
        if isinstance(other, OperatorElement):
            # Product ``[i, j, k]`` is ``e[i, k] f[k, j]``; entry ``[i, j]`` sums it over ``k``.
            e, f = np.broadcast_arrays(self._a[:, None], other._a.transpose(1, 0, 2)[None])
            products = _products(e, f)
            return OperatorElement._wrap(products[:, :, 0] + products[:, :, 1])
        if isinstance(other, GrassmannElement):
            entries = np.broadcast_to(other._c, self._a.shape)
            return OperatorElement._wrap(_products(self._a, entries))
        if _is_number(other):
            return OperatorElement._wrap(self._a * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, GrassmannElement):
            entries = np.broadcast_to(other._c, self._a.shape)
            return OperatorElement._wrap(_products(entries, self._a))
        return NotImplemented

    def adjoint(self) -> "OperatorElement":
        return OperatorElement._wrap(_adjoint_coeffs(self._a.transpose(1, 0, 2)))

    def trace(self) -> GrassmannElement:
        return _element(self._a[0, 0] + self._a[1, 1])

    def isclose(self, other: "OperatorElement", atol: float = ISCLOSE_ATOL) -> bool:
        return bool(np.max(np.abs(self._a - other._a)) <= atol)

    def __eq__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self._a + 0.0).tobytes())

    def __repr__(self):
        rows = "; ".join(
            ", ".join(self.entry(i, j).pretty() for j in range(2)) for i in range(2)
        )
        return f"OperatorElement([{rows}])"

