"""Exact rational referee for the sampler's CPTP decision.

Every float is a rational number, so the Choi positivity that the sampler
decides in floating point (``qubit._choi_prescreen``, ``qubit._cptp_ok``) can
be decided exactly with ``fractions.Fraction``, with no LAPACK and the same
answer on every host.

A Hermitian matrix is positive semidefinite exactly when every elementary
symmetric function ``e_k`` of its eigenvalues is non-negative.  For the Choi
operator ``C`` of canonical ``(t, lam)`` and a shift ``f``, ``invariants``
gives ``e_1 .. e_4`` of ``C - f I`` from its Bell-basis form: diagonal
``delta_a = (1 + s_a . lam) / 2 - f`` and, on each of the two edges of axis
``k``, an entry of squared modulus ``w_k = t_k^2 / 4``.  Each ``e_k`` is the
sum of the principal minors of order ``k``:

* a pair ``(a, b)`` gives ``delta_a delta_b``, less ``w_k`` if it is an edge
  of axis ``k``;
* a triple gives its diagonal product, less ``w_k delta_c`` for each edge
  ``(a, b)`` of axis ``k`` inside it (``c`` its third state); its 3-cycle
  terms cancel, because ``sigma_x sigma_y sigma_z = iI`` makes them
  imaginary;
* the determinant is the diagonal product, less ``w_k delta_c delta_d`` for
  each edge ``(a, b)`` of axis ``k`` (``(c, d)`` the other edge of that
  axis), plus ``W^2`` with ``W = w_0 + w_1 + w_2`` from the 4-cycles and
  the perfect matchings.

``choi_invariants`` computes the same numbers from the 4x4 Choi matrix
itself, ``(1/2) sum_kl ptm[k, l] sigma_k (x) sigma_l^T``, with the
Faddeev-LeVerrier recursion on Gaussian rationals; the tests hold the two
equal, so the Bell-basis expansion is checked independently of the code it
referees.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from grasschan.tolerances import CHOI_EIG_FLOOR, SCREEN_MARGIN

BELL_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
#: The two edges of each axis ``k``: the pairs of Bell states that ``t_k`` couples.
AXIS_EDGES = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
FLOOR = Fraction(CHOI_EIG_FLOOR)
MARGIN = Fraction(SCREEN_MARGIN)


def invariants(t, lam, shift) -> tuple:
    """``(e_1, e_2, e_3, e_4)`` of ``C - shift I``, exactly, from the Bell-basis form."""
    lam = [Fraction(x) for x in lam]
    w = [Fraction(x) ** 2 / 4 for x in t]
    delta = [(1 + sum(s * x for s, x in zip(signs, lam))) / 2 - Fraction(shift) for signs in BELL_SIGNS]
    edges = [(a, b, k) for k, pair in enumerate(AXIS_EDGES) for a, b in pair]
    e1 = sum(delta)
    e2 = sum(delta[a] * delta[b] for a, b in itertools.combinations(range(4), 2)) - sum(w[k] for _, _, k in edges)
    e3 = sum(delta[a] * delta[b] * delta[c] for a, b, c in itertools.combinations(range(4), 3))
    e3 -= sum(w[k] * (e1 - delta[a] - delta[b]) for a, b, k in edges)
    e4 = delta[0] * delta[1] * delta[2] * delta[3] + sum(w) ** 2
    for k, ((a, b), (c, d)) in enumerate(AXIS_EDGES):
        e4 -= w[k] * (delta[a] * delta[b] + delta[c] * delta[d])
    return e1, e2, e3, e4


def min_choi_eig_at_least(t, lam, floor) -> bool:
    """Whether the smallest eigenvalue of the Choi operator of ``(t, lam)`` is at least ``floor``, exactly."""
    return all(e >= 0 for e in invariants(t, lam, floor))


def exact_ok(t, lam) -> bool:
    """``cptp_report.ok`` decided exactly: the smallest Choi eigenvalue is at
    least ``CHOI_EIG_FLOOR`` (trace preservation holds exactly for every
    canonical ``(t, lam)``)."""
    return min_choi_eig_at_least(t, lam, FLOOR)


def in_screen_band(t, lam) -> bool:
    """Whether the smallest Choi eigenvalue lies within ``SCREEN_MARGIN`` of
    ``CHOI_EIG_FLOOR`` (in ``[f - M, f + M)``), where the sampler's closed
    form may defer to ``cptp_report``."""
    return min_choi_eig_at_least(t, lam, FLOOR - MARGIN) and not min_choi_eig_at_least(t, lam, FLOOR + MARGIN)


# Gaussian rationals as (real, imaginary) pairs of Fractions.
def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _matmul(a, b):
    n = len(a)
    out = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                p = _mul(a[i][k], b[k][j])
                re, im = re + p[0], im + p[1]
            out[i][j] = (re, im)
    return out


_PAULI = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((0, -1j), (1j, 0)),
    ((1, 0), (0, -1)),
)


def choi_matrix(t, lam, shift=0):
    """``C - shift I`` as a 4x4 matrix of Gaussian rationals."""
    ptm = [[0] * 4 for _ in range(4)]
    ptm[0][0] = 1
    for k in range(3):
        ptm[k + 1][0] = Fraction(t[k])
        ptm[k + 1][k + 1] = Fraction(lam[k])
    out = [[(Fraction(0), Fraction(0))] * 4 for _ in range(4)]
    for k, l in itertools.product(range(4), repeat=2):
        if ptm[k][l] == 0:
            continue
        for (i, j), (r, c) in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
            z = complex(_PAULI[k][i][j]) * complex(_PAULI[l][c][r])  # sigma_k[i, j] * sigma_l^T[r, c]
            if z:
                row, col = 2 * i + r, 2 * j + c
                re, im = out[row][col]
                out[row][col] = (re + ptm[k][l] * Fraction(z.real) / 2, im + ptm[k][l] * Fraction(z.imag) / 2)
    for i in range(4):
        out[i][i] = (out[i][i][0] - Fraction(shift), out[i][i][1])
    return out


def choi_invariants(t, lam, shift) -> tuple:
    """``(e_1, .., e_4)`` of ``C - shift I`` from the Choi matrix, by the
    Faddeev-LeVerrier recursion ``M_k = X M_{k-1} + c I``, ``c = -tr(X M_k) / k``."""
    x = choi_matrix(t, lam, shift)
    n = 4
    m = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    coeff = Fraction(1)
    out = []
    for k in range(1, n + 1):
        m = _matmul(x, m)
        for i in range(n):
            m[i][i] = (m[i][i][0] + coeff, m[i][i][1])
        xm = _matmul(x, m)
        trace = sum(xm[i][i][0] for i in range(n)), sum(xm[i][i][1] for i in range(n))
        assert trace[1] == 0  # a Hermitian X has real traces of its powers
        coeff = -trace[0] / k
        out.append((-1) ** k * coeff)
    return tuple(out)


def _gaussian(z):
    """A Python number as a Gaussian rational ``(re, im)``."""
    return Fraction(z.real), Fraction(z.imag)


def _dagger(a):
    return [[(a[j][i][0], -a[j][i][1]) for j in range(len(a))] for i in range(len(a))]


def kraus_ptm(ops) -> list:
    """The transfer matrix ``Re Tr[sigma_i sum_k A_k sigma_j A_k^dag] / 2`` of
    a Kraus list of 2x2 operators (nested lists of Python numbers), exactly:
    its 16 entries row by row, as Fractions, by Gaussian-rational matrix
    products.  Trace preservation is not checked."""
    mats = [[[_gaussian(z) for z in row] for row in a] for a in ops]
    pauli = [[[_gaussian(complex(z)) for z in row] for row in p] for p in _PAULI]
    mapped = []
    for p in pauli:
        total = [[(Fraction(0), Fraction(0))] * 2 for _ in range(2)]
        for a in mats:
            term = _matmul(_matmul(a, p), _dagger(a))
            total = [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(r, s)] for r, s in zip(total, term)]
        mapped.append(total)
    out = []
    for p in pauli:
        for m in mapped:
            product = _matmul(p, m)
            out.append((product[0][0][0] + product[1][1][0]) / 2)
    return out


#: The unit roundoff ``u = 2^-53`` and half the smallest subnormal, ``eta = 2^-1075``.
UNIT_ROUNDOFF = Fraction(1, 2**53)
ETA = Fraction(1, 2**1075)


def kraus_ptm_bound(ops) -> Fraction:
    """A bound on ``|qubit._kraus_ptms - kraus_ptm|`` for every entry of a
    list of ``K`` operators.

    Each entry of the pass is a signed sum of at most ``8K`` products of two
    parts, rounded along the way, and perhaps halved.  In the standard model
    a product rounds to ``p (1 + delta) + eps`` with ``|delta| <= u`` and
    ``|eps| <= eta`` (underflow), a sum to ``s (1 + delta)``, and halving
    is exact but for an error of at most ``eta`` on a subnormal.  Along any
    product's path there are at most ``K + 4`` roundings: the product, the
    sum of two products (``|x|^2`` or the real or imaginary part of ``x
    conj(y)``), the operator's ``+-`` term or none, the ``K`` additions of
    the list sum, and the combination of two list sums (``m00 + m11``, ``u0 -
    u1``, ...).  So an entry is within ``gamma_{K+4} sum |p| + 2 (8K) eta +
    eta`` of its exact value (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1), with ``gamma_n = nu / (1 - nu)``.
    Every ``|p|`` is ``x^2`` or ``|x y| <= (x^2 + y^2) / 2`` for two parts of
    one operator, and no entry takes a product twice, so ``sum |p|`` is at
    most ``S``, the sum of the squares of every part of the list.
    """
    k = len(ops)
    squares = sum(Fraction(x) ** 2 for a in ops for row in a for z in row for x in (z.real, z.imag))
    n = k + 4
    gamma = n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)
    return gamma * squares + (16 * k + 1) * ETA
