"""The float CPTP decisions against the exact rational referee (``exact.py``).

``qubit._choi_prescreen`` must never drop a row that the exact decision
accepts, and ``qubit._cptp_ok`` (the sampler's) must be the exact decision
on every row whose smallest Choi eigenvalue lies outside the
``SCREEN_MARGIN`` band around ``CHOI_EIG_FLOOR``; inside the band it defers
to ``cptp_report``, whose ``eigvalsh`` the referee does not bind.  The weak
complements of dilations, on which ``certify`` makes no decision, are held
to the exact decision directly, and the Kraus pass to the exact transfer
matrix within its rounding bound.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from exact import choi_invariants, exact_ok, in_screen_band, invariants, kraus_ptm, kraus_ptm_bound, FLOOR, MARGIN
from test_qubit import (
    BELL_SIGNS,
    generic_scan,
    rank_deficient_rows,
    shifted_floor_scan,
    stinespring_kraus,
    ulp_neighbourhood,
    with_random_zero_signs,
)

from grasschan import qubit
from grasschan.degradability import Dilation, dilation_from_angles, weakly_complementary
from grasschan.green import AngleParams
from grasschan.qubit import PAULI, QubitState
from grasschan.qubit import _DECISION_SHIFTS, _INVARIANT_ROUNDING, _bell_sums, _choi_invariants, _choi_prescreen, _cptp_ok
from grasschan.tolerances import CHOI_EIG_FLOOR, SCREEN_MARGIN


def random_rows():
    """Candidates as the sampler draws them, at ``t_scale`` 0.8 and 1."""
    draws = np.random.default_rng(2601).uniform(-1, 1, size=(3000, 2, 3))
    return draws[:, 1] * np.repeat([0.8, 1.0], 1500)[:, None], draws[:, 0]


EDGE_LAM = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -0.3, 1 - 2.0**-53, -(1 - 2.0**-53)]
EDGE_T = [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 0.25, -0.5]


def edge_rows():
    """``|lam_k| = 1`` (every sign pattern, with ``t = 0``), subnormal and
    signed-zero entries, and the rank-deficient families of ``test_qubit``."""
    rng = np.random.default_rng(2602)
    lam = np.concatenate([np.array(list(itertools.product([1.0, -1.0], repeat=3))), rng.choice(EDGE_LAM, (1200, 3))])
    t = np.concatenate([np.zeros((8, 3)), rng.choice(EDGE_T, (1200, 3))])
    deficient_t, deficient_lam = rank_deficient_rows()
    return np.concatenate([t, deficient_t]), np.concatenate([lam, deficient_lam])


def near_floor_rows():
    """Rows whose smallest Choi eigenvalue is within ``SCREEN_MARGIN`` of the
    floor or of either band edge: depolarizing ``lam = l s_a`` (smallest
    eigenvalue ``(1 + 3l)/2``) at 25 eigenvalues across the band and 20 ulps
    either way of the floor and of each edge; a shift coupling one pair of
    Bell states, scanned ulp by ulp across the floor; and channels with every
    ``t_k`` nonzero, scaled to the floor."""
    eigs = [CHOI_EIG_FLOOR + j * SCREEN_MARGIN / 8 for j in range(-12, 13)]
    edges = (CHOI_EIG_FLOOR - SCREEN_MARGIN, CHOI_EIG_FLOOR, CHOI_EIG_FLOOR + SCREEN_MARGIN)
    ls = np.concatenate([[(2 * e - 1) / 3 for e in eigs]] + [ulp_neighbourhood((2 * e - 1) / 3, 20) for e in edges])
    lam = (BELL_SIGNS[:, None, :] * ls[None, :, None]).reshape(-1, 3)
    shifted_t, shifted_lam = shifted_floor_scan()
    generic_t, generic_lam = generic_scan(CHOI_EIG_FLOOR, count=4)
    return (
        np.concatenate([np.zeros_like(lam), shifted_t[::3], generic_t[::4]]),
        np.concatenate([lam, shifted_lam[::3], generic_lam[::4]]),
    )


ROWS = {"random": random_rows, "edge": edge_rows, "near_floor": near_floor_rows}


def test_the_bell_basis_expansion_is_that_of_the_choi_matrix():
    """``exact.invariants`` against the Faddeev-LeVerrier coefficients of the
    4x4 Choi matrix, both exact, at shifts 0, the floor and the band edges."""
    rows = [random_rows(), edge_rows(), near_floor_rows()]
    t = np.concatenate([r[0][:: len(r[0]) // 12] for r in rows])
    lam = np.concatenate([r[1][:: len(r[1]) // 12] for r in rows])
    for t_row, lam_row in zip(t.tolist(), lam.tolist()):
        for shift in (0, FLOOR, FLOOR - MARGIN, FLOOR + MARGIN):
            assert invariants(t_row, lam_row, shift) == choi_invariants(t_row, lam_row, shift), (t_row, lam_row)


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_the_prescreen_never_drops_an_exactly_accepted_row(kind):
    t, lam = ROWS[kind]()
    kept = _choi_prescreen(t, lam)
    dropped = [k for k in np.flatnonzero(~kept) if exact_ok(t[k].tolist(), lam[k].tolist())]
    assert dropped == []
    assert kept.any() and (kind == "near_floor" or not kept.all())


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_the_closed_form_decision_is_exact_outside_the_screen_band(kind):
    t, lam = ROWS[kind]()
    kept = np.flatnonzero(_choi_prescreen(t, lam))
    outcomes = {"agree": 0, "band": 0, "band_disagree": 0, "wrong": []}
    accepted = set()
    for k in kept:
        t_row, lam_row = t[k].tolist(), lam[k].tolist()
        ok, exact = _cptp_ok(t_row, lam_row), exact_ok(t_row, lam_row)
        accepted.add(exact)
        if in_screen_band(t_row, lam_row):
            outcomes["band"] += 1
            outcomes["band_disagree"] += ok != exact
        elif ok == exact:
            outcomes["agree"] += 1
        else:
            outcomes["wrong"].append(k)
    print(
        f"{kind}: {len(t)} rows, {len(kept)} pre-screen survivors, {outcomes['band']} inside the SCREEN_MARGIN band"
        f" ({outcomes['band_disagree']} of them decided against the exact side by cptp_report)"
    )
    assert outcomes["wrong"] == []
    assert accepted == {True, False}
    if kind == "near_floor":
        assert outcomes["band"] > 100 and outcomes["agree"] > 10


def complement_rows(pure: bool, count: int = 600):
    """Weak complements of random dilations, with a pure (``q`` in {0, 1},
    Choi rank 2) or a mixed environment."""
    rng = np.random.default_rng(2703 + pure)
    rows = []
    for i in range(count):
        q = float(i % 2) if pure else rng.uniform(0, 1)
        comp = weakly_complementary(dilation_from_angles(AngleParams(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), q)))
        rows.append((comp.t, comp.lam))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def edge_angle_complement_rows():
    """The pure-environment complements on a grid of edge angles."""
    rows = []
    for theta in (0.0, np.pi / 8, np.pi / 4, np.pi / 2):
        for phi in np.linspace(-np.pi, np.pi, 9):
            for q in (0.0, 1.0):
                comp = weakly_complementary(dilation_from_angles(AngleParams(theta, phi, q)))
                rows.append((comp.t, comp.lam))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


COMPLEMENT_ROWS = {
    "pure_complements": lambda: complement_rows(True),
    "mixed_complements": lambda: complement_rows(False),
    "edge_angle_complements": edge_angle_complement_rows,
}


@pytest.mark.parametrize("kind", sorted(COMPLEMENT_ROWS))
def test_every_weak_complement_is_exactly_cptp(kind):
    """A weak complement is a Stinespring output, so ``certify`` decides
    nothing on it; the referee finds every one CPTP, with no float decision
    under test."""
    t, lam = COMPLEMENT_ROWS[kind]()
    rejected = [k for k, (t_row, lam_row) in enumerate(zip(t.tolist(), lam.tolist())) if not exact_ok(t_row, lam_row)]
    assert len(t) >= 72 and rejected == []


EPS = Fraction(np.finfo(float).eps)
#: Higham's ``gamma_7 = 7u / (1 - 7u)``, ``u = eps / 2``.
GAMMA_7 = 7 * (EPS / 2) / (1 - 7 * (EPS / 2))


def invariant_expansions(delta, w, plus: bool) -> tuple:
    """``_choi_invariants``' formulas for ``(e2, e3, e4)``, in exact arithmetic
    on the data it computes: the diagonal ``delta`` and the ``w_k``.  With
    ``plus`` every minus is made a plus; on ``|delta_a|`` that gives the
    ``E_k`` of ``_cptp_ok``'s rounding bound."""
    d0, d1, d2, d3 = delta
    w0, w1, w2 = w
    sign = 1 if plus else -1
    p0, p1 = d0 * d1, d2 * d3
    P0, P1, P2 = p0 + p1, d0 * d2 + d1 * d3, d0 * d3 + d1 * d2
    W = w0 + w1 + w2
    a, b = d0 + d1, d2 + d3
    return (
        P0 + P1 + P2 + sign * 2 * W,
        p0 * b + p1 * a + sign * W * (a + b),
        p0 * p1 + sign * (w0 * P0 + w1 * P1 + w2 * P2) + W * W,
    )


def test_the_invariants_round_within_gamma_7():
    """``_cptp_ok``'s rounding claim, measured.  Each ``e_k`` that
    ``_choi_invariants`` returns at either decision shift must be within
    ``gamma_7 E_k`` of the exact ``e_k`` of the data it computed (the
    ``delta_a`` and ``w_k`` floats); on pre-screen survivors, where ``E_k <=
    3.01``, the error must stay below the docstring's ``10.6 eps``, inside
    ``_INVARIANT_ROUNDING``."""
    worst_ratio, worst_error, largest_bound = Fraction(0), Fraction(0), Fraction(0)
    for kind in sorted(ROWS):
        t, lam = ROWS[kind]()
        kept = _choi_prescreen(t, lam)
        for survivor, t_row, lam_row in zip(kept.tolist(), t.tolist(), lam.tolist()):
            sums, w = _bell_sums(*lam_row), tuple(x * x / 4 for x in t_row)
            for shift in _DECISION_SHIFTS:
                delta = [Fraction((1 + x) / 2 - shift) for x in sums]
                exact_w = [Fraction(x) for x in w]
                exact = invariant_expansions(delta, exact_w, plus=False)
                bound = invariant_expansions([abs(x) for x in delta], exact_w, plus=True)
                for got, want, e_k in zip(_choi_invariants(sums, w, shift), exact, bound):
                    error = abs(Fraction(got) - want)
                    assert error <= GAMMA_7 * e_k, (kind, t_row, lam_row, shift)
                    if e_k:
                        worst_ratio = max(worst_ratio, error / e_k)
                    if survivor:
                        worst_error, largest_bound = max(worst_error, error), max(largest_bound, e_k)
    print(
        f"worst |e_k(float) - e_k(exact)| / E_k: {float(worst_ratio / EPS):.3f} eps (gamma_7 = {float(GAMMA_7 / EPS):.3f} eps);"
        f" on survivors, worst error {float(worst_error / EPS):.3f} eps and largest E_k {float(largest_bound):.3f}"
    )
    assert worst_ratio < Fraction(106, 10) * EPS and largest_bound <= Fraction(301, 100)
    assert worst_error < Fraction(106, 10) * EPS < Fraction(_INVARIANT_ROUNDING)


def pauli_mixtures():
    weights = np.random.default_rng(3101).dirichlet(np.ones(4), 40)
    return [[np.sqrt(w) * p for w, p in zip(ws, PAULI)] for ws in weights]


def phase_permutation_lists():
    """Both Kraus lists of dilations by phase-times-permutation unitaries: complex monomial operators."""
    rng = np.random.default_rng(3102)
    lists = []
    for perm in itertools.permutations(range(4)):
        u = np.eye(4)[:, perm] * np.exp(2j * np.pi * rng.uniform(size=4))
        lists += Dilation(u, QubitState(p=[0.0, 1.0, rng.uniform()][len(lists) % 3]))._kraus_lists()
    return lists


def signed_zero_lists():
    """Pauli mixtures, complex monomial lists and angle dilations with every zero part given a random sign."""
    rng = np.random.default_rng(3103)
    bases = pauli_mixtures()[:10] + phase_permutation_lists()[:20]
    for theta, phi, q in rng.uniform([0, -np.pi, 0], [np.pi / 2, np.pi, 1], size=(10, 3)):
        d = dilation_from_angles(AngleParams(theta, phi, q))
        bases += [d.system_kraus(), d.env_kraus()]
    return [with_random_zero_signs(base, rng) for base in bases for _ in range(2)]


def subnormal_lists():
    """Lists with subnormal parts, whose products underflow: the zero parts
    of angle dilations and of complex monomial lists made subnormal, and
    random Stinespring lists with one more operator of subnormal parts."""
    rng = np.random.default_rng(3104)
    subnormals = [5e-324, -5e-324, 1e-310, -2.5e-315]
    bases = phase_permutation_lists()[:20]
    for theta, phi, q in rng.uniform([0, -np.pi, 0], [np.pi / 2, np.pi, 1], size=(10, 3)):
        d = dilation_from_angles(AngleParams(theta, phi, q))
        bases += [d.system_kraus(), d.env_kraus()]
    lists = []
    for base in bases:
        ops = np.array(base, dtype=complex)
        parts = ops.view(float)
        parts[parts == 0] = rng.choice(subnormals, int((parts == 0).sum()))
        lists.append(list(ops))
    for k in range(1, 5):
        tiny = rng.choice(subnormals, (2, 2)) + 1j * rng.choice(subnormals, (2, 2))
        lists += [stinespring_kraus(rng, k) + [tiny] for _ in range(5)]
    return lists


KRAUS_LISTS = {
    "pauli_mixtures": pauli_mixtures,
    "phase_permutations": phase_permutation_lists,
    "signed_zeros": signed_zero_lists,
    "subnormal_parts": subnormal_lists,
}


@pytest.mark.parametrize("kind", sorted(KRAUS_LISTS))
def test_the_kraus_pass_is_within_its_bound_of_the_exact_transfer_matrix(kind):
    """``qubit._kraus_ptms`` against ``exact.kraus_ptm`` within
    ``exact.kraus_ptm_bound`` (random Stinespring lists are held to it in
    ``test_qubit.py``).  The worst error over the bound is printed."""
    worst = Fraction(0)
    for kraus in KRAUS_LISTS[kind]():
        ops = [np.asarray(a, dtype=complex).tolist() for a in kraus]
        (row,) = qubit._kraus_ptms([ops])
        bound = kraus_ptm_bound(ops)
        for got, exact in zip(row, kraus_ptm(ops)):
            worst = max(worst, abs(Fraction(got) - exact) / bound)
    print(f"{kind}: worst error / bound {float(worst):.3f}")
    assert worst <= 1
