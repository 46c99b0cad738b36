"""The float CPTP decisions against the exact rational referee (``exact.py``).

``qubit._choi_prescreen`` must never drop a row that the exact decision
accepts, and ``qubit._cptp_ok`` (the sampler's) and ``qubit._frame_cptp_ok``
(``certify``'s decision on the weak complement) must be the exact decision
on every row whose smallest Choi eigenvalue lies outside the
``SCREEN_MARGIN`` band around ``CHOI_EIG_FLOOR``; inside the band they defer
to ``cptp_report``, whose ``eigvalsh`` the referee does not bind.
"""

import itertools

import numpy as np
import pytest
from exact import choi_invariants, exact_ok, in_screen_band, invariants, FLOOR, MARGIN
from test_qubit import BELL_SIGNS, generic_scan, rank_deficient_rows, shifted_floor_scan, ulp_neighbourhood

from grasschan.degradability import dilation_from_angles, weakly_complementary
from grasschan.green import AngleParams
from grasschan.qubit import QubitChannel, _choi_prescreen, _cptp_ok, _frame_cptp_ok
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


def rank_deficient_frame_rows():
    """The Gaussian-frame rows (``t1 = t2 = 0``) of ``rank_deficient_rows``,
    and the pure-environment complements on a grid of edge angles."""
    t, lam = rank_deficient_rows()
    frame = (t[:, 0] == 0) & (t[:, 1] == 0)
    rows = [(t[frame], lam[frame])]
    for theta in (0.0, np.pi / 8, np.pi / 4, np.pi / 2):
        for phi in np.linspace(-np.pi, np.pi, 9):
            for q in (0.0, 1.0):
                comp = weakly_complementary(dilation_from_angles(AngleParams(theta, phi, q)))
                rows.append((comp.t[None], comp.lam[None]))
    return np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])


def frame_near_floor_rows():
    """Gaussian-frame rows whose smallest Choi eigenvalue is placed at 17
    points across the band and at its edges: ``t3`` is set where a block of
    Bell states ``(0, 3)`` or ``(1, 2)`` has its smallest eigenvalue there,
    ``(d_a - e)(d_b - e) = t3^2 / 4``, and scanned 6 ulps either way; plus
    the depolarizing rows (``t = 0``) of ``near_floor_rows``."""
    rng = np.random.default_rng(2705)
    targets = [CHOI_EIG_FLOOR + j * SCREEN_MARGIN / 8 for j in range(-8, 9)]
    rows = []
    for i, e in enumerate(targets * 4):
        lam = rng.uniform(-0.3, 0.3, 3)
        d = (1 + BELL_SIGNS @ lam) / 2 - e
        edge = min(2 * np.sqrt(d[0] * d[3]), 2 * np.sqrt(d[1] * d[2]))
        rows += [((0.0, 0.0, x if i % 2 else -x), lam) for x in ulp_neighbourhood(edge, 6)]
    t, lam = near_floor_rows()
    frame = (t[:, 0] == 0) & (t[:, 1] == 0)
    return (
        np.concatenate([np.array([r[0] for r in rows]), t[frame]]),
        np.concatenate([np.array([r[1] for r in rows]), lam[frame]]),
    )


FRAME_ROWS = {
    "pure_complements": lambda: complement_rows(True),
    "mixed_complements": lambda: complement_rows(False),
    "rank_deficient": rank_deficient_frame_rows,
    "near_floor": frame_near_floor_rows,
}


@pytest.mark.parametrize("kind", sorted(FRAME_ROWS))
def test_the_complement_decision_is_exact_outside_the_screen_band(kind):
    """A complement's decision never calls ``cptp_report`` on the dilations,
    and decides each near-floor row outside the band as the referee does."""
    t, lam = FRAME_ROWS[kind]()
    outcomes = {"agree": 0, "band": 0, "band_disagree": 0, "fallback": 0, "wrong": []}
    accepted = set()
    for k, (t_row, lam_row) in enumerate(zip(t.tolist(), lam.tolist())):
        ch = QubitChannel.from_canonical(t_row, lam_row)
        ok, exact = _frame_cptp_ok(ch), exact_ok(t_row, lam_row)
        outcomes["fallback"] += "cptp_report" in ch.__dict__
        accepted.add(exact)
        if in_screen_band(t_row, lam_row):
            outcomes["band"] += 1
            outcomes["band_disagree"] += ok != exact
        elif ok == exact:
            outcomes["agree"] += 1
        else:
            outcomes["wrong"].append(k)
    print(
        f"{kind}: {len(t)} rows, {outcomes['band']} inside the SCREEN_MARGIN band"
        f" ({outcomes['band_disagree']} of them decided against the exact side by cptp_report),"
        f" {outcomes['fallback']} decided by cptp_report"
    )
    assert outcomes["wrong"] == []
    if kind.endswith("complements"):
        assert accepted == {True} and outcomes["fallback"] == 0
    if kind == "near_floor":
        assert accepted == {True, False}
        assert outcomes["band"] > 100 and outcomes["agree"] > 100 and outcomes["fallback"] >= outcomes["band"]
