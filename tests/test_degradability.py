import itertools
from collections import Counter

import numpy as np
import pytest

from grasschan import catalog, qubit
from grasschan.degradability import (
    ANTI_DEGRADABLE,
    NEITHER_CERTIFIED,
    NULL_CAPACITY_CLAIMED,
    WEAKLY_DEGRADABLE,
    Dilation,
    _solve_degrading,
    certify,
    classify_by_angles,
    dilation_from_angles,
    weakly_complementary,
)
from grasschan.green import (
    AngleParams,
    angles_from_gaussian,
    channel_from_angles,
    detect_gaussian,
    gaussian_equivalent,
    green_from_channel,
)
from grasschan.io import channel_from_json
from grasschan.qubit import (
    NonDiagonalBlockError,
    NotCptpError,
    QubitChannel,
    QubitState,
    apply_channel,
    compose,
    is_cptp,
    ptm_from_kraus,
    random_state,
)
from grasschan.tolerances import CHOI_EIG_FLOOR


def amplitude_damping(n):
    return QubitChannel.from_canonical([0, 0, 1 - n], [np.sqrt(n), np.sqrt(n), n])


def angles_of(ch):
    return angles_from_gaussian(detect_gaussian(green_from_channel(ch)))


def dilation_of(ch):
    return dilation_from_angles(angles_of(ch))


def complement_of(ch):
    return weakly_complementary(dilation_of(ch))


class TestDilation:
    def test_identity_angles_give_identity_channel(self):
        d = dilation_from_angles(AngleParams(0.0, 0.0, 1.0))
        assert d.channel().isclose(QubitChannel.identity(), atol=1e-14)
        assert np.allclose(d.unitary, np.eye(4))

    def test_amplitude_damping_kraus_pair(self):
        n = 0.6
        d = dilation_from_angles(AngleParams(0.0, float(np.arccos(np.sqrt(n))), 1.0))
        ops = d.system_kraus()
        assert len(ops) == 2
        assert np.allclose(ops[0], np.diag([1, np.sqrt(n)]))
        assert np.allclose(ops[1], np.array([[0, np.sqrt(1 - n)], [0, 0]]))

    def test_generalized_damping_parameters(self):
        n, s = 0.4, 0.7
        d = dilation_from_angles(AngleParams(0.0, float(np.arccos(np.sqrt(n))), s))
        ch = d.channel()
        assert np.allclose(ch.t, [0, 0, (1 - n) * (2 * s - 1)], atol=1e-12)
        assert np.allclose(ch.lam, [np.sqrt(n), np.sqrt(n), n], atol=1e-12)

    def test_unitarity_enforced(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ap = AngleParams(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1))
            u = dilation_from_angles(ap).unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_rejects_bad_unitary_environment_and_weight(self):
        with pytest.raises(ValueError, match="not unitary"):
            Dilation(2 * np.eye(4), QubitState(p=1.0))
        with pytest.raises(ValueError, match="diagonal"):
            Dilation(np.eye(4), QubitState(p=0.5, gamma=0.3))
        with pytest.raises(ValueError, match="outside"):
            dilation_from_angles(AngleParams(0.0, 0.0, 1.5))

    def test_soundness_200_random_angle_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ap = AngleParams(rng.uniform(0, np.pi), rng.uniform(0, np.pi), rng.uniform(0, 1))
            d = dilation_from_angles(ap)
            assert np.max(np.abs(d.channel().ptm - channel_from_angles(ap).ptm)) < 1e-10

    def test_env_purity_iff_q_extremal(self):
        for q in (0.0, 1.0):
            env = dilation_from_angles(AngleParams(0.3, 0.9, q)).env_state
            purity = np.trace(env.matrix @ env.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-12)
        env = dilation_from_angles(AngleParams(0.3, 0.9, 0.4)).env_state
        assert np.trace(env.matrix @ env.matrix).real < 1 - 1e-3

    @pytest.mark.parametrize("p, q", [(1 + 5e-10, 1.0), (-5e-10, 0.0), (1 + 9e-10, 1.0), (-9e-10, 0.0)])
    @pytest.mark.parametrize("angles", [None, (0.3, 0.9)])
    def test_env_weight_within_the_state_tolerance_is_clamped(self, p, q, angles):
        """A weight that ``QubitState`` lets through outside [0, 1] is clamped,
        so ``q``, the purity and the Kraus weights agree and the channels are
        those of the clamped weight (no sqrt of a negative weight)."""
        u = np.eye(4) if angles is None else dilation_from_angles(AngleParams(*angles, q)).unitary
        d = Dilation(u, QubitState(p=p))
        exact = Dilation(u, QubitState(p=q))
        assert d.q == q and d.env_state.p == q
        assert d.q ** 2 + (1 - d.q) ** 2 == 1.0
        assert len(d.system_kraus()) == len(d.env_kraus()) == 2
        for got, expected in ((d.channel(), exact.channel()), (weakly_complementary(d), weakly_complementary(exact))):
            assert np.isfinite(got.ptm).all()
            assert channel_bits(got) == channel_bits(expected)


def reference_kraus(d, system):
    """The per-operator loop that the stacked ``system_kraus``/``env_kraus`` must reproduce."""
    u = d.unitary.reshape(2, 2, 2, 2)  # [s_out, e_out, s_in, e_in]
    ops = []
    for j, weight in ((0, d.q), (1, 1 - d.q)):
        if weight == 0:
            continue
        for k in range(2):
            ops.append(np.sqrt(weight) * (u[:, k, :, j] if system else u[k, :, :, j]))
    return ops


@pytest.mark.parametrize("q", [0.0, 1.0, 0.5, "random"])
def test_stacked_kraus_lists_match_the_loop(q):
    rng = np.random.default_rng(57)
    for _ in range(100):
        ap = AngleParams(
            theta=rng.uniform(0, np.pi / 2),
            phi=rng.uniform(-np.pi, np.pi),
            q=rng.uniform(0, 1) if q == "random" else q,
        )
        d = dilation_from_angles(ap)
        for got, system in ((d.system_kraus(), True), (d.env_kraus(), False)):
            expected = reference_kraus(d, system)
            assert isinstance(got, list) and len(got) == len(expected)
            assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in expected]


def channel_bits(ch):
    return ch.t.tobytes(), ch.lam.tobytes()


@pytest.mark.parametrize("q", [0.0, 1.0, 0.5, "random"])
def test_one_pass_over_both_kraus_lists_matches_two_separate_passes(q):
    """The stacked system/environment pass of a dilation has the bits of two
    ``from_kraus`` calls, one per list, on angles with exact and signed zeros."""
    rng = np.random.default_rng(61)
    angles = [
        (theta, phi)
        for theta in (0.0, -0.0, np.pi / 4, np.pi / 2)
        for phi in (-np.pi, -np.pi / 2, -0.0, 0.0, np.pi / 2, np.pi)
    ]
    angles += [(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi)) for _ in range(300)]
    for theta, phi in angles:
        d = dilation_from_angles(AngleParams(theta, phi, rng.uniform(0, 1) if q == "random" else q))
        system, env = d.system_kraus(), d.env_kraus()
        assert d._ptms.tobytes() == np.array([ptm_from_kraus(system), ptm_from_kraus(env)]).tobytes()
        assert channel_bits(d.channel()) == channel_bits(QubitChannel.from_kraus(system))
        assert channel_bits(weakly_complementary(d)) == channel_bits(QubitChannel.from_kraus(env))


def test_a_non_diagonal_system_block_leaves_the_complement_readable():
    # Hadamard on the system, identity on the environment: the system channel
    # swaps the x and z axes, the environment channel is the constant |0><0|.
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    d = Dilation(np.kron(hadamard, np.eye(2)), QubitState(p=1.0))
    with pytest.raises(NonDiagonalBlockError):
        d.channel()
    comp = weakly_complementary(d)
    assert np.allclose(comp.t, [0, 0, 1]) and np.allclose(comp.lam, 0)
    with pytest.raises(NonDiagonalBlockError):
        d.channel()


EDGE_ANGLES = [0.0, np.pi / 4, np.pi / 2, np.pi, -np.pi, 1e-300, np.pi / 2 - 1e-16]
EDGE_QS = [0.0, 1.0, 1e-300, 1 - 2.0**-53, 0.5, 1 + 5e-13, -5e-13]


def read_outcome(read):
    """``(t bytes, lam bytes)`` of ``read()``, or its error type and message."""
    try:
        return channel_bits(read())
    except ValueError as exc:
        return type(exc), str(exc)


class TestClosedFormRead:
    """A dilation reads its two channels from Python floats, with the bits of
    ``from_ptm`` of the transfer matrix of each Kraus list."""

    @staticmethod
    def references(kraus):
        ops = np.array([kraus])
        return (
            read_outcome(lambda: QubitChannel.from_ptm(ptm_from_kraus(kraus))),
            read_outcome(lambda: QubitChannel.from_ptm(qubit._ptms_by_products(ops)[0])),
        )

    def test_angle_dilations_read_the_bits_of_from_ptm(self):
        rng = np.random.default_rng(2901)
        dilations = [dilation_from_angles(AngleParams(*a)) for a in itertools.product(EDGE_ANGLES, EDGE_ANGLES, EDGE_QS)]
        for _ in range(2000):
            q = EDGE_QS[rng.integers(len(EDGE_QS))] if rng.random() < 0.5 else rng.uniform()
            dilations.append(dilation_from_angles(AngleParams(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), q)))
        for d in dilations:
            assert d._rows is not None
            for side, kraus in ((0, d.system_kraus()), (1, d.env_kraus())):
                got = read_outcome(lambda: qubit._channel_from_monomial_ptm(d._rows[side]))
                assert self.references(kraus) == (got, got)
            assert channel_bits(d.channel()) == read_outcome(lambda: qubit._channel_from_monomial_ptm(d._rows[0]))
            assert channel_bits(weakly_complementary(d)) == read_outcome(lambda: qubit._channel_from_monomial_ptm(d._rows[1]))

    def test_complex_unitaries_take_the_products_pass(self, monkeypatch):
        """Phase-times-permutation unitaries have complex Kraus operators: the
        closed form defers, the products pass runs on the array stack, and
        each channel, or its error, is that of ``from_ptm``."""
        rng = np.random.default_rng(2902)
        products = []
        original = qubit._ptms_by_products
        monkeypatch.setattr(qubit, "_ptms_by_products", lambda ops: products.append(ops.shape) or original(ops))
        outcomes = Counter()
        for perm in itertools.permutations(range(4)):
            for _ in range(10):
                u = np.eye(4)[:, perm] * np.exp(2j * np.pi * rng.uniform(size=4))
                d = Dilation(unitary=u, env_state=QubitState(p=EDGE_QS[rng.integers(len(EDGE_QS))]))
                products.clear()
                got = (read_outcome(d.channel), read_outcome(lambda: weakly_complementary(d)))
                assert d._rows is None and products and all(shape[0] == 2 for shape in products)
                expected = (self.references(d.system_kraus())[1], self.references(d.env_kraus())[1])
                assert got == expected
                outcomes.update(isinstance(g[0], type) for g in got)
        assert outcomes[True] and outcomes[False], outcomes

    def test_a_fortran_ordered_unitary_is_read_as_its_c_copy(self):
        """The unitary is stored C-contiguous whatever the input's layout, so
        ``__post_init__``'s float view and the flat reads see the same matrix."""
        rng = np.random.default_rng(2903)
        u = np.eye(4)[:, [2, 0, 3, 1]] * np.exp(2j * np.pi * rng.uniform(size=4))
        angle_u = dilation_from_angles(AngleParams(0.3, -1.1, 0.4)).unitary
        wide = np.zeros((4, 8), dtype=complex)
        wide[:, ::2] = angle_u
        for source, strided in ((u, np.asfortranarray(u)), (angle_u, np.asfortranarray(angle_u)), (angle_u, wide[:, ::2])):
            assert not strided.flags.c_contiguous
            d, reference = Dilation(strided, QubitState(p=0.4)), Dilation(source, QubitState(p=0.4))
            assert d.unitary.flags.c_contiguous and not d.unitary.flags.writeable
            assert d.unitary.tobytes() == source.tobytes()
            for read in (Dilation.channel, weakly_complementary):
                assert read_outcome(lambda: read(d)) == read_outcome(lambda: read(reference))


class TestWeaklyComplementary:
    def test_identity_dilation_gives_constant_channel(self):
        comp = complement_of(QubitChannel.identity())
        assert np.allclose(comp.t, [0, 0, 1], atol=1e-12)
        assert np.allclose(comp.lam, [0, 0, 0], atol=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(20):
            out = apply_channel(comp, random_state(rng))
            assert out.isclose(apply_channel(comp, random_state(rng)), atol=1e-12)

    def test_amplitude_damping_complement_is_flipped_damping(self):
        n = 0.7
        comp = complement_of(amplitude_damping(n))
        m = 1 - n
        assert np.allclose(comp.t, [0, 0, 1 - m], atol=1e-12)
        assert np.allclose(comp.lam, [np.sqrt(m), np.sqrt(m), m], atol=1e-12)

    def test_generalized_damping_complement_parameters(self):
        n, s = 0.4, 0.7
        ch = QubitChannel.from_canonical(
            [0, 0, (1 - n) * (2 * s - 1)], [np.sqrt(n), np.sqrt(n), n]
        )
        comp = complement_of(ch)
        r = (2 * s - 1) * np.sqrt(1 - n)
        assert np.allclose(comp.lam, [r, r, 1 - n], atol=1e-12)
        assert np.allclose(comp.t, [0, 0, (2 * s - 1) * n], atol=1e-12)

    def test_complement_is_cptp(self):
        """``certify`` makes no CPTP decision on the complement, because a
        weak complement is a Stinespring output: its smallest Choi eigenvalue
        stays at least ``CHOI_EIG_FLOOR / 2`` on random and edge angles, on
        ``q`` clamped into [0, 1], and on phase-times-permutation unitaries
        whose complement has a diagonal block."""
        rng = np.random.default_rng(2801)
        qs = EDGE_QS
        dilations = [dilation_from_angles(AngleParams(*a)) for a in itertools.product(EDGE_ANGLES, EDGE_ANGLES, qs)]
        for _ in range(1000):
            q = qs[rng.integers(len(qs))] if rng.random() < 0.5 else rng.uniform()
            dilations.append(dilation_from_angles(AngleParams(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), q)))
        permuted = 0
        for perm in itertools.permutations(range(4)):
            for _ in range(20):
                u = np.eye(4)[:, perm] * np.exp(2j * np.pi * rng.uniform(size=4))
                d = Dilation(unitary=u, env_state=QubitState(p=qs[rng.integers(len(qs))]))
                try:
                    weakly_complementary(d)
                except NonDiagonalBlockError:
                    continue
                dilations.append(d)
                permuted += 1
        reports = [weakly_complementary(d).cptp_report for d in dilations]
        worst = min(r.min_choi_eigenvalue for r in reports)
        print(f"{len(reports)} complements ({permuted} permuted), smallest Choi eigenvalue {worst:.3e}")
        assert permuted > 100 and all(r.ok for r in reports)
        assert worst >= CHOI_EIG_FLOOR / 2

    def test_the_complement_has_lam1_lam2_equal_to_e_squared_lam3(self):
        """With ``e = 2q - 1`` the complement is ``t = (0, 0, e (cos 2theta +
        cos 2phi) / 2)``, ``lam = (e sin(theta + phi), e sin(phi - theta),
        sin(theta + phi) sin(phi - theta))``: linear in ``q``, so ``lam1 lam2
        = e^2 lam3``.  Both hold to a few ulps."""
        rng = np.random.default_rng(2706)
        worst = {"identity": 0.0, "closed_form": 0.0}
        for i in range(2000):
            theta, phi, q = rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), [0.0, 1.0, rng.uniform()][i % 3]
            comp = weakly_complementary(dilation_from_angles(AngleParams(theta, phi, q)))
            (lam1, lam2, lam3), e = comp.lam.tolist(), 2 * q - 1
            plus, minus = np.sin(theta + phi), np.sin(phi - theta)
            closed = [0.0, 0.0, e * (np.cos(2 * theta) + np.cos(2 * phi)) / 2, e * plus, e * minus, plus * minus]
            assert comp.t[:2].tolist() == [0.0, 0.0]
            worst["identity"] = max(worst["identity"], abs(lam1 * lam2 - e * e * lam3))
            worst["closed_form"] = max(worst["closed_form"], np.abs(np.concatenate([comp.t, comp.lam]) - closed).max())
        print(worst)
        assert worst["identity"] <= 4 * np.finfo(float).eps and worst["closed_form"] <= 8 * np.finfo(float).eps

    def test_the_complement_is_gaussian_only_for_a_pure_environment_or_lam3_zero(self):
        """Where the bosonic analogy stops: a thermal bosonic environment has a
        Gaussian weak complement, a mixed qubit environment does not, unless
        ``lam3 = sin(theta + phi) sin(phi - theta)`` is 0."""
        rng = np.random.default_rng(2707)
        gaussian = {"pure": 0, "mixed": 0, "lam3_zero": 0}
        for i in range(500):
            theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi)
            for kind, q, angles in (
                ("pure", float(i % 2), (theta, phi)),
                ("mixed", rng.uniform(), (theta, phi)),
                ("lam3_zero", rng.uniform(), (theta, theta if i % 2 else -theta)),
            ):
                comp = weakly_complementary(dilation_from_angles(AngleParams(*angles, q)))
                gaussian[kind] += gaussian_equivalent(comp) is not None
        assert gaussian == {"pure": 500, "mixed": 0, "lam3_zero": 500}


class TestCertify:
    @pytest.mark.parametrize("n", [0.55, 0.75, 0.9])
    def test_amplitude_damping_weakly_degradable(self, n):
        ch = amplitude_damping(n)
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind == WEAKLY_DEGRADABLE
        assert verdict.residual <= 1e-9
        assert verdict.min_choi_eigenvalue >= -1e-9

    @pytest.mark.parametrize("n", [0.1, 0.25, 0.45])
    def test_amplitude_damping_anti_degradable(self, n):
        ch = amplitude_damping(n)
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind == ANTI_DEGRADABLE
        assert verdict.residual <= 1e-9

    @pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_bit_flip_always_weakly_degradable(self, s):
        ch = QubitChannel.from_canonical([0, 0, 0], [1, 2 * s - 1, 2 * s - 1])
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind == WEAKLY_DEGRADABLE

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_bit_phase_flip_always_weakly_degradable(self, s):
        ch = QubitChannel.from_canonical([0, 0, 0], [2 * s - 1, 1, 2 * s - 1])
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind == WEAKLY_DEGRADABLE

    def test_witness_recomposition_is_honest(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            ap = AngleParams(rng.uniform(0, np.pi), rng.uniform(0, np.pi), float(rng.integers(0, 2)))
            ch = channel_from_angles(ap)
            d = dilation_from_angles(ap)
            comp = weakly_complementary(d)
            verdict = certify(ch, d)
            if verdict.witness is None:
                continue
            if verdict.kind == WEAKLY_DEGRADABLE:
                recomposed = compose(verdict.witness, ch)
                target = comp
            else:
                recomposed = compose(verdict.witness, comp)
                target = ch
            assert np.max(np.abs(recomposed.ptm - target.ptm)) <= 1e-9
            assert is_cptp(verdict.witness).min_choi_eigenvalue >= -1e-9

    def test_unrelated_channels_stay_uncertified(self):
        # a dilation that has nothing to do with the channel: honest unknown
        n_ch = QubitChannel.from_canonical([0, 0, 0], [1, -0.2, -0.2])
        unrelated = dilation_from_angles(AngleParams(0.1, -3.0, 0.0))
        verdict = certify(n_ch, unrelated)
        assert verdict.kind == NEITHER_CERTIFIED
        assert verdict.witness is None
        assert verdict.attempts["weak"] is not None
        assert verdict.attempts["anti"] is not None

    def test_rejects_non_cptp_channels(self):
        bad = QubitChannel.from_canonical([0, 0, 0], [1, 1, -1])
        with pytest.raises(NotCptpError, match="channel is not CPTP"):
            certify(bad, dilation_of(amplitude_damping(0.5)))

    def test_subnormal_source_gives_a_finite_weak_attempt(self):
        # A subnormal lambda would survive lstsq's relative rcond and overflow
        # the weak solve; read as zero, it leaves a finite attempt, and the
        # anti-degrading direction still certifies.
        ch = QubitChannel.from_canonical([0, 0, 0], [5e-324] * 3)
        comp = QubitChannel.from_canonical([0, 0, 0], [0.5] * 3)
        with np.errstate(all="raise"):
            weak, anti = _solve_degrading(ch, comp), _solve_degrading(comp, ch)
        assert anti["residual"] <= 1e-9 and anti["cptp"] is True
        assert weak["witness"].lam.tolist() == [0.0, 0.0, 0.0] and weak["cptp"] is True
        assert weak["residual"] == 0.5 and weak["min_choi_eigenvalue"] == 0.5

    def test_attempt_both_runs_anti_even_on_weak_success(self):
        ch = amplitude_damping(0.75)
        verdict = certify(ch, dilation_of(ch), attempt_both=True)
        assert verdict.kind == WEAKLY_DEGRADABLE
        assert verdict.attempts["anti"] is not None

    def test_verdict_json_shape(self):
        ch = amplitude_damping(0.75)
        verdict = certify(ch, dilation_of(ch))
        payload = verdict.to_json()
        assert payload["kind"] == WEAKLY_DEGRADABLE
        assert payload["witness"]["type"] == "canonical"
        assert set(payload["attempts"]) == {"weak", "anti"}
        assert payload["attempts"]["anti"] is None


def solved_map(source, target):
    """The solved degrading map as a full transfer matrix, off-diagonal entries
    included, and its residual: the map that ``_solve_degrading`` reads as a
    canonical witness."""
    t_src = source.ptm[1:, 1:]
    t_src = t_src * (np.abs(t_src) >= np.finfo(float).tiny)
    delta_t, *_ = np.linalg.lstsq(t_src.T, target.ptm[1:, 1:].T, rcond=None)
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 0] = target.ptm[1:, 0] - delta_t.T @ source.ptm[1:, 0]
    ptm[1:, 1:] = delta_t.T
    return ptm, float(np.max(np.abs(ptm @ source.ptm - target.ptm)))


def catalog_grid_pairs():
    """Every named channel on a grid, paired with its weak complement (both
    directions) when it has one, and with the next channel of the grid."""
    grid = np.linspace(0.0, 1.0, 9)
    channels, pairs = [], []
    for name in catalog.CHANNEL_NAMES:
        info = catalog.channel_info(name)
        if len(info.params) == 1:
            samples = [{info.params[0]: v} for v in grid]
        else:
            samples = [{"n": a, "s": b} for a in grid[::2] for b in grid[::2]]
        for params in samples:
            ch = catalog.build(name, params)
            channels.append(ch)
            block = catalog.analyze(name, params)["degradability"]
            if block is not None:
                comp = channel_from_json(block["complement"])
                pairs += [(ch, comp), (comp, ch)]
    return pairs + list(zip(channels, channels[1:] + channels[:1]))


def canonical_pairs(rows):
    """``(t, lam, t', lam')`` rows of shape ``(n, 4, 3)`` as channel pairs."""
    return [(QubitChannel.from_canonical(a, b), QubitChannel.from_canonical(c, d)) for a, b, c, d in rows]


def edge_value_pairs():
    """Canonical pairs whose entries are drawn from zeros of either sign,
    subnormals and a few normals."""
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.3e-308, 1e-300, 0.5, -0.75, 1.0])
    return canonical_pairs(np.random.default_rng(606).choice(values, size=(2000, 4, 3)))


def random_canonical_pairs():
    return canonical_pairs(np.random.default_rng(607).uniform(-1, 1, size=(2000, 4, 3)))


class TestWitnessIsTheSolvedMap:
    """Diagonal transfer blocks give a diagonal ``lstsq`` solution, so the
    canonical witness loses nothing of the solved map."""

    @pytest.mark.parametrize(
        "pairs", [random_canonical_pairs, catalog_grid_pairs, edge_value_pairs], ids=lambda f: f.__name__
    )
    def test_off_diagonals_are_zero_and_residuals_agree(self, pairs):
        off_diagonal = ~np.eye(3, dtype=bool)
        for source, target in pairs():
            with np.errstate(over="raise", invalid="raise"):  # subnormal results may underflow
                ptm, residual = solved_map(source, target)
                attempt = _solve_degrading(source, target)
            assert (ptm[1:, 1:][off_diagonal] == 0).all()
            witness = attempt["witness"]
            assert witness.t.tobytes() == ptm[1:, 0].tobytes()
            assert witness.lam.tobytes() == np.diagonal(ptm[1:, 1:]).tobytes()
            assert float.hex(attempt["residual"]) == float.hex(residual)


class TestClassifyByAngles:
    def test_amplitude_damping_ratio(self):
        for n in (0.3, 0.6, 0.85):
            ap = angles_of(amplitude_damping(n))
            pred = classify_by_angles(ap)
            assert pred.ratio == pytest.approx(1 / (2 * n - 1), rel=1e-9)
            expected = WEAKLY_DEGRADABLE if n >= 0.5 else ANTI_DEGRADABLE
            assert pred.kind == expected

    def test_bit_flip_ratio_one(self):
        ap = angles_of(QubitChannel.from_canonical([0, 0, 0], [1, -0.2, -0.2]))
        pred = classify_by_angles(ap)
        assert pred.ratio == pytest.approx(1.0)
        assert pred.kind == WEAKLY_DEGRADABLE

    def test_bit_phase_flip_ratio_one(self):
        ap = angles_of(QubitChannel.from_canonical([0, 0, 0], [-0.2, 1, -0.2]))
        pred = classify_by_angles(ap)
        assert pred.ratio == pytest.approx(1.0)
        assert pred.kind == WEAKLY_DEGRADABLE

    def test_mixed_environment_negative_side_claims_null_capacity(self):
        n, s = 0.25, 0.7
        ch = QubitChannel.from_canonical([0, 0, (1 - n) * (2 * s - 1)], [np.sqrt(n), np.sqrt(n), n])
        pred = classify_by_angles(angles_of(ch))
        assert pred.kind == NULL_CAPACITY_CLAIMED

    def test_boundary_pole_is_flagged(self):
        ap = angles_of(amplitude_damping(0.5))
        pred = classify_by_angles(ap)
        assert pred.boundary

    def test_agreement_with_certificates_away_from_boundary(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            ap = AngleParams(rng.uniform(0, np.pi), rng.uniform(0, np.pi), float(rng.integers(0, 2)))
            pred = classify_by_angles(ap)
            if pred.boundary or abs(pred.ratio) < 0.05:
                continue
            ch = channel_from_angles(ap)
            verdict = certify(ch, dilation_from_angles(ap))
            assert verdict.kind == pred.kind
            checked += 1


class TestGeneralizedDamping:
    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [0.5, 0.6, 0.75, 0.9])
    def test_weakly_degradable_for_large_n(self, n, s):
        ch = QubitChannel.from_canonical([0, 0, (1 - n) * (2 * s - 1)], [np.sqrt(n), np.sqrt(n), n])
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind == WEAKLY_DEGRADABLE

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("n", [0.1, 0.25, 0.45])
    def test_small_n_reports_anti_or_neither(self, n, s):
        ch = QubitChannel.from_canonical([0, 0, (1 - n) * (2 * s - 1)], [np.sqrt(n), np.sqrt(n), n])
        verdict = certify(ch, dilation_of(ch))
        assert verdict.kind in (ANTI_DEGRADABLE, NEITHER_CERTIFIED)
        if verdict.kind == NEITHER_CERTIFIED:
            assert verdict.attempts["weak"] is not None
            assert verdict.attempts["anti"] is not None
