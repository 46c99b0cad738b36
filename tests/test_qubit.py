import itertools
import re
from collections import Counter

import numpy as np
import pytest
from scripted_stream import ScriptedStream

from grasschan import catalog, degradability, io, qubit
from grasschan.degradability import dilation_from_angles
from grasschan.green import AngleParams
from grasschan.qubit import (
    CHOI_EIG_FLOOR,
    DIAG_ATOL,
    KRAUS_TP_ATOL,
    PAULI,
    SCREEN_MARGIN,
    NonDiagonalBlockError,
    NotCptpError,
    NotTracePreservingError,
    QubitChannel,
    QubitState,
    apply_channel,
    canonical_from_ptm,
    choi_from_ptm,
    compose,
    is_cptp,
    ptm_from_kraus,
    random_cptp_canonical_channel,
    random_state,
    _CHOI_SAFE,
    _DECISION_SHIFTS,
    _ROWS_PER_TRIAL,
    _bell_sums,
    _choi_invariants,
    _choi_prescreen,
    _cptp_ok,
    _ptm_from_canonical,
    _random_channels_and_states,
)


def ad_kraus(n):
    return [
        np.array([[1, 0], [0, np.sqrt(n)]], dtype=complex),
        np.array([[0, np.sqrt(1 - n)], [0, 0]], dtype=complex),
    ]


def gad_kraus(n, s):
    return [
        np.sqrt(s) * np.array([[1, 0], [0, np.sqrt(n)]]),
        np.sqrt(s) * np.array([[0, np.sqrt(1 - n)], [0, 0]]),
        np.sqrt(1 - s) * np.array([[np.sqrt(n), 0], [0, 1]]),
        np.sqrt(1 - s) * np.array([[0, 0], [np.sqrt(1 - n), 0]]),
    ]


class TestQubitState:
    def test_matrix_and_bloch(self):
        rho = QubitState(p=0.7, gamma=0.1 - 0.2j)
        m = rho.matrix
        assert m[0, 0] == 0.7 and m[1, 1] == pytest.approx(0.3)
        assert m[0, 1] == 0.1 - 0.2j and m[1, 0] == 0.1 + 0.2j
        assert np.allclose(QubitState.from_bloch(rho.bloch).matrix, m)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            QubitState(p=1.4)
        with pytest.raises(ValueError):
            QubitState(p=0.5, gamma=0.6)

    @pytest.mark.parametrize("gamma", [1e200, complex(1.5e308, 1.5e308)])
    def test_an_overflowing_coherence_is_rejected_by_name(self, gamma):
        """Python's complex ``abs`` and float ``**`` raise ``OverflowError`` here;
        the check reads the modulus as inf instead."""
        with pytest.raises(ValueError, match=r"\|gamma\|\^2=inf exceeds p\(1-p\)=2\.500e-01"):
            QubitState(p=0.5, gamma=gamma)


class TestPtmAndCanonical:
    def test_identity_kraus(self):
        assert np.allclose(ptm_from_kraus([np.eye(2)]), np.eye(4))

    def test_bit_phase_flip_kraus(self):
        s = 0.35
        ptm = ptm_from_kraus(
            [np.sqrt(s) * np.eye(2), np.sqrt(1 - s) * np.array([[0, -1j], [1j, 0]])]
        )
        t, lam = canonical_from_ptm(ptm)
        assert np.allclose(t, 0)
        assert np.allclose(lam, [2 * s - 1, 1, 2 * s - 1])

    def test_generalized_amplitude_damping_kraus(self):
        n, s = 0.4, 0.7
        t, lam = canonical_from_ptm(ptm_from_kraus(gad_kraus(n, s)))
        assert np.allclose(t, [0, 0, (1 - n) * (2 * s - 1)], atol=1e-12)
        assert np.allclose(lam, [np.sqrt(n), np.sqrt(n), n], atol=1e-12)

    def test_amplitude_damping_canonical(self):
        n = 0.3
        t, lam = canonical_from_ptm(ptm_from_kraus(ad_kraus(n)))
        assert np.allclose(t, [0, 0, 1 - n])
        assert np.allclose(lam, [np.sqrt(n), np.sqrt(n), n])

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            ptm_from_kraus([0.9 * np.eye(2)])

    def test_rejects_non_diagonal_block(self):
        ptm = np.eye(4)
        ptm[1, 2] = 0.3
        with pytest.raises(NonDiagonalBlockError):
            canonical_from_ptm(ptm)

    def test_canonical_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ch = random_cptp_canonical_channel(rng)
            t, lam = canonical_from_ptm(ch.ptm)
            assert np.allclose(t, ch.t, atol=1e-12)
            assert np.allclose(lam, ch.lam, atol=1e-12)


def reference_ptm_from_kraus(kraus):
    """The per-entry double loop that the stacked ``ptm_from_kraus`` must reproduce bit for bit."""
    ops = [np.asarray(a, dtype=complex) for a in kraus]
    deviation = np.max(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(2)))
    if not deviation <= KRAUS_TP_ATOL:
        raise NotTracePreservingError(f"sum A^dag A deviates from identity by {deviation:.3e}")
    ptm = np.empty((4, 4))
    for j in range(4):
        mapped = sum(a @ PAULI[j] @ a.conj().T for a in ops)
        for i in range(4):
            ptm[i, j] = np.real(np.trace(PAULI[i] @ mapped)) / 2
    return ptm


def reference_canonical_from_ptm(ptm):
    """``canonical_from_ptm`` as written with per-call temporaries, the reference for the lean one."""
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.max(np.abs(ptm[0] - np.array([1.0, 0, 0, 0]))) <= DIAG_ATOL:
        raise NonDiagonalBlockError("first row is not (1, 0, 0, 0)")
    block = ptm[1:, 1:]
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        off = block - np.diag(np.diag(block))
    worst = np.max(np.abs(off))
    if not worst <= DIAG_ATOL:
        raise NonDiagonalBlockError(
            f"transfer block has off-diagonal entry {worst:.3e}; canonicalize externally"
        )
    return ptm[1:, 0].copy(), np.diag(block).copy()


def outcome(f, *args):
    """Result bits, or the exception type and message."""
    try:
        out = f(*args)
    except (ValueError, NotTracePreservingError) as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return tuple((a.shape, a.dtype, a.tobytes()) for a in out)
    return out.shape, out.dtype, out.tobytes()


def dilation_kraus_lists(rng, q_values, count):
    lists = []
    for i in range(count):
        ap = AngleParams(
            theta=rng.uniform(0, np.pi / 2), phi=rng.uniform(-np.pi, np.pi), q=q_values[i % len(q_values)]
        )
        d = dilation_from_angles(ap)
        lists += [d.system_kraus(), d.env_kraus()]
    return lists


def stinespring_kraus(rng, k):
    """``k`` Kraus operators: the 2x2 blocks of a random ``2k x 2`` isometry."""
    z = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    isometry, _ = np.linalg.qr(z)
    return [isometry[2 * m:2 * m + 2] for m in range(k)]


def with_random_zero_signs(kraus, rng):
    """The list with every zero real or imaginary part given a random sign."""
    out = []
    for a in kraus:
        a = np.array(a, dtype=complex)
        for part in (a.real, a.imag):
            zero = part == 0
            part[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        out.append(a)
    return out


class TestStackedPtmFromKraus:
    """The stacked ``ptm_from_kraus`` has the bits of the per-entry loop."""

    @pytest.mark.parametrize("q_values", [[0.0], [1.0], [0.5, 0.13, 0.87]], ids=["q0", "q1", "mixed"])
    def test_dilation_lists(self, q_values):
        rng = np.random.default_rng(808)
        for kraus in dilation_kraus_lists(rng, q_values, 300):
            assert outcome(ptm_from_kraus, kraus) == outcome(reference_ptm_from_kraus, kraus)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_stinespring_lists(self, k):
        rng = np.random.default_rng(809 + k)
        for _ in range(300):
            kraus = stinespring_kraus(rng, k)
            assert outcome(ptm_from_kraus, kraus) == outcome(reference_ptm_from_kraus, kraus)

    def test_exact_zeros_and_negative_zeros(self):
        # Pauli mixtures, damping lists and axis-angle dilations hold exact
        # zeros; each is tried with the zeros' signs drawn at random.
        rng = np.random.default_rng(810)
        bases = [[np.sqrt(w) * p for w, p in zip(ws, PAULI)] for ws in rng.dirichlet(np.ones(4), 10)]
        bases += [gad_kraus(n, s) for n, s in rng.uniform(size=(10, 2))] + [ad_kraus(0.3), [np.eye(2)]]
        for theta in np.linspace(0, np.pi / 2, 5):
            for phi in np.linspace(-np.pi, np.pi, 9):
                for q in (0.0, 0.4):
                    d = dilation_from_angles(AngleParams(theta=theta, phi=phi, q=q))
                    bases += [d.system_kraus(), d.env_kraus()]
        negative_zeros = 0
        for base in bases:
            for _ in range(10):
                kraus = with_random_zero_signs(base, rng)
                negative_zeros += any(np.signbit(a.view(float)[a.view(float) == 0]).any() for a in kraus)
                assert outcome(ptm_from_kraus, kraus) == outcome(reference_ptm_from_kraus, kraus)
        assert negative_zeros > 500

    @pytest.mark.parametrize(
        "kraus",
        [[0.9 * np.eye(2)], [], [np.zeros((2, 2))], [np.eye(2), 1e-3 * np.eye(2)], [np.full((2, 2), np.nan)]],
        ids=["scaled", "empty", "zero", "excess", "nan"],
    )
    def test_not_trace_preserving_keeps_its_message(self, kraus):
        with np.errstate(invalid="ignore"):
            got = outcome(ptm_from_kraus, kraus)
            assert got == outcome(reference_ptm_from_kraus, kraus)
        assert got[0] is NotTracePreservingError
        assert got[1].startswith("sum A^dag A deviates from identity by ")

    @pytest.mark.parametrize(
        "kraus",
        [[np.array([1, 0, 0, 1])], [np.eye(2).reshape(1, 4)], [np.eye(2)[None]], [np.eye(3)], [np.eye(2), 1]],
        ids=["flat", "row", "stacked", "3x3", "scalar"],
    )
    def test_rejects_operators_that_are_not_2x2(self, kraus):
        for build in (ptm_from_kraus, QubitChannel.from_kraus):
            with pytest.raises(ValueError, match="2x2|inhomogeneous"):
                build(kraus)


#: Parts put in place of a random one: signed zeros, subnormals, +-1, the
#: part bound ``1 + KRAUS_TP_ATOL`` and the double just above it.
SPECIAL_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0,
    1 + KRAUS_TP_ATOL, -(1 + KRAUS_TP_ATOL), np.nextafter(1 + KRAUS_TP_ATOL, 2),
]


def random_monomial_stack(rng, lists, k):
    """A ``(lists, k, 2, 2)`` stack of real diagonal or antidiagonal operators.

    Each list is trace preserving before its special parts go in: the squared
    parts of each column of ``sum A^dag A`` are a random split of 1.  A part
    is replaced by one of ``SPECIAL_PARTS`` with probability 0.15, and every
    zero real part and every imaginary part (all zero) gets a random sign.
    """
    real = np.zeros((lists, k, 2, 2))
    for row in real:
        columns = np.sqrt(rng.dirichlet(np.ones(k), 2)) * rng.choice([-1.0, 1.0], (2, k))
        special = rng.random((2, k)) < 0.15
        columns[special] = rng.choice(SPECIAL_PARTS, special.sum())
        for a, (x, y) in zip(row, columns.T):
            if rng.random() < 0.5:
                a[0, 0], a[1, 1] = x, y   # diag(x, y): A^dag A = diag(x^2, y^2)
            else:
                a[1, 0], a[0, 1] = x, y   # [[0, y], [x, 0]]: A^dag A = diag(x^2, y^2)
    zero = real == 0
    real[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    ops = np.empty(real.shape, dtype=complex)
    ops.real, ops.imag = real, np.where(rng.random(real.shape) < 0.5, -0.0, 0.0)
    return ops


class TestMonomialClosedForm:
    """``_ptms_from_kraus`` of real monomial stacks, in closed form, against the products pass."""

    def test_random_monomial_stacks_have_the_bits_of_the_products_pass(self, monkeypatch):
        """Only a stack that is not trace preserving leaves the closed form,
        and the products pass then raises."""
        rng = np.random.default_rng(2701)
        products = qubit._ptms_by_products
        entered = []
        monkeypatch.setattr(qubit, "_ptms_by_products", lambda ops: entered.append(1) or products(ops))
        kinds = {"ok": 0, "raised": 0}
        negative_zero_imag = 0
        for lists, k in itertools.product([1, 2], [1, 2, 3, 4]):
            for _ in range(250):
                ops = random_monomial_stack(rng, lists, k)
                entered.clear()
                got = outcome(qubit._ptms_from_kraus, ops)
                raised = isinstance(got[0], type)
                assert bool(entered) == raised
                assert got == outcome(products, ops)
                kinds["raised" if raised else "ok"] += 1
                negative_zero_imag += bool(np.signbit(ops.imag).any())
        assert kinds["ok"] > 600 and kinds["raised"] > 300, kinds
        assert negative_zero_imag > 1500

    @pytest.mark.parametrize(
        "ops",
        [
            [[1 + 2 * KRAUS_TP_ATOL, 0], [0, 1]],
            [[0, 1], [-1 - 2 * KRAUS_TP_ATOL, 0]],
            [[0.9, 0], [0, 0.9]],
            [[0, 1], [0.9, 0]],
            [[np.nan, 0], [0, 1]],
            [[0, np.nan], [0, 0]],
            [[1, 0], [0, complex(1, np.nan)]],
            [[np.inf, 0], [0, 1]],
            [[0, 1e300], [1, 0]],
        ],
        ids=["large-diagonal", "large-antidiagonal", "short-diagonal", "short-antidiagonal",
             "nan", "nan-structural-zero", "nan-imaginary", "inf", "overflowing-square"],
    )
    def test_errors_are_those_of_the_products_pass(self, ops):
        """The closed form raises nothing: it defers every failing stack."""
        stack = np.array([[ops, np.zeros((2, 2))]], dtype=complex)
        assert qubit._monomial_ptms(stack.tolist()) is None
        with np.errstate(invalid="ignore"):
            got = outcome(qubit._ptms_from_kraus, stack)
            assert got == outcome(qubit._ptms_by_products, stack)
        assert got[0] is NotTracePreservingError
        assert re.match(r"sum A\^dag A deviates from identity by |Kraus operator 0 entry \[", got[1])

    def test_angle_dilations_and_kraus_specs_take_the_closed_form(self, monkeypatch, report_digest):
        """On the benchmark's ``analyze`` mix no dilation and no ``kraus``
        spec makes a matrix product; a Y-type or Hadamard list does."""
        calls = {"pass": 0, "products": 0}
        original_pass, original_products = qubit._ptms_from_kraus, qubit._ptms_by_products

        def counted(name, f):
            def call(ops):
                calls[name] += 1
                return f(ops)

            return call

        monkeypatch.setattr(qubit, "_ptms_from_kraus", counted("pass", original_pass))
        monkeypatch.setattr(degradability, "_ptms_from_kraus", counted("pass", original_pass))
        monkeypatch.setattr(qubit, "_ptms_by_products", counted("products", original_products))
        kinds = Counter()
        for chunk in range(2):
            for _, spec in report_digest.workloads.Analyze().chunk(3, chunk)[1]:
                kinds[spec["type"]] += 1
                catalog.analyze_channel(io.channel_from_json(spec))
        assert kinds["kraus"] > 10 and calls["pass"] > 150 and calls["products"] == 0, (kinds, calls)
        s = 0.35
        ptm_from_kraus([np.sqrt(s) * np.eye(2), np.sqrt(1 - s) * PAULI[2]])
        ptm_from_kraus([(PAULI[1] + PAULI[3]) / np.sqrt(2)])
        assert calls["products"] == 2


def canonical_from_ptm_cases():
    """Kinds of transfer matrix, each as a list of 20 instances."""
    rng = np.random.default_rng(811)
    cases = {}

    def add(kind, m):
        cases.setdefault(kind, []).append(m)

    for i in range(20):
        ptm = _ptm_from_canonical(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        add("canonical", ptm)
        add("signed-zeros", np.where(ptm == 0, -0.0, ptm))
        row, col = 1 + i % 3, 1 + (i + 1 + i // 3) % 3
        where = {"off": (row, col), "diag": (row, row), "t": (row, 0), "first": (0, i % 4)}
        for name, value in [("tiny", 1e-13), ("edge", DIAG_ATOL), ("above", 2 * DIAG_ATOL), ("big", 0.3)]:
            for part in ("off", "first"):
                m = ptm.copy()
                m[where[part]] += value
                add(f"{name}-{part}", m)
        for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
            for part in where:
                m = ptm.copy()
                m[where[part]] = value
                add(f"{name}-{part}", m)
    cases["shapes"] = [np.eye(3), np.eye(4).ravel(), np.eye(4).tolist(), np.eye(4, dtype=int)]
    return cases


class TestLeanCanonicalFromPtm:
    @pytest.mark.parametrize("kind, matrices", canonical_from_ptm_cases().items())
    def test_same_result_or_same_error(self, kind, matrices):
        for ptm in matrices:
            with np.errstate(invalid="ignore"):
                got = outcome(canonical_from_ptm, ptm)
            assert got == outcome(reference_canonical_from_ptm, ptm)
            m = np.asarray(ptm, dtype=float)
            if m.shape == (4, 4):
                # a non-finite entry outside t, an infinite diagonal one included, is an error
                non_finite = ~np.isfinite(m)
                non_finite[1:, 0] = False
                assert got[0] is NonDiagonalBlockError or not non_finite.any()

    def test_results_are_fresh_arrays(self):
        ptm = np.eye(4)
        t, lam = canonical_from_ptm(ptm)
        t[0] = lam[0] = 7.0
        assert ptm[1, 0] == 0.0 and ptm[1, 1] == 1.0


class TestCptp:
    def test_identity(self):
        assert is_cptp(QubitChannel.identity()).ok
        assert is_cptp(QubitChannel.identity())

    def test_amplitude_damping_any_n(self):
        for n in np.linspace(0, 1, 11):
            ch = QubitChannel.from_kraus(ad_kraus(n))
            assert is_cptp(ch).ok

    def test_universal_not_like_map_fails(self):
        report = is_cptp(QubitChannel.from_canonical([0, 0, 0], [1, 1, -1]))
        assert not report.ok and not report
        assert report.min_choi_eigenvalue < -1e-9

    @pytest.mark.parametrize(
        "t, lam, name",
        [
            ([0, 0, 1.7e308], [1, 1, 1.7e308], "t[2]=1.700e+308"),
            ([0, 0, 0], [1.7e308, 1.7e308, 1.7e308], "lam[0]=1.700e+308"),
            ([1e308, 1e308, 1e308], [1e308, -1e308, 1e308], "t[0]=1.000e+308"),
        ],
    )
    def test_an_overflowing_choi_matrix_names_the_largest_entry(self, t, lam, name):
        self.check_names(t, lam, f"{name} is too large: the Choi matrix overflows")

    def test_a_finite_choi_matrix_with_overflowing_eigenvalues_names_the_largest_entry(self):
        t, lam = [0.0, 1.7e308, 8.9884656743115795e307], [0.0, np.finfo(float).max, 0.0]
        assert np.isfinite(choi_from_ptm(QubitChannel.from_canonical(t, lam).ptm)).all()
        self.check_names(t, lam, "lam[1]=1.798e+308 is too large: the Choi matrix's eigenvalues or partial trace overflow")

    @staticmethod
    def check_names(t, lam, start):
        ch = QubitChannel.from_canonical(t, lam)
        message = re.escape(f"{start}, so the channel is not CPTP")
        for check in (lambda: ch.cptp_report, lambda: is_cptp(ch), lambda: apply_channel(ch, QubitState(p=1.0))):
            with pytest.raises(NotCptpError, match=message):
                check()

    def test_a_finite_choi_matrix_of_huge_entries_keeps_the_plain_check(self):
        ch = QubitChannel.from_canonical([0, 0, 5e307], [1, 1, 5e307])
        assert max(np.abs(ch.lam)) > _CHOI_SAFE
        report = is_cptp(ch)
        choi = choi_from_ptm(ch.ptm)
        assert np.isfinite(choi).all() and not report.ok
        assert report.min_choi_eigenvalue == np.linalg.eigvalsh(choi)[0]
        assert report.tp_deviation == np.abs(choi[:2, :2] + choi[2:, 2:] - np.eye(2)).max()

    def test_choi_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ch = random_cptp_canonical_channel(rng)
            choi = ch.choi
            assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)
            assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(choi)[0] >= -1e-9


class TestFromKraus:
    @pytest.mark.parametrize(
        "kraus, where",
        [
            ([[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]], "Kraus operator 0 entry [0, 0] has a part of modulus 1.000e+200"),
            ([np.zeros((2, 2)), [[0, 1j * (1 + 2 * KRAUS_TP_ATOL)], [0, 0]]], "Kraus operator 1 entry [0, 1] has a part"),
        ],
        ids=["overflowing", "just-above"],
    )
    def test_an_entry_part_above_the_bound_is_named_before_the_product(self, kraus, where):
        with pytest.raises(NotTracePreservingError, match=re.escape(where)):
            QubitChannel.from_kraus(kraus)

    def test_derives_transfer_matrix_once(self, monkeypatch):
        import grasschan.qubit as qubit

        calls = []
        original = qubit.ptm_from_kraus
        monkeypatch.setattr(qubit, "ptm_from_kraus", lambda ops: calls.append(1) or original(ops))
        QubitChannel.from_kraus(gad_kraus(0.4, 0.7))
        assert len(calls) == 1


class TestApplyAndCompose:
    def test_identity_channel_fixes_states(self):
        rng = np.random.default_rng(2)
        ident = QubitChannel.identity()
        for _ in range(50):
            rho = random_state(rng)
            out = apply_channel(ident, rho)
            assert out.isclose(rho, atol=1e-14)

    def test_depolarizing_action(self):
        s = 0.4
        ch = QubitChannel.from_canonical([0, 0, 0], [1 - s] * 3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_state(rng)
            out = apply_channel(ch, rho)
            expected = s / 2 * np.eye(2) + (1 - s) * rho.matrix
            assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_amplitude_damping_on_excited_state(self):
        n = 0.3
        ch = QubitChannel.from_kraus(ad_kraus(n))
        out = apply_channel(ch, QubitState(p=0.0))
        assert out.p == pytest.approx(1 - n, abs=1e-12)
        assert out.gamma == 0

    def test_kraus_and_bloch_paths_agree(self):
        # 1000 (channel, state) pairs across the two-parameter damping family:
        # the Bloch map of the channel read from a Kraus list is the Kraus sum
        rng = np.random.default_rng(19)
        for _ in range(250):
            n, s = rng.uniform(0, 1), rng.uniform(0, 1)
            ops = gad_kraus(n, s)
            ch = QubitChannel.from_kraus(ops)
            for _ in range(4):
                rho = random_state(rng)
                out = apply_channel(ch, rho).matrix
                kraus_sum = sum(a @ rho.matrix @ a.conj().T for a in ops)
                assert np.max(np.abs(out - kraus_sum)) < 1e-12

    def test_apply_rejects_non_cptp(self):
        with pytest.raises(NotCptpError):
            apply_channel(QubitChannel.from_canonical([0, 0, 0], [1, 1, -1]), QubitState(p=1.0))

    def test_compose_rejects_non_cptp(self):
        bad = QubitChannel.from_canonical([0, 0, 0], [1, 1, -1])
        for pair in ((bad, QubitChannel.identity()), (QubitChannel.identity(), bad)):
            with pytest.raises(NotCptpError, match="compose requires CPTP"):
                compose(*pair)

    def test_repr(self):
        ch = QubitChannel.from_canonical([0, 0, 0.5], [0.5, 0.5, 0.25])
        assert repr(ch) == "QubitChannel(t=(0, 0, 0.5), lam=(0.5, 0.5, 0.25))"

    def test_compose_identity_neutral(self):
        rng = np.random.default_rng(23)
        ch = random_cptp_canonical_channel(rng)
        assert compose(QubitChannel.identity(), ch).isclose(ch, atol=1e-14)

    def test_compose_bit_flips(self):
        s1, s2 = 0.3, 0.85
        bf = lambda s: QubitChannel.from_canonical([0, 0, 0], [1, 2 * s - 1, 2 * s - 1])
        c = compose(bf(s1), bf(s2))
        assert c.lam[1] == pytest.approx((2 * s1 - 1) * (2 * s2 - 1), abs=1e-14)

    def test_compose_amplitude_dampings(self):
        n1, n2 = 0.6, 0.7
        ad = lambda n: QubitChannel.from_kraus(ad_kraus(n))
        c = compose(ad(n1), ad(n2))
        assert c.lam[0] == pytest.approx(np.sqrt(n1 * n2), abs=1e-12)

    def test_compose_associative_on_ptm(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a, b, c = (random_cptp_canonical_channel(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.max(np.abs(left.ptm - right.ptm)) < 1e-12


def test_choi_from_ptm_matches_basis_definition():
    rng = np.random.default_rng(31)
    for _ in range(50):
        ch = random_cptp_canonical_channel(rng)
        # independent construction: apply the Bloch map to each basis operator
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
                coeffs = np.array([np.trace(p @ unit) / 2 for p in paulis])
                out_coeffs = ch.ptm @ coeffs
                choi += np.kron(sum(c * p for c, p in zip(out_coeffs, paulis)), unit)
        assert np.max(np.abs(choi - choi_from_ptm(ch.ptm))) < 1e-12


def reference_sampler(rng, t_scale=0.8, max_tries=10_000):
    """The one-at-a-time rejection loop the batched sampler must reproduce."""
    for _ in range(max_tries):
        lam = rng.uniform(-1, 1, size=3)
        t = rng.uniform(-1, 1, size=3) * t_scale
        ch = QubitChannel.from_canonical(t, lam)
        if ch.cptp_report.ok:
            return ch
    raise RuntimeError("failed to sample a CPTP channel")


def sample_and_next_draw(sampler, rng, **kwargs):
    try:
        ch = sampler(rng, **kwargs)
        out = (ch.t.tobytes(), ch.lam.tobytes(), ch.cptp_report)
    except RuntimeError:
        out = "RuntimeError"
    return out, rng.uniform()


#: Candidates in the lone loop's first block when ``max_tries`` does not cut
#: it: ``_ROWS_PER_TRIAL * 5`` rows, one candidate per row pair.
FIRST_BLOCK = _ROWS_PER_TRIAL * 5 // 2


class TestSamplerStreamExact:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    # 1 and 31-33 cut the first block to the 2 * max_tries rows a loop can
    # consume (at 31-33 the loop runs out inside it about one time in five);
    # FIRST_BLOCK - 1 to FIRST_BLOCK + 1 straddle the uncut block.
    @pytest.mark.parametrize(
        "max_tries", [0, 1, 31, 32, 33, FIRST_BLOCK - 1, FIRST_BLOCK, FIRST_BLOCK + 1, 10_000]
    )
    def test_matches_one_at_a_time_loop(self, bit_generator, max_tries):
        outcomes = set()
        for seed in range(40):
            ours, ref = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for _ in range(3):
                got = sample_and_next_draw(random_cptp_canonical_channel, ours, max_tries=max_tries)
                expected = sample_and_next_draw(reference_sampler, ref, max_tries=max_tries)
                assert got == expected
                outcomes.add(got[0] == "RuntimeError")
        if max_tries in (0, 1):
            assert outcomes == ({True} if max_tries == 0 else {True, False})
        if max_tries == 10_000:
            assert outcomes == {False}

    def test_t_scale_and_block_boundaries(self):
        # t_scale=1 lowers the acceptance rate, so acceptances land in later blocks.
        for seed in range(40):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert sample_and_next_draw(
                    random_cptp_canonical_channel, ours, t_scale=1.0
                ) == sample_and_next_draw(reference_sampler, ref, t_scale=1.0)

    def test_exact_check_decides_inside_the_screen_margin(self):
        # Depolarizing lam = (l, l, l) has smallest Choi eigenvalue (1 + 3l)/2.
        def raw_at(eig):
            return ((2 * eig - 1) / 3 + 1) / 2

        below, above = raw_at(CHOI_EIG_FLOOR - SCREEN_MARGIN / 2), raw_at(CHOI_EIG_FLOOR + SCREEN_MARGIN / 2)
        lam_below, lam_above = -1 + 2 * below, -1 + 2 * above
        eig_below = np.linalg.eigvalsh(QubitChannel.from_canonical([0, 0, 0], [lam_below] * 3).choi)[0]
        assert CHOI_EIG_FLOOR - SCREEN_MARGIN < eig_below < CHOI_EIG_FLOOR
        # the screen keeps the first candidate; the exact check rejects it
        script = [below] * 3 + [0.5] * 3 + [above] * 3 + [0.5] * 3 + [0.75] * 6
        ours, ref = ScriptedStream(script), ScriptedStream(script)
        ch = random_cptp_canonical_channel(ours, max_tries=3)
        assert ch.lam.tolist() == [lam_above] * 3
        assert ch.cptp_report == reference_sampler(ref, max_tries=3).cptp_report
        assert ours.position == ref.position == 12


def accepted_rows_the_prescreen_drops(t, lam, exact_rows=None):
    """Rows of ``(t, lam)`` that ``cptp_report.ok`` accepts and the pre-screen drops.

    ``exact_rows`` limits the single-channel check to the rows it marks.
    """
    dropped = ~_choi_prescreen(t, lam)
    if exact_rows is not None:
        dropped &= exact_rows
    return [k for k in np.flatnonzero(dropped) if QubitChannel.from_canonical(t[k], lam[k]).cptp_report.ok]


BELL_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


def ulp_neighbourhood(x, steps):
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.array(out)


def ulp_neighbourhood_rows(v):
    """``v`` and the rows that move one entry by one ulp either way."""
    rows = [v]
    for i in range(len(v)):
        for direction in (np.inf, -np.inf):
            w = v.copy()
            w[i] = np.nextafter(w[i], direction)
            rows.append(w)
    return rows


def depolarizing_scan(targets):
    """``lam = l * s_a`` puts the smallest Choi eigenvalue ``(1 + 3l)/2`` on Bell
    state ``a``; for each ``(eig, steps)`` of ``targets``, ``l`` is scanned
    ``steps`` ulps either way of where that eigenvalue is ``eig``."""
    ls = np.concatenate([ulp_neighbourhood((2 * eig - 1) / 3, steps) for eig, steps in targets])
    lam = (BELL_SIGNS[:, None, :] * ls[None, :, None]).reshape(-1, 3)
    return np.zeros_like(lam), lam


def depolarizing_floor_scan():
    """The depolarizing scan across the floor and at the floor +- ``SCREEN_MARGIN / 2``."""
    return depolarizing_scan(
        [(CHOI_EIG_FLOOR, 400), (CHOI_EIG_FLOOR + SCREEN_MARGIN / 2, 8), (CHOI_EIG_FLOOR - SCREEN_MARGIN / 2, 8)]
    )


def generic_scan(target, count=20):
    """Channels with every ``t_k`` nonzero, so that no 2x2 block of the Choi
    operator decouples: ``t`` is scaled by ``c``, set by bisection where the
    smallest Choi eigenvalue meets ``target`` (it is concave in ``c``), and
    ``c`` is scanned 40 ulps either way and in 100 steps of ``2**-46 c``
    either way (the eigenvalue moves by a few 1e-15 per step)."""
    rng = np.random.default_rng(78)
    lam = rng.uniform(-0.3, 0.3, (count, 3))
    t = rng.uniform(0.2, 1, (count, 3)) * rng.choice([-1.0, 1.0], (count, 3))
    lo, hi = np.zeros(count), np.full(count, 10.0)
    for _ in range(100):
        mid = (lo + hi) / 2
        above = np.linalg.eigvalsh(choi_from_ptm(_ptm_from_canonical(mid[:, None] * t, lam)))[:, 0] > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    steps = 1 + np.arange(-100, 101) * 2.0**-46
    scales = [np.concatenate([ulp_neighbourhood(c, 40), c * steps]) for c in lo]
    return (
        np.concatenate([c[:, None] * row for c, row in zip(scales, t)]),
        np.repeat(lam, len(scales[0]), axis=0),
    )


def shifted_floor_scan():
    """A shift ``t_k`` along one axis couples the Bell states in pairs; ``t_k``
    is set where a coupled pair's smallest eigenvalue meets the floor, ``(d_a -
    f)(d_b - f) = t_k^2 / 4``, and scanned ulp by ulp across it."""
    rng = np.random.default_rng(77)
    coupled = {0: [(0, 1), (2, 3)], 1: [(0, 2), (1, 3)], 2: [(0, 3), (1, 2)]}
    rows = []
    for i in range(60):
        lam = rng.uniform(-0.3, 0.3, 3)
        axis = i % 3
        d = (1 + BELL_SIGNS @ lam) / 2 - CHOI_EIG_FLOOR
        edge = min(2 * np.sqrt(d[a] * d[b]) for a, b in coupled[axis])
        for x in ulp_neighbourhood(edge, 40):
            t = np.zeros(3)
            t[axis] = x if i % 2 else -x
            rows.append((t, lam))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def amplitude_damping_edge_scan():
    """Amplitude damping has a zero Choi eigenvalue for every ``n``; its shift
    is put on each axis in turn, so every coupling is exercised."""
    rows = []
    for n in np.linspace(0, 1, 201):
        for ulps in ulp_neighbourhood(np.sqrt(n), 2):
            t, lam = [0.0, 0.0, 1 - n], [ulps, ulps, n]
            for axis in range(3):
                perm = [(axis + 1) % 3, (axis + 2) % 3, axis]
                rows.append((np.array(t)[perm], np.array(lam)[perm]))
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def exact_ok(t, lam):
    return np.array([QubitChannel.from_canonical(a, b).cptp_report.ok for a, b in zip(t, lam)])


class TestPrescreenSoundness:
    """The sampler's closed-form pre-screen never drops a channel the exact check accepts."""

    @pytest.mark.parametrize("t_scale", [0.8, 1.0])
    def test_random_candidates(self, t_scale):
        draws = np.random.default_rng(404).uniform(-1, 1, size=(200_000, 2, 3))
        lam, t = draws[:, 0], draws[:, 1] * t_scale
        # A batched eigenvalue is within a few ulps of the single-channel one,
        # so only rows near or above the floor need the exact check.
        min_eigs = np.linalg.eigvalsh(choi_from_ptm(_ptm_from_canonical(t, lam)))[:, 0]
        near = min_eigs >= CHOI_EIG_FLOOR - SCREEN_MARGIN
        assert accepted_rows_the_prescreen_drops(t, lam, near) == []
        kept = _choi_prescreen(t, lam)
        assert near.sum() > 1000 and kept.sum() < 0.2 * len(kept)

    def test_depolarizing_at_the_floor(self):
        t, lam = depolarizing_floor_scan()
        ok = exact_ok(t, lam)
        assert ok.any() and not ok.all()
        assert accepted_rows_the_prescreen_drops(t, lam) == []

    def test_shifted_channels_at_the_floor(self):
        t, lam = shifted_floor_scan()
        ok = exact_ok(t, lam)
        assert ok.any() and not ok.all()
        assert accepted_rows_the_prescreen_drops(t, lam) == []

    def test_amplitude_damping_at_the_cp_edge(self):
        t, lam = amplitude_damping_edge_scan()
        assert exact_ok(t[::15], lam[::15]).all()
        assert accepted_rows_the_prescreen_drops(t, lam) == []


#: ``cptp_report.tp_deviation`` of a pre-screen survivor is below ``250 u``
#: (see ``qubit._cptp_ok``), far below ``TP_ATOL / 2``.
TP_ROUNDING = 250 * np.finfo(float).eps / 2


def decisions_and_fallbacks(t, lam):
    """``_cptp_ok`` of each row of ``(t, lam)``, and whether it fell back to ``cptp_report``."""
    report, calls = QubitChannel.__dict__["cptp_report"].func, []
    out = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(QubitChannel, "cptp_report", property(lambda ch: calls.append(ch) or report(ch)))
        for t_row, lam_row in zip(t.tolist(), lam.tolist()):
            before = len(calls)
            out.append((_cptp_ok(t_row, lam_row), len(calls) > before))
    return out


def closed_form_outcomes(t, lam):
    """The closed-form decision on the pre-screen survivors of ``(t, lam)``, refereed by ``cptp_report``.

    Returns ``(wrong, counts, worst_tp)``: the rows whose closed-form
    decision the exact check contradicts, the numbers of accepted, rejected
    and deferred survivors, and the largest ``tp_deviation`` of an accepted
    row.
    """
    kept = np.flatnonzero(_choi_prescreen(t, lam))
    wrong, counts, worst_tp = [], [0, 0, 0], 0.0
    for k, (ok, deferred) in zip(kept, decisions_and_fallbacks(t[kept], lam[kept])):
        counts[2 if deferred else 0 if ok else 1] += 1
        if deferred:
            continue
        report = QubitChannel.from_canonical(t[k], lam[k]).cptp_report
        if report.ok != ok:
            wrong.append(k)
        if ok:
            worst_tp = max(worst_tp, report.tp_deviation)
    return wrong, tuple(counts), worst_tp


class TestClosedFormDecision:
    """The sampler decides pre-screen survivors from the invariants of ``C - s I`` in real arithmetic."""

    def test_invariants_are_the_elementary_symmetric_functions_of_the_eigenvalues(self):
        draws = np.random.default_rng(405).uniform(-1, 1, size=(20_000, 2, 3))
        lam, t = draws[:, 0], draws[:, 1]
        shifts = [0.0, *_DECISION_SHIFTS, 0.3]
        eigs = np.linalg.eigvalsh(choi_from_ptm(_ptm_from_canonical(t, lam)))
        rows = [(_bell_sums(*lam_row), [x * x / 4 for x in t_row]) for t_row, lam_row in zip(t.tolist(), lam.tolist())]
        for shift in shifts:
            got = np.array([_choi_invariants(d, w, shift) for d, w in rows])
            x = eigs - shift
            expected = [
                sum(x[:, a] * x[:, b] for a, b in itertools.combinations(range(4), 2)),
                sum(x[:, a] * x[:, b] * x[:, c] for a, b, c in itertools.combinations(range(4), 3)),
                x.prod(axis=1),
            ]
            assert np.abs(got - np.transpose(expected)).max() < 1e-13

    def test_bell_sums_give_the_choi_diagonal_in_the_bell_basis(self):
        # Bell states (|00> + |11>, |01> + |10>, |01> - |10>, |00> - |11>) / sqrt(2)
        bell = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]) / np.sqrt(2)
        lam = np.random.default_rng(407).uniform(-1, 1, size=(200, 3))
        choi = choi_from_ptm(_ptm_from_canonical(np.zeros_like(lam), lam))
        expected = np.einsum("ai,nij,aj->na", bell, choi, bell).real
        sums = np.array([_bell_sums(*row) for row in lam.tolist()])
        assert np.abs((1 + sums) / 2 - expected).max() < 1e-15
        # each sum is the left-to-right three-term sum, on floats and on columns alike
        signed = lam[:, None, :] * BELL_SIGNS
        assert sums.tobytes() == ((signed[..., 0] + signed[..., 1]) + signed[..., 2]).tobytes()
        assert np.array(_bell_sums(*lam.T)).T.tobytes() == sums.tobytes()

    @pytest.mark.parametrize("t_scale", [0.8, 1.0])
    def test_random_candidates(self, t_scale):
        draws = np.random.default_rng(406).uniform(-1, 1, size=(200_000, 2, 3))
        lam, t = draws[:, 0], draws[:, 1] * t_scale
        wrong, (accepted, rejected, deferred), worst_tp = closed_form_outcomes(t, lam)
        assert wrong == [] and worst_tp <= TP_ROUNDING
        # every random survivor is decided in closed form
        assert deferred == 0 and accepted > 5000 and rejected > 1000

    @pytest.mark.parametrize(
        "scan",
        [depolarizing_floor_scan, shifted_floor_scan, amplitude_damping_edge_scan, lambda: generic_scan(CHOI_EIG_FLOOR)],
        ids=["depolarizing", "shifted", "amplitude_damping", "generic"],
    )
    def test_ulp_scans_across_the_floor_are_left_to_the_exact_check(self, scan):
        # Every row is within SCREEN_MARGIN of the floor, or (amplitude
        # damping) has a double zero eigenvalue, so e4 at either shift is
        # below the rounding bound.
        t, lam = scan()
        assert closed_form_outcomes(t, lam) == ([], (0, 0, len(t)), 0.0)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_ulp_scans_across_the_decision_thresholds(self, side):
        threshold = CHOI_EIG_FLOOR + side * SCREEN_MARGIN
        scans = [generic_scan(threshold), depolarizing_scan([(threshold, 400)])]
        t, lam = (np.concatenate(parts) for parts in zip(*scans))
        wrong, (accepted, rejected, deferred), worst_tp = closed_form_outcomes(t, lam)
        assert wrong == [] and worst_tp <= TP_ROUNDING and deferred > 0
        # the decision switches on at the threshold: accept above f + M, reject below f - M
        assert (accepted, rejected)[side < 0] > 0 and (accepted, rejected)[side > 0] == 0

    def test_rank_deficient_choi_families(self):
        # e4 at either shift is 1e-27 to 1e-18, far inside the rounding bound.
        t, lam = rank_deficient_rows()
        assert _choi_prescreen(t, lam).all()
        wrong, _, worst_tp = closed_form_outcomes(t, lam)
        assert wrong == [] and worst_tp <= TP_ROUNDING

    @pytest.mark.parametrize("kind", ["random", "boundary", "near_floor"])
    def test_decision_is_cptp_report_ok(self, kind):
        """``_cptp_ok`` is ``cptp_report.ok`` on every pre-screen survivor; a
        rank-deficient or near-floor survivor is decided by the fallback."""
        if kind == "random":
            draws = np.random.default_rng(408).uniform(-1, 1, size=(20_000, 2, 3))
            t, lam = draws[:, 1], draws[:, 0]
        elif kind == "boundary":
            t, lam = rank_deficient_rows()
        else:
            t, lam = (np.concatenate(parts) for parts in zip(depolarizing_floor_scan(), shifted_floor_scan()))
        kept = _choi_prescreen(t, lam)
        t, lam = t[kept], lam[kept]
        outcomes = decisions_and_fallbacks(t, lam)
        assert [ok for ok, _ in outcomes] == exact_ok(t, lam).tolist()
        fallbacks = sum(deferred for _, deferred in outcomes)
        # random survivors are all decided in closed form; every boundary and
        # near-floor row is within the rounding bound at one of the shifts
        assert len(t) > 400 and fallbacks == (0 if kind == "random" else len(t))
        assert {ok for ok, _ in outcomes} == ({True} if kind == "boundary" else {True, False})


def rank_deficient_rows():
    """Unitary channels ``lam = s_a`` (Choi rank 1), ``lam = (1, x, x)`` and its
    sign and axis variants (rank 2), and amplitude damping at ``n = 0`` (rank
    2) and ``n = 1`` (the identity), on every axis; each row with its ulp
    neighbours."""
    rows = [(np.zeros(3), lam) for s in BELL_SIGNS for lam in ulp_neighbourhood_rows(s.astype(float))]
    for x in (-0.7, 0.0, 0.3, 1.0):
        for s in BELL_SIGNS:
            for axis in range(3):
                perm = [axis, (axis + 1) % 3, (axis + 2) % 3]
                lam = (s * np.array([1.0, x, x]))[perm]
                rows += [(np.zeros(3), l) for l in ulp_neighbourhood_rows(lam)]
    for n in (0.0, 1.0):
        for axis in range(3):
            perm = [(axis + 1) % 3, (axis + 2) % 3, axis]
            t, lam = np.array([0.0, 0.0, 1 - n])[perm], np.array([np.sqrt(n), np.sqrt(n), n])[perm]
            rows += [(t, l) for l in ulp_neighbourhood_rows(lam)]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
