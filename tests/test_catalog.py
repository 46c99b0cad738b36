import importlib.util
import itertools
import json
import pathlib
from collections import Counter

import numpy as np
import pytest
from test_snapshot import CANONICAL_CASES, KRAUS_SPECS, NAMED_POINTS

from grasschan import catalog, degradability, grassmann, green, io, qubit
from grasschan.degradability import NULL_CAPACITY_CLAIMED, WEAKLY_DEGRADABLE
from grasschan.green import (
    AngleParams,
    GreenFunction,
    _gaussian_params,
    channel_from_angles,
    detect_gaussian,
    gaussian_equivalent,
    green_from_channel,
)
from grasschan.grassmann import _element
from grasschan.qubit import QubitChannel, is_cptp
from grasschan.tolerances import GAUSSIAN_ATOL

# A channel with lam3 - lam1 lam2 on the margin of the Gaussian rule: the
# canonical rule accepts it, while the kernel pattern match rejects it.
MARGIN_SPEC = {
    "type": "canonical",
    "t": [0, 0, -0.040998812800916176],
    "lambda": [0.6961333826538778, -0.8027344603746971, -0.5588102551734733],
}


def test_channel_names():
    assert set(catalog.CHANNEL_NAMES) == {
        "bit_flip",
        "phase_flip",
        "bit_phase_flip",
        "depolarizing",
        "amplitude_damping",
        "generalized_amplitude_damping",
    }


class TestBuild:
    def test_bit_flip_parameters(self):
        s = 0.3
        ch = catalog.build("bit_flip", {"s": s})
        assert np.allclose(ch.t, 0)
        assert np.allclose(ch.lam, [1, 2 * s - 1, 2 * s - 1])

    def test_phase_flip_parameters(self):
        s = 0.3
        ch = catalog.build("phase_flip", {"s": s})
        assert np.allclose(ch.lam, [2 * s - 1, 2 * s - 1, 1])

    def test_generalized_amplitude_damping_parameters(self):
        n, s = 0.4, 0.7
        ch = catalog.build("generalized_amplitude_damping", {"n": n, "s": s})
        assert np.allclose(ch.t, [0, 0, (1 - n) * (2 * s - 1)])
        assert np.allclose(ch.lam, [np.sqrt(n), np.sqrt(n), n])

    def test_out_of_range(self):
        with pytest.raises(catalog.OutOfRangeError):
            catalog.build("bit_flip", {"s": 1.2})
        with pytest.raises(catalog.OutOfRangeError):
            catalog.build("amplitude_damping", {"n": -0.1})
        with pytest.raises(catalog.OutOfRangeError):
            catalog.build("bit_flip", {"n": 0.5})
        with pytest.raises(KeyError):
            catalog.build("unknown_channel", {})

    @pytest.mark.parametrize("value", [10**400, None, "abc", [0.5], {}], ids=["huge_int", "none", "str", "list", "dict"])
    def test_a_parameter_that_is_not_a_number_is_named(self, value):
        with pytest.raises(catalog.OutOfRangeError, match=r"^bit_flip: parameter s is not a number \("):
            catalog.build("bit_flip", {"s": value})

    @pytest.mark.parametrize("value", ["0.25", " 0.25 ", np.float32(0.25), 0.25, 1, True, False])
    def test_a_parameter_that_float_reads_is_accepted(self, value):
        ch = catalog.build("bit_flip", {"s": value})
        assert ch.ptm.tobytes() == catalog.build("bit_flip", {"s": float(value)}).ptm.tobytes()

    @pytest.mark.parametrize("name", catalog.CHANNEL_NAMES)
    def test_cptp_across_parameter_range(self, name):
        info = catalog.channel_info(name)
        grid = np.linspace(0.0, 1.0, 9)
        if len(info.params) == 1:
            samples = [{info.params[0]: v} for v in grid]
        else:
            samples = [{"n": a, "s": b} for a in grid[::2] for b in grid[::2]]
        for params in samples:
            assert is_cptp(catalog.build(name, params)).ok


class TestGoldenTables:
    def test_tables_cover_all_channels_with_twenty_samples(self):
        data = catalog.golden_tables()
        assert set(data["channels"]) == set(catalog.CHANNEL_NAMES)
        for entries in data["channels"].values():
            assert len(entries) == 20

    def test_committed_file_is_the_generator_output(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "make_golden_tables", root / "scripts" / "make_golden_tables.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        committed = (root / "src" / "grasschan" / "data" / "golden_green.json").read_bytes()
        assert script.golden_text().encode("utf-8") == committed

    @pytest.mark.parametrize("name", catalog.CHANNEL_NAMES)
    def test_kernels_match_golden_coefficients(self, name):
        data = catalog.golden_tables()
        for entry in data["channels"][name]:
            ch = catalog.build(name, entry["params"])
            table = green_from_channel(ch).to_table()
            for monomial, (re, im) in entry["table"].items():
                assert table[monomial] == pytest.approx(complex(re, im), abs=1e-12), (
                    name,
                    entry["params"],
                    monomial,
                )


class TestAnalyze:
    def test_depolarizing_report(self):
        report = catalog.analyze("depolarizing", {"s": 0.5})
        assert report["gaussian"] is None
        assert report["gaussian_equivalent"] is None
        assert report["degradability"] is None
        assert any("non-Gaussian" in note for note in report["notes"])

    def test_phase_flip_report_uses_equivalent(self):
        s = 0.3
        report = catalog.analyze("phase_flip", {"s": s})
        assert report["gaussian"] is None
        eq = report["gaussian_equivalent"]
        assert eq["perm"] == [1, 2, 0]
        assert np.allclose(eq["channel"]["lambda"], [1, 2 * s - 1, 2 * s - 1])
        assert eq["degradability"]["kind"] == WEAKLY_DEGRADABLE

    def test_amplitude_damping_boundary_runs_both_directions(self):
        report = catalog.analyze("amplitude_damping", {"n": 0.5})
        degr = report["degradability"]
        assert degr["prediction"]["boundary"]
        assert degr["attempts"]["weak"] is not None
        assert degr["attempts"]["anti"] is not None
        assert any("boundary" in note for note in report["notes"])

    def test_weakly_degradable_amplitude_damping(self):
        report = catalog.analyze("amplitude_damping", {"n": 0.75})
        assert report["degradability"]["kind"] == WEAKLY_DEGRADABLE
        assert report["dilation"]["marginal_ptm_deviation"] < 1e-10

    def test_mixed_environment_null_capacity_note(self):
        report = catalog.analyze("generalized_amplitude_damping", {"n": 0.25, "s": 0.7})
        assert report["degradability"]["prediction"]["kind"] == NULL_CAPACITY_CLAIMED
        assert any("null" in note for note in report["notes"])

    def test_gad_s_equals_one_is_flagged(self):
        report = catalog.analyze("generalized_amplitude_damping", {"n": 0.4, "s": 1.0})
        assert any("s = 1" in note for note in report["notes"])
        assert report["cptp"]["ok"]

    def test_report_expected_block_matches_catalog(self):
        report = catalog.analyze("bit_flip", {"s": 0.4})
        info = catalog.channel_info("bit_flip")
        assert report["expected"]["gaussian"] == info.gaussian
        assert report["expected"]["degradability"] == info.degradability


def test_listing_has_six_entries_with_ranges():
    listing = catalog.list_channels()
    assert len(listing) == 6
    for entry in listing:
        assert all(rng == [0.0, 1.0] for rng in entry["params"].values())
        assert entry["summary"]


class TestVerdictSweep:
    """Analyze verdicts across parameter ranges, away from the 0.5 boundary."""

    grid = np.linspace(0.05, 0.95, 10)

    def test_flip_family_always_weakly_degradable(self):
        for s in self.grid:
            for name in ("bit_flip", "bit_phase_flip"):
                report = catalog.analyze(name, {"s": s})
                assert report["degradability"]["kind"] == WEAKLY_DEGRADABLE, (name, s)
            report = catalog.analyze("phase_flip", {"s": s})
            assert report["gaussian_equivalent"]["degradability"]["kind"] == WEAKLY_DEGRADABLE

    def test_depolarizing_never_classified(self):
        for s in self.grid:
            assert catalog.analyze("depolarizing", {"s": s})["degradability"] is None

    def test_amplitude_damping_split(self):
        for n in self.grid:
            if abs(n - 0.5) < 0.02:
                continue
            kind = catalog.analyze("amplitude_damping", {"n": n})["degradability"]["kind"]
            assert kind == (WEAKLY_DEGRADABLE if n > 0.5 else "anti_degradable"), n

    def test_generalized_amplitude_damping_split(self):
        for n in (0.1, 0.3, 0.7, 0.9):
            for s in (0.25, 0.75):
                report = catalog.analyze("generalized_amplitude_damping", {"n": n, "s": s})
                kind = report["degradability"]["kind"]
                if n > 0.5:
                    assert kind == WEAKLY_DEGRADABLE
                else:
                    assert kind in ("anti_degradable", "neither_certified")
                    assert report["degradability"]["prediction"]["kind"] == NULL_CAPACITY_CLAIMED


def _relabelled(t, lam):
    """``(t, lam)`` under each of the six axis permutations."""
    for perm in itertools.permutations(range(3)):
        yield QubitChannel.from_canonical(np.asarray(t)[list(perm)], np.asarray(lam)[list(perm)])


def _angle_channels(rng, n):
    return [
        channel_from_angles(AngleParams(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, np.pi), q))
        for q in rng.choice([0.0, 1.0, 0.3, 0.5, 0.9], size=n)
    ]


class TestOneGaussianDecision:
    """``analyze_channel`` decides Gaussianity by the frame search alone."""

    @staticmethod
    def margin_channels():
        """Gaussian channels pushed onto the edges of the canonical rule, relabelled."""
        rng = np.random.default_rng(11)
        yield io.channel_from_json(MARGIN_SPEC)
        for base in _angle_channels(rng, 12):
            (l1, l2, _), t3 = base.lam, base.t[2]
            for sign, rel in itertools.product((1, -1), (1 - 1e-6, 1 + 1e-6)):
                yield from _relabelled([0, 0, t3], [l1, l2, l1 * l2 + sign * rel * GAUSSIAN_ATOL])
            for rel in rng.uniform(1, 2, size=2):  # |t1| in (1, 2] GAUSSIAN_ATOL
                yield from _relabelled([rng.choice([-1, 1]) * rel * GAUSSIAN_ATOL, 0, t3], base.lam)

    def test_margin_reports_follow_the_frame_search(self):
        outcomes = Counter()
        for ch in self.margin_channels():
            report = catalog.analyze_channel(ch)
            if not report["cptp"]["ok"]:
                outcomes["not cptp"] += 1
                continue
            eq = gaussian_equivalent(ch)
            identity = eq is not None and eq.perm == (0, 1, 2)
            assert (report["gaussian"] is not None) == identity, ch
            assert (report["gaussian_equivalent"] is None) == (eq is None), ch
            outcomes["identity" if identity else "none" if eq is None else "relabelled"] += 1
            json.dumps(report, allow_nan=False)
        assert outcomes["identity"] and outcomes["relabelled"] and outcomes["none"], outcomes

    def test_margin_spec_is_gaussian(self):
        ch = io.channel_from_json(MARGIN_SPEC)
        assert detect_gaussian(green_from_channel(ch)) is None
        report = catalog.analyze_channel(ch)
        assert report["gaussian"] is not None
        assert report["degradability"]["kind"] == WEAKLY_DEGRADABLE

    def test_sub_tolerance_t1_within_the_kernel_pattern_is_not_gaussian(self):
        ch = QubitChannel.from_canonical([1.5e-10, 0, 0.1], [0.8, 0.6, 0.48])
        assert detect_gaussian(green_from_channel(ch)) is not None
        assert gaussian_equivalent(ch) is None
        report = catalog.analyze_channel(ch)
        assert report["gaussian"] is None and report["gaussian_equivalent"] is None

    def test_one_kernel_no_pattern_match_and_a_marginal_only_when_shown(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(green, "_kernel_body", counting("kernel", green._kernel_body))
        monkeypatch.setattr(grassmann, "_products", counting("products", grassmann._products))
        monkeypatch.setattr(green, "_products", counting("products", grassmann._products))
        monkeypatch.setattr(green, "detect_gaussian", counting("detect", green.detect_gaussian))
        monkeypatch.setattr(catalog, "detect_gaussian", counting("detect", green.detect_gaussian), raising=False)
        monkeypatch.setattr(
            degradability.Dilation, "channel", counting("marginal", degradability.Dilation.channel)
        )
        channels = [catalog.build(name, p) for name, points in NAMED_POINTS.items() for p in points]
        channels += [QubitChannel.from_canonical(*case) for case in CANONICAL_CASES.values()]
        channels += [io.channel_from_json(spec) for spec in KRAUS_SPECS.values()]
        channels.append(QubitChannel.from_canonical([0, 0, 0], [1, 1, -1]))  # not CPTP
        paths = Counter()
        for ch in channels:
            counts.clear()
            report = catalog.analyze_channel(ch)
            assert counts["kernel"] == int(report["cptp"]["ok"]), ch
            assert counts["products"] == 0, ch
            assert counts["detect"] == 0, ch
            assert counts["marginal"] == int(report.get("dilation") is not None), ch
            paths[(report.get("gaussian") is not None, report.get("gaussian_equivalent") is not None)] += 1
        assert paths[(True, True)] and paths[(False, True)] and paths[(False, False)], paths


    def test_one_stacked_kraus_pass_per_dilation(self, monkeypatch):
        passes = []
        original = qubit._ptms_from_kraus

        def counting(ops):
            passes.append(ops.shape)
            return original(ops)

        monkeypatch.setattr(qubit, "_ptms_from_kraus", counting)
        monkeypatch.setattr(degradability, "_ptms_from_kraus", counting)
        channels = [catalog.build(name, p) for name, points in NAMED_POINTS.items() for p in points]
        channels += [QubitChannel.from_canonical(*case) for case in CANONICAL_CASES.values()]
        channels += [io.channel_from_json(spec) for spec in KRAUS_SPECS.values()]
        dilations = Counter()
        for ch in channels:
            passes.clear()
            report = catalog.analyze_channel(ch)
            blocks = [report, report["gaussian_equivalent"] or {}]
            count = sum(block.get("angles") is not None for block in blocks)
            assert len(passes) == count, ch
            assert all(shape[0] == 2 and shape[2:] == (2, 2) for shape in passes), passes
            dilations[count] += 1
        assert dilations[1] and dilations[0], dilations


class TestClosedFormGaussianParams:
    def test_equal_to_the_kernel_reads_bit_for_bit(self):
        """``_gaussian_params`` of every Gaussian frame against ``detect_gaussian``."""
        channels = _angle_channels(np.random.default_rng(17), 2900)
        for name in catalog.CHANNEL_NAMES:
            params = catalog.channel_info(name).params
            for values in itertools.product(np.linspace(0, 1, 21), repeat=len(params)):
                channels.append(catalog.build(name, dict(zip(params, values))))
        channels.append(QubitChannel.from_canonical([0, 0, -0.0], [-0.0, -0.0, 0.0]))
        frames = []
        for ch in channels:
            for relabelled in _relabelled(ch.t, ch.lam):
                eq = gaussian_equivalent(relabelled)
                if eq is not None:
                    frames.append(relabelled if eq.perm == (0, 1, 2) else eq.channel)
        assert len(frames) >= 20_000
        kernels = [green._kernel_body(f.t.tolist(), f.lam.tolist()) for f in frames]

        def bits(gp):
            return [float(x).hex() for x in (gp.a.real, gp.a.imag, gp.b.real, gp.b.imag, gp.c)]

        for frame, kernel in zip(frames, kernels):
            read = detect_gaussian(GreenFunction(_element(kernel)))
            assert read is not None, frame
            assert bits(_gaussian_params(frame)) == bits(read), frame
