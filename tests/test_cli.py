import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import grasschan
from grasschan import catalog, io
from grasschan.cli import main
from grasschan.degradability import (
    certify,
    classify_by_angles,
    dilation_from_angles,
    weakly_complementary,
)
from grasschan.green import (
    angles_from_gaussian,
    detect_gaussian,
    gaussian_equivalent,
    green_from_channel,
)
from grasschan.qubit import (
    NonDiagonalBlockError,
    NotTracePreservingError,
    QubitChannel,
)
from grasschan.tolerances import CERT_RESIDUAL_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChannelCodec:
    def test_canonical_round_trip(self):
        ch = QubitChannel.from_canonical([0.1, -0.05, 0.3], [0.5, 0.4, 0.2])
        back = io.channel_from_json(io.channel_to_json(ch))
        assert np.array_equal(back.t, ch.t) and np.array_equal(back.lam, ch.lam)

    def test_kraus_spec(self):
        n = 0.4
        ops = [
            [[[1, 0], [0, 0]], [[0, 0], [np.sqrt(n), 0]]],
            [[[0, 0], [np.sqrt(1 - n), 0]], [[0, 0], [0, 0]]],
        ]
        ch = io.channel_from_json({"type": "kraus", "matrices": ops})
        assert np.allclose(ch.t, [0, 0, 1 - n])

    def test_named_spec(self):
        ch = io.channel_from_json(
            {"type": "named", "name": "amplitude_damping", "params": {"n": 0.3}}
        )
        assert np.allclose(ch.lam, [np.sqrt(0.3), np.sqrt(0.3), 0.3])

    def test_bad_specs(self):
        for not_an_object in ([], "canonical", None):
            with pytest.raises(io.SpecError, match="must be a JSON object"):
                io.channel_from_json(not_an_object)
        with pytest.raises(io.SpecError):
            io.channel_from_json({"type": "mystery"})
        with pytest.raises(io.SpecError):
            io.channel_from_json({"type": "canonical", "t": [0, 0], "lambda": [1, 1, 1]})
        with pytest.raises(io.SpecError):
            io.channel_from_json({"type": "named", "name": "nope", "params": {}})
        with pytest.raises(io.SpecError):
            io.channel_from_json({"type": "canonical", "t": [0, 0, 0], "lambda": [1, 1, 1], "schema_version": 99})
        with pytest.raises(io.SpecError, match=r"2x2 array of \[re, im\] pairs"):
            io.channel_from_json({"type": "kraus", "matrices": [[[1, 0], [0, 1]]]})

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(io.SpecError, match="cannot read"):
            io.load_channel_spec(str(tmp_path / "missing.json"))

    def test_validation_errors_not_masked(self):
        with pytest.raises(NotTracePreservingError):
            io.channel_from_json({"type": "kraus", "matrices": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]]})
        hadamard = (1 / np.sqrt(2)) * np.array([[1, 1], [1, -1]])
        mats = [[[[hadamard[i, j], 0] for j in range(2)] for i in range(2)]]
        with pytest.raises(NonDiagonalBlockError):
            io.channel_from_json({"type": "kraus", "matrices": mats})

    def test_io_writer_is_the_channel_writer(self):
        assert io.channel_to_json is QubitChannel.to_json

    @pytest.mark.parametrize(
        "t, lam, n_blocks",
        [
            ((0.1, -0.05, 0.08), (0.4, 0.3, -0.2), 1),  # generic: no equivalent
            ((0, 0, 0.7), (np.sqrt(0.3), np.sqrt(0.3), 0.3), 4),  # Gaussian
            ((0.36, 0, 0), (0.64, 0.8, 0.8), 4),  # Gaussian after relabelling
            ((0, 0, 0.5), (np.sqrt(0.5), np.sqrt(0.5), 0.5), 4),  # cos 2phi = 0
        ],
        ids=["generic", "gaussian", "permuted", "boundary"],
    )
    def test_every_report_channel_block_comes_from_the_writer(self, t, lam, n_blocks):
        ch = QubitChannel.from_canonical(t, lam)
        report = catalog.analyze_channel(ch)
        blocks = [(report["channel"], ch)]
        if report["gaussian"] is not None:
            target, holder = ch, report
        else:
            eq = gaussian_equivalent(ch)
            target, holder = (None, None) if eq is None else (eq.channel, report["gaussian_equivalent"])
        if target is not None:
            ap = angles_from_gaussian(detect_gaussian(green_from_channel(target)))
            comp = weakly_complementary(dilation_from_angles(ap))
            verdict = certify(target, comp, attempt_both=classify_by_angles(ap).boundary)
            blocks.append((report["gaussian_equivalent"]["channel"], target))
            blocks.append((holder["degradability"]["complement"], comp))
            blocks.append((holder["degradability"]["witness"], verdict.witness))
        assert len(blocks) == n_blocks
        for block, channel in blocks:
            assert block == channel.to_json()
            assert io.channel_from_json(block).ptm.tobytes() == channel.ptm.tobytes()


class TestAnalyzeCommand:
    def test_named_amplitude_damping_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--named", "amplitude_damping", "--param", "n=0.75", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["degradability"]["kind"] == "weakly_degradable"
        assert report["gaussian"]["c"] == pytest.approx(0.125)

    def test_identity_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "identity.json"
        spec.write_text(json.dumps({"type": "canonical", "t": [0, 0, 0], "lambda": [1, 1, 1]}))
        code, out, _ = run_cli(capsys, "analyze", str(spec), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["gaussian"] == {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": 0.0}
        assert report["degradability"]["kind"] == "weakly_degradable"
        # degrading witness of the identity is its complement: the reset to |0><0|
        assert np.allclose(report["degradability"]["witness"]["t"], [0, 0, 1])

    def test_depolarizing_note(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--named", "depolarizing", "--param", "s=0.3")
        assert code == 0
        assert "gaussian: no" in out
        assert "note:" in out

    def test_report_channel_block_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--named", "generalized_amplitude_damping",
            "--param", "n=0.4", "--param", "s=0.7", "--json",
        )
        assert code == 0
        report = json.loads(out)
        ch = io.channel_from_json(report["channel"])
        assert np.max(np.abs(ch.t - np.array(report["channel"]["t"]))) < 1e-12
        assert np.max(np.abs(ch.lam - np.array(report["channel"]["lambda"]))) < 1e-12

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2

    def test_parse_error_json_payload(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "analyze", str(bad), "--json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "canonical", "t": [float("nan"), 0, 0], "lambda": [1, 1, 1]},
            {"type": "canonical", "t": [0, 0, 0], "lambda": [float("inf"), 1, 1]},
            {"type": "kraus", "matrices": [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]]},
            {"type": "named", "name": "amplitude_damping", "params": {"n": float("-inf")}},
            {"type": "named", "name": "amplitude_damping", "params": {"n": "half"}},
        ],
    )
    def test_non_finite_or_non_numeric_spec_exit_2(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_nan_spec_exits_2_without_traceback_in_a_fresh_process(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"type": "canonical", "t": [NaN, 0, 0], "lambda": [1, 1, 1]}')
        env = dict(os.environ, PYTHONPATH=str(Path(grasschan.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "grasschan.cli", "analyze", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "non-finite" in proc.stderr + proc.stdout

    def test_validation_error_exit_3(self, capsys, tmp_path):
        spec = tmp_path / "bad_channel.json"
        spec.write_text(json.dumps({"type": "canonical", "t": [0, 0, 0], "lambda": [1, 1, -1]}))
        code, _, err = run_cli(capsys, "analyze", str(spec))
        assert code == 3

    def test_out_of_range_param_exit_2(self, capsys):
        code, *_ = run_cli(capsys, "analyze", "--named", "bit_flip", "--param", "s=2.0")
        assert code == 2

    @pytest.mark.parametrize("as_json", [True, False])
    @pytest.mark.parametrize(
        "param, message",
        [
            ("s", "--param expects KEY=VALUE, got 's'"),
            ("=1", "--param expects KEY=VALUE, got '=1'"),
            ("s=abc", "--param s: 'abc' is not a number"),
            ("s=", "--param s: '' is not a number"),
        ],
    )
    def test_malformed_param_exit_2(self, capsys, param, message, as_json):
        code, out, err = run_cli(
            capsys, "analyze", "--named", "bit_flip", "--param", param, *(["--json"] if as_json else [])
        )
        assert code == 2
        if as_json:
            assert strict_loads(out)["error"] == {"kind": "parse", "message": message}
        else:
            assert err == f"error (parse): {message}\n"

    def test_requires_exactly_one_source(self, capsys):
        code, *_ = run_cli(capsys, "analyze")
        assert code == 2

    def test_bad_tol_exit_2(self, capsys):
        code, *_ = run_cli(
            capsys, "analyze", "--named", "bit_flip", "--param", "s=0.5", "--tol", "-1"
        )
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "analyze", "--named", "bit_flip", "--param", "s=0.5",
            "--json", "--out", str(out_path),
        )
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["name"] == "bit_flip"

    def test_tol_defaults_to_the_policy_constant(self, capsys):
        args = ("analyze", "--named", "amplitude_damping", "--param", "n=0.3", "--json")
        _, default, _ = run_cli(capsys, *args)
        _, explicit, _ = run_cli(capsys, *args, "--tol", repr(CERT_RESIDUAL_TOL))
        assert explicit == default
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default: {CERT_RESIDUAL_TOL:g})" in help_text

    def test_deterministic_output(self, capsys):
        args = ("analyze", "--named", "amplitude_damping", "--param", "n=0.6", "--json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestNoTraceback:
    def test_gaussian_margin_spec_exits_0(self, capsys, tmp_path):
        spec = tmp_path / "margin.json"
        spec.write_text(json.dumps({
            "type": "canonical",
            "t": [0, 0, -0.040998812800916176],
            "lambda": [0.6961333826538778, -0.8027344603746971, -0.5588102551734733],
        }))
        code, out, _ = run_cli(capsys, "analyze", str(spec), "--json")
        assert code == 0
        assert strict_loads(out)["gaussian"] is not None

    def test_no_angle_form_spec_exits_0(self, capsys, tmp_path):
        # CPTP within CHOI_EIG_FLOOR, but t3 lies just past the exact bound
        # t3^2 <= (1 - lam1^2)(1 - lam2^2) that an angle form needs.
        lam = [0.999, 0.999, 0.999**2]
        t3 = 1.000001 * (1 - 0.999**2)
        assert t3**2 > (1 - lam[0] ** 2) * (1 - lam[1] ** 2)
        spec = tmp_path / "no_angles.json"
        spec.write_text(json.dumps({"type": "canonical", "t": [0, 0, t3], "lambda": lam}))
        code, out, _ = run_cli(capsys, "analyze", str(spec), "--json")
        assert code == 0
        report = strict_loads(out)
        assert report["cptp"]["ok"] and report["gaussian"] is not None
        assert report["angles"] is None and report["dilation"] is None and report["degradability"] is None
        assert [note for note in report["notes"] if note.startswith("no angle form: ")]

    def test_subnormal_lambda_spec_exits_0(self, capsys, tmp_path):
        # A subnormal source block is read as zero by the weak solve, which
        # would otherwise overflow lstsq to NaN.
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"type": "canonical", "t": [0, 0, 0], "lambda": [5e-324] * 3}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 0
        block = strict_loads(out)["degradability"]
        assert block["kind"] == "anti_degradable"
        assert block["attempts"]["weak"] == {"residual": 1.0000000000000002, "min_choi_eigenvalue": 0.5, "cptp": True}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "canonical", "t": [1e308, 1e308, 1e308], "lambda": [1e308, -1e308, 1e308]},
            {"type": "canonical", "t": [0, 0, 0], "lambda": [1.7e308, 1.7e308, 1.7e308]},
            # Finite entries whose sum A^dag A overflows to inf - inf = NaN.
            {"type": "kraus", "matrices": [
                [[[1e200, 0], [1e200, 0]], [[0, 0], [0, 0]]],
                [[[1e200, 0], [-1e200, 0]], [[0, 0], [0, 0]]],
            ]},
        ],
        ids=["choi-overflow", "choi-overflow-lambda", "kraus-overflow"],
    )
    def test_overflowing_spec_exits_3(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 3
        assert strict_loads(out)["error"]["kind"] == "validation"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "canonical", "t": [1' + "0" * 400 + ', 0, 0], "lambda": [1, 1, 1]}',
            '{"type": "named", "name": "bit_flip", "params": {"s": 1' + "0" * 400 + "}}",
            '{"type": "kraus", "matrices": [[[[1' + "0" * 400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]]}",
            '{"type": "canonical", "t": [1' + "0" * 5000 + ', 0, 0], "lambda": [1, 1, 1]}',
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["huge-int-canonical", "huge-int-named", "huge-int-kraus", "int-digit-limit", "deep-nesting"],
    )
    def test_unreadable_number_or_nesting_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
        assert code == 2
        assert strict_loads(out)["error"]["kind"] == "parse"

    def test_bad_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{}")
        code, *_ = run_cli(capsys, "analyze", str(path))
        assert code == 2

    @pytest.mark.parametrize("argv", [("analyze", "--named", "bit_flip", "--param", "s=0.5"), ("verify", "--trials", "2")])
    def test_nan_tol_exits_2(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--tol", "nan", "--json")
        assert code == 2
        assert strict_loads(out)["error"]["kind"] == "parse"

    @pytest.mark.parametrize("tol", ["inf", "-inf"])
    @pytest.mark.parametrize("argv", [("analyze", "--named", "bit_flip", "--param", "s=0.5"), ("verify", "--trials", "3")])
    def test_infinite_tol_exits_2(self, capsys, argv, tol):
        code, out, _ = run_cli(capsys, *argv, f"--tol={tol}", "--json")
        assert code == 2
        assert strict_loads(out)["error"]["kind"] == "parse"

    @pytest.mark.parametrize("as_json", [True, False])
    def test_negative_seed_exits_2(self, capsys, as_json):
        code, out, err = run_cli(capsys, "verify", "--trials", "2", "--seed", "-1", *(["--json"] if as_json else []))
        assert code == 2
        assert "--seed" in (strict_loads(out)["error"]["message"] if as_json else err)

    @pytest.mark.parametrize("as_json", [True, False])
    def test_unwritable_out_path_exits_2(self, capsys, tmp_path, as_json):
        out_path = tmp_path / "missing" / "report.json"
        argv = ["analyze", "--named", "bit_flip", "--param", "s=0.5", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        assert "cannot write" in (strict_loads(out)["error"]["message"] if as_json else err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--named", "amplitude_damping", "--param", "n=0.3", "--json"),
            ("analyze", "--named", "amplitude_damping", "--param", "n=0.3"),
            ("catalog",),
            ("verify", "--trials", "2"),
        ],
        ids=["analyze-json", "analyze-text", "catalog", "verify"],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the first write, as after `| head`
        env = dict(os.environ, PYTHONPATH=str(Path(grasschan.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "grasschan.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestCatalogCommand:
    def test_lists_six_channels(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        for name in (
            "bit_flip",
            "phase_flip",
            "bit_phase_flip",
            "depolarizing",
            "amplitude_damping",
            "generalized_amplitude_damping",
        ):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["channels"]) == 6

    def test_single_entry(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--name", "bit_flip")
        assert code == 0
        assert "lam=(1, 2s-1, 2s-1)" in out

    def test_unknown_entry(self, capsys):
        code, *_ = run_cli(capsys, "catalog", "--name", "nope")
        assert code == 2


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "50", "--seed", "42")
        assert code == 0
        assert "verification PASSED" in out

    def test_seed_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "7", "--json")
        _, second, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "7", "--json")
        assert first == second

    def test_zero_trials_vacuous_with_warning(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "0")
        assert code == 0
        assert "vacuous" in out

    def test_too_tight_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--tol", "1e-20")
        assert code == 4
        assert "FAIL" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "characteristic_function_closed_form",
            "convolution_vs_dense_oracle",
        }


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJson:
    def test_non_finite_report_value_exits_3(self, capsys, monkeypatch):
        real_analyze = catalog.analyze

        def analyze_with_inf(*args, **kwargs):
            report = real_analyze(*args, **kwargs)
            report["cptp"]["tp_deviation"] = float("inf")
            return report

        monkeypatch.setattr(catalog, "analyze", analyze_with_inf)
        code, out, _ = run_cli(capsys, "analyze", "--named", "depolarizing", "--param", "s=0.3", "--json")
        assert code == 3
        payload = strict_loads(out)
        assert payload["error"]["kind"] == "validation"
        assert "non-finite" in payload["error"]["message"]
        # the text report is not JSON and still prints
        code, out, _ = run_cli(capsys, "analyze", "--named", "depolarizing", "--param", "s=0.3")
        assert code == 0 and "inf" in out

    def test_non_finite_verify_residual_exits_3(self, capsys, monkeypatch):
        from grasschan import verify

        real_run = verify.run_verification

        def run_with_nan(*args, **kwargs):
            result = real_run(*args, **kwargs)
            check = dataclasses.replace(result.checks[1], max_residual=float("nan"), passed=False)
            return dataclasses.replace(result, passed=False, checks=(result.checks[0], check))

        monkeypatch.setattr(verify, "run_verification", run_with_nan)
        code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--json")
        assert code == 3
        assert strict_loads(out)["error"]["kind"] == "validation"

    def test_every_json_output_is_strict(self, capsys, tmp_path):
        spec = tmp_path / "generic.json"
        spec.write_text(json.dumps({"type": "canonical", "t": [0.1, -0.05, 0.2], "lambda": [0.5, 0.4, 0.3]}))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        invocations = [("analyze", str(spec)), ("analyze", str(bad)), ("catalog",), ("verify", "--trials", "5")]
        invocations += [("verify", "--trials", "0"), ("verify", "--trials", "5", "--tol", "1e-30")]
        invocations += [("analyze", "--named", "depolarizing", "--param", "s=2")]
        for entry in catalog.list_channels():
            for value in (0.0, 0.5, 1.0):
                params = [arg for p in entry["params"] for arg in ("--param", f"{p}={value}")]
                invocations.append(("analyze", "--named", entry["name"], *params))
        for argv in invocations:
            code, out, _ = run_cli(capsys, *argv, "--json")
            assert code in (0, 2, 3, 4), argv
            strict_loads(out)
