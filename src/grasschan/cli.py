"""Command-line front end: analyze channels, list the catalog, self-verify.

Subcommands::

    grasschan analyze [spec.json] [--named NAME --param k=v ...] [--json]
    grasschan catalog [--name NAME] [--json]
    grasschan verify [--trials N] [--seed S] [--tol T] [--json]

Exit codes: 0 ok, 2 parse error (malformed spec or argument, a ``--tol``
outside ``(0, inf)``, a negative ``--seed``, unwritable ``--out``), 3
validation error (non-CPTP or non-canonical input, an overflowing Choi
matrix, or a result holding NaN or an infinity), 4 verification-suite
failure; no input ends in a traceback, and a reader that closes stdout early
(``| head``) drops the rest of the output, not the exit code.  With
``--json`` errors are emitted as machine-readable objects on stdout, and
every ``--json`` output is strict JSON: a non-finite result is an error,
never ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Optional

from . import catalog, io, verify
from .qubit import NonDiagonalBlockError, NotCptpError, NotTracePreservingError
from .tolerances import CERT_RESIDUAL_TOL

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SUITE = 4

# One JSON number token (RFC 8259): no "+", no leading zero, digits on both
# sides of a ".", no "_" and no whitespace.  ``[0-9]``, not ``\d``, which
# also matches other Unicode digits.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasschan",
        description="Analyze qubit channels through their Grassmann phase-space kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full analysis of one channel")
    p_an.add_argument("spec", nargs="?", help="path to a channel spec JSON file")
    p_an.add_argument("--named", help="catalog channel name instead of a spec file")
    p_an.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="named-channel parameter, VALUE a JSON number (repeatable)",
    )
    p_an.add_argument(
        "--tol",
        type=float,
        default=CERT_RESIDUAL_TOL,
        help="certificate residual tolerance (default: %(default)g)",
    )
    p_an.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_an.add_argument("--out", help="write the report to a file instead of stdout")

    p_cat = sub.add_parser("catalog", help="list the named channels")
    p_cat.add_argument("--name", help="show a single entry")
    p_cat.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run the randomized self-verification suites")
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_ver.add_argument("--tol", type=float, default=None, help="override both suite tolerances")
    p_ver.add_argument("--json", action="store_true")
    return parser


def _emit(text: str, out_path: Optional[str] = None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:  # unrun-ok: the closed-pipe test runs the CLI in a subprocess
        # The reader closed stdout; send what is left, and the exit flush, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # unrun-ok


def _error(kind: str, message: str, as_json: bool, code: int) -> int:
    if as_json:
        _emit(_strict_json({"schema_version": 1, "error": {"kind": kind, "message": message}}))
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def _strict_json(payload: dict, indent: Optional[int] = None) -> str:
    """``payload`` as JSON; ``ValueError`` when it holds NaN or an infinity."""
    return json.dumps(payload, indent=indent, allow_nan=False)


def _non_finite_json() -> int:
    return _error(
        "validation",
        "the result holds a non-finite number, which strict JSON cannot encode",
        True,
        EXIT_VALIDATION,
    )


def _parse_params(pairs: list) -> dict:
    """``--param KEY=VALUE`` pairs; each value is one JSON number token, held
    to the rules of a spec file's numbers (finite, fits a float)."""
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise io.SpecError(f"--param expects KEY=VALUE, got {pair!r}")
        if not _JSON_NUMBER.fullmatch(value):
            raise io.SpecError(f"--param {key}: {value!r} is not a number")
        params[key] = io._number(float(value), f"--param {key}")
    return params


def _format_report_text(report: dict) -> str:
    lines = []
    if "name" in report:
        params = ", ".join(f"{k}={v:g}" for k, v in report["params"].items())
        lines.append(f"channel: {report['name']}({params})")
    ch = report["channel"]
    lines.append(f"canonical: t={ch['t']}  lambda={ch['lambda']}")
    cptp = report["cptp"]
    lines.append(
        f"cptp: {'ok' if cptp['ok'] else 'FAILED'} "
        f"(min Choi eigenvalue {cptp['min_choi_eigenvalue']:.3e}, "
        f"TP deviation {cptp['tp_deviation']:.3e})"
    )
    if "green" in report:
        lines.append(f"green function: {report['green']['pretty']}")
    gauss = report.get("gaussian")
    if gauss is not None:
        lines.append(
            f"gaussian: yes  a={gauss['a'][0]:g}{gauss['a'][1]:+g}i  "
            f"b={gauss['b'][0]:g}{gauss['b'][1]:+g}i  c={gauss['c']:g}"
        )
    elif "gaussian" in report:
        lines.append("gaussian: no")
    eq = report.get("gaussian_equivalent")
    if eq and eq["perm"] != [0, 1, 2]:
        eq_ch = eq["channel"]
        lines.append(
            f"gaussian equivalent: perm={eq['perm']} signs={eq['signs']} "
            f"-> t={eq_ch['t']} lambda={eq_ch['lambda']}"
        )
    elif "gaussian_equivalent" in report and eq is None:
        lines.append("gaussian equivalent: none")
    for holder in (report, report.get("gaussian_equivalent") or {}):
        angles = holder.get("angles")
        if angles:
            lines.append(
                f"angles: theta={angles['theta']:.6g} phi={angles['phi']:.6g} q={angles['q']:.6g}"
            )
        dil = holder.get("dilation")
        if dil:
            lines.append(
                f"dilation: environment q={dil['env_state']['q']:.6g} "
                f"(purity {dil['env_purity']:.6g}), marginal deviation "
                f"{dil['marginal_ptm_deviation']:.3e}"
            )
        degr = holder.get("degradability")
        if degr:
            role = "witness" if degr.get("witness") else "best candidate"
            lines.append(f"verdict: {degr['kind']} (residual {degr['residual']:.3e}, "
                         f"min {role} Choi eigenvalue {degr['min_choi_eigenvalue']:.3e})")
            if degr.get("witness"):
                w = degr["witness"]
                lines.append(f"witness: t={w['t']} lambda={w['lambda']}")
            pred = degr.get("prediction")
            if pred:
                ratio = "pole" if pred["boundary"] else f"{pred['ratio']:.6g}"
                lines.append(f"prediction: {pred['kind']} (cos2theta/cos2phi = {ratio})")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    if bool(args.spec) == bool(args.named):
        return _error("parse", "provide exactly one of a spec file or --named NAME", args.json, EXIT_PARSE)
    if not 0 < args.tol < math.inf:  # NaN fails too
        return _error("parse", "--tol must be positive and finite", args.json, EXIT_PARSE)
    try:
        if args.named:
            params = _parse_params(args.param)
            try:
                report = catalog.analyze(args.named, params, residual_tol=args.tol)
            except (KeyError, catalog.OutOfRangeError) as exc:
                raise io.SpecError(str(exc)) from exc
        else:
            spec = io.load_channel_spec(args.spec)
            ch = io.channel_from_json(spec)
            report = catalog.analyze_channel(ch, residual_tol=args.tol)
    except io.SpecError as exc:
        return _error("parse", str(exc), args.json, EXIT_PARSE)
    except (NotCptpError, NotTracePreservingError, NonDiagonalBlockError) as exc:
        return _error("validation", str(exc), args.json, EXIT_VALIDATION)
    if not report["cptp"]["ok"]:
        message = f"channel is not CPTP (min Choi eigenvalue {report['cptp']['min_choi_eigenvalue']:.3e})"
        return _error("validation", message, args.json, EXIT_VALIDATION)
    if args.json:
        try:
            text = _strict_json(report, indent=2)
        except ValueError:
            return _non_finite_json()
    else:
        text = _format_report_text(report)
    try:
        _emit(text, args.out)
    except OSError as exc:
        return _error("parse", f"cannot write {args.out}: {exc.strerror}", args.json, EXIT_PARSE)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    listing = catalog.list_channels()
    if args.name is not None:
        listing = [entry for entry in listing if entry["name"] == args.name]
        if not listing:
            return _error("parse", f"unknown channel {args.name!r}", args.json, EXIT_PARSE)
    if args.json:
        _emit(_strict_json({"schema_version": 1, "channels": listing}, indent=2))
        return EXIT_OK
    for entry in listing:
        params = ", ".join(f"{p} in [0, 1]" for p in entry["params"])
        _emit(f"{entry['name']} ({params})")
        _emit(f"  {entry['summary']}")
        _emit(f"  canonical: {entry['canonical']}")
        _emit(f"  gaussian: {entry['gaussian']}")
        _emit(f"  degradability: {entry['degradability']}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 0:
        return _error("parse", "--trials must be >= 0", args.json, EXIT_PARSE)
    if args.seed < 0:
        return _error("parse", "--seed must be >= 0", args.json, EXIT_PARSE)
    if args.tol is not None and not 0 < args.tol < math.inf:
        return _error("parse", "--tol must be positive and finite", args.json, EXIT_PARSE)
    result = verify.run_verification(trials=args.trials, seed=args.seed, tol=args.tol)
    if args.json:
        payload = result.to_json()
        if args.trials == 0:
            payload["warning"] = "0 trials requested; the pass is vacuous"
        try:
            text = _strict_json(payload, indent=2)
        except ValueError:
            return _non_finite_json()
        _emit(text)
    else:
        for check in result.checks:
            status = "pass" if check.passed else "FAIL"
            _emit(
                f"{status}  {check.name}: max residual {check.max_residual:.3e} "
                f"over {check.trials} trials (tolerance {check.tolerance:g})"
            )
        _emit(f"seed: {result.seed}")
        if args.trials == 0:
            _emit("warning: 0 trials requested; the pass is vacuous")
        _emit("verification PASSED" if result.passed else "verification FAILED")
    return EXIT_OK if result.passed else EXIT_SUITE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())  # unrun-ok: only ``python -m grasschan.cli`` runs this
