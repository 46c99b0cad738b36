"""Named channel constructors, golden data, and the full analysis pipeline.

The six named channels and their canonical parameters:

==============================  =========================  =======================
name                            t                          lam
==============================  =========================  =======================
bit_flip(s)                     (0, 0, 0)                  (1, 2s-1, 2s-1)
phase_flip(s)                   (0, 0, 0)                  (2s-1, 2s-1, 1)
bit_phase_flip(s)               (0, 0, 0)                  (2s-1, 1, 2s-1)
depolarizing(s)                 (0, 0, 0)                  (1-s, 1-s, 1-s)
amplitude_damping(n)            (0, 0, 1-n)                (sqrt n, sqrt n, n)
generalized_amplitude_damping   (0, 0, (1-n)(2s-1))        (sqrt n, sqrt n, n)
==============================  =========================  =======================

``analyze`` runs the whole pipeline on one channel: canonical form and CPTP
diagnostics, the symbolic kernel, Gaussianity, the angle form and its
dilation, the weakly complementary channel and the degradability verdict.
Gaussianity is decided once, by the frame search of ``gaussian_equivalent``:
the identity frame fills the top-level blocks, and any other frame reports
its verdict on that unitarily equivalent channel.
Every channel block of a report is written by ``QubitChannel.to_json``.
The committed golden coefficient tables in ``data/golden_green.json`` were
generated once from the closed channel formulas (scripts/make_golden_tables.py)
and act as the regression anchor for the kernel layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from . import degradability as deg
from .green import (
    GaussianParams,
    NoSolutionError,
    _gaussian_params,
    angles_from_gaussian,
    gaussian_equivalent,
    green_from_channel,
)
from .qubit import QubitChannel, is_cptp

__all__ = [
    "CHANNEL_NAMES",
    "OutOfRangeError",
    "build",
    "channel_info",
    "list_channels",
    "analyze",
    "analyze_channel",
    "golden_tables",
]


class OutOfRangeError(ValueError):
    """A named-channel parameter is outside its documented range."""


@dataclass(frozen=True)
class _ChannelInfo:
    name: str
    params: tuple
    summary: str
    canonical_formula: str
    gaussian: str
    degradability: str
    builder: Callable


def _bit_flip(s):
    return QubitChannel.from_canonical([0, 0, 0], [1, 2 * s - 1, 2 * s - 1])


def _phase_flip(s):
    return QubitChannel.from_canonical([0, 0, 0], [2 * s - 1, 2 * s - 1, 1])


def _bit_phase_flip(s):
    return QubitChannel.from_canonical([0, 0, 0], [2 * s - 1, 1, 2 * s - 1])


def _depolarizing(s):
    return QubitChannel.from_canonical([0, 0, 0], [1 - s, 1 - s, 1 - s])


def _amplitude_damping(n):
    r = np.sqrt(n)
    return QubitChannel.from_canonical([0, 0, 1 - n], [r, r, n])


def _generalized_amplitude_damping(n, s):
    r = np.sqrt(n)
    return QubitChannel.from_canonical([0, 0, (1 - n) * (2 * s - 1)], [r, r, n])


_CATALOG = {
    info.name: info
    for info in (
        _ChannelInfo(
            name="bit_flip",
            params=("s",),
            summary="flips |0> and |1> with probability 1-s",
            canonical_formula="t=(0,0,0), lam=(1, 2s-1, 2s-1)",
            gaussian="always Gaussian (pure environment, q=1)",
            degradability="weakly degradable for every s",
            builder=_bit_flip,
        ),
        _ChannelInfo(
            name="phase_flip",
            params=("s",),
            summary="flips the phase of |1> with probability 1-s",
            canonical_formula="t=(0,0,0), lam=(2s-1, 2s-1, 1)",
            gaussian="not Gaussian, but unitarily equivalent to bit_flip(s)",
            degradability="weakly degradable via the bit-flip equivalent",
            builder=_phase_flip,
        ),
        _ChannelInfo(
            name="bit_phase_flip",
            params=("s",),
            summary="applies the y-axis flip with probability 1-s",
            canonical_formula="t=(0,0,0), lam=(2s-1, 1, 2s-1)",
            gaussian="always Gaussian (pure environment, q=1)",
            degradability="weakly degradable for every s",
            builder=_bit_phase_flip,
        ),
        _ChannelInfo(
            name="depolarizing",
            params=("s",),
            summary="replaces the state by I/2 with probability s",
            canonical_formula="t=(0,0,0), lam=(1-s, 1-s, 1-s)",
            gaussian="not Gaussian and no Gaussian equivalent for s in (0, 1)",
            degradability="outside the scope of the Gaussian classification",
            builder=_depolarizing,
        ),
        _ChannelInfo(
            name="amplitude_damping",
            params=("n",),
            summary="loses energy to the environment with probability 1-n",
            canonical_formula="t=(0,0,1-n), lam=(sqrt n, sqrt n, n)",
            gaussian="always Gaussian (pure environment, q=1)",
            degradability="weakly degradable for n >= 1/2, anti-degradable for n <= 1/2",
            builder=_amplitude_damping,
        ),
        _ChannelInfo(
            name="generalized_amplitude_damping",
            params=("n", "s"),
            summary="dissipation into a finite-temperature environment",
            canonical_formula="t=(0,0,(1-n)(2s-1)), lam=(sqrt n, sqrt n, n)",
            gaussian="always Gaussian (mixed environment, q=s)",
            degradability=(
                "weakly degradable for n >= 1/2; for n <= 1/2 the quantum "
                "capacity is null (claimed, not computed)"
            ),
            builder=_generalized_amplitude_damping,
        ),
    )
}

CHANNEL_NAMES = tuple(_CATALOG)


def channel_info(name: str) -> _ChannelInfo:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown channel {name!r}; known: {', '.join(CHANNEL_NAMES)}") from None


def build(name: str, params: dict) -> QubitChannel:
    """Construct a named channel; parameters must lie in [0, 1]."""
    info = channel_info(name)
    missing = [p for p in info.params if p not in params]
    extra = [p for p in params if p not in info.params]
    if missing or extra:
        raise OutOfRangeError(
            f"{name} takes parameters {info.params}; missing {missing}, unexpected {extra}"
        )
    values = {}
    for p in info.params:
        try:
            v = float(params[p])
        except (TypeError, ValueError, OverflowError) as exc:
            raise OutOfRangeError(f"{name}: parameter {p} is not a number ({exc})") from None
        if not 0.0 <= v <= 1.0:
            raise OutOfRangeError(f"{name}: parameter {p}={v} outside [0, 1]")
        values[p] = v
    return info.builder(**values)


def list_channels() -> list:
    """Catalog listing with parameter ranges and documented properties."""
    out = []
    for info in _CATALOG.values():
        out.append(
            {
                "name": info.name,
                "params": {p: [0.0, 1.0] for p in info.params},
                "summary": info.summary,
                "canonical": info.canonical_formula,
                "gaussian": info.gaussian,
                "degradability": info.degradability,
            }
        )
    return out


def golden_tables() -> dict:
    """The committed golden Green-function coefficient tables."""
    with resources.files("grasschan.data").joinpath("golden_green.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def analyze_channel(
    ch: QubitChannel,
    residual_tol: float = deg.CERT_RESIDUAL_TOL,
) -> dict:
    """Full analysis report for one canonical channel (JSON-ready dict).

    ``gaussian_equivalent`` alone decides Gaussianity (see the module docstring).
    """
    report: dict = {"schema_version": 1}
    notes: list = []
    report["channel"] = ch.to_json()
    cptp = is_cptp(ch)
    report["cptp"] = {
        "ok": cptp.ok,
        "min_choi_eigenvalue": cptp.min_choi_eigenvalue,
        "tp_deviation": cptp.tp_deviation,
    }
    if not cptp.ok:
        report["notes"] = ["channel is not CPTP; no further analysis"]
        return report

    kernel = green_from_channel(ch)
    report["green"] = {
        "pretty": kernel.pretty(),
        "coefficients": {k: [v.real, v.imag] for k, v in kernel.to_table().items()},
    }

    eq = gaussian_equivalent(ch)
    report["gaussian"] = None
    report["gaussian_equivalent"] = None
    angles = dilation = degradability = None
    if eq is None:
        notes.append(
            "kernel is not Gaussian and no lambda permutation makes it so; "
            "the Gaussian degradability classification does not apply"
        )
    elif eq.perm == (0, 1, 2):
        # Certified on ``ch`` itself: a Kraus spec can keep sub-tolerance t1
        # and t2, which ``eq.channel`` zeroes.
        gp = _gaussian_params(ch)
        report["gaussian"] = {"a": [gp.a.real, gp.a.imag], "b": [gp.b.real, gp.b.imag], "c": gp.c}
        report["gaussian_equivalent"] = {"perm": [0, 1, 2], "signs": [1, 1, 1], "channel": report["channel"]}
        angles, dilation, degradability = _degradability_block(ch, gp, residual_tol, notes)
    else:
        notes.append(
            "kernel is not Gaussian; degradability is reported through the "
            "unitarily equivalent Gaussian channel given by the permutation"
        )
        block = {"perm": list(eq.perm), "signs": list(eq.signs), "channel": eq.channel.to_json()}
        eq_angles, _, eq_degradability = _degradability_block(
            eq.channel, _gaussian_params(eq.channel), residual_tol, notes
        )
        block["degradability"], block["angles"] = eq_degradability, eq_angles
        report["gaussian_equivalent"] = block
    report["angles"] = angles
    report["dilation"] = None if dilation is None else _dilation_block(ch, dilation)
    report["degradability"] = degradability
    report["notes"] = notes
    return report


def _degradability_block(ch: QubitChannel, gp: GaussianParams, residual_tol: float, notes: list) -> tuple:
    """``(angles block, Dilation, degradability block)`` of a Gaussian channel
    with kernel parameters ``gp``; three Nones when no angle form exists."""
    try:
        ap = angles_from_gaussian(gp)
    except NoSolutionError as exc:
        notes.append(f"no angle form: {exc}")
        return None, None, None
    dilation = deg.dilation_from_angles(ap)
    comp = deg.weakly_complementary(dilation)
    prediction = deg.classify_by_angles(ap)
    block = deg.certify(ch, dilation, residual_tol=residual_tol, attempt_both=prediction.boundary).to_json()
    block["complement"] = comp.to_json()
    block["prediction"] = {
        "kind": prediction.kind,
        "ratio": None if prediction.boundary else prediction.ratio,
        "boundary": prediction.boundary,
    }
    if prediction.boundary:
        notes.append(
            "classification ratio has a pole (cos 2phi = 0): boundary case, both "
            "certificate directions attempted"
        )
    if prediction.kind == deg.NULL_CAPACITY_CLAIMED:
        notes.append(
            "mixed-environment channel on the negative side of the sign test: "
            "quantum capacity is null (claimed; capacities are not computed here)"
        )
    return {"theta": ap.theta, "phi": ap.phi, "q": ap.q}, dilation, block


def _dilation_block(ch: QubitChannel, dilation: deg.Dilation) -> dict:
    """The report's ``dilation`` block, with the marginal's deviation from ``ch``.

    Two canonical transfer matrices differ only in ``t`` and ``lam`` (every
    other entry difference is an exact zero), so their largest entry
    difference is the largest ``|delta t|``, ``|delta lam|`` and +0.0.
    """
    marginal = dilation.channel()
    got, want = marginal.t.tolist() + marginal.lam.tolist(), ch.t.tolist() + ch.lam.tolist()
    deviation = max([0.0] + [abs(x - y) for x, y in zip(got, want)])
    return {
        "unitary": [[[v.real, v.imag] for v in row] for row in dilation.unitary.tolist()],
        "env_state": {"q": dilation.q},
        "env_purity": dilation.q ** 2 + (1 - dilation.q) ** 2,
        "marginal_ptm_deviation": deviation,
    }


def analyze(name: str, params: dict, residual_tol: float = deg.CERT_RESIDUAL_TOL) -> dict:
    """Analysis report for a named catalog channel."""
    info = channel_info(name)
    ch = build(name, params)
    report = analyze_channel(ch, residual_tol=residual_tol)
    report["name"] = name
    report["params"] = {k: float(v) for k, v in params.items()}
    report["expected"] = {
        "canonical": info.canonical_formula,
        "gaussian": info.gaussian,
        "degradability": info.degradability,
    }
    if name == "generalized_amplitude_damping" and float(params["s"]) == 1.0:
        report["notes"].append(
            "s = 1 degenerates to plain amplitude damping and is usually excluded "
            "from this family; accepted here with this flag"
        )
    if name == "depolarizing":
        report["notes"].append(
            "depolarizing is carried as non-Gaussian with no degradability verdict; "
            "the Gaussian classification cannot address it"
        )
    return report
