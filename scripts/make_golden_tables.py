#!/usr/bin/env python3
"""Generate the committed golden Green-function coefficient tables.

Deliberately independent of the grasschan package: each named channel's
kernel is written down directly in its published closed form

    delta(zeta - a xi - b xi*) * exp(-c xi* xi)  +  extra * xi xi*

and expanded by hand into the 16 canonical monomial coefficients:

    zeta zeta*        : 1
    zeta xi           : -conj(b)
    zeta xi*          : -conj(a)
    zeta* xi          : a
    zeta* xi*         : b
    xi xi*            : |a|^2 - |b|^2 + extra
    zeta zeta* xi xi* : c

(using the frozen conventions: generator order zeta < zeta* < xi < xi*,
delta(arg) = arg * adjoint(arg), exp(-c xi* xi) = 1 + c xi xi*).

Run from the repository root:  python scripts/make_golden_tables.py
"""

import json
import math
import pathlib

MONOMIALS = [
    "1",
    "ζ", "ζ*", "ζζ*",
    "ξ", "ζξ", "ζ*ξ", "ζζ*ξ",
    "ξ*", "ζξ*", "ζ*ξ*", "ζζ*ξ*",
    "ξξ*", "ζξξ*", "ζ*ξξ*", "ζζ*ξξ*",
]


def expand(a, b, c, extra):
    table = {name: 0.0 + 0.0j for name in MONOMIALS}
    table["ζζ*"] = 1.0 + 0.0j
    table["ζξ"] = -complex(b).conjugate()
    table["ζξ*"] = -complex(a).conjugate()
    table["ζ*ξ"] = complex(a)
    table["ζ*ξ*"] = complex(b)
    table["ξξ*"] = abs(a) ** 2 - abs(b) ** 2 + extra
    table["ζζ*ξξ*"] = complex(c)
    return {name: [value.real, value.imag] for name, value in table.items()}


def bit_flip(s):
    return expand(a=s, b=s - 1, c=0.0, extra=0.0)


def phase_flip(s):
    return expand(a=2 * s - 1, b=0.0, c=0.0, extra=4 * s * (1 - s))


def bit_phase_flip(s):
    return expand(a=s, b=1 - s, c=0.0, extra=0.0)


def depolarizing(s):
    return expand(a=1 - s, b=0.0, c=0.0, extra=s * (1 - s))


def amplitude_damping(n):
    return expand(a=math.sqrt(n), b=0.0, c=(1 - n) / 2, extra=0.0)


def generalized_amplitude_damping(n, s):
    return expand(a=math.sqrt(n), b=0.0, c=(2 * s - 1) * (1 - n) / 2, extra=0.0)


def golden_text():
    """The text of ``src/grasschan/data/golden_green.json``."""
    grid = [round(0.025 + 0.05 * k, 6) for k in range(20)]
    s_grid = [round(0.975 - 0.05 * k, 6) for k in range(20)]
    channels = {
        "bit_flip": [{"params": {"s": s}, "table": bit_flip(s)} for s in grid],
        "phase_flip": [{"params": {"s": s}, "table": phase_flip(s)} for s in grid],
        "bit_phase_flip": [{"params": {"s": s}, "table": bit_phase_flip(s)} for s in grid],
        "depolarizing": [{"params": {"s": s}, "table": depolarizing(s)} for s in grid],
        "amplitude_damping": [{"params": {"n": n}, "table": amplitude_damping(n)} for n in grid],
        "generalized_amplitude_damping": [
            {"params": {"n": n, "s": s}, "table": generalized_amplitude_damping(n, s)}
            for n, s in zip(grid, s_grid)
        ],
    }
    payload = {"schema_version": 1, "monomials": MONOMIALS, "channels": channels}
    return json.dumps(payload, indent=1, ensure_ascii=False) + "\n"


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "grasschan" / "data" / "golden_green.json"
    out.write_text(golden_text(), encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
