"""Property test: ``grasschan analyze`` ends in an exit code, never a traceback.

Random well-formed and malformed specs, plus canonical specs on the margins
of the Gaussian rule (``lam3 - lam1 lam2`` at ``±GAUSSIAN_ATOL (1 ± 1e-6)``,
``|t1|`` in ``(1, 2] GAUSSIAN_ATOL``), go through ``cli.main``.  The exit
code must be 0, 2 or 3, no exception may escape, and every ``--json`` output
must be one strict JSON document.
"""

import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasschan import catalog
from grasschan.cli import main
from grasschan.tolerances import GAUSSIAN_ATOL

UNIT = st.floats(-1, 1)
NUMBERS = st.one_of(
    UNIT,
    st.floats(),  # NaN and the infinities included
    st.sampled_from([1e308, -1e308, 1.7e308, 1e200, 0.0, -0.0]),
    st.integers(-(10**400), 10**400),
    st.booleans(),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
SIGN = st.sampled_from([-1, 1])


@st.composite
def gaussian_margin_specs(draw):
    """An angle-form Gaussian channel pushed onto the edge of the canonical rule, relabelled."""
    theta, phi = draw(st.floats(0, math.pi / 2)), draw(st.floats(-math.pi, math.pi))
    q = draw(st.floats(0, 1))
    lam1, lam2 = math.cos(theta - phi), math.cos(theta + phi)
    t3 = (2 * q - 1) * (math.cos(2 * theta) - math.cos(2 * phi)) / 2
    if draw(st.booleans()):
        rel = draw(st.sampled_from([1 - 1e-6, 1 + 1e-6]))
        t, lam = [0.0, 0.0, t3], [lam1, lam2, lam1 * lam2 + draw(SIGN) * rel * GAUSSIAN_ATOL]
    else:
        t1 = draw(SIGN) * draw(st.floats(1, 2, exclude_min=True)) * GAUSSIAN_ATOL
        t, lam = [t1, 0.0, t3], [lam1, lam2, lam1 * lam2]
    perm = draw(st.sampled_from(list(itertools.permutations(range(3)))))
    return {"type": "canonical", "t": [t[i] for i in perm], "lambda": [lam[i] for i in perm]}


def triples(values):
    return st.lists(values, min_size=3, max_size=3) | st.lists(values, max_size=4)


CANONICAL = st.fixed_dictionaries({"type": st.just("canonical"), "t": triples(NUMBERS), "lambda": triples(NUMBERS)})
CANONICAL_UNIT = st.fixed_dictionaries({"type": st.just("canonical"), "t": triples(UNIT), "lambda": triples(UNIT)})
MATRIX = st.lists(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=2, max_size=2), min_size=2, max_size=2)
KRAUS = st.fixed_dictionaries({"type": st.just("kraus"), "matrices": st.lists(MATRIX | JSON_VALUES, max_size=3)})
NAMED = st.fixed_dictionaries(
    {
        "type": st.just("named"),
        "name": st.sampled_from(catalog.CHANNEL_NAMES + ("nope",)) | JSON_VALUES,
        "params": st.dictionaries(st.sampled_from(["s", "n", "x"]), NUMBERS | JSON_VALUES, max_size=3),
    }
)
SPECS = gaussian_margin_specs() | CANONICAL_UNIT | CANONICAL | KRAUS | NAMED | JSON_VALUES

MARGIN_SPEC = {
    "type": "canonical",
    "t": [0, 0, -0.040998812800916176],
    "lambda": [0.6961333826538778, -0.8027344603746971, -0.5588102551734733],
}
OVERFLOW_SPEC = {"type": "canonical", "t": [1e308, 1e308, 1e308], "lambda": [1e308, -1e308, 1e308]}


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("specs") / "spec.json"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports overflowing specs too
@settings(max_examples=100, deadline=None)
@given(spec=SPECS, as_json=st.booleans())
@example(spec=MARGIN_SPEC, as_json=True)
@example(spec=OVERFLOW_SPEC, as_json=True)
def test_analyze_exits_with_a_code_and_strict_json(spec_path, spec, as_json):
    spec_path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(spec_path)] + (["--json"] if as_json else []))
    assert code in (0, 2, 3), (code, spec)
    if as_json:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert ("error" in payload) == (code != 0)
