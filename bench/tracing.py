"""Out-of-program tracing for the benchmark's traced run.

Nothing in ``src/`` changes: ``Tracer.install`` replaces public ``grasschan``
callables at the names their callers look up with span-recording wrappers, and
``Tracer.uninstall`` puts the originals back.  A module-level function is
rebound in every ``grasschan`` module that imported it (``from .green import
green_from_channel`` makes ``grasschan.catalog.green_from_channel`` a name of
its own); methods, classmethods and cached properties are replaced on their
class.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans are only
recorded inside an op (the benchmark's own checks run untraced).  After each
op its spans are folded into running aggregates; the spans of the fixed count
prefix are kept in memory and written out at the end.  A span's self time is
its duration minus the durations of its children (one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# "module:attribute path"; the span is named "module.attribute path" (see PRODUCTS).
TARGETS = (
    "grassmann:GrassmannElement.__mul__",
    "grassmann:OperatorElement.__mul__",
    "grassmann:substitute",
    "grassmann:integrate_pair",
    "grassmann:delta_pair",
    "charfunc:char_function",
    "charfunc:state_from_char",
    "green:green_from_channel",
    "green:green_from_canonical",
    "green:apply_green",
    "green:detect_gaussian",
    "green:angles_from_gaussian",
    "green:gaussian_equivalent",
    "qubit:random_cptp_canonical_channel",
    "qubit:random_state",
    "qubit:apply_channel",
    "qubit:ptm_from_kraus",
    "qubit:canonical_from_ptm",
    "qubit:is_cptp",
    "qubit:compose",
    "qubit:QubitChannel.from_canonical",
    "qubit:QubitChannel.from_kraus",
    "qubit:QubitChannel.cptp_report",
    "degradability:dilation_from_angles",
    "degradability:Dilation.channel",
    "degradability:weakly_complementary",
    "degradability:certify",
    "degradability:classify_by_angles",
    "degradability:_solve_degrading",
    "catalog:analyze_channel",
    "catalog:_degradability_block",
    "catalog:build",
    "io:channel_from_json",
    "verify:run_verification",
    "verify:_calibration_suite",
    "verify:_oracle_suite",
)
# Operators traced as products, under these span names: only a product of two
# elements of the same type is a span; scaling by a scalar is not a product.
PRODUCTS = {
    "grassmann.GrassmannElement.__mul__": "grassmann.product",
    "grassmann.OperatorElement.__mul__": "grassmann.operator_product",
}

SAMPLER = "qubit.random_cptp_canonical_channel"
KERNEL_BUILDERS = ("green.green_from_channel", "green.green_from_canonical")
CERTIFY = "degradability.certify"
# Spans whose per-call durations are kept for a median.
TIMED = {
    "charfunc.char_function",
    "charfunc.state_from_char",
    "green.green_from_channel",
    "green.apply_green",
    "green.detect_gaussian",
    "green.angles_from_gaussian",
    "green.gaussian_equivalent",
    "qubit.apply_channel",
    "degradability.dilation_from_angles",
    "degradability.weakly_complementary",
    "degradability.certify",
    "io.channel_from_json",
}


def _same_type(args) -> bool:
    return type(args[0]) is type(args[1])


class Aggregate:
    """Counts and times per span name, plus counts per (parent name, name) pair."""

    def __init__(self):
        self.ops = 0
        self.count = Counter()
        self.pairs = Counter()
        self.dur_ns = Counter()
        self.self_ns = Counter()
        self.durations = {name: [] for name in TIMED}

    def fold(self, spans):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self.count[name] += 1
            self.pairs[(spans[parent][0] if parent is not None else None, name)] += 1
            self.dur_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            if name in self.durations:
                self.durations[name].append(dur)

    def snapshot_counts(self) -> "Aggregate":
        snap = Aggregate()
        snap.ops = self.ops
        snap.count = Counter(self.count)
        snap.pairs = Counter(self.pairs)
        return snap


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = -1
        self._patches = []
        self.missing = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, op_id: int) -> None:
        self._op_id = op_id
        span = [name, 0, 0, self._stack[-1] if self._stack else None, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def take(self) -> list:
        """Return and clear the spans recorded since the last call."""
        spans = self.spans[:]
        del self.spans[:]
        return spans

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        only_same_type = name in PRODUCTS.values()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or (only_same_type and not _same_type(args)):
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1], self._op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        self.missing = []
        package = [m for n, m in sys.modules.items() if n == "grasschan" or n.startswith("grasschan.")]
        for target in TARGETS:
            module_name, path = target.split(":")
            name = f"{module_name}.{path}"
            name = PRODUCTS.get(name, name)
            owner = sys.modules.get("grasschan." + module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(target)
            elif not owner_path:
                wrapper = self._wrap(name, raw)
                for module in package:
                    for alias in [k for k, v in vars(module).items() if v is raw]:
                        self._set(module, alias, wrapper)
            elif isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, raw.func))
                prop.__set_name__(owner, attr)
                self._set(owner, attr, prop)
            else:
                self._set(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)


def layer_metrics(agg: Aggregate, prefix: Aggregate, tags: Counter, kinds, overhead: float,
                  identical: bool, missing: int) -> dict:
    """Per-layer metric values by name.

    Counts come from the fixed count prefix (``prefix``, ``tags``) and repeat
    exactly for a seed; times come from every traced op (``agg``).  A layer
    that never runs on the workload reads 0.
    """
    n, n_all = max(prefix.ops, 1), max(agg.ops, 1)

    def per_op(count):
        return count / n

    def p50_us(name):
        d = agg.durations[name]
        return statistics.median(d) / 1e3 if d else 0.0

    def self_ms(module):
        return sum(v for k, v in agg.self_ns.items() if k.split(".")[0] == module) / n_all / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    c, pairs = prefix.count, prefix.pairs
    attempts = pairs[(SAMPLER, "qubit.QubitChannel.from_canonical")]
    builds = sum(v for (parent, name), v in pairs.items()
                 if name in KERNEL_BUILDERS and parent not in KERNEL_BUILDERS)
    verdicts = {k: tags["verdict." + k] for k in ("weakly_degradable", "anti_degradable", "neither_certified")}
    n_verdicts = sum(verdicts.values())
    out = {
        "grassmann.products_per_op": per_op(c["grassmann.product"]),
        "grassmann.substitute_calls_per_op": per_op(c["grassmann.substitute"]),
        "charfunc.char_function_us_p50": p50_us("charfunc.char_function"),
        "charfunc.state_from_char_us_p50": p50_us("charfunc.state_from_char"),
        "charfunc.calls_per_op": per_op(c["charfunc.char_function"] + c["charfunc.state_from_char"]),
        "green.green_from_channel_us_p50": p50_us("green.green_from_channel"),
        "green.kernel_builds_per_op": per_op(builds),
        "green.apply_green_us_p50": p50_us("green.apply_green"),
        "green.detect_gaussian_us_p50": p50_us("green.detect_gaussian"),
        "green.angles_from_gaussian_us_p50": p50_us("green.angles_from_gaussian"),
        "green.gaussian_equivalent_us_p50": p50_us("green.gaussian_equivalent"),
        "qubit.sampler_channels": c[SAMPLER],
        "qubit.sampler_attempts": attempts,
        "qubit.sampler_attempts_per_channel": ratio(attempts, c[SAMPLER]),
        "qubit.sampler_accept_ratio": ratio(c[SAMPLER], attempts),
        "qubit.sampler_self_ms_per_op": agg.dur_ns[SAMPLER] / n_all / 1e6,
        "qubit.cptp_checks_per_op": per_op(c["qubit.QubitChannel.cptp_report"]),
        "qubit.ptm_from_kraus_calls_per_op": per_op(c["qubit.ptm_from_kraus"]),
        "qubit.apply_channel_us_p50": p50_us("qubit.apply_channel"),
        "degradability.dilation_us_p50": p50_us("degradability.dilation_from_angles"),
        "degradability.weakly_complementary_us_p50": p50_us("degradability.weakly_complementary"),
        "degradability.certify_us_p50": p50_us(CERTIFY),
        "degradability.certify_calls": c[CERTIFY],
        "degradability.solves_per_certify": ratio(pairs[(CERTIFY, "degradability._solve_degrading")], c[CERTIFY]),
        "degradability.verdicts": n_verdicts,
        "degradability.certified_ratio": ratio(verdicts["weakly_degradable"] + verdicts["anti_degradable"], n_verdicts),
        "catalog.analyze_channel_self_ms": self_ms("catalog"),
        "io.channel_from_json_us_p50": p50_us("io.channel_from_json"),
        "verify.run_verification_self_ms": self_ms("verify"),
        "harness.self_ms_per_op": self_ms("bench"),
        "trace.overhead_fraction": overhead,
        "trace.outputs_identical": 1.0 if identical else 0.0,
        "trace.spans_per_op": per_op(sum(c.values())),
        "trace.missing_targets": missing,
    }
    for kind, count in verdicts.items():
        out["degradability.verdict_" + kind] = count
    for module in ("grassmann", "qubit", "charfunc", "green", "degradability", "io"):
        out[module + ".self_ms_per_op"] = self_ms(module)
    for kind in kinds:
        out["analyze.share_" + kind] = per_op(tags["kind." + kind])
    for path in ("gaussian", "equivalent", "short"):
        out["analyze.path_" + path] = per_op(tags["path." + path])
    return out
