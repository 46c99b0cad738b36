"""grasschan benchmark: one closed-loop client driving the public API in one process and thread.

Usage (from the root of a grasschan checkout)::

    python3 bench/run.py --workload {verify,analyze,sweep} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
wraps the program's public functions (see tracing.py) and reports the
per-layer metrics.  End-to-end times are scaled to a reference host speed
measured next to every op (hostspeed.py); the raw times are kept in the
result file.  Metric names and units come from BENCHMARK.json.  Every
op's output is checked (see workloads.py); the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and a
stamped result file is written to bench/results/.  See bench/README.md for
the workload rationale and the run design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# setup_s is the median over this many set-ups: this process plus fresh children.
SETUPS = 11
# The tail is, within each input chunk, the highest percentile with this many
# latency samples beyond it.
TAIL_BEYOND = 10
# trace.overhead_fraction is the median over this many untraced/traced pairs.
OVERHEAD_PAIRS = 3
# Host speed reference: the time of hostspeed.reference() on an Intel Xeon
# 2-vCPU VM (Python 3.11, numpy 2.4) when the host leaves the core alone.
REF_NOMINAL_NS = 16_000
# setup_s is scaled by the reference timed this many times after the set-up.
SETUP_REFS = 200


def host_scale(n: int) -> float:
    """REF_NOMINAL_NS over the mean time of ``n`` reference calls."""
    from hostspeed import timed_reference

    return REF_NOMINAL_NS * n / sum(timed_reference() for _ in range(n))


def setup(workload: str, seed: int):
    """Import grasschan from the checkout, build the first input chunk and run one
    warm-up op on an input of its own; returns (workload, first chunk, seconds).

    numpy is imported before the clock starts.  Its import is most of a cold
    start and is shared-library loading that the host-speed scaling does not
    track, so timing it would make setup_s follow the file cache rather than
    the program.
    """
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "grasschan" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'grasschan'} not found; run from the root of a grasschan checkout")
    sys.path.insert(0, str(src))
    import grasschan
    import workloads

    if not Path(grasschan.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: grasschan imported from {grasschan.__file__}, not from {src}")
    wl = workloads.WORKLOADS[workload]()
    first = wl.chunk(seed, 0)
    warm_input, warm_items = wl.chunk(seed, workloads.WARMUP_CHUNK)
    ctx = wl.prepare(warm_input)
    wl.check(ctx, warm_items[0], wl.op(ctx, warm_items[0]))
    return wl, first, time.perf_counter() - t0


def child_setups(args, n: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def tail_percentile(wl) -> float:
    return 100 * (1 - TAIL_BEYOND / wl.chunk_size)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(math.ceil(p / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


class Run:
    """Outcome of one measurement loop.

    Each op's time is scaled by the host speed measured right after it
    (hostspeed.py).  Latency percentiles are taken within each complete input
    chunk (a fraction of a second to about a second of ops) and averaged over
    the chunks, so what scaling leaves of the host's speed drift is blended
    in proportion to its share of the run; a percentile pooled over the whole
    run would jump to whichever speed held the majority.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.scaled_busy_ns = 0.0
        self.prefix_busy_ns = 0
        self.digest = hashlib.sha256()
        self.tags = Counter()
        self.chunk_scale = []
        self.chunk_p50_ms = []
        self.chunk_tail_ms = []
        self.chunk_p50_ms_raw = []
        self.chunk_tail_ms_raw = []

    def add_chunk(self, raw_ms: list, scales: list, tail_p: float) -> None:
        """Record a complete chunk's latencies, raw and scaled op by op."""
        scaled = sorted(ms * f for ms, f in zip(raw_ms, scales))
        raw_ms.sort()
        self.chunk_scale.append(statistics.mean(scales))
        self.chunk_p50_ms.append(statistics.median(scaled))
        self.chunk_tail_ms.append(percentile(scaled, tail_p))
        self.chunk_p50_ms_raw.append(statistics.median(raw_ms))
        self.chunk_tail_ms_raw.append(percentile(raw_ms, tail_p))


def _report_failure(run: Run, what: str) -> None:
    run.failed += 1
    if run.failed <= 3:
        print(f"op {run.attempted} {what}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def measure(wl, seed, first, seconds, tracer=None, agg=None):
    """Run ops on the seed's input stream for ``seconds``, always finishing the
    count prefix; with a tracer, fold each op's spans into ``agg``.

    Returns (Run, prefix count snapshot or None, spans of the prefix ops).
    """
    from hostspeed import timed_reference

    clock = time.perf_counter_ns
    run = Run()
    tail_p = tail_percentile(wl)
    prefix, kept = None, []
    deadline = clock() + int(seconds * 1e9)
    k, chunk, done = 0, first, False
    while not done:
        if run.attempted >= wl.count_ops and clock() >= deadline:
            break
        ctx_input, items = chunk
        t0 = clock()
        if tracer:
            tracer.begin("bench.prepare", run.attempted)
        try:
            ctx = wl.prepare(ctx_input)
        except Exception:
            ctx = None
            print("prepare failed; the chunk's ops will fail:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        if tracer:
            tracer.end()
        carry_ns = clock() - t0
        latency_ms, scales = [], []
        for item in items:
            if run.attempted >= wl.count_ops and clock() >= deadline:
                done = True
                break
            t0 = clock()
            if tracer:
                tracer.begin("bench.op", run.attempted)
            try:
                out = wl.op(ctx, item)
            except Exception:
                out = None
                _report_failure(run, "raised")
            t1 = clock()
            if tracer:
                tracer.end()
            scale = REF_NOMINAL_NS / timed_reference()
            busy = t1 - t0 + carry_ns
            carry_ns = 0
            run.busy_ns += busy
            run.scaled_busy_ns += busy * scale
            latency_ms.append((t1 - t0) / 1e6)
            scales.append(scale)
            ok, dig, tags = False, b"", ()
            if out is not None:
                try:
                    ok, dig, tags = wl.check(ctx, item, out)
                except Exception:
                    _report_failure(run, "failed its check with an exception")
                else:
                    if not ok:
                        run.failed += 1
            in_prefix = run.attempted < wl.count_ops
            if in_prefix:
                run.prefix_busy_ns += busy
                run.digest.update(dig)
                run.tags.update(tags)
            if tracer:
                spans = tracer.take()
                agg.ops += 1
                agg.fold(spans)
                if in_prefix:
                    kept.append(spans)
            run.attempted += 1
            if tracer and run.attempted == wl.count_ops:
                prefix = agg.snapshot_counts()
        if not done:
            run.add_chunk(latency_ms, scales, tail_p)
        k += 1
        chunk = wl.chunk(seed, k)
    return run, prefix, kept


def end_to_end(run: Run, wl, setups: list) -> tuple:
    """Metrics at the reference host speed, with the raw measurements as detail."""
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["scale"] for s in setups),
        "ops_per_s": run.attempted / (run.scaled_busy_ns / 1e9),
        "op_ms_p50": statistics.mean(run.chunk_p50_ms),
        "op_ms_tail": statistics.mean(run.chunk_tail_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "failed_fraction": run.failed / run.attempted,
        "tail_percentile": tail_percentile(wl),
        "chunk_ops": wl.chunk_size,
        "latency_chunks": len(run.chunk_p50_ms),
        "raw": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": run.attempted / (run.busy_ns / 1e9),
            "op_ms_p50": statistics.mean(run.chunk_p50_ms_raw),
            "op_ms_tail": statistics.mean(run.chunk_tail_ms_raw),
        },
        "host_scale_mean": statistics.mean(run.chunk_scale),
        "chunk_host_scale": run.chunk_scale,
        "chunk_p50_ms_raw": run.chunk_p50_ms_raw,
        "setup_samples": setups,
        "busy_s": run.busy_ns / 1e9,
    }
    return metrics, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "analyze", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, first, setup_s = setup(args.workload, args.seed)
    own_setup = {"setup_s": setup_s, "scale": host_scale(SETUP_REFS)}
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "count_prefix_ops": wl.count_ops}
    if args.trace:
        import tracing
        import workloads

        tracer = tracing.Tracer()

        def traced(seconds, agg):
            tracer.install()
            try:
                return measure(wl, args.seed, first, seconds, tracer, agg)
            finally:
                tracer.uninstall()

        # Overhead: adjacent untraced and traced passes over the count prefix,
        # so that both sides of each pair see the same host speed.
        ratios = []
        for _ in range(OVERHEAD_PAIRS):
            base, _, _ = measure(wl, args.seed, first, 0)
            ratios.append(traced(0, tracing.Aggregate())[0].prefix_busy_ns / base.prefix_busy_ns)
        agg = tracing.Aggregate()
        run, prefix, kept = traced(args.seconds, agg)
        identical = base.digest.hexdigest() == run.digest.hexdigest()
        values = tracing.layer_metrics(
            agg, prefix, run.tags, workloads.ANALYZE_MIX, statistics.median(ratios) - 1,
            identical, len(tracer.missing))
        declared = spec["per_layer"]
        correct = run.failed == 0 and base.failed == 0 and identical
        result["missing_targets"] = tracer.missing
        result["overhead_ratios"] = ratios
        result["exact_counts"] = {"spans": dict(prefix.count),
                                  "tags": dict(run.tags)}
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setups = [own_setup] + child_setups(args, SETUPS - 1)
        run, _, _ = measure(wl, args.seed, first, args.seconds)
        values, detail = end_to_end(run, wl, setups)
        result.update(detail)
        result["exact_counts"] = {"tags": dict(run.tags)}
        declared = spec["end_to_end"]
        correct = run.failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    result.update(stamp=stamp(), attempted=run.attempted, failed=run.failed,
                  outputs_digest=run.digest.hexdigest(), metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        spans_path.write_text(json.dumps(
            [{"op": op[0][4], "spans": [s[:4] for s in op]} for op in kept]) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_fraction':45s} {result['failed_fraction']:>16.6g} ratio")
        for name, value in result["raw"].items():
            print(f"{name + ' (raw, unscaled)':45s} {value:>16.6g}")
        print(f"times are scaled to the reference host speed; mean scale "
              f"{result['host_scale_mean']:.4g}")
        print(f"op_ms_p50 and op_ms_tail (p{result['tail_percentile']:g}, {TAIL_BEYOND} samples "
              f"beyond) are averaged over {result['latency_chunks']} chunks of {wl.chunk_size} ops")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
