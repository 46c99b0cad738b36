"""Compare two benchmark result files of the same workload and seed.

    python3 bench/compare.py bench/results/A.json bench/results/B.json

Reports whether the outputs digest of the count prefix matches (a traced and
an untraced run must agree), whether the exact counts repeat (span counts are
present only in traced runs), whether the record metrics (outcomes and input
mix, which have no better direction) are equal, and each metric side by side.
Exits 1 when a digest, a shared count or a shared record differs.
"""

from __future__ import annotations

import json
import sys

# Per-layer metrics that record outcomes and the input mix; equal or wrong.
RECORDS = ("degradability.certified_ratio", "degradability.verdicts",
           "degradability.verdict_", "qubit.sampler_channels",
           "analyze.share_", "analyze.path_")


def main(argv) -> int:
    a, b = (json.load(open(p, encoding="utf-8")) for p in argv[1:3])
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("warning: different workload or seed; digests and counts are not expected to match")
    same_digest = a["outputs_digest"] == b["outputs_digest"]
    print(f"outputs digest of the first {a['count_prefix_ops']} ops: "
          f"{'identical' if same_digest else 'DIFFERENT'}")
    ok = same_digest
    for group in sorted(set(a["exact_counts"]) & set(b["exact_counts"])):
        same = a["exact_counts"][group] == b["exact_counts"][group]
        ok = ok and same
        print(f"exact counts ({group}): {'identical' if same else 'DIFFERENT'}")
    records = [n for n in sorted(set(a["metrics"]) & set(b["metrics"])) if n.startswith(RECORDS)]
    if records:
        same = all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in records)
        ok = ok and same
        print(f"records ({len(records)} metrics): {'identical' if same else 'DIFFERENT'}")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        print(f"  {name:45s} {va!s:>24} {vb!s:>24}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
