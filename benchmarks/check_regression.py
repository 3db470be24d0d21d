"""Compare a pytest-benchmark JSON export against a committed baseline.

Usage::

    python benchmarks/check_regression.py BENCH_micro.json \
        benchmarks/baselines/BENCH_micro.json

Each benchmark's current/baseline mean ratio is divided by the ratio of
the reference kernel (``test_micro_reference_kernel``, seeded work that
runs no repo code), so a uniformly slower or faster host cancels out and
the gate compares code, not machines.  Fails (exit 1) if any normalised
ratio exceeds ``BENCH_REGRESSION_FACTOR`` (default 2.0); exits 2 if the
reference is missing from either export.  Other benchmarks present on
only one side are reported but never fail the check, so adding or
retiring a benchmark doesn't require regenerating the baseline in the
same commit.  pytest-benchmark's own ``--benchmark-compare`` keys storage
by machine id, which breaks across CI runners — this comparator only
looks at names and means.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

#: benchmark whose ratio measures the host, not the code
REFERENCE = "test_micro_reference_kernel"


def load_means(path: str) -> Dict[str, float]:
    """Map benchmark name -> mean seconds from a pytest-benchmark export."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        bench["name"]: float(bench["stats"]["mean"])
        for bench in data.get("benchmarks", [])
    }


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    current = load_means(argv[1])
    baseline = load_means(argv[2])
    factor = float(os.environ.get("BENCH_REGRESSION_FACTOR", "2.0"))
    for side, means in (("current", current), ("baseline", baseline)):
        if not means.get(REFERENCE, 0.0) > 0:
            print(f"reference benchmark {REFERENCE} missing from the {side} export")
            return 2
    host = current[REFERENCE] / baseline[REFERENCE]
    print(f"host speed: reference kernel at {host:.2f}x its baseline time")
    failures = []
    for name in sorted(set(current) - {REFERENCE}):
        mean = current[name]
        base = baseline.get(name)
        if base is None:
            print(f"NEW      {name}: {mean * 1e3:.3f} ms (no baseline)")
            continue
        ratio = mean / base / host if base > 0 else float("inf")
        status = "FAIL" if ratio > factor else "ok"
        print(
            f"{status:<8} {name}: {mean * 1e3:.3f} ms "
            f"vs baseline {base * 1e3:.3f} ms ({ratio:.2f}x normalised)"
        )
        if ratio > factor:
            failures.append(name)
    for name in sorted(set(baseline) - set(current)):
        print(f"MISSING  {name}: present in baseline only")
    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed beyond {factor:.1f}x: "
            + ", ".join(failures)
        )
        return 1
    print(f"\nAll benchmarks within {factor:.1f}x of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
