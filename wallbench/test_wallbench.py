# module: benchmarks.wallbench.test_wallbench
"""Smoke tests of the wall-clock benchmark on a tiny agora.

Run with ``python3 -m pytest wallbench``.  Each workload runs end to end
at ``--scale tiny`` in both tracing modes; the tests check the result
line's shape, that every named metric is emitted with its unit, and that
two runs of one seed agree on answers and program counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_tiny(workload: str, seed: int, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One tiny run; returns (provenance, result line)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    provenance = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")
    )
    return provenance, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def twin_runs(request: pytest.FixtureRequest) -> Dict[str, Any]:
    workload = request.param
    return {
        "untraced": [run_tiny(workload, seed=3, trace=0) for __ in range(2)],
        "traced": run_tiny(workload, seed=3, trace=1),
    }


def test_benchmark_json_matches_the_runner() -> None:
    import run

    assert set(WORKLOADS) == {"topic-static", "similarity-search", "live-churn"}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_every_metric_is_emitted_with_its_unit(twin_runs: Dict[str, Any]) -> None:
    for (__, result), expected in (
        (twin_runs["untraced"][0], BENCHMARK["end_to_end"]),
        (twin_runs["traced"], BENCHMARK["per_layer"]),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in expected
        }


def test_same_seed_runs_agree(twin_runs: Dict[str, Any]) -> None:
    (first, first_result), (second, second_result) = twin_runs["untraced"]
    traced, traced_result = twin_runs["traced"]
    for key in ("answer_digest", "manifest_digest", "config_digest"):
        assert first[key] == second[key] == traced[key]
    for name in ("utility_mean", "completeness_mean"):
        assert (first_result["metrics"][name]["value"]
                == second_result["metrics"][name]["value"])


def test_counts_repeat_exactly() -> None:
    counts = []
    for __ in range(2):
        __, result = run_tiny("live-churn", seed=5, trace=1)
        counts.append({
            name: metric["value"] for name, metric in result["metrics"].items()
            if not name.endswith(("_ms", "_ms_per_ask")) and name != "trace.overhead_frac"
        })
    assert counts[0] == counts[1]
    assert counts[0]["count.matching.prune.candidates_total"] > 0


def test_answer_digest_is_per_workload() -> None:
    # The digest covers the reference prefix, which no seed changes.
    first, __ = run_tiny("topic-static", seed=1, trace=0)
    second, __ = run_tiny("topic-static", seed=2, trace=0)
    assert first["answer_digest"] == second["answer_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_draws_the_queries_after_the_reference_prefix(workload: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import agora_workloads

    scale = agora_workloads.TINY

    def queries(seed: int) -> List[str]:
        session = agora_workloads.Session(agora_workloads.WORKLOADS[workload], seed, scale)
        drawn = [session.next_turn()[1] for __ in range(scale.quality + 3)]
        return [repr((q.terms, q.intent_latent.tolist())) for q in drawn]

    first, second = queries(1), queries(2)
    assert first[:scale.quality] == second[:scale.quality]
    assert first[scale.quality:] != second[scale.quality:]


def test_fails_without_library_sources(tmp_path: Path) -> None:
    # A checkout holding only BENCHMARK.json and the benchmark's files.
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "wallbench"
    bench.mkdir()
    for name in ("run.py", "agora_workloads.py", "layer_trace.py"):
        (bench / name).write_text((HERE / name).read_text())
    completed = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "topic-static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
