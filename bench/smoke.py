"""Smoke test of the benchmark itself, at toy sizes (about half a minute).

    python3 bench/smoke.py

Checks the self-time arithmetic on a synthetic span tree, runs every
workload at toy size with and without tracing, asserts that each run
reports exactly the metrics BENCHMARK.json declares, that traced counts
repeat exactly, and that bench/metric_map.json matches the workloads.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_self_time() -> None:
    # iteration 0: root [0, 10] with children a [1, 4] and b [3, 6], which
    # overlap on [3, 4]; a has a child g [2, 3].  Iteration 1: root alone.
    tree = [spans.Span("root", 0.0, 10.0, -1, 0, 0),
            spans.Span("a", 1.0, 4.0, 0, 0, 5),
            spans.Span("g", 2.0, 3.0, 1, 0, 0),
            spans.Span("b", 3.0, 6.0, 0, 0, 0),
            spans.Span("root", 20.0, 22.0, -1, 1, 0)]
    totals = spans.per_iteration_totals(tree)
    assert totals[0]["root"]["self_s"] == 5.0  # 10 minus the union [1, 6]
    assert totals[0]["a"]["self_s"] == 2.0  # grandchildren count once
    assert totals[0]["b"]["self_s"] == 3.0
    assert totals[0]["g"]["self_s"] == 1.0
    assert totals[0]["a"]["amount"] == 5
    assert totals[1]["root"] == {"calls": 1, "s": 2.0, "self_s": 2.0,
                                 "amount": 0.0}
    assert spans.median_over_iterations(totals, "root", "s") == 6.0
    assert spans.median_over_iterations(totals, "a", "calls") == 0.5

    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(s.name, s.parent) for s in tracer]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)], names
    row = spans.per_iteration_totals(tracer)[-1]
    assert row["outer"]["calls"] == 1 and row["inner"]["calls"] == 2
    assert 0.0 <= row["outer"]["self_s"] <= row["outer"]["s"]


def run(name: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "5", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_runs(declared: dict) -> None:
    for name in workloads.NAMES:
        counts = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            report, result = run(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in declared[kind]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units
            for metric, unit in units.items():
                pattern = rf"{re.escape(metric)} = \S+ {re.escape(unit)}"
                assert any(re.fullmatch(pattern, line) for line in report), metric
            assert any(line.startswith("environment {") for line in report)
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
        assert counts[0] == counts[1], (name, counts)
        print(f"ok {name}")


def check_metric_map(declared: dict) -> None:
    doc = json.loads((HERE / "metric_map.json").read_text())
    assert set(doc["per_layer"]) == {m["name"] for m in declared["per_layer"]}
    assert set(doc["end_to_end"]) == {m["name"] for m in declared["end_to_end"]}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    for name in workloads.NAMES:
        built = workloads.build(name, 0, Path("{dir}"))
        for part, calls in (("setup", built.setup), ("iteration", built.calls)):
            text = json.dumps([list(c.argv) for c in calls])
            for label, seed in built.cli_seeds.items():
                text = text.replace(f'"{seed}"', f'"{{seed:{label}}}"')
            assert json.loads(text) == doc["workloads"][name][part], (name, part)
    for name, entry in doc["per_layer"].items():
        for workload in entry.get("on", []) + entry.get("no_change_on", []):
            assert workload in workloads.NAMES, (name, workload)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_self_time()
    print("ok self time")
    check_metric_map(declared)
    print("ok metric map")
    check_runs(declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
