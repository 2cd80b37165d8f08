"""Smoke tests for the benchmark command.

    PYTHONPATH=src python3 -m pytest bench

They run every declared workload at a tiny size, traced and untraced, and check that
each run prints every metric BENCHMARK.json names, with its unit.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170


def _run(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def test_smoke_prints_every_metric_for_every_workload():
    proc = _run([str(BENCH / "run.py"), "--smoke", "--seed", "3"], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()

    results = {}
    for line in lines:
        if line.startswith("result "):
            _, workload, _, trace, payload = line.split(" ", 4)
            results[workload, int(trace)] = json.loads(payload)
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(results) == {(name, trace) for name in names for trace in (0, 1)}

    for (workload, trace), result in results.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert result["attempted"] >= 1
        assert result["failed"] == 0, (workload, trace, proc.stdout[-3000:])

    digests = [json.loads(line[len("results "):])["sha256"]
               for line in lines if line.startswith("results ")]
    assert len(digests) == 2 * len(names)
    assert all(any(name.endswith(".f64") for name in d) for d in digests)

    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] == sum(r["attempted"] for r in results.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = _run([*SPEC["command"][1:], "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
