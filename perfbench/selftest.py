"""Self-test of the benchmark at a tiny size.

Runs every workload's shape on s27 (``run.py --tiny``): once in check mode
with tracing off and once traced.  It asserts that each run prints the
result line with exactly the metrics ``BENCHMARK.json`` names, each with
its unit, that every output check ran and passed, and that the benchmark
refuses to run in a directory without the program.  Run from the root of a
checkout; takes about a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

#: Checks every tiny check-mode run must report, and those of some workloads.
CHECKS = {"row_sums", "reference_verified", "prefix_reference_graded"}
EXTRA_CHECKS = {
    "table3_small": {"eco_row_sums", "eco_matches_scratch"},
    "s838_hybrid_jobs2": {"sharded_matches_serial"},
}


def _run(*args: str, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def _result(completed: subprocess.CompletedProcess, label: str) -> dict:
    assert completed.returncode == 0, f"{label}: exit {completed.returncode}\n{completed.stderr}"
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    return result


def _assert_metrics(result: dict, expected: list, label: str) -> None:
    units = {metric["name"]: metric["unit"] for metric in expected}
    printed = result["metrics"]
    assert set(printed) == set(units), f"{label}: {sorted(set(printed) ^ set(units))}"
    for name, metric in printed.items():
        assert metric["unit"] == units[name], f"{label}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    for workload in benchmark["workloads"]:
        name = workload["name"]
        checked = _run("--workload", name, "--tiny", "--check")
        _assert_metrics(_result(checked, name), benchmark["end_to_end"], name)
        check_lines = [line for line in checked.stdout.splitlines() if line.startswith("checks ")]
        expected = CHECKS | EXTRA_CHECKS.get(name, set())
        assert check_lines and all(line.endswith("all passed") for line in check_lines), name
        assert all(f"'{check}'" in check_lines[0] for check in expected), check_lines[0]

        traced = _result(_run("--workload", name, "--tiny", "--trace", "1", "--seconds", "1"),
                         f"{name} traced")
        _assert_metrics(traced, benchmark["per_layer"], f"{name} traced")
        print(f"{name}: ok")

    os.makedirs(".perfbench_tmp", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".perfbench_tmp")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table3_small"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert completed.returncode != 0 and not completed.stdout.strip(), completed.stdout
    print("refuses to run without the program: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
