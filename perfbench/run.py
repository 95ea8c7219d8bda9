"""The repository's benchmark: campaign wall time on four ATPG workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table3_small --seed 1 --seconds 32 --trace 0

Each measurement runs in a fresh interpreter (``measure.py``) on the default
backend, with tracing off, and checks its outputs.  Measurements repeat
until ``--seconds`` is spent; the last line of standard output is one JSON
object with the medians of the end-to-end metrics (``--trace 0``) or the
per-layer metrics of one traced measurement (``--trace 1``).  The lines
before it give the provenance, the Table 3 rows and their fingerprints.

``--seed`` names the run; the inputs of a workload are pinned by its
surrogate and campaign seeds (``--surrogate-seed``/``--campaign-seed``
override them), so runs with different ``--seed`` values measure the same
campaigns and their figures can be compared.  ``--check`` runs one
measurement with every output check, including the ECO-versus-scratch and
sharded-versus-serial equivalences; ``--tiny`` runs the workload's shape on
s27 (see ``selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOAD_NAMES = ("table3_small", "s838_search", "s838_hybrid_jobs2", "s5378_scale")
PAPER_S27 = (39, 11, 2)
MEASURE_TIMEOUT_S = 170
HASH_SEED = "0"
#: Extra set-up-only runs per timed run; ``setup_s`` is the median over them
#: and the full measurements.  Their time is reserved from ``--seconds``.
SETUP_SAMPLES = 4
SETUP_RESERVE_S = 2.5


END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "fault_coverage_pct": "%",
    "abort_share": "ratio",
    "test_length": "count",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio") or name.endswith("skew"):
        return "ratio"
    return "count"


def _source_digest() -> str:
    """A digest of the program's sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _provenance(seed: int, backend: Optional[str]) -> Dict[str, object]:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "source_digest": _source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
        "seed": seed,
    }


def _measure(args, scratch_root: str, trace: bool = False, verify: bool = False,
             check: bool = False, setup_only: bool = False) -> Optional[dict]:
    """Run one measurement in a fresh interpreter; ``None`` when it failed."""
    scratch = tempfile.mkdtemp(dir=scratch_root)
    command = [
        sys.executable,
        os.path.join(HERE, "measure.py"),
        "--workload", args.workload,
        "--scratch-dir", scratch,
    ]
    for flag, seed in (("--surrogate-seed", args.surrogate_seed), ("--campaign-seed", args.campaign_seed)):
        if seed is not None:
            command += [flag, str(seed)]
    command += [flag for flag, on in (("--trace", trace), ("--verify", verify),
                                      ("--check", check), ("--tiny", args.tiny),
                                      ("--setup-only", setup_only)) if on]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    # Campaign verdicts depend on set iteration order, hence on the string
    # hash seed: pin it so every measurement computes the same campaigns.
    env["PYTHONHASHSEED"] = HASH_SEED
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=MEASURE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"measurement timed out after {MEASURE_TIMEOUT_S}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if completed.returncode != 0:
        print(completed.stderr[-4000:], file=sys.stderr)
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _measure_until(args, scratch_root: str, budget_s: float) -> List[Optional[dict]]:
    """Untraced measurements until the next one would overrun ``budget_s``."""
    started = time.perf_counter()
    reports: List[Optional[dict]] = []
    while True:
        begun = time.perf_counter()
        reports.append(_measure(args, scratch_root, verify=not reports, check=args.check))
        elapsed = time.perf_counter() - started
        if reports[-1] is None or args.check:
            return reports
        if elapsed + (time.perf_counter() - begun) > budget_s:
            return reports


def _rows(report: dict) -> List[tuple]:
    """The Table 3 counts of a measurement, without the fingerprints."""
    return [tuple(v for k, v in sorted(row.items()) if k != "fingerprint") for row in report["campaigns"]]


def _is_correct(report: Optional[dict], first: dict) -> bool:
    """All checks passed and the Table 3 rows repeat those of the first measurement."""
    return report is not None and all(report["checks"].values()) and _rows(report) == _rows(first)


def _end_to_end(reports: List[dict], setups: List[float]) -> Dict[str, float]:
    rows = reports[0]["campaigns"]
    targeted = sum(row["targeted"] for row in rows)
    return {
        "setup_s": statistics.median([r["setup_s"] for r in reports] + setups),
        "campaign_s": statistics.median(r["campaign_s"] for r in reports),
        "fault_coverage_pct": 100.0 * sum(row["tested"] for row in rows)
        / sum(row["total"] for row in rows),
        "abort_share": sum(row["aborted_targets"] for row in rows) / targeted if targeted else 0.0,
        "test_length": sum(row["patterns"] for row in rows),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def _print_details(args, reports: List[dict]) -> None:
    first = reports[0]
    print("provenance " + json.dumps(_provenance(args.seed, first["backend"]), sort_keys=True))
    print(f"workload {args.workload}: {len(reports)} measurement(s), surrogate seed "
          f"{first['surrogate_seed']}, campaign seed {first['campaign_seed']}")
    print(f"{'circuit':>10} {'tested':>7} {'untstbl':>8} {'aborted':>8} {'#pat':>5}  fingerprint")
    for row in first["campaigns"]:
        label = "" if row["circuit"] == "s27" else "  (surrogate, unvalidated)"
        print(f"{row['circuit']:>10} {row['tested']:>7} {row['untestable']:>8} "
              f"{row['aborted']:>8} {row['patterns']:>5}  {row['fingerprint']}{label}")
        if row["circuit"] == "s27" and not args.tiny:
            measured = (row["tested"], row["untestable"], row["aborted"])
            error = tuple(m - p for m, p in zip(measured, PAPER_S27))
            print(f"{'paper s27':>10} {PAPER_S27[0]:>7} {PAPER_S27[1]:>8} {PAPER_S27[2]:>8}"
                  f"        error vs paper (tested, untestable, aborted): {error}")
    if "eco_rerun_s" in first:
        print(f"eco re-run fingerprint {first['eco_fingerprint']}, eco_rerun_s median "
              f"{statistics.median(r['eco_rerun_s'] for r in reports):.4f} over "
              f"{[round(r['eco_rerun_s'], 4) for r in reports]}")
    digests = {(tuple(row["fingerprint"] for row in r["campaigns"]), r.get("eco_fingerprint"))
               for r in reports}
    if len(digests) > 1:
        # Equal Table 3 rows with different fingerprints: per-fault details
        # (such as the phase an aborted search gave up in) changed between runs.
        print(f"WARNING: fingerprints differ between measurements: {sorted(digests)}")
    for key in ("setup_s", "campaign_s"):
        print(f"{key} per measurement: {[round(r[key], 4) for r in reports]}")
    for report in reports:
        failed = sorted(name for name, ok in report["checks"].items() if not ok)
        print(f"checks {sorted(report['checks'])}: {'all passed' if not failed else 'FAILED ' + str(failed)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Campaign wall-time benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--surrogate-seed", type=int, default=None)
    parser.add_argument("--campaign-seed", type=int, default=None)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout: src/repro not found", file=sys.stderr)
        return 2

    os.makedirs(".perfbench_tmp", exist_ok=True)
    scratch_root = tempfile.mkdtemp(prefix="run-", dir=os.path.abspath(".perfbench_tmp"))
    try:
        if args.trace:
            untraced = _measure_until(args, scratch_root, args.seconds / 2)
            traced = _measure(args, scratch_root, trace=True, verify=False, check=False)
            reports = untraced + [traced]
        else:
            reports = _measure_until(args, scratch_root, args.seconds - SETUP_RESERVE_S)
            setups = [_measure(args, scratch_root, setup_only=True) for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass  # another run still uses it

    good = [report for report in reports if report is not None]
    if not good:
        print("error: no measurement completed", file=sys.stderr)
        return 1
    correct = all(_is_correct(report, good[0]) for report in reports)
    _print_details(args, good)
    if args.trace:
        untraced_s = [r["campaign_s"] for r in reports[:-1] if r is not None]
        if reports[-1] is None or not untraced_s:
            print("error: the traced or every untraced measurement failed", file=sys.stderr)
            return 1
        layers = dict(reports[-1]["layers"])
        untraced_s = statistics.median(untraced_s)
        layers["obs.overhead_ratio"] = layers["obs.campaign_s"] / untraced_s
        metrics = layers
    else:
        if None in setups:
            correct = False
        metrics = _end_to_end(good, [sample["setup_s"] for sample in setups if sample])
    print(json.dumps({
        "correct": correct,
        "attempted": len(reports),
        "failed": len(reports) - sum(1 for r in reports if _is_correct(r, good[0])),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
