"""Configuration knobs shared by all benchmarks.

The campaigns are expensive — the paper ran for minutes per circuit on a Sun
SPARC 10 and a pure-Python reimplementation pays a large constant factor — so
the harness is parameterised through environment variables:

``REPRO_BENCH_SCALE``
    Size scale of the surrogate circuits (default ``0.15``); ``1.0``
    reproduces the published circuit sizes.
``REPRO_BENCH_MAX_FAULTS``
    Cap on the number of faults explicitly targeted per circuit (default
    ``25``); ``0`` removes the cap.
``REPRO_BENCH_CIRCUITS``
    Comma-separated circuit list (default: all twelve Table 3 circuits).

The default configuration finishes in a few minutes and preserves the
qualitative shape of every experiment.  The campaign wall-time benchmark
declared in ``BENCHMARK.json`` records the Table 3 rows of its workloads.

Every CI-gated benchmark additionally records its measured wall clock and
speedups machine-readably: :func:`write_bench_results` writes
``BENCH_<name>.json`` at the repository root, so the perf trajectory is
tracked in-repo across PRs instead of living only in CI logs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.data import list_circuits  # noqa: E402  (path setup must come first)


def bench_scale() -> float:
    """Surrogate circuit scale factor."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))


def bench_max_faults() -> Optional[int]:
    """Cap on explicitly targeted faults per circuit (``None`` = unlimited)."""
    value = int(os.environ.get("REPRO_BENCH_MAX_FAULTS", "25"))
    return value if value > 0 else None


def bench_circuits() -> List[str]:
    """Circuits to run, defaulting to the full Table 3 list."""
    raw = os.environ.get("REPRO_BENCH_CIRCUITS", "")
    if raw.strip():
        return [name.strip() for name in raw.split(",") if name.strip()]
    return list_circuits()


#: Repository root — the machine-readable benchmark results live here, next
#: to README.md, so the perf trajectory is part of every checkout.
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_results_path(name: str) -> Path:
    """Path of one CI-gated benchmark's results file (``BENCH_<name>.json``)."""
    return REPO_ROOT / f"BENCH_{name}.json"


def write_bench_results(name: str, payload: Dict[str, object]) -> Path:
    """Write one gated benchmark's measured results to the repository root.

    Every CI-gated speedup benchmark calls this with its workload description
    and measured wall clocks, replacing the previous run's file; the JSON is
    sorted and newline-terminated so regenerated results produce minimal
    diffs.  Returns the written path.
    """
    path = bench_results_path(name)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_bench_results(name: str) -> Optional[Dict[str, object]]:
    """Load one benchmark's recorded results, or ``None`` if absent."""
    path = bench_results_path(name)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
