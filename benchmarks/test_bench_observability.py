"""Overhead gate of the instrumentation layer: metrics on vs off.

The observability contract (``docs/OBSERVABILITY.md``) has two halves, and
this benchmark gates both on the same workload as the hybrid benchmark — a
full-universe s838@0.5 surrogate campaign on the default backend under the
non-robust model:

* **no perturbation** — the metrics-on campaign must be fingerprint-
  identical to the metrics-off campaign (the registry only *observes*);
* **bounded overhead** — a live registry may cost at most **5%** wall
  clock over the null-registry run (instrumentation points fire at most
  once per simulation pass, never per gate).

Both legs run ``REPS`` times interleaved and compare their per-leg minima,
which suppresses the allocator/cache noise that dominates single-shot
Python timings.  Results land in ``BENCH_observability.json``.
"""

from __future__ import annotations

import time

from benchconfig import write_bench_results
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults
from repro.obs.metrics import MetricsRegistry

#: Same workload as ``test_bench_hybrid``: a random-testable s838 surrogate
#: at half scale, full fault universe, non-robust model, default backend.
CIRCUIT, SCALE, SURROGATE_SEED = "s838", 0.5, 53
BACKEND = "packed"
ROBUST = False
#: Interleaved repetitions per leg; minima are compared.
REPS = 3
#: Maximum tolerated wall-clock overhead of a live registry.
GATE = 1.05


def _fingerprint(campaign):
    """Everything the bit-identical contract covers, minus wall time."""
    row = {key: value for key, value in campaign.as_table3_row().items() if key != "time_s"}
    per_fault = [
        (
            str(result.fault),
            result.status.value,
            result.phase.name,
            sorted(str(fault) for fault in result.additionally_detected),
            result.sequence.vectors if result.sequence is not None else None,
            str(result.sequence.clock_schedule) if result.sequence is not None else None,
        )
        for result in campaign.fault_results
    ]
    return (
        row,
        campaign.untestable_breakdown(),
        campaign.targeted,
        campaign.detected_by_simulation,
        per_fault,
    )


def _run(metrics):
    """One full campaign leg; returns (campaign, seconds, cost_log)."""
    circuit = load_circuit(CIRCUIT, scale=SCALE, seed=SURROGATE_SEED)
    faults = enumerate_delay_faults(circuit)
    atpg = SequentialDelayATPG(
        circuit, robust=ROBUST, backend=BACKEND, metrics=metrics
    )
    start = time.perf_counter()
    campaign = atpg.run(faults=faults)
    return campaign, time.perf_counter() - start, list(atpg.cost_log)


def test_bench_observability_overhead():
    """Acceptance: identical results, <= 5% overhead with metrics enabled."""
    off_seconds = []
    on_seconds = []
    off_campaign = on_campaign = None
    cost_log = []
    for _ in range(REPS):
        off_campaign, seconds, _unused = _run(None)
        off_seconds.append(seconds)
        on_campaign, seconds, cost_log = _run(MetricsRegistry())
        on_seconds.append(seconds)

    assert _fingerprint(on_campaign) == _fingerprint(off_campaign), (
        "a live metrics registry must not perturb campaign results"
    )
    assert len(cost_log) == on_campaign.targeted

    off_best = min(off_seconds)
    on_best = min(on_seconds)
    overhead = on_best / off_best
    print(
        f"\nobservability overhead ({CIRCUIT}@{SCALE} seed {SURROGATE_SEED}, "
        f"{on_campaign.total_faults} faults, non-robust, {BACKEND}): "
        f"metrics off {off_best:.2f}s -> on {on_best:.2f}s "
        f"({(overhead - 1) * 100:+.1f}%, gate {(GATE - 1) * 100:.0f}%)"
    )
    write_bench_results(
        "observability",
        {
            "workload": {
                "circuit": f"{CIRCUIT}@{SCALE}",
                "surrogate_seed": SURROGATE_SEED,
                "n_faults": on_campaign.total_faults,
                "robust": ROBUST,
                "backend": BACKEND,
                "reps": REPS,
                "description": "full-universe campaign, metrics registry on vs off",
            },
            "metrics_off_seconds": round(off_best, 6),
            "metrics_on_seconds": round(on_best, 6),
            "overhead_ratio": round(overhead, 4),
            "results_identical": True,
            "fault_costs_recorded": len(cost_log),
            "gate": GATE,
        },
    )
    assert overhead <= GATE, (
        f"metrics-enabled campaign is {(overhead - 1) * 100:.1f}% slower than "
        f"the null-registry run ({on_best:.2f}s vs {off_best:.2f}s); "
        f"gate is {(GATE - 1) * 100:.0f}%"
    )
