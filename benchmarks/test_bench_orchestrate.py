"""Sharded campaign orchestration: wall-clock speedup and serial equality.

The orchestration layer (:mod:`repro.orchestrate`) promises two things at
once: sharding a campaign over worker processes makes it faster, and the
deterministic replay merge keeps the result bit-identical to the serial
campaign.  ``test_bench_orchestrate_speedup`` is the acceptance gate for
both, on a multi-circuit surrogate campaign: at ``--jobs 4`` the wall clock
must drop at least 2x below the serial run while every circuit's coverage,
untestable breakdown and pattern counts stay identical.

The gate needs real hardware parallelism; on machines with fewer than four
usable cores (CI runners provide four) it skips rather than reporting a
meaningless ratio.
"""

from __future__ import annotations

import os
import time

import pytest

from benchconfig import write_bench_results
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults, sample_faults
from repro.orchestrate import CampaignOrchestrator, OrchestratorConfig

#: Multi-circuit surrogate workload.  Each circuit contributes a
#: stride-sampled slice of its fault universe so heavy (deep-cone) and light
#: faults mix, which is exactly the load-balancing case sharding must handle.
CIRCUITS = (("s641", 0.4), ("s713", 0.4), ("s838", 0.4))
N_FAULTS_PER_CIRCUIT = 120
JOBS = 4


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _workloads():
    """Fresh circuits plus their sampled fault universes."""
    for name, scale in CIRCUITS:
        circuit = load_circuit(name, scale=scale, seed=0)
        faults = sample_faults(enumerate_delay_faults(circuit), N_FAULTS_PER_CIRCUIT)
        yield circuit, faults


def _fingerprint(campaign):
    """Everything the serial-equivalence contract covers, minus wall time."""
    row = {key: value for key, value in campaign.as_table3_row().items() if key != "time_s"}
    return (
        row,
        campaign.untestable_breakdown(),
        campaign.targeted,
        campaign.detected_by_simulation,
        [
            (
                str(result.fault),
                result.status.value,
                result.sequence.vectors if result.sequence is not None else None,
            )
            for result in campaign.fault_results
        ],
    )


@pytest.mark.skipif(
    _usable_cpus() < JOBS,
    reason=f"needs >= {JOBS} usable cores for a meaningful wall-clock gate",
)
def test_bench_orchestrate_speedup():
    """Acceptance: --jobs 4 >= 2x faster than serial, coverage identical."""
    serial_campaigns = []
    serial_start = time.perf_counter()
    for circuit, faults in _workloads():
        serial_campaigns.append(SequentialDelayATPG(circuit).run(faults=faults))
    serial_seconds = time.perf_counter() - serial_start

    parallel_campaigns = []
    recomputed = 0
    parallel_start = time.perf_counter()
    for circuit, faults in _workloads():
        orchestrator = CampaignOrchestrator(circuit, config=OrchestratorConfig(jobs=JOBS))
        parallel_campaigns.append(orchestrator.run(faults=faults))
        recomputed += orchestrator.recomputed
    parallel_seconds = time.perf_counter() - parallel_start

    for serial, parallel in zip(serial_campaigns, parallel_campaigns):
        assert _fingerprint(parallel) == _fingerprint(serial), (
            f"sharded campaign diverged from serial on {serial.circuit_name}"
        )

    speedup = serial_seconds / parallel_seconds
    total_faults = sum(campaign.total_faults for campaign in serial_campaigns)
    print(
        f"\nMulti-circuit campaign ({len(serial_campaigns)} circuits, "
        f"{total_faults} faults): serial {serial_seconds:.2f}s -> "
        f"--jobs {JOBS} {parallel_seconds:.2f}s ({speedup:.2f}x, "
        f"{recomputed} fault(s) recomputed in the merge)"
    )
    write_bench_results(
        "orchestrate",
        {
            "workload": {
                "circuits": [f"{name}@{scale}" for name, scale in CIRCUITS],
                "n_faults_per_circuit": N_FAULTS_PER_CIRCUIT,
                "jobs": JOBS,
                "description": "multi-circuit campaign, sharded vs serial",
            },
            "serial_seconds": round(serial_seconds, 6),
            "parallel_seconds": round(parallel_seconds, 6),
            "speedup": round(speedup, 2),
            "recomputed": recomputed,
            "gate": 2.0,
        },
    )
    assert speedup >= 2.0, (
        f"sharded campaign only {speedup:.2f}x faster than serial "
        f"({serial_seconds:.2f}s vs {parallel_seconds:.2f}s)"
    )


def test_bench_orchestrate_equality_only():
    """Core-count-independent safety net: jobs=2 equals serial bit-for-bit.

    Runs everywhere (including single-core CI shards) so the equality half of
    the acceptance gate is never skipped even when the wall-clock half is.
    """
    circuit, faults = next(_workloads())
    serial = SequentialDelayATPG(circuit).run(faults=faults)
    parallel = CampaignOrchestrator(
        circuit, config=OrchestratorConfig(jobs=2)
    ).run(faults=faults)
    assert _fingerprint(parallel) == _fingerprint(serial)
