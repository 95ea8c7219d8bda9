"""Store-backed incremental re-run vs from-scratch after a small ECO.

The persistent campaign store (:mod:`repro.store`) turns a finished
campaign into a memo the incremental engine can resume from: after a
netlist edit, only faults inside the edit's influence cone are re-targeted
while every other stored outcome is replayed, and the combined result is
**fingerprint-identical** to running the edited netlist from scratch.

``test_bench_incremental_speedup`` is the acceptance gate of that engine:
on a full s838@0.5 campaign with a one-gate ECO observer edit (a new AND
of two primary inputs, observed at a new primary output) the incremental
re-run must finish at least **3x** faster than the from-scratch run with
the same settings, while producing the bit-identical campaign.  The
workload reuses the hybrid benchmark's pinned settings (surrogate
``seed=53``, non-robust, the default ``packed`` backend, backtrack limits 20/20 —
see ``test_bench_hybrid.py`` for why this instance) because the gate
measures *reuse*, not search strength: the ECO's influence cone is the new
gate plus its two PI fanin cones, a few signals out of ~450, so nearly
the whole stored campaign replays without search.

The incremental leg runs *first*, so the global search/implication memo
caches are cold for it and warm for the from-scratch leg — the bias runs
against the gate.  Results land in ``BENCH_incremental.json`` at the
repository root.
"""

from __future__ import annotations

import tempfile
import time

from benchconfig import write_bench_results
from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.orchestrate import OrchestratorConfig
from repro.store import CampaignStore, run_incremental

#: Benchmark workload: a random-testable s838 surrogate at half scale under
#: the non-robust model (same instance the hybrid benchmark pins).
CIRCUIT, SCALE, SURROGATE_SEED = "s838", 0.5, 53
BACKEND = "packed"
ROBUST = False
BACKTRACK_LIMIT = 20
GATE = 3.0


def _config() -> OrchestratorConfig:
    return OrchestratorConfig(
        jobs=1,
        robust=ROBUST,
        backend=BACKEND,
        local_backtrack_limit=BACKTRACK_LIMIT,
        sequential_backtrack_limit=BACKTRACK_LIMIT,
    )


def _base_circuit():
    """A fresh base-netlist instance (circuits cache analysis state)."""
    return load_circuit(CIRCUIT, scale=SCALE, seed=SURROGATE_SEED)


def _edited_circuit():
    """The base netlist plus the ECO observer gate."""
    circuit = _base_circuit()
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    return circuit


def test_bench_incremental_speedup():
    """Acceptance: incremental >= 3x faster, bit-identical to from-scratch."""
    config = _config()
    base_result = SequentialDelayATPG(_base_circuit(), **config.atpg_kwargs()).run()

    with tempfile.TemporaryDirectory() as tmp:
        with CampaignStore(f"{tmp}/base.sqlite") as store:
            store.ingest_result(base_result, circuit=_base_circuit(), config=config)

            start = time.perf_counter()
            outcome = run_incremental(_edited_circuit(), store, config)
            incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scratch = SequentialDelayATPG(_edited_circuit(), **config.atpg_kwargs()).run()
    scratch_seconds = time.perf_counter() - start

    assert outcome.result.fingerprint() == scratch.fingerprint()
    assert outcome.reused > 0
    assert outcome.kept + outcome.invalidated == outcome.result.total_faults
    assert outcome.invalidated < outcome.result.total_faults // 10, (
        "the ECO cone must stay small for this gate to measure reuse"
    )

    speedup = scratch_seconds / incremental_seconds
    print(
        f"\nincremental re-run ({CIRCUIT}@{SCALE} seed {SURROGATE_SEED}, "
        f"{outcome.result.total_faults} faults, non-robust, {BACKEND}): "
        f"scratch {scratch_seconds:.1f}s -> incremental "
        f"{incremental_seconds:.1f}s ({speedup:.2f}x); cone "
        f"{outcome.cone_size} signal(s), kept {outcome.kept}, "
        f"invalidated {outcome.invalidated}, reused {outcome.reused}, "
        f"retargeted {outcome.retargeted}"
    )
    write_bench_results(
        "incremental",
        {
            "workload": {
                "circuit": f"{CIRCUIT}@{SCALE}",
                "surrogate_seed": SURROGATE_SEED,
                "n_faults": outcome.result.total_faults,
                "robust": ROBUST,
                "backend": BACKEND,
                "backtrack_limit": BACKTRACK_LIMIT,
                "edit": "ECO observer: AND(pi0, pi1) at a new PO",
                "description": (
                    "store-backed incremental re-run vs from-scratch on the "
                    "edited netlist"
                ),
            },
            "scratch_seconds": round(scratch_seconds, 6),
            "incremental_seconds": round(incremental_seconds, 6),
            "speedup": round(speedup, 2),
            "cone_size": outcome.cone_size,
            "kept": outcome.kept,
            "invalidated": outcome.invalidated,
            "reused": outcome.reused,
            "retargeted": outcome.retargeted,
            "gate": GATE,
        },
    )
    assert speedup >= GATE, (
        f"incremental re-run only {speedup:.2f}x faster than from-scratch "
        f"({scratch_seconds:.1f}s vs {incremental_seconds:.1f}s)"
    )
