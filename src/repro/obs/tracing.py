"""Span-style phase tracing and per-fault cost attribution.

The span model mirrors the campaign's nesting:

* **campaign span** — one ``repro_phase_seconds{phase="campaign"}`` timer
  observation around :meth:`repro.core.flow.SequentialDelayATPG.run`;
* **prefix span** — ``phase="prefix"`` around the random-pattern prefix;
* **fault span** (:class:`FaultSpan`) — one per targeted fault, emitting a
  ``repro_fault_seconds`` histogram observation, the
  ``repro_faults_total{status=...}`` / ``repro_fault_aborts_total{phase=...}``
  counters, and a :class:`FaultCost` record that attributes the fault's
  decisions, backtracks, implication sweeps, wavefront skips and simulated
  gate-words by *deltaing* the registry's counters around the targeting
  call;
* **engine spans** — ``phase="tdgen"/"propagation"/"justification"/
  "synchronization"/"tdsim"/"verify"`` timers inside the flow's attempt
  loop (plain :meth:`MetricsRegistry.timed` context managers).

:class:`FaultCost` records are deterministic (pure counter deltas of a
single-threaded targeting call), so the orchestrator can re-fold worker
shard costs in enumeration order (:func:`fold_cost`) and reproduce the
exact counters a serial campaign would have accumulated — the basis of the
"identical aggregates for any ``--jobs``" guarantee.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .metrics import MetricsRegistry

#: Counters folded back into a registry by :func:`fold_cost`, keyed by the
#: :class:`FaultCost` field carrying the per-fault delta.
_FOLDED_FIELDS = {
    "decisions": "repro_decisions_total",
    "implication_sweeps": "repro_implication_sweeps_total",
    "wavefront_skipped": "repro_wavefront_gates_skipped_total",
    "words_simulated": "repro_sim_gate_words_total",
}


@dataclass
class FaultCost:
    """The attributable cost of targeting one fault.

    All integer fields are exact counter deltas of the targeting call and
    therefore deterministic for a given (circuit, settings, fault) triple;
    ``seconds`` is wall clock and is not.
    """

    fault: str
    status: str
    phase: str
    seconds: float
    attempts: int
    local_backtracks: int
    sequential_backtracks: int
    decisions: int
    implication_sweeps: int
    wavefront_skipped: int
    words_simulated: int
    engine: str

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable form (see :meth:`from_json`)."""
        return {
            "fault": self.fault,
            "status": self.status,
            "phase": self.phase,
            "seconds": round(self.seconds, 9),
            "attempts": self.attempts,
            "local_backtracks": self.local_backtracks,
            "sequential_backtracks": self.sequential_backtracks,
            "decisions": self.decisions,
            "implication_sweeps": self.implication_sweeps,
            "wavefront_skipped": self.wavefront_skipped,
            "words_simulated": self.words_simulated,
            "engine": self.engine,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "FaultCost":
        """Rebuild a cost record from its :meth:`to_json` form."""
        return cls(
            fault=str(payload["fault"]),
            status=str(payload["status"]),
            phase=str(payload["phase"]),
            seconds=float(payload["seconds"]),
            attempts=int(payload["attempts"]),
            local_backtracks=int(payload["local_backtracks"]),
            sequential_backtracks=int(payload["sequential_backtracks"]),
            decisions=int(payload["decisions"]),
            implication_sweeps=int(payload["implication_sweeps"]),
            wavefront_skipped=int(payload["wavefront_skipped"]),
            words_simulated=int(payload["words_simulated"]),
            engine=str(payload["engine"]),
        )


class FaultSpan:
    """Delta-captures one fault's cost out of a live registry.

    Open the span before targeting (records counter baselines and the
    clock), call :meth:`finish` with the :class:`~repro.core.results.FaultResult`
    afterwards: the span emits the fault-level metrics and returns the
    :class:`FaultCost` delta record.
    """

    __slots__ = ("_registry", "_fault", "_engine", "_start", "_base")

    def __init__(self, registry: MetricsRegistry, fault: object, engine: str) -> None:
        self._registry = registry
        self._fault = str(fault)
        self._engine = engine
        self._base = {
            field: registry.counter_sum(name)
            for field, name in _FOLDED_FIELDS.items()
        }
        self._start = time.perf_counter()

    def finish(self, result: object) -> FaultCost:
        """Close the span against the fault's result and emit its metrics."""
        seconds = time.perf_counter() - self._start
        registry = self._registry
        status = result.status.value
        phase = result.phase.value
        registry.inc("repro_faults_total", status=status)
        if status == "aborted":
            registry.inc("repro_fault_aborts_total", phase=phase)
        registry.observe_value("repro_fault_seconds", seconds)
        if result.local_backtracks:
            registry.inc(
                "repro_backtracks_total", result.local_backtracks, engine="tdgen"
            )
        if result.sequential_backtracks:
            registry.inc(
                "repro_backtracks_total",
                result.sequential_backtracks,
                engine="semilet",
            )
        deltas = {
            field: int(registry.counter_sum(name) - self._base[field])
            for field, name in _FOLDED_FIELDS.items()
        }
        return FaultCost(
            fault=self._fault,
            status=status,
            phase=phase,
            seconds=seconds,
            attempts=result.attempts,
            local_backtracks=result.local_backtracks,
            sequential_backtracks=result.sequential_backtracks,
            engine=self._engine,
            **deltas,
        )


def fold_cost(registry: MetricsRegistry, cost: FaultCost) -> None:
    """Replay one fault's deterministic cost deltas into ``registry``.

    The campaign loop calls this once per *credited* fault it reads,
    in fault-enumeration order, so the merged registry carries exactly the
    integer counters a serial campaign over the same credited set would
    have accumulated — independent of ``--jobs`` and scheduling.  Label
    breakdowns (per-site sweeps, per-engine backtracks) are collapsed into
    the unlabelled total here because :class:`FaultCost` stores deltas of
    :meth:`~repro.obs.metrics.MetricsRegistry.counter_sum`.
    """
    registry.inc("repro_faults_total", status=cost.status)
    if cost.status == "aborted":
        registry.inc("repro_fault_aborts_total", phase=cost.phase)
    registry.observe_value("repro_fault_seconds", cost.seconds)
    for field, name in _FOLDED_FIELDS.items():
        amount = getattr(cost, field)
        if amount:
            registry.inc(name, amount)
    if cost.local_backtracks:
        registry.inc("repro_backtracks_total", cost.local_backtracks, engine="tdgen")
    if cost.sequential_backtracks:
        registry.inc(
            "repro_backtracks_total", cost.sequential_backtracks, engine="semilet"
        )


def deterministic_counters(registry: MetricsRegistry) -> Dict[str, int]:
    """The registry's integer counters that are jobs-invariant by contract.

    Wall-clock timers and histograms are excluded; labelled counters are
    collapsed to their unlabelled sums so serial registries (which emit
    per-site/per-engine labels) compare equal to replay-folded registries
    (which fold unlabelled totals).
    """
    names = (
        "repro_faults_total",
        "repro_fault_aborts_total",
        "repro_decisions_total",
        "repro_backtracks_total",
        "repro_implication_sweeps_total",
        "repro_wavefront_gates_skipped_total",
        "repro_sim_gate_words_total",
        "repro_prefix_sequences_total",
        "repro_prefix_candidates_total",
        "repro_prefix_detections_total",
        "repro_prefix_faults_graded_total",
    )
    return {name: int(registry.counter_sum(name)) for name in names}
