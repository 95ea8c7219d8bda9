"""Result containers for the combined flow and for whole campaigns."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from repro.algebra.values import DelayValue, value_from_name
from repro.core.clocking import ClockSchedule
from repro.faults.model import FaultStatus, GateDelayFault


class FaultResultStatus(enum.Enum):
    """Outcome of targeting one fault with the full FOGBUSTER flow."""

    TESTED = "tested"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


class FlowPhase(enum.Enum):
    """The FOGBUSTER phase in which a fault's processing ended (Figure 4)."""

    LOCAL = "local test generation"
    PROPAGATION = "forward propagation"
    PROPAGATION_JUSTIFICATION = "propagation justification"
    INITIALIZATION = "initialization"
    COMPLETE = "complete"


@dataclasses.dataclass
class TestSequence:
    """A complete test for one gate delay fault.

    The sequence consists of the initialisation vectors (slow clock), the two
    local vectors ``v1`` (slow) and ``v2`` (fast), and the propagation vectors
    (slow clock).  ``pi_pair_values`` / ``ppi_initial_values`` keep the
    algebra-level view used by the fault simulator.
    """

    # Not a pytest test class despite the name.
    __test__ = False

    fault: GateDelayFault
    initialization_vectors: List[Dict[str, int]]
    v1: Dict[str, int]
    v2: Dict[str, int]
    propagation_vectors: List[Dict[str, int]]
    clock_schedule: ClockSchedule
    observation_point: str
    observed_at_po: bool
    pi_pair_values: Dict[str, DelayValue] = dataclasses.field(default_factory=dict)
    ppi_initial_values: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def vectors(self) -> List[Dict[str, int]]:
        """All vectors in application order."""
        return list(self.initialization_vectors) + [self.v1, self.v2] + list(
            self.propagation_vectors
        )

    @property
    def pattern_count(self) -> int:
        """Number of applied patterns, initialisation and propagation included."""
        return len(self.vectors)

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable representation (see :meth:`from_json`).

        The clock schedule is not stored explicitly: it is fully determined by
        the initialisation / propagation frame counts (one slow + one fast
        local frame in between), so :meth:`from_json` rebuilds it.
        """
        return {
            "fault": self.fault.to_json(),
            "initialization_vectors": [dict(v) for v in self.initialization_vectors],
            "v1": dict(self.v1),
            "v2": dict(self.v2),
            "propagation_vectors": [dict(v) for v in self.propagation_vectors],
            "observation_point": self.observation_point,
            "observed_at_po": self.observed_at_po,
            "pi_pair_values": {pi: value.name for pi, value in self.pi_pair_values.items()},
            "ppi_initial_values": dict(self.ppi_initial_values),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "TestSequence":
        """Rebuild a :class:`TestSequence` from its :meth:`to_json` form."""
        initialization = [dict(v) for v in payload["initialization_vectors"]]
        propagation = [dict(v) for v in payload["propagation_vectors"]]
        return cls(
            fault=GateDelayFault.from_json(payload["fault"]),
            initialization_vectors=initialization,
            v1=dict(payload["v1"]),
            v2=dict(payload["v2"]),
            propagation_vectors=propagation,
            clock_schedule=ClockSchedule.for_sequence(
                initialization_frames=len(initialization),
                propagation_frames=len(propagation),
            ),
            observation_point=str(payload["observation_point"]),
            observed_at_po=bool(payload["observed_at_po"]),
            pi_pair_values={
                pi: value_from_name(name)
                for pi, name in payload["pi_pair_values"].items()
            },
            ppi_initial_values=dict(payload["ppi_initial_values"]),
        )


@dataclasses.dataclass
class FaultResult:
    """Outcome of the FOGBUSTER flow for one targeted fault."""

    fault: GateDelayFault
    status: FaultResultStatus
    phase: FlowPhase
    sequence: Optional[TestSequence] = None
    additionally_detected: List[GateDelayFault] = dataclasses.field(default_factory=list)
    local_backtracks: int = 0
    sequential_backtracks: int = 0
    attempts: int = 1

    @property
    def tested(self) -> bool:
        """True when the flow produced a verified test for the fault."""
        return self.status is FaultResultStatus.TESTED

    def __str__(self) -> str:
        return f"FaultResult({self.fault}, {self.status.value}, phase={self.phase.value})"

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable representation (see :meth:`from_json`)."""
        return {
            "fault": self.fault.to_json(),
            "status": self.status.value,
            "phase": self.phase.name,
            "sequence": self.sequence.to_json() if self.sequence is not None else None,
            "additionally_detected": [f.to_json() for f in self.additionally_detected],
            "local_backtracks": self.local_backtracks,
            "sequential_backtracks": self.sequential_backtracks,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultResult":
        """Rebuild a :class:`FaultResult` from its :meth:`to_json` form."""
        sequence = payload.get("sequence")
        return cls(
            fault=GateDelayFault.from_json(payload["fault"]),
            status=FaultResultStatus(payload["status"]),
            phase=FlowPhase[payload["phase"]],
            sequence=TestSequence.from_json(sequence) if sequence is not None else None,
            additionally_detected=[
                GateDelayFault.from_json(f) for f in payload["additionally_detected"]
            ],
            local_backtracks=int(payload["local_backtracks"]),
            sequential_backtracks=int(payload["sequential_backtracks"]),
            attempts=int(payload["attempts"]),
        )


@dataclasses.dataclass
class CampaignResult:
    """Aggregated results of a full ATPG campaign on one circuit (Table 3 row)."""

    circuit_name: str
    total_faults: int
    tested: int = 0
    untestable: int = 0
    aborted: int = 0
    pattern_count: int = 0
    cpu_seconds: float = 0.0
    sequences: List[TestSequence] = dataclasses.field(default_factory=list)
    fault_results: List[FaultResult] = dataclasses.field(default_factory=list)
    untestable_local: int = 0
    untestable_sequential: int = 0
    aborted_local: int = 0
    aborted_sequential: int = 0
    targeted: int = 0
    detected_by_simulation: int = 0
    #: Random-pattern prefix statistics of a hybrid campaign (see
    #: :mod:`repro.core.prefilter`); all zero for a deterministic-only run.
    prefix_applied: int = 0
    prefix_detected: int = 0
    prefix_stop_reason: Optional[str] = None
    prefix_sequences: List[TestSequence] = dataclasses.field(default_factory=list)

    @property
    def fault_coverage(self) -> float:
        """Fraction of the fault universe marked tested."""
        if self.total_faults == 0:
            return 0.0
        return self.tested / self.total_faults

    @property
    def fault_efficiency(self) -> float:
        """Fraction of faults with a definite verdict (tested or untestable)."""
        if self.total_faults == 0:
            return 0.0
        return (self.tested + self.untestable) / self.total_faults

    def as_table3_row(self) -> Dict[str, object]:
        """The columns of the paper's Table 3 for this circuit."""
        return {
            "circuit": self.circuit_name,
            "tested": self.tested,
            "untestable": self.untestable,
            "aborted": self.aborted,
            "patterns": self.pattern_count,
            "time_s": round(self.cpu_seconds, 2),
        }

    def untestable_breakdown(self) -> Dict[str, int]:
        """Split of untestable faults by the phase that proved them untestable.

        The paper (section 6) observes that a large part of the untestable
        faults is only *sequentially* untestable; this breakdown makes that
        observation measurable.
        """
        return {
            "combinationally_untestable": self.untestable_local,
            "sequentially_untestable": self.untestable_sequential,
        }

    def record(self, result: FaultResult, newly_detected: int) -> None:
        """Fold one fault result into the campaign counters."""
        self.fault_results.append(result)
        self.targeted += 1
        if result.status is FaultResultStatus.TESTED:
            if result.sequence is not None:
                self.sequences.append(result.sequence)
                self.pattern_count += result.sequence.pattern_count
            self.detected_by_simulation += max(newly_detected - 1, 0)
        elif result.status is FaultResultStatus.UNTESTABLE:
            if result.phase is FlowPhase.LOCAL:
                self.untestable_local += 1
            else:
                self.untestable_sequential += 1
        else:
            if result.phase is FlowPhase.LOCAL:
                self.aborted_local += 1
            else:
                self.aborted_sequential += 1

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable representation (see :meth:`from_json`).

        Sequences are stored once, inside their fault results; standalone
        entries of :attr:`sequences` (there are none in results produced by
        the flow) would not survive the round trip.
        """
        return {
            "circuit_name": self.circuit_name,
            "total_faults": self.total_faults,
            "tested": self.tested,
            "untestable": self.untestable,
            "aborted": self.aborted,
            "pattern_count": self.pattern_count,
            "cpu_seconds": self.cpu_seconds,
            "fault_results": [result.to_json() for result in self.fault_results],
            "untestable_local": self.untestable_local,
            "untestable_sequential": self.untestable_sequential,
            "aborted_local": self.aborted_local,
            "aborted_sequential": self.aborted_sequential,
            "targeted": self.targeted,
            "detected_by_simulation": self.detected_by_simulation,
            "prefix_applied": self.prefix_applied,
            "prefix_detected": self.prefix_detected,
            "prefix_stop_reason": self.prefix_stop_reason,
            "prefix_sequences": [seq.to_json() for seq in self.prefix_sequences],
        }

    def fingerprint(self) -> Dict[str, object]:
        """The deterministic view of the campaign: :meth:`to_json` minus timing.

        ``cpu_seconds`` is the only wall-clock-dependent field; everything
        else is a pure function of (circuit, settings, fault universe).  Two
        campaigns are *bit-identical* when their fingerprints compare equal —
        the contract pinned by the sharded campaign tests, the backend
        differential tests and the incremental re-run engine
        (:mod:`repro.store.incremental`).
        """
        payload = self.to_json()
        payload.pop("cpu_seconds", None)
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CampaignResult":
        """Rebuild a :class:`CampaignResult` from its :meth:`to_json` form."""
        fault_results = [FaultResult.from_json(r) for r in payload["fault_results"]]
        campaign = cls(
            circuit_name=str(payload["circuit_name"]),
            total_faults=int(payload["total_faults"]),
            tested=int(payload["tested"]),
            untestable=int(payload["untestable"]),
            aborted=int(payload["aborted"]),
            pattern_count=int(payload["pattern_count"]),
            cpu_seconds=float(payload["cpu_seconds"]),
            fault_results=fault_results,
            untestable_local=int(payload["untestable_local"]),
            untestable_sequential=int(payload["untestable_sequential"]),
            aborted_local=int(payload["aborted_local"]),
            aborted_sequential=int(payload["aborted_sequential"]),
            targeted=int(payload["targeted"]),
            detected_by_simulation=int(payload["detected_by_simulation"]),
            # Prefix fields default to the deterministic-only values so
            # results stored before the hybrid flow existed still load.
            prefix_applied=int(payload.get("prefix_applied", 0)),
            prefix_detected=int(payload.get("prefix_detected", 0)),
            prefix_stop_reason=payload.get("prefix_stop_reason"),
            prefix_sequences=[
                TestSequence.from_json(seq)
                for seq in payload.get("prefix_sequences", [])
            ],
        )
        campaign.sequences = [
            result.sequence for result in fault_results if result.sequence is not None
        ]
        return campaign

    def finalize(self, fault_status_counts: Dict[str, int], cpu_seconds: float) -> None:
        """Fill in the Table 3 counters from the final fault-list status."""
        self.tested = fault_status_counts.get(FaultStatus.TESTED.value, 0)
        self.untestable = fault_status_counts.get(FaultStatus.UNTESTABLE.value, 0)
        self.aborted = fault_status_counts.get(FaultStatus.ABORTED.value, 0) + fault_status_counts.get(
            FaultStatus.UNTARGETED.value, 0
        )
        self.cpu_seconds = cpu_seconds
