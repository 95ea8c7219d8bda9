"""Random-sequence baseline for non-scan delay fault testing.

The baseline applies pseudo-random input sequences to the circuit, declares
one frame of each sequence the fast (test) frame, and grades the sequence
with the same machinery the deterministic flow uses: the gross-delay
verification of :mod:`repro.core.verify`.  It provides the classic
"how much does deterministic ATPG buy over random patterns" comparison.

Grading dispatches through the ``backend`` parameter (the shared
:mod:`repro.fausim.backends` registry): the default ``packed`` backend
grades one faulty machine per pattern slot, ``reference`` interprets.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.core.randseq import random_test_sequence
from repro.core.results import TestSequence
from repro.core.verify import grade_test_sequence
from repro.faults.model import FaultList, FaultStatus, GateDelayFault, enumerate_delay_faults
from repro.fausim.backends import resolve_backend


@dataclasses.dataclass
class RandomCampaignResult:
    """Coverage achieved by the random baseline."""

    circuit_name: str
    total_faults: int
    detected: int
    sequences_applied: int
    pattern_count: int
    cpu_seconds: float

    @property
    def fault_coverage(self) -> float:
        """Fraction of the fault universe the random sequences detected."""
        return self.detected / self.total_faults if self.total_faults else 0.0


class RandomSequenceATPG:
    """Random two-pattern / sequence generator graded by gross-delay simulation.

    Args:
        circuit: circuit under test.
        sequence_length: total frames per random sequence (initialisation
            frames + the two-pattern test + propagation frames).
        seed: seed of the pseudo-random generator.
        backend: good-machine simulation backend used for grading (see
            :mod:`repro.fausim.backends`).
    """

    def __init__(
        self,
        circuit: Circuit,
        sequence_length: int = 8,
        seed: int = 1,
        backend: Optional[str] = None,
    ) -> None:
        if sequence_length < 2:
            raise ValueError("a delay test needs at least two frames")
        self.circuit = circuit
        self.sequence_length = sequence_length
        self.seed = seed
        self.backend = resolve_backend(backend)

    def _random_sequence(self, rng: random.Random, fault: GateDelayFault) -> TestSequence:
        """One random sequence from the shared generator (same draw order)."""
        return random_test_sequence(rng, self.circuit, self.sequence_length, fault)

    def run(
        self,
        faults: Optional[Sequence[GateDelayFault]] = None,
        max_sequences: int = 200,
        target_coverage: float = 1.0,
    ) -> RandomCampaignResult:
        """Apply random sequences until the budget or the coverage target is hit.

        Every random sequence is graded against every still-undetected fault
        with the gross-delay check (a detected gross delay fault is the
        necessary condition the deterministic flow also guarantees).
        """
        fault_universe = list(faults) if faults is not None else enumerate_delay_faults(self.circuit)
        fault_list = FaultList(fault_universe)
        rng = random.Random(self.seed)
        start = time.perf_counter()
        sequences_applied = 0
        pattern_count = 0

        for _ in range(max_sequences):
            if fault_list.coverage() >= target_coverage:
                break
            remaining = fault_list.untargeted()
            if not remaining:
                break
            template_fault = remaining[0]
            sequence = self._random_sequence(rng, template_fault)
            sequences_applied += 1
            pattern_count += sequence.pattern_count
            # One fault-parallel sweep grades the sequence against every
            # still-undetected fault (packed backend: 63 faulty machines per
            # word next to the shared good machine).
            grades = grade_test_sequence(
                self.circuit, sequence, remaining, backend=self.backend
            )
            detected: List[GateDelayFault] = [
                grade.fault for grade in grades if grade.detected
            ]
            fault_list.mark_tested(detected)

        counts = fault_list.counts()
        return RandomCampaignResult(
            circuit_name=self.circuit.name,
            total_faults=counts["total"],
            detected=counts[FaultStatus.TESTED.value],
            sequences_applied=sequences_applied,
            pattern_count=pattern_count,
            cpu_seconds=time.perf_counter() - start,
        )
