"""Random-sequence baseline for non-scan delay fault testing.

The baseline applies pseudo-random input sequences to the circuit, declares
one frame of each sequence the fast (test) frame, and grades the sequence
with the same machinery the deterministic flow uses: the gross-delay
verification of :mod:`repro.core.verify`.  It provides the classic
"how much does deterministic ATPG buy over random patterns" comparison.

Grading dispatches through the ``backend`` parameter (the shared
:mod:`repro.fausim.backends` registry): the default ``packed`` backend
grades one faulty machine per pattern slot, ``reference`` interprets.  One
grader is planned for the whole run; a detected fault only clears its lane
of the live mask.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.core.randseq import random_test_sequence
from repro.core.results import TestSequence
from repro.core.verify import create_grader
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.fausim.backends import create_simulator, resolve_backend


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
        start = time.perf_counter()
        universe = faults if faults is not None else enumerate_delay_faults(self.circuit)
        grader = create_grader(
            create_simulator(self.circuit, self.backend), dict.fromkeys(universe)
        )
        total = len(grader.faults)
        live = grader.all_lanes
        rng = random.Random(self.seed)
        sequences_applied = 0
        pattern_count = 0

        while live and sequences_applied < max_sequences:
            if (total - live.bit_count()) / total >= target_coverage:
                break
            template_fault = grader.faults[(live & -live).bit_length() - 2]
            sequence = self._random_sequence(rng, template_fault)
            sequences_applied += 1
            pattern_count += sequence.pattern_count
            # One fault-parallel sweep grades the sequence against every
            # still-undetected fault (packed backend: one faulty machine per
            # lane next to the shared good machine).
            for _, _, lanes in grader.grade(sequence, live):
                live &= ~lanes

        return RandomCampaignResult(
            circuit_name=self.circuit.name,
            total_faults=total,
            detected=total - live.bit_count(),
            sequences_applied=sequences_applied,
            pattern_count=pattern_count,
            cpu_seconds=time.perf_counter() - start,
        )
