"""Synchronising (initialising) sequence computation — reverse time processing.

The local test generated by TDgen requires a specific (partial) state at the
start of its initial time frame.  Because the circuit has no scan path, that
state must be reached from the unknown power-up state purely through primary
input vectors.  Only slow clocks are applied during initialisation, so the
faulty machine behaves exactly like the good machine and three-valued logic
on a single machine is sufficient.

:class:`Synchronizer` justifies the required state backwards frame by frame
(reverse time processing): each step finds an input vector and a (hopefully
smaller) requirement on the previous state; the search succeeds when the
requirement becomes empty, i.e. the computed sequence works from *any*
starting state — in particular from the all-unknown power-up state.

Each frame's justification and the final forward validation dispatch
through the ``backend`` parameter (the :mod:`repro.fausim.backends` names
shared with the implication engines; ``None`` selects
the process default).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.fausim.backends import create_simulator
from repro.fausim.logic_sim import SignalValues
from repro.obs.metrics import resolve_metrics
from repro.semilet.justification import FrameJustifier


@dataclasses.dataclass
class SynchronizationResult:
    """Outcome of the synchronisation phase."""

    success: bool
    vectors: List[Dict[str, int]] = dataclasses.field(default_factory=list)
    backtracks: int = 0
    aborted: bool = False

    def __bool__(self) -> bool:
        return self.success

    @property
    def length(self) -> int:
        """Number of vectors in the synchronising sequence."""
        return len(self.vectors)


class Synchronizer:
    """Compute initialising sequences by reverse time processing.

    Args:
        circuit: circuit under test.
        max_frames: bound on the length of the initialising sequence.
        backtrack_limit: per-frame backtrack budget (paper: 100).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            threaded into both frame justifiers and the validation simulator
            (defaults to the no-op null registry).
        backend: backend used for the frame justification and the final
            re-simulation (``None`` selects the process default).
    """

    def __init__(
        self,
        circuit: Circuit,
        max_frames: Optional[int] = None,
        backtrack_limit: int = 100,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.metrics = resolve_metrics(metrics)
        if max_frames is None:
            max_frames = max(2 * len(circuit.flip_flops) + 2, 4)
        self.max_frames = min(max_frames, 64)
        self._justifier = FrameJustifier(
            circuit,
            backtrack_limit=backtrack_limit,
            decide_ppis=True,
            metrics=self.metrics,
            backend=backend,
        )
        self._pi_only_justifier = FrameJustifier(
            circuit,
            backtrack_limit=backtrack_limit,
            decide_ppis=False,
            metrics=self.metrics,
            backend=backend,
        )
        self._simulator = create_simulator(circuit, backend)
        self._simulator.metrics = self.metrics

    def synchronize(
        self, required_state: Dict[str, int], deadline: Optional[float] = None
    ) -> SynchronizationResult:
        """Find an input sequence establishing ``required_state`` from power-up.

        Args:
            required_state: value per pseudo primary input that the local test
                needs at the start of its initial frame; unmentioned state bits
                are don't cares.
            deadline: optional :func:`time.perf_counter` timestamp after which
                the search gives up; an expired search counts as aborted.

        The returned vectors are in application order (first vector applied
        first); applying them from the all-X state and simulating in
        three-valued logic provably reaches the required state.
        """
        goal = dict(required_state)
        if not goal:
            return SynchronizationResult(success=True, vectors=[])

        vectors_reversed: List[Dict[str, int]] = []
        backtracks = 0
        seen_goals: Set[Tuple[Tuple[str, int], ...]] = set()

        for _ in range(self.max_frames):
            if deadline is not None and time.perf_counter() > deadline:
                return SynchronizationResult(
                    success=False, vectors=[], backtracks=backtracks, aborted=True
                )
            goal_key = tuple(sorted(goal.items()))
            if goal_key in seen_goals:
                # The backward justification is looping through the same state
                # requirement; it will never reach the empty goal.
                return SynchronizationResult(
                    success=False, vectors=[], backtracks=backtracks
                )
            seen_goals.add(goal_key)

            objectives = {self.circuit.ppo_of_ppi(ppi): value for ppi, value in goal.items()}
            # First try to justify the goal with primary inputs only: if that
            # works the requirement on the previous frame is empty and the
            # sequence is complete.
            result = self._pi_only_justifier.justify(objectives, deadline=deadline)
            backtracks += result.backtracks
            if not result.success:
                result = self._justifier.justify(objectives, deadline=deadline)
                backtracks += result.backtracks
            if not result.success:
                return SynchronizationResult(
                    success=False,
                    vectors=[],
                    backtracks=backtracks,
                    aborted=result.aborted or backtracks > self.backtrack_limit,
                )
            vector = dict(result.pi_assignment)
            vectors_reversed.append(vector)
            goal = dict(result.ppi_assignment)
            if not goal:
                vectors = list(reversed(vectors_reversed))
                verified = self._verify(vectors, required_state)
                return SynchronizationResult(
                    success=verified, vectors=vectors if verified else [], backtracks=backtracks
                )
        return SynchronizationResult(success=False, vectors=[], backtracks=backtracks)

    def _verify(self, vectors: List[Dict[str, int]], required_state: Dict[str, int]) -> bool:
        """Re-simulate the sequence from the all-X state and check the goal."""
        state: SignalValues = {}
        for vector in vectors:
            frame = self._simulator.clock(vector, state)
            state = frame.next_state
        for ppi, value in required_state.items():
            if state.get(ppi) != value:
                return False
        return True
