"""SEMILET facade used by the combined flow.

Bundles the three sequential tasks (propagation, propagation justification
feedback and synchronisation) behind one object so that the FOGBUSTER flow in
:mod:`repro.core.flow` only deals with a single sequential engine, mirroring
the TDgen / SEMILET coupling described in the paper.

One ``backend`` parameter (the shared :mod:`repro.fausim.backends` names)
is threaded into all three tasks, selecting their implication engines
together with the flow's fault simulation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.fausim.logic_sim import SignalValues
from repro.semilet.propagation import PropagationEngine, PropagationResult
from repro.semilet.synchronization import SynchronizationResult, Synchronizer


class Semilet:
    """Sequential test generation services for the delay-fault flow.

    Args:
        circuit: circuit under test.
        backtrack_limit: per-task backtrack limit (paper: 100 for the
            sequential test pattern generator).
        max_propagation_frames: bound on the number of slow-clock frames used
            to drive a captured fault effect to a primary output.
        max_synchronization_frames: bound on the length of the initialising
            sequence searched for.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            threaded into both tasks (defaults to the no-op null registry).
        backend: implication/simulation backend shared by all three tasks
            (``None`` selects the process default).
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 100,
        max_propagation_frames: Optional[int] = None,
        max_synchronization_frames: Optional[int] = None,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.propagation_engine = PropagationEngine(
            circuit,
            max_frames=max_propagation_frames,
            backtrack_limit=backtrack_limit,
            metrics=metrics,
            backend=backend,
        )
        self.synchronizer = Synchronizer(
            circuit,
            max_frames=max_synchronization_frames,
            backtrack_limit=backtrack_limit,
            metrics=metrics,
            backend=backend,
        )

    def propagate(
        self,
        good_state: SignalValues,
        faulty_state: SignalValues,
        assignable_ppis: Optional[Sequence[str]] = None,
        deadline: Optional[float] = None,
    ) -> PropagationResult:
        """Forward time processing: drive the captured fault effect to a PO.

        ``deadline`` is an optional :func:`time.perf_counter` timestamp after
        which the search gives up (reported as aborted).
        """
        return self.propagation_engine.propagate(
            good_state, faulty_state, assignable_ppis, deadline=deadline
        )

    def synchronize(
        self, required_state: Dict[str, int], deadline: Optional[float] = None
    ) -> SynchronizationResult:
        """Reverse time processing: compute an initialising sequence.

        ``deadline`` is an optional :func:`time.perf_counter` timestamp after
        which the search gives up (reported as aborted).
        """
        return self.synchronizer.synchronize(required_state, deadline=deadline)
