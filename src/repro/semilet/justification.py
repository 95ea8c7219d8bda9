"""Single-frame justification (reverse time processing building block).

Given required values on some signals of the combinational block (typically
pseudo primary outputs), :class:`FrameJustifier` searches for an assignment of
the primary inputs — and, if allowed, of the pseudo primary inputs — that
forces those values in three-valued logic.  The PPI assignments it makes
become the justification goal of the *previous* time frame, which is exactly
how the reverse-time phases of FOGBUSTER (propagation justification and
synchronisation) proceed.

The search is a small PODEM on the shared decision loop
(:func:`repro.tdgen.decide.decision_search`): decisions only on inputs,
forward implication by levelised three-valued simulation, objective-driven
backtrace using controlling values, and a backtrack limit.  Only an
exhausted search is a non-aborted failure.  The frame simulation goes through
the backend-dispatched implication engine (:mod:`repro.tdgen.implication`):
both alternatives of a decision are submitted as one candidate batch, which
the packed engine evaluates in a single pass over the compiled netlist.  The
backtrace itself goes through the engine's search kernels
(:mod:`repro.tdgen.search`): an iterative worklist over the compiled flat
arrays and the batch's frame planes, the same on both backends.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.obs.metrics import resolve_metrics
from repro.tdgen.decide import Stop, Variable, decision_search
from repro.tdgen.implication import CandidateFrames, create_implication_engine


@dataclasses.dataclass
class JustificationResult:
    """Outcome of a single-frame justification."""

    success: bool
    pi_assignment: Dict[str, int] = dataclasses.field(default_factory=dict)
    ppi_assignment: Dict[str, int] = dataclasses.field(default_factory=dict)
    backtracks: int = 0
    aborted: bool = False

    def __bool__(self) -> bool:
        return self.success


class FrameJustifier:
    """Justify value requirements within one combinational time frame.

    Args:
        circuit: the circuit whose combinational block is searched.
        backtrack_limit: abort after this many backtracks (paper: 100 for the
            sequential generator).
        decide_ppis: whether pseudo primary inputs may be assigned.  The
            synchronisation phase allows it (the assignments become the goal of
            the previous frame); a pure input-vector search does not.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            (defaults to the no-op null registry); counts frame implication
            sweeps.
        backend: implication engine backend used for the frame simulation
            (``None`` selects the process default).
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 100,
        decide_ppis: bool = True,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.decide_ppis = decide_ppis
        self.metrics = resolve_metrics(metrics)
        self._implication = create_implication_engine(circuit, backend=backend)
        self._implication.set_metrics(self.metrics, site="justification")
        #: Search kernels of the same backend: the controlling-value
        #: backtrace (see :mod:`repro.tdgen.search`).
        self._kernels = self._implication.search_kernels()

    def justify(
        self,
        objectives: Dict[str, int],
        fixed_ppis: Optional[Dict[str, int]] = None,
        fixed_pis: Optional[Dict[str, int]] = None,
        deadline: Optional[float] = None,
    ) -> JustificationResult:
        """Search for an assignment meeting all objectives.

        Args:
            objectives: required value per signal (usually PPO signals, but any
                combinational signal is allowed).
            fixed_ppis: pseudo primary input values that are already known and
                must not be re-decided.
            fixed_pis: primary input values that are already fixed.
            deadline: optional :func:`time.perf_counter` timestamp after which
                the search gives up; an expired search counts as aborted.
        """
        fixed_ppis = dict(fixed_ppis or {})
        fixed_pis = dict(fixed_pis or {})
        slot_of = self._kernels.compiled.slot_of
        # ``(signal, slot, required value)`` per objective.
        targets = [(signal, slot_of[signal], value) for signal, value in objectives.items()]
        pi_values: Dict[str, Optional[int]] = {
            pi: fixed_pis.get(pi) for pi in self.circuit.primary_inputs
        }
        ppi_values: Dict[str, Optional[int]] = {
            ppi: fixed_ppis.get(ppi) for ppi in self.circuit.pseudo_primary_inputs
        }

        def classify(frames: CandidateFrames, cursor: int) -> str:
            return self._classify(frames, cursor, targets)

        def decide(frames: CandidateFrames, cursor: int):
            return self._next_decision(frames, cursor, targets, pi_values, ppi_values)

        def imply(frames: CandidateFrames, cursor: int, assignment, name, values):
            # Evaluate both values of the new decision in one batch.
            is_pi = assignment is pi_values
            batch = self._implication.frame_candidates(
                pi_values, ppi_values, [(name, is_pi, value) for value in values]
            )
            if self.metrics.enabled:
                self.metrics.inc("repro_implication_sweeps_total", site="justification")
            return batch

        # Frame of the initial (fixed-only) assignment; later frames come
        # from the decision nodes' candidate batches.
        root = self._implication.frame_candidates(pi_values, ppi_values, (None,))
        if self.metrics.enabled:
            self.metrics.inc("repro_implication_sweeps_total", site="justification")
        outcome = decision_search(
            root, classify, decide, imply, self.backtrack_limit, deadline=deadline
        )
        if outcome.stop is not Stop.SUCCESS:
            return JustificationResult(
                success=False,
                backtracks=outcome.backtracks,
                aborted=outcome.stop is not Stop.EXHAUSTED,
            )
        return JustificationResult(
            success=True,
            pi_assignment={
                pi: value for pi, value in pi_values.items()
                if value is not None and pi not in fixed_pis
            },
            ppi_assignment={
                ppi: value for ppi, value in ppi_values.items()
                if value is not None and ppi not in fixed_ppis
            },
            backtracks=outcome.backtracks,
        )

    @staticmethod
    def _classify(
        frames: CandidateFrames, cursor: int, targets: Sequence[Tuple[str, int, int]]
    ) -> str:
        """Classify candidate ``cursor`` by its plane bits at the objective slots."""
        planes = frames.packed_planes()
        bit = 1 << cursor
        met = True
        for _, slot, target in targets:
            if (planes.one if target else planes.zero)[slot] & bit:
                continue
            if (planes.zero if target else planes.one)[slot] & bit:
                return "conflict"
            met = False
        return "success" if met else "continue"

    def _next_decision(
        self,
        frames: CandidateFrames,
        cursor: int,
        targets: Sequence[Tuple[str, int, int]],
        pi_values: Dict[str, Optional[int]],
        ppi_values: Dict[str, Optional[int]],
    ) -> Optional[Variable]:
        """Backtrace the first open objective to an unassigned input.

        The controlling-value backtrace runs through the search kernels; it
        explores alternative fanin branches depth-first and prefers landing
        on a primary input over a pseudo primary input (PPI assignments
        become requirements on the previous time frame, so the reverse-time
        phases want as few of them as possible).
        """
        planes = frames.packed_planes()
        bit = 1 << cursor
        for signal, slot, target in targets:
            if not (planes.zero[slot] | planes.one[slot]) & bit:
                traced = self._kernels.justification_backtrace(
                    frames, cursor, signal, target,
                    pi_values, ppi_values, self.decide_ppis,
                )
                if traced is not None:
                    name, is_pi, preferred = traced
                    return (
                        pi_values if is_pi else ppi_values, name, (preferred, 1 - preferred)
                    )
        # Fall back to any free input.
        for pi, value in pi_values.items():
            if value is None:
                return pi_values, pi, (0, 1)
        if self.decide_ppis:
            for ppi, value in ppi_values.items():
                if value is None:
                    return ppi_values, ppi, (0, 1)
        return None
