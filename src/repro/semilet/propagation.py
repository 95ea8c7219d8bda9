"""Fault-effect propagation with forward time processing.

After the fast clock frame the fault effect sits in the state register: the
good machine and the faulty machine agree on every signal except one or more
pseudo primary inputs (and possibly disagree on nothing observable yet).
Because only slow clocks are applied from now on, both machines follow the
same fault-free logic; the effect behaves like a static D injected into the
state.

:class:`PropagationEngine` searches, frame by frame (forward time
processing), for primary input vectors that steer the difference to a primary
output.  Within a frame it runs a small PODEM over the pair logic
(good value, faulty value) on the shared decision loop
(:func:`repro.tdgen.decide.decision_search`), which fails the frame on any
stop other than success; across frames it backtracks over the alternative
pseudo primary outputs the difference was parked in.

The pair simulation itself goes through the backend-dispatched implication
engine (:mod:`repro.tdgen.implication`).  The root of a frame search (the
empty assignment) is simulated once per frame and shared by all of its
goals.  When a frame decision is opened, both alternatives are submitted as
one candidate batch together with the current view; the packed engine
evaluates it in one word-parallel, event-driven pass (good and faulty
machine in adjacent pattern slots) that visits only the gates the decision
variable reaches.  The per-decision search residue — classifying a frame
against its goal's observation points (the X-path check) and the D-frontier
decision backtrace — goes through the engine's search kernels
(:mod:`repro.tdgen.search`), which read one candidate's pair codes; the
``reference`` engine builds those codes with interpreted per-name walks,
the ``packed`` one with its bit-parallel pair analysis.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.fausim.logic_sim import SignalValues
from repro.obs.metrics import resolve_metrics
from repro.tdgen.decide import Stop, decision_search
from repro.fausim.kernels import PAIR_PLANES
from repro.tdgen.implication import (
    _PAIR_OF_CODE,
    CandidatePairFrames,
    _differs,
    create_implication_engine,
)

#: How many alternative state bits a frame may park the difference in
#: before the frame search gives up.
FRAME_ALTERNATIVES = 3


@dataclasses.dataclass
class FrameSolution:
    """One frame of a propagation solution."""

    pi_assignment: Dict[str, int]
    observed_po: Optional[str]
    next_good_state: SignalValues
    next_faulty_state: SignalValues
    required_free_ppis: Dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class PropagationResult:
    """Outcome of the propagation phase."""

    success: bool
    vectors: List[Dict[str, int]] = dataclasses.field(default_factory=list)
    observed_po: Optional[str] = None
    observation_frame: Optional[int] = None
    required_first_frame_ppis: Dict[str, int] = dataclasses.field(default_factory=dict)
    backtracks: int = 0
    aborted: bool = False

    def __bool__(self) -> bool:
        return self.success


class PropagationEngine:
    """Multi-frame forward propagation of a captured fault effect.

    Args:
        circuit: circuit under test.
        max_frames: bound on the number of slow-clock propagation frames.
        backtrack_limit: per-propagation backtrack budget (paper: 100).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            (defaults to the no-op null registry); counts pair-frame
            implication sweeps and SEMILET backtracks.
        backend: implication engine backend used for the pair simulation
            (``None`` selects the process default).
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
        self._implication = create_implication_engine(circuit, backend=backend)
        self._implication.set_metrics(self.metrics, site="propagation")
        #: Search kernels of the same backend: potential-difference scan and
        #: the pair-frame decision backtrace (see :mod:`repro.tdgen.search`).
        self._kernels = self._implication.search_kernels()
        self._deadline: Optional[float] = None

    def _expired(self) -> bool:
        """True when the caller-supplied propagation deadline has passed."""
        return self._deadline is not None and time.perf_counter() > self._deadline

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def propagate(
        self,
        good_state: SignalValues,
        faulty_state: SignalValues,
        assignable_ppis: Optional[Sequence[str]] = None,
        deadline: Optional[float] = None,
    ) -> PropagationResult:
        """Find input vectors that make the state difference visible at a PO.

        Args:
            good_state: good machine state after the fast frame (X allowed).
            faulty_state: faulty machine state after the fast frame.
            assignable_ppis: pseudo primary inputs whose (currently unknown)
                value the *first* propagation frame may require; the chosen
                values are returned as ``required_first_frame_ppis`` and must
                then be justified by TDgen in the fast frame (propagation
                justification).
            deadline: optional :func:`time.perf_counter` timestamp after which
                the search gives up; an expired search counts as aborted.
        """
        self._deadline = deadline
        budget = {"backtracks": 0}
        assignable = set(assignable_ppis or [])
        frames = self._search(
            good_state, faulty_state, depth=0, budget=budget, assignable=assignable
        )
        if frames is None:
            return PropagationResult(
                success=False,
                backtracks=budget["backtracks"],
                aborted=budget["backtracks"] > self.backtrack_limit or self._expired(),
            )
        vectors = [frame.pi_assignment for frame in frames]
        required = dict(frames[0].required_free_ppis) if frames else {}
        return PropagationResult(
            success=True,
            vectors=vectors,
            observed_po=frames[-1].observed_po,
            observation_frame=len(frames) - 1,
            required_first_frame_ppis=required,
            backtracks=budget["backtracks"],
        )

    # ------------------------------------------------------------------ #
    # recursive frame search
    # ------------------------------------------------------------------ #
    def _search(
        self,
        good_state: SignalValues,
        faulty_state: SignalValues,
        depth: int,
        budget: Dict[str, int],
        assignable: Set[str],
    ) -> Optional[List[FrameSolution]]:
        if (
            depth >= self.max_frames
            or budget["backtracks"] > self.backtrack_limit
            or self._expired()
        ):
            return None

        first_frame_assignable = assignable if depth == 0 else set()
        # Every goal of this frame starts from the same empty assignment, so
        # one pair simulation of it is the root of each frame search.
        root = self._implication.pair_frame_candidates(
            {pi: None for pi in self.circuit.primary_inputs},
            good_state, faulty_state,
            {ppi: None for ppi in first_frame_assignable}, (None,),
        )
        if self.metrics.enabled:
            self.metrics.inc("repro_implication_sweeps_total", site="propagation")

        # Goal 1: observe the difference at a primary output in this frame.
        solution = self._solve_frame(
            root, good_state, faulty_state, goal="po", blocked_targets=set(),
            assignable=first_frame_assignable,
        )
        if solution is not None:
            return [solution]

        # Goal 2: park the difference in the next state and recurse.
        blocked: Set[str] = set()
        for _ in range(FRAME_ALTERNATIVES):
            solution = self._solve_frame(
                root, good_state, faulty_state, goal="ppo", blocked_targets=blocked,
                assignable=first_frame_assignable,
            )
            if solution is None:
                return None
            rest = self._search(
                solution.next_good_state,
                solution.next_faulty_state,
                depth + 1,
                budget,
                assignable,
            )
            if rest is not None:
                return [solution] + rest
            budget["backtracks"] += 1
            if budget["backtracks"] > self.backtrack_limit:
                return None
            # Try steering the difference into other state bits next time.
            blocked.update(
                ppi
                for ppi in self.circuit.pseudo_primary_inputs
                if _differs(solution.next_good_state.get(ppi), solution.next_faulty_state.get(ppi))
            )
        return None

    # ------------------------------------------------------------------ #
    # single-frame pair-logic PODEM
    # ------------------------------------------------------------------ #
    def _solve_frame(
        self,
        root: CandidatePairFrames,
        good_state: SignalValues,
        faulty_state: SignalValues,
        goal: str,
        blocked_targets: Set[str],
        assignable: Set[str],
    ) -> Optional[FrameSolution]:
        pi_values: Dict[str, Optional[int]] = {pi: None for pi in self.circuit.primary_inputs}
        free_ppi_values: Dict[str, Optional[int]] = {ppi: None for ppi in assignable}
        kernels = self._kernels
        targets = kernels.pair_frame_targets(goal, blocked_targets)

        def classify(frames: CandidatePairFrames, cursor: int) -> str:
            return kernels.classify_pair_frame(frames, cursor, targets)

        def decide(frames: CandidatePairFrames, cursor: int):
            decision_key = kernels.pair_frame_decision(
                frames, cursor, pi_values, free_ppi_values
            )
            if decision_key is None:
                return None
            name, is_pi, preferred = decision_key
            return (
                pi_values if is_pi else free_ppi_values, name, (preferred, 1 - preferred)
            )

        def imply(frames: CandidatePairFrames, cursor: int, assignment, name, values):
            # Evaluate both values of the new decision in one batch, from
            # the current view (the packed engine only re-evaluates what the
            # variable reaches).
            is_pi = assignment is pi_values
            batch = self._implication.pair_frame_candidates(
                pi_values, good_state, faulty_state, free_ppi_values,
                [(name, is_pi, value) for value in values],
                base=(frames, cursor),
            )
            if self.metrics.enabled:
                self.metrics.inc("repro_implication_sweeps_total", site="propagation")
            return batch

        # ``root`` is the pair simulation of the empty assignment; later
        # frames come from the decision nodes' candidate batches (one engine
        # sweep per node).
        outcome = decision_search(
            root, classify, decide, imply, self.backtrack_limit, deadline=self._deadline
        )
        if outcome.stop is not Stop.SUCCESS:
            return None
        # The winning candidate's pair codes, read at the flip-flop data
        # inputs (the next state) and at the primary outputs.
        codes = outcome.batch.columns(outcome.cursor).codes
        compiled = self._implication.compiled
        next_good = {}
        next_faulty = {}
        for ppi_slot, data_slot in zip(compiled.ppi_slots, compiled.dff_data_slots):
            good_value, faulty_value = _PAIR_OF_CODE[codes[data_slot] & PAIR_PLANES]
            ppi = compiled.signal_names[ppi_slot]
            next_good[ppi] = good_value
            next_faulty[ppi] = faulty_value
        observed = None
        if goal == "po":
            for po, slot in zip(self.circuit.primary_outputs, compiled.po_slots):
                if _differs(*_PAIR_OF_CODE[codes[slot] & PAIR_PLANES]):
                    observed = po
                    break
        return FrameSolution(
            pi_assignment={pi: value for pi, value in pi_values.items() if value is not None},
            observed_po=observed,
            next_good_state=next_good,
            next_faulty_state=next_faulty,
            required_free_ppis={
                ppi: value for ppi, value in free_ppi_values.items() if value is not None
            },
        )
