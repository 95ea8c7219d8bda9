"""TDgen decision procedure.

A PODEM-style branch-and-bound, run by the decision loop shared with
SEMILET (:func:`repro.tdgen.decide.decision_search`): decisions are made
only on primary input pairs (four possible values each: ``0``, ``1``,
``R``, ``F``) and on the initial-frame values of the pseudo primary inputs
(two possible values each).
Every other signal is derived by the forward implication of the
backend-dispatched engine (:mod:`repro.tdgen.implication`): when a decision
node is opened, *all* alternatives of its variable are submitted as one
candidate batch — the packed engine implies them in a single word-parallel
sweep over the compiled netlist, and later backtracks to the node flip to an
already-implied slot instead of re-running the forward pass.  The
per-decision search residue — D-frontier objective selection and the
multiple backtrace to an unassigned decision variable — goes through the
engine's search kernels (:mod:`repro.tdgen.search`).  The search addresses
its current state as the ``(states, cursor)`` view of a candidate batch and
reads it in the compiled slot order only, on both backends.  Because each
decision node enumerates the complete domain of its variable, an exhausted
search proves the fault robustly untestable in the combinational sense; any
other stop (backtrack limit, deadline, decision bound) aborts the fault
(Table 3's "aborted" column).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.sets import (
    ValueSet,
    contains,
    has_fault_value,
    is_singleton,
    members,
    single_value,
)
from repro.algebra.values import DelayValue, F, R, V0, V1
from repro.circuit.netlist import Circuit
from repro.faults.model import GateDelayFault
from repro.obs.metrics import resolve_metrics
from repro.tdgen.context import TDgenContext
from repro.tdgen.decide import Stop, decision_search
from repro.tdgen.implication import CandidateStates, create_implication_engine
from repro.tdgen.result import LocalTest, LocalTestStatus
from repro.tdgen.simulation import FAULT_MASK

_PI_VALUE_ORDER: Tuple[DelayValue, ...] = (V0, V1, R, F)


class TDgen:
    """Local robust gate delay fault test generator.

    Args:
        circuit: circuit (or a prebuilt :class:`TDgenContext`).
        robust: use the robust algebra (paper Table 1) or the relaxed
            non-robust variant.
        backtrack_limit: abort the fault after this many backtracks
            (paper: 100).
        max_decisions: hard safety bound on the number of decisions per fault.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            (defaults to the no-op null registry); counts decisions and
            implication sweeps per :meth:`generate` call.
        backend: implication engine backend (see
            :mod:`repro.tdgen.implication`); ``None`` selects the process
            default shared with the simulation backends.
    """

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        backtrack_limit: int = 100,
        max_decisions: int = 20000,
        context: Optional[TDgenContext] = None,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.context = context or TDgenContext(circuit)
        self.robust = robust
        self.backtrack_limit = backtrack_limit
        self.max_decisions = max_decisions
        self.metrics = resolve_metrics(metrics)
        self.implication = create_implication_engine(
            circuit, backend=backend, robust=robust, context=self.context
        )
        self.implication.set_metrics(self.metrics, site="tdgen")
        #: Search kernels of the same backend: objective selection and
        #: multiple backtrace (see :mod:`repro.tdgen.search`).
        self.search = self.implication.search_kernels()
        self._ppo_signals = list(dict.fromkeys(circuit.pseudo_primary_outputs))
        self._po_signals = list(dict.fromkeys(circuit.primary_outputs))
        self._slot_of = self.search.compiled.slot_of
        #: ``(PPO, slot)`` per pseudo primary output, for the result.
        self._ppo_slots = [(ppo, self._slot_of[ppo]) for ppo in self._ppo_signals]

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(
        self,
        fault: GateDelayFault,
        required_ppo_values: Optional[Dict[str, int]] = None,
        blocked_observation: Sequence[str] = (),
        allow_ppo_observation: bool = True,
        blocked_states: Sequence[Dict[str, int]] = (),
        deadline: Optional[float] = None,
    ) -> LocalTest:
        """Generate a robust two-pattern test for ``fault``.

        Args:
            fault: the targeted gate delay fault.
            required_ppo_values: extra justification objectives — PPO signals
                that must settle to a clean steady value (used by the
                propagation-justification step of FOGBUSTER).
            blocked_observation: observation signals the caller does not want
                the fault effect steered to (used when the flow backtracks
                between its phases).
            allow_ppo_observation: when ``False`` only primary outputs count as
                observation points (the enhanced-scan baseline sets this).
            blocked_states: partial initial-state requirements that the caller
                has proven unreachable (unsynchronisable); the search treats
                any assignment that requires one of them as a conflict.  This
                is the inter-phase backtracking channel of FOGBUSTER: when the
                initialisation phase fails, the flow re-enters local test
                generation with the failing state blocked.
            deadline: optional :func:`time.perf_counter` timestamp after which
                the search aborts the fault (campaign time budgets are passed
                down here so a single slow fault cannot blow the budget).

        With a live metrics registry the call counts the search's decisions
        and implication sweeps (one batch sweep per opened decision node
        plus the root sweep); the search itself is identical either way.
        """
        # ``(slot, required value)`` per constraint PPO.
        constraints = [
            (self._slot_of[ppo], value)
            for ppo, value in (required_ppo_values or {}).items()
        ]
        blocked: Set[str] = set(blocked_observation)
        unreachable = [dict(state) for state in blocked_states if state]
        pi_values: Dict[str, Optional[DelayValue]] = {
            pi: None for pi in self.circuit.primary_inputs
        }
        ppi_initial: Dict[str, Optional[int]] = {
            ppi: None for ppi in self.circuit.pseudo_primary_inputs
        }
        observation = self._observation_points(blocked, allow_ppo_observation)
        observation_slots = self._observation_slots(fault, observation)

        def classify(states: CandidateStates, cursor: int) -> str:
            return self._classify(
                states, cursor, fault, constraints, observation_slots, unreachable
            )

        def decide(states: CandidateStates, cursor: int):
            objective = self._objective(states, cursor, fault, constraints)
            decision_key, preferred = (None, None)
            if objective is not None:
                decision_key, preferred = self.search.backtrace(
                    states, cursor, fault, objective, pi_values, ppi_initial
                )
            if decision_key is None:
                decision_key, preferred = self._fallback_decision(pi_values, ppi_initial)
            if decision_key is None:
                return None
            kind, name = decision_key
            domain = _PI_VALUE_ORDER if kind == "pi" else (0, 1)
            values = [preferred] + [value for value in domain if value != preferred]
            return (pi_values if kind == "pi" else ppi_initial), name, values

        def imply(states: CandidateStates, cursor: int, assignment, name, values):
            # Imply every value of the new decision variable in one batch.
            # Passing the current view lets the packed engine run the sweep
            # incrementally over just the variable's influence cone instead
            # of the whole circuit.
            kind = "pi" if assignment is pi_values else "ppi"
            return self.implication.implicate_candidates(
                pi_values, ppi_initial, fault,
                [(kind, name, value) for value in values],
                base=(states, cursor),
            )

        # The implication of the empty assignment; every later state comes
        # from a decision node's candidate batch.
        root = self.implication.implicate_candidates(pi_values, ppi_initial, fault, (None,))
        outcome = decision_search(
            root, classify, decide, imply, self.backtrack_limit,
            deadline=deadline, max_decisions=self.max_decisions,
        )
        if outcome.stop is Stop.SUCCESS:
            result = self._build_result(
                fault, outcome.batch.column_sets(outcome.cursor), pi_values,
                ppi_initial, observation, outcome.backtracks, outcome.decisions,
            )
        else:
            result = LocalTest(
                fault=fault,
                status=(
                    LocalTestStatus.UNTESTABLE
                    if outcome.stop is Stop.EXHAUSTED
                    else LocalTestStatus.ABORTED
                ),
                backtracks=outcome.backtracks,
                decisions=outcome.decisions,
            )
        if self.metrics.enabled:
            if result.decisions:
                self.metrics.inc("repro_decisions_total", result.decisions)
            self.metrics.inc(
                "repro_implication_sweeps_total", result.decisions + 1, site="tdgen"
            )
        return result

    # ------------------------------------------------------------------ #
    # classification of a simulation state
    # ------------------------------------------------------------------ #
    def _observation_points(
        self, blocked: Set[str], allow_ppo_observation: bool
    ) -> List[Tuple[str, int]]:
        """``(signal, slot)`` of every unblocked observation point, POs first."""
        signals = [po for po in self._po_signals if po not in blocked]
        if allow_ppo_observation:
            signals.extend(ppo for ppo in self._ppo_signals if ppo not in blocked)
        return [(signal, self._slot_of[signal]) for signal in signals]

    def _observation_slots(
        self, fault: GateDelayFault, observation: Sequence[Tuple[str, int]]
    ) -> Tuple[int, ...]:
        """The observation slots inside the fault's cone, once per search.

        No observation point outside the cone
        (:meth:`~repro.tdgen.search.SearchKernels.fault_cone`) can ever
        carry a fault value, so the X-path and success checks skip them.
        """
        cone = self.search.fault_cone(fault).slots
        return tuple(dict.fromkeys(slot for _, slot in observation if slot in cone))

    def _classify(
        self,
        states: CandidateStates,
        cursor: int,
        fault: GateDelayFault,
        constraints: Sequence[Tuple[int, int]],
        observation_slots: Sequence[int],
        blocked_states: List[Dict[str, int]],
    ) -> str:
        if states.conflict_signal(cursor) is not None:
            return "conflict"

        # Blocked (unsynchronisable) initial states: if the current decisions
        # already pin the state to one of them, force a backtrack.
        if blocked_states:
            ppi_pair_sets = states.ppi_pair_sets(cursor)
            for blocked_state in blocked_states:
                if all(
                    is_singleton(ppi_pair_sets.get(ppi, 0))
                    and single_value(ppi_pair_sets[ppi]).initial == value
                    for ppi, value in blocked_state.items()
                ):
                    return "conflict"

        # Activation check: the fault-carrying value must still be possible at
        # the fault line.
        if not contains(states.fault_line_set(cursor), fault.fault_value):
            return "conflict"

        # Constraint feasibility: every required PPO value must still be able
        # to settle to the requested value (robust mode additionally demands a
        # clean steady waveform, see section 6 of the paper).  The checks
        # read the candidate's slot column.
        column = states.column_sets(cursor)
        for slot, value in constraints:
            if not self._constraint_possible(column[slot], value):
                return "conflict"

        # X-path check: some observation point must still be able to carry the
        # fault effect.
        possible = [
            value_set
            for value_set in (column[slot] for slot in observation_slots)
            if value_set & FAULT_MASK
        ]
        if not possible:
            return "conflict"

        # Success: a guaranteed fault value at an observation point and all
        # constraints definitely satisfied.
        if any(value_set & (value_set - 1) == 0 for value_set in possible):
            satisfied = all(
                self._constraint_satisfied(column[slot], value)
                for slot, value in constraints
            )
            if satisfied:
                return "success"
        return "continue"

    def _constraint_possible(self, value_set: ValueSet, required: int) -> bool:
        """Can this PPO still be specified to SEMILET with the required value?"""
        if self.robust:
            needed = V0 if required == 0 else V1
            return contains(value_set, needed)
        return any(
            value.final == required and not value.fault for value in members(value_set)
        )

    def _constraint_satisfied(self, value_set: ValueSet, required: int) -> bool:
        """Is the required PPO value guaranteed under the current assignment?"""
        if not is_singleton(value_set):
            return False
        value = single_value(value_set)
        if value.fault:
            return False
        if self.robust:
            return value.is_hazard_free_steady and value.final == required
        return value.final == required

    # ------------------------------------------------------------------ #
    # objectives and backtrace
    # ------------------------------------------------------------------ #
    def _objective(
        self,
        states: CandidateStates,
        cursor: int,
        fault: GateDelayFault,
        constraints: Sequence[Tuple[int, int]],
    ) -> Optional[Tuple[str, DelayValue]]:
        # 1. Activate the fault: drive the fault site to the provoking transition.
        fault_line_set = states.fault_line_set(cursor)
        if not (
            is_singleton(fault_line_set) and contains(fault_line_set, fault.fault_value)
        ):
            return (fault.line.signal, fault.activation_value)

        # 2. Satisfy outstanding justification constraints (propagation
        #    justification requirements coming back from SEMILET).
        column = states.column_sets(cursor)
        for slot, value in constraints:
            needed = V0 if value == 0 else V1
            value_set = column[slot]
            if not (is_singleton(value_set) and contains(value_set, needed)):
                return (self.search.compiled.signal_names[slot], needed)

        # 3. Propagate: pick a D-frontier gate and set an off-path input via
        #    the search kernels (a scan of the candidate's slot column).
        return self.search.propagation_objective(states, cursor, fault)

    def _fallback_decision(
        self,
        pi_values: Dict[str, Optional[DelayValue]],
        ppi_initial: Dict[str, Optional[int]],
    ) -> Tuple[Optional[Tuple[str, str]], Optional[object]]:
        for pi in self.circuit.primary_inputs:
            if pi_values[pi] is None:
                return ("pi", pi), V0
        for ppi in self.circuit.pseudo_primary_inputs:
            if ppi_initial[ppi] is None:
                return ("ppi", ppi), 0
        return None, None

    # ------------------------------------------------------------------ #
    # result construction
    # ------------------------------------------------------------------ #
    def _build_result(
        self,
        fault: GateDelayFault,
        column: Sequence[ValueSet],
        pi_values: Dict[str, Optional[DelayValue]],
        ppi_initial: Dict[str, Optional[int]],
        observation: Sequence[Tuple[str, int]],
        backtracks: int,
        decisions: int,
    ) -> LocalTest:
        """The local test of a successful search, read off its slot column."""
        observed = [
            signal
            for signal, slot in observation
            if is_singleton(column[slot]) and has_fault_value(column[slot])
        ]
        po_set = set(self._po_signals)
        observed_pos = [signal for signal in observed if signal in po_set]
        observed_ppos = [signal for signal in observed if signal not in po_set]

        ppo_final_values: Dict[str, Optional[int]] = {}
        ppo_fault_effects: Dict[str, DelayValue] = {}
        for ppo, slot in self._ppo_slots:
            value_set = column[slot]
            if is_singleton(value_set):
                value = single_value(value_set)
                if value.fault:
                    ppo_fault_effects[ppo] = value
                    ppo_final_values[ppo] = None
                elif value.is_hazard_free_steady:
                    # Only equal, hazard-free initial/final values may be
                    # specified to SEMILET (paper section 6).
                    ppo_final_values[ppo] = value.final
                elif not self.robust:
                    # Non-robust model: the stabilisation guarantee is waived,
                    # so transitioning or hazardous PPOs may be specified by
                    # their settled final value.  This is exactly the
                    # restriction the paper blames for most sequentially
                    # untestable faults.
                    ppo_final_values[ppo] = value.final
                else:
                    ppo_final_values[ppo] = None
            else:
                ppo_final_values[ppo] = None

        return LocalTest(
            fault=fault,
            status=LocalTestStatus.SUCCESS,
            pi_values=dict(pi_values),
            ppi_initial={ppi: value for ppi, value in ppi_initial.items() if value is not None},
            observation_points=observed_pos + observed_ppos,
            observed_at_po=bool(observed_pos),
            ppo_final_values=ppo_final_values,
            ppo_fault_effects=ppo_fault_effects,
            backtracks=backtracks,
            decisions=decisions,
        )
