"""Critical path tracing (CPT) for robust gate delay faults.

Given a fully specified two-pattern test, the simulator determines every gate
delay fault that the pattern detects robustly, without targeting them one by
one:

* within fanout-free regions, criticality is decided locally: an input of a
  gate lies on a robust critical path if replacing its transition by the
  fault-carrying variant still yields a fault-carrying gate output (this is a
  direct application of the algebra's Table 1 rules);
* at fanout stems, where reconvergence can mask or multiply the effect, the
  stem is resolved exactly by injecting the stem fault and re-simulating the
  two frames (the standard stem-analysis refinement of CPT);
* faults that are observable only through a pseudo primary output are
  additionally checked for *state invalidation*: the fault effect must not
  disturb any pseudo primary output whose value the propagation phase relied
  on (paper section 5, last paragraph).

Every simulation runs through the implication engine the simulator holds
(:mod:`repro.tdgen.implication`), so one code path serves both backends.
The good machine is the engine's fault-free implication of the pattern;
every stem analysis (both transition directions) and the PPO confirmation
(all candidates) is one :meth:`~repro.tdgen.implication.ImplicationEngine.implicate_faults`
batch on it, one injected fault per slot.  The packed engine (the process
default) runs such a batch as one event-driven set-word sweep that
evaluates only the gates the fault effects reach; the reference engine
interprets one pass per consumed slot.  Each stem is analysed once per
:meth:`DelayFaultSimulator.simulate` call; every observation point that
reaches it reads its verdict from the same batch.  A caller that needs the
good machine first (the crediting step of the flow reads the state latched
after the fast frame from it) computes it with
:meth:`DelayFaultSimulator.good_machine` and hands it to ``simulate``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.sets import ValueSet, has_fault_value, is_singleton
from repro.algebra.tables import evaluate_delay_gate
from repro.algebra.values import ALL_VALUES, DelayValue, F, R
from repro.circuit.netlist import Circuit, Line, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.fausim.backends import resolve_backend
from repro.obs.metrics import resolve_metrics
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import CandidateStates, create_implication_engine


@dataclasses.dataclass
class GoodMachine:
    """The fault-free two-frame pass of one fully specified pattern.

    Attributes:
        values: the good-machine algebra value of every signal.
        view: the ``(batch, index)`` view of the implication engine's
            fault-free implication of the pattern (the base of every
            injection batch of a :meth:`DelayFaultSimulator.simulate` call).
    """

    values: Dict[str, DelayValue]
    view: Tuple[CandidateStates, int]

    def latched_state(self, circuit: Circuit) -> Dict[str, Optional[int]]:
        """The state latched at the end of the fast frame (PPO final values)."""
        return {dff.name: self.values[dff.fanin[0]].final for dff in circuit.flip_flops}


@dataclasses.dataclass
class SimulatedDetection:
    """One fault detected by simulation, with the observation point used."""

    fault: GateDelayFault
    observation_point: str
    through_ppo: bool


class DelayFaultSimulator:
    """Robust delay fault simulator for one circuit.

    Args:
        circuit: circuit under test.
        robust: use the robust (paper Table 1) or relaxed non-robust tables.
        context: shared precomputed circuit data (built on demand).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            (defaults to the no-op null registry); counts simulation passes,
            stem analyses and PPO confirmations.
        backend: simulation backend name (see :mod:`repro.fausim.backends`)
            of the implication engine every simulation runs on: ``"packed"``
            sweeps set words on the compiled netlist, ``"reference"``
            interprets the set propagation.  ``None`` selects the process
            default.
    """

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        context: Optional[TDgenContext] = None,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.robust = robust
        self.context = context or TDgenContext(circuit)
        self.metrics = resolve_metrics(metrics)
        self.backend = resolve_backend(backend)
        # Every simulation routes through the backend-dispatched implication
        # engine, which shares one forward-implication implementation with
        # TDgen and SEMILET.
        self._implication = create_implication_engine(
            circuit, backend=self.backend, robust=robust, context=self.context
        )
        self._implication.set_metrics(self.metrics, site="tdsim")

    # ------------------------------------------------------------------ #
    def good_machine(
        self, pi_values: Mapping[str, DelayValue], ppi_initial: Mapping[str, int]
    ) -> GoodMachine:
        """The fault-free pass of one fully specified pattern.

        The implication engine implies the pattern; a signal left with more
        than one possible value raises ``ValueError``.  Pass the result to
        :meth:`simulate` as ``good`` to reuse it.
        """
        states = self._implication.implicate_candidates(
            pi_values, ppi_initial, None, (None,)
        )
        values: Dict[str, DelayValue] = {}
        for signal, value_set in zip(
            self._implication.compiled.signal_names, states.column_sets(0)
        ):
            if not is_singleton(value_set):
                raise ValueError(
                    "fault simulation needs a fully specified pattern; "
                    f"signal {signal!r} is not determined"
                )
            values[signal] = ALL_VALUES[value_set.bit_length() - 1]
        return GoodMachine(values, (states, 0))

    def simulate(
        self,
        pi_values: Mapping[str, DelayValue],
        ppi_initial: Mapping[str, int],
        observable_ppos: Sequence[str] = (),
        required_ppo_values: Optional[Mapping[str, int]] = None,
        good: Optional[GoodMachine] = None,
    ) -> List[SimulatedDetection]:
        """Return every gate delay fault robustly detected by the pattern.

        Args:
            pi_values: complete pair value per primary input.
            ppi_initial: complete initial-frame value per pseudo primary input.
            observable_ppos: pseudo primary output signals whose captured value
                reaches a primary output during the propagation phase (FAUSIM
                result); faults observed there are credited only if they pass
                the invalidation check.
            required_ppo_values: PPO values that the propagation phase relied
                on; a fault credited through a PPO must not disturb them.
            good: :meth:`good_machine` of the same pattern, if the caller
                already holds it.
        """
        required_ppo_values = dict(required_ppo_values or {})
        pi_values = dict(pi_values)
        ppi_initial = dict(ppi_initial)
        if self.metrics.enabled:
            self.metrics.inc("repro_tdsim_passes_total")
        if good is None:
            good = self.good_machine(pi_values, ppi_initial)
        values = good.values
        base = good.view

        po_points = [
            po for po in self.circuit.primary_outputs if values[po].is_transition
        ]
        ppo_points = [
            ppo
            for ppo in observable_ppos
            if ppo in values and values[ppo].is_transition
        ]

        detections: Dict[GateDelayFault, SimulatedDetection] = {}
        # One injection batch per analysed stem, shared by every observation
        # point (and both phases) of this pattern.
        stem_passes: Dict[str, CandidateStates] = {}

        # Phase A: CPT from primary outputs (no invalidation check needed).
        for po in po_points:
            for line in self._trace(
                po, values, pi_values, ppi_initial, base, stem_passes
            ):
                fault = self._fault_for(line, values)
                if fault is not None and fault not in detections:
                    detections[fault] = SimulatedDetection(fault, po, through_ppo=False)

        # Phase B: CPT from observable pseudo primary outputs; every candidate
        # must survive the exact injection + invalidation check.  Candidates
        # are collected first and confirmed in one injection batch, credited
        # in collection order.
        candidates: List[Tuple[GateDelayFault, str]] = []
        seen: Set[Tuple[GateDelayFault, str]] = set()
        for ppo in ppo_points:
            for line in self._trace(
                ppo, values, pi_values, ppi_initial, base, stem_passes
            ):
                fault = self._fault_for(line, values)
                if fault is None or fault in detections or (fault, ppo) in seen:
                    continue
                seen.add((fault, ppo))
                candidates.append((fault, ppo))
        confirmed = self._confirm_candidates(
            candidates, pi_values, ppi_initial, required_ppo_values, base
        )
        for (fault, ppo), passed in zip(candidates, confirmed):
            if passed and fault not in detections:
                detections[fault] = SimulatedDetection(fault, ppo, through_ppo=True)

        return list(detections.values())

    # ------------------------------------------------------------------ #
    # critical path tracing
    # ------------------------------------------------------------------ #
    def _trace(
        self,
        observation_point: str,
        values: Dict[str, DelayValue],
        pi_values: Dict[str, DelayValue],
        ppi_initial: Dict[str, int],
        good: Tuple[CandidateStates, int],
        stem_passes: Dict[str, CandidateStates],
    ) -> List[Line]:
        """Collect the critical lines feeding one observation point."""
        critical: List[Line] = []
        visited_stems: Set[str] = set()
        pending: List[str] = [observation_point]

        while pending:
            signal = pending.pop()
            if signal in visited_stems:
                continue
            visited_stems.add(signal)
            value = values[signal]
            if not value.is_transition:
                continue
            critical.append(Line(signal))

            gate = self.circuit.gate(signal)
            if not gate.gate_type.is_combinational:
                continue
            input_values = [values[source] for source in gate.fanin]
            for pin, source in enumerate(gate.fanin):
                source_value = values[source]
                if not source_value.is_transition:
                    continue
                if not self._locally_critical(gate.gate_type, input_values, pin):
                    continue
                fanout = self.circuit.fanout(source)
                multi = len(fanout) + (1 if self.circuit.is_primary_output(source) else 0) > 1
                if multi:
                    # The branch itself is critical; record it and resolve the
                    # stem exactly by injection.
                    critical.append(Line(source, LineKind.BRANCH, gate.name, pin))
                    if source not in visited_stems and self._stem_detected(
                        source,
                        observation_point,
                        pi_values,
                        ppi_initial,
                        good,
                        stem_passes,
                    ):
                        pending.append(source)
                else:
                    pending.append(source)
        return critical

    def _locally_critical(
        self, gate_type, input_values: List[DelayValue], pin: int
    ) -> bool:
        """Would a fault-carrying transition on this pin reach the gate output?"""
        modified = list(input_values)
        try:
            modified[pin] = modified[pin].with_fault()
        except ValueError:
            return False
        output = evaluate_delay_gate(gate_type, modified, self.robust)
        return output.fault

    def _stem_detected(
        self,
        stem: str,
        observation_point: str,
        pi_values: Dict[str, DelayValue],
        ppi_initial: Dict[str, int],
        good: Tuple[CandidateStates, int],
        stem_passes: Dict[str, CandidateStates],
    ) -> bool:
        """Exact stem analysis by injection simulation.

        The first analysis of a stem in a call injects both of its transition
        directions in one batch on the good machine's view ``good`` and
        keeps it in ``stem_passes``; later observation points read their
        verdict from it.
        """
        batch = stem_passes.get(stem)
        if batch is None:
            if self.metrics.enabled:
                self.metrics.inc("repro_tdsim_stem_analyses_total")
            faults = (
                GateDelayFault(Line(stem), DelayFaultType.SLOW_TO_RISE),
                GateDelayFault(Line(stem), DelayFaultType.SLOW_TO_FALL),
            )
            batch = stem_passes[stem] = self._implication.implicate_faults(
                pi_values, ppi_initial, faults, base=good
            )
        slot = self._implication.compiled.slot_of[observation_point]
        for index in range(len(batch)):
            observed = batch.column_sets(index)[slot]
            if is_singleton(observed) and has_fault_value(observed):
                return True
        return False

    @staticmethod
    def _fault_for(line: Line, values: Dict[str, DelayValue]) -> Optional[GateDelayFault]:
        """The delay fault provoked by the transition on a critical line."""
        value = values[line.signal]
        if value is R or (value.is_transition and value.is_rising):
            return GateDelayFault(line, DelayFaultType.SLOW_TO_RISE)
        if value is F or (value.is_transition and value.is_falling):
            return GateDelayFault(line, DelayFaultType.SLOW_TO_FALL)
        return None

    # ------------------------------------------------------------------ #
    # exact confirmation for PPO-observed faults
    # ------------------------------------------------------------------ #
    def _confirm_candidates(
        self,
        candidates: Sequence[Tuple[GateDelayFault, str]],
        pi_values: Dict[str, DelayValue],
        ppi_initial: Dict[str, int],
        required_ppo_values: Dict[str, int],
        good: Tuple[CandidateStates, int],
    ) -> List[bool]:
        """Run the injection + invalidation check for every (fault, PPO) pair.

        All injections share one batch on the good machine's view ``good``;
        one verdict per candidate, in order.  A candidate passes when its fault effect
        reaches its PPO and disturbs no PPO value the propagation phase
        depends on.
        """
        if not candidates:
            return []
        if self.metrics.enabled:
            self.metrics.inc("repro_tdsim_ppo_confirmations_total", len(candidates))
        batch = self._implication.implicate_faults(
            pi_values, ppi_initial, [fault for fault, _ in candidates], base=good
        )
        # The invalidation check reads every required PPO of every
        # candidate in its slot column: (PPO, slot, the sets that keep its
        # value) per required PPO; a name that is no signal keeps nothing.
        slot_of = self._implication.compiled.slot_of
        required = [
            (other, slot_of[other], _CAPTURES.get(value, 0)) if other in slot_of else (other, 0, 0)
            for other, value in required_ppo_values.items()
        ]
        verdicts: List[bool] = []
        for index, (_, ppo) in enumerate(candidates):
            column = batch.column_sets(index)
            observed = column[slot_of[ppo]]
            verdicts.append(
                is_singleton(observed)
                and has_fault_value(observed)
                and _keeps_required_ppos(column, ppo, required)
            )
        return verdicts


#: Final value -> the fault-free values that capture it.
_CAPTURES: Dict[int, ValueSet] = {
    final: sum(value.mask for value in ALL_VALUES if not value.fault and value.final == final)
    for final in (0, 1)
}


def _keeps_required_ppos(
    column: Sequence[ValueSet], ppo: str, required: Sequence[Tuple[str, int, ValueSet]]
) -> bool:
    """Invalidation check: no PPO other than ``ppo`` leaves its required value.

    ``required`` holds ``(PPO, slot, captures)``: the PPO keeps its value
    when its set in ``column`` is one of the fault-free values ``captures``.
    """
    for other_ppo, slot, captures in required:
        if other_ppo != ppo:
            value_set = column[slot]
            if not (is_singleton(value_set) and value_set & captures):
                return False
    return True
