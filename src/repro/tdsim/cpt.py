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

With ``backend="packed"`` (the process default, see
:mod:`repro.fausim.backends`) the exact injection simulations run on the
compiled netlist through the fault-parallel eight-valued simulator
(:mod:`repro.fausim.packed_two_frame`).  One full good-machine pass per
pattern serves as the base of every other pass of that
:meth:`DelayFaultSimulator.simulate` call: a stem analysis (both transition
directions in one pass) and the PPO confirmation pass (all candidates in
one) are event-driven and evaluate only the gates their fault effects
reach.  Each stem is analysed once per call; every observation point that
reaches it reads its verdict from the same pass.  The remaining
single-injection simulations (and the whole ``backend="reference"`` oracle
path of the differential test-suite) route through the shared implication
engine (:mod:`repro.tdgen.implication`) instead of calling the interpreter
directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.tables import evaluate_delay_gate
from repro.algebra.values import DelayValue, F, R
from repro.circuit.netlist import Circuit, Line, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.fausim.backends import create_two_frame_simulator, resolve_backend
from repro.fausim.packed_two_frame import PackedTwoFrameResult, PackedTwoFrameSimulator
from repro.obs.metrics import resolve_metrics
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine
from repro.algebra.sets import has_fault_value, is_singleton, single_value


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
        backend: simulation backend name (see :mod:`repro.fausim.backends`);
            ``"packed"`` routes the exact injection simulations through the
            compiled fault-parallel evaluator, ``"reference"`` keeps the
            interpreted set-propagation path.  ``None`` selects the process
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
        # The compiled backend gets a fault-parallel two-frame simulator, so
        # a whole candidate batch is a single pass.
        self._packed: Optional[PackedTwoFrameSimulator] = create_two_frame_simulator(
            circuit, robust=robust, backend=self.backend
        )
        # All remaining single-injection simulations route through the
        # backend-dispatched implication engine, so the reference path shares
        # one forward-implication implementation with TDgen and SEMILET.
        self._implication = create_implication_engine(
            circuit, backend=self.backend, robust=robust, context=self.context
        )
        self._implication.set_metrics(self.metrics, site="tdsim")
        if self._packed is not None:
            self._packed.metrics = self.metrics

    # ------------------------------------------------------------------ #
    def simulate(
        self,
        pi_values: Mapping[str, DelayValue],
        ppi_initial: Mapping[str, int],
        observable_ppos: Sequence[str] = (),
        required_ppo_values: Optional[Mapping[str, int]] = None,
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
        """
        required_ppo_values = dict(required_ppo_values or {})
        pi_values = dict(pi_values)
        ppi_initial = dict(ppi_initial)
        if self.metrics.enabled:
            self.metrics.inc("repro_tdsim_passes_total")
        values: Dict[str, DelayValue]
        good: Optional[PackedTwoFrameResult] = None
        if self._packed is not None:
            good = self._packed.simulate(pi_values, ppi_initial, (None,))
            values = good.values_for_pattern(0)
        else:
            good_state = self._implication.implicate(pi_values, ppi_initial, fault=None)
            values = {}
            for signal, value_set in good_state.signal_sets.items():
                if not is_singleton(value_set):
                    raise ValueError(
                        "fault simulation needs a fully specified pattern; "
                        f"signal {signal!r} is not determined"
                    )
                values[signal] = single_value(value_set)

        po_points = [
            po for po in self.circuit.primary_outputs if values[po].is_transition
        ]
        ppo_points = [
            ppo
            for ppo in observable_ppos
            if ppo in values and values[ppo].is_transition
        ]

        detections: Dict[GateDelayFault, SimulatedDetection] = {}
        # One injection pass per analysed stem, shared by every observation
        # point (and both phases) of this pattern.
        stem_passes: Dict[str, object] = {}

        # Phase A: CPT from primary outputs (no invalidation check needed).
        for po in po_points:
            for line in self._trace(
                po, values, pi_values, ppi_initial, good, stem_passes
            ):
                fault = self._fault_for(line, values)
                if fault is not None and fault not in detections:
                    detections[fault] = SimulatedDetection(fault, po, through_ppo=False)

        # Phase B: CPT from observable pseudo primary outputs; every candidate
        # must survive the exact injection + invalidation check.  Candidates
        # are collected first so the packed backend can confirm all of them
        # in one simulation pass; crediting in collection order
        # keeps the result identical to the one-by-one reference loop.
        candidates: List[Tuple[GateDelayFault, str]] = []
        seen: Set[Tuple[GateDelayFault, str]] = set()
        for ppo in ppo_points:
            for line in self._trace(
                ppo, values, pi_values, ppi_initial, good, stem_passes
            ):
                fault = self._fault_for(line, values)
                if fault is None or fault in detections or (fault, ppo) in seen:
                    continue
                seen.add((fault, ppo))
                candidates.append((fault, ppo))
        confirmed = self._confirm_candidates(
            candidates, pi_values, ppi_initial, required_ppo_values, good
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
        good: Optional[PackedTwoFrameResult],
        stem_passes: Dict[str, object],
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
        good: Optional[PackedTwoFrameResult],
        stem_passes: Dict[str, object],
    ) -> bool:
        """Exact stem analysis by injection simulation.

        The first analysis of a stem in a call injects both of its transition
        directions — one event-driven pass on ``good`` for the packed
        backend, two interpreted passes for the reference backend — and
        keeps the result in ``stem_passes``; later observation points read
        their verdict from it.
        """
        result = stem_passes.get(stem)
        if result is None:
            if self.metrics.enabled:
                self.metrics.inc("repro_tdsim_stem_analyses_total")
            faults = (
                GateDelayFault(Line(stem), DelayFaultType.SLOW_TO_RISE),
                GateDelayFault(Line(stem), DelayFaultType.SLOW_TO_FALL),
            )
            if self._packed is not None:
                result = self._packed.simulate(
                    pi_values, ppi_initial, faults, base=good
                )
            else:
                result = [
                    self._implication.implicate(pi_values, ppi_initial, fault=fault)
                    for fault in faults
                ]
            stem_passes[stem] = result
        if self._packed is not None:
            return result.fault_effect_mask(observation_point) != 0
        for state in result:
            observed = state.signal_sets.get(observation_point, 0)
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
        good: Optional[PackedTwoFrameResult],
    ) -> List[bool]:
        """Run the injection + invalidation check for every (fault, PPO) pair.

        With the packed backend all injections share a single event-driven
        pass on ``good``; the reference backend checks one candidate at a
        time.  Both return one verdict per candidate, in order.
        """
        if not candidates:
            return []
        if self.metrics.enabled:
            self.metrics.inc("repro_tdsim_ppo_confirmations_total", len(candidates))
        if self._packed is None:
            return [
                self._confirmed_through_ppo(
                    fault, ppo, pi_values, ppi_initial, required_ppo_values
                )
                for fault, ppo in candidates
            ]
        verdicts: List[bool] = []
        slot_of = self._packed.compiled.slot_of
        result = self._packed.simulate(
            pi_values, ppi_initial, [fault for fault, _ in candidates], base=good
        )
        for pattern, (fault, ppo) in enumerate(candidates):
            passed = bool(result.fault_effect_mask(ppo) & (1 << pattern))
            if passed:
                # Invalidation check: the fault must not disturb any PPO
                # value the propagation phase depends on.
                for other_ppo, required in required_ppo_values.items():
                    if other_ppo == ppo:
                        continue
                    if other_ppo not in slot_of:
                        passed = False
                        break
                    value = result.value(other_ppo, pattern)
                    if value.fault or value.final != required:
                        passed = False
                        break
            verdicts.append(passed)
        return verdicts

    def _confirmed_through_ppo(
        self,
        fault: GateDelayFault,
        ppo: str,
        pi_values: Dict[str, DelayValue],
        ppi_initial: Dict[str, int],
        required_ppo_values: Dict[str, int],
    ) -> bool:
        """Exact injection check: observed at the PPO and no state invalidation."""
        state = self._implication.implicate(pi_values, ppi_initial, fault=fault)
        observed = state.signal_sets.get(ppo, 0)
        if not (is_singleton(observed) and has_fault_value(observed)):
            return False
        # Invalidation check: the fault must not disturb any PPO value the
        # propagation phase depends on.
        for other_ppo, required in required_ppo_values.items():
            if other_ppo == ppo:
                continue
            value_set = state.signal_sets.get(other_ppo, 0)
            if not is_singleton(value_set):
                return False
            value = single_value(value_set)
            if value.fault or value.final != required:
                return False
        return True
