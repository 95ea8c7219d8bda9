"""Propagation-phase fault simulation (second phase of the paper's section 5).

At the end of the fast clock frame the delay fault effect, if provoked, sits
in the state register: one or more pseudo primary outputs latched the faulty
value.  During the propagation frames only slow clocks are applied, so the
machine itself is fault free; the fault effect behaves exactly like a stuck-at
fault injected once at the observation point (the PPO) and then carried along
by the good machine dynamics.

:class:`PropagationFaultSimulator` therefore simulates the good machine and a
faulty machine that differs only in the initial value of the candidate PPO,
and reports in which frame (if any) the difference becomes visible at a
primary output.

With ``backend="packed"`` the many-candidate query
(:meth:`PropagationFaultSimulator.observability_map`) packs one faulty
machine per pattern slot, so all candidate state bits are fault simulated in
one bit-parallel pass per frame instead of one full sequential simulation per
candidate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.fausim.backends import create_simulator
from repro.fausim.logic_sim import SignalValues
from repro.fausim.packed_sim import PackedLogicSimulator, pack_column


@dataclasses.dataclass
class PPOObservability:
    """Observability of a fault effect captured at one pseudo primary output."""

    ppi: str
    observable: bool
    frame: Optional[int] = None
    primary_output: Optional[str] = None

    def __bool__(self) -> bool:
        return self.observable


class PropagationFaultSimulator:
    """Check which captured fault effects reach a primary output.

    Args:
        circuit: the circuit under test.
        propagation_vectors: the input vectors of the propagation phase (slow
            clock frames after the fast test frame).
        backend: simulation backend name (see :mod:`repro.fausim.backends`);
            ``None`` selects the process default.
    """

    def __init__(
        self,
        circuit: Circuit,
        propagation_vectors: Sequence[SignalValues],
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.vectors = list(propagation_vectors)
        self._simulator = create_simulator(circuit, backend)

    def observability(
        self,
        good_state: SignalValues,
        ppi: str,
        faulty_value: Optional[int] = None,
    ) -> PPOObservability:
        """Determine whether a fault effect captured in ``ppi`` reaches a PO.

        Args:
            good_state: good-machine state right after the fast frame (value per
                PPI; missing entries are X).
            ppi: the state bit (flip-flop output) that captured the fault effect.
            faulty_value: value of that bit in the faulty machine.  Defaults to
                the complement of the good value; if the good value is unknown
                the effect cannot be credited and the result is unobservable.

        The check is conservative: a difference only counts when the good
        machine output value is binary (not X) and provably differs from the
        faulty machine output value.
        """
        good_value = good_state.get(ppi)
        if faulty_value is None:
            if good_value is None:
                return PPOObservability(ppi=ppi, observable=False)
            faulty_value = 1 - good_value
        if good_value is not None and faulty_value == good_value:
            return PPOObservability(ppi=ppi, observable=False)

        faulty_state = dict(good_state)
        faulty_state[ppi] = faulty_value

        good = dict(good_state)
        faulty = faulty_state
        for frame_index, vector in enumerate(self.vectors):
            good_frame = self._simulator.clock(vector, good)
            faulty_frame = self._simulator.clock(vector, faulty)
            for po in self.circuit.primary_outputs:
                good_po = good_frame.values[po]
                faulty_po = faulty_frame.values[po]
                if good_po is not None and faulty_po is not None and good_po != faulty_po:
                    return PPOObservability(
                        ppi=ppi, observable=True, frame=frame_index, primary_output=po
                    )
            good = good_frame.next_state
            faulty = faulty_frame.next_state
        return PPOObservability(ppi=ppi, observable=False)

    def observability_map(
        self,
        good_state: SignalValues,
        candidate_ppis: Sequence[str],
    ) -> Dict[str, PPOObservability]:
        """Observability of every candidate PPI under the stored vectors.

        With the packed backend all candidates share one bit-parallel faulty
        machine simulation (one pattern slot per candidate); the result is
        bit-exact with running :meth:`observability` per candidate.
        """
        if isinstance(self._simulator, PackedLogicSimulator) and len(candidate_ppis) > 1:
            return self._observability_map_packed(good_state, candidate_ppis)
        return {ppi: self.observability(good_state, ppi) for ppi in candidate_ppis}

    def _observability_map_packed(
        self,
        good_state: SignalValues,
        candidate_ppis: Sequence[str],
    ) -> Dict[str, PPOObservability]:
        """One faulty machine per pattern slot, all frames bit-parallel."""
        results: Dict[str, PPOObservability] = {}
        slots: List[str] = []
        for ppi in candidate_ppis:
            if good_state.get(ppi) is None:
                # An unknown good value can never be credited (the default
                # faulty value is the complement of the good one).
                results[ppi] = PPOObservability(ppi=ppi, observable=False)
            else:
                slots.append(ppi)
        if not slots:
            return results

        simulator = self._simulator
        ppis = self.circuit.pseudo_primary_inputs
        width = len(slots)
        # The good machine rides in pattern slot 0 of the same planes, so one
        # evaluation pass per frame simulates it together with all faulty
        # machines; faulty machine j (good state with its candidate bit
        # flipped) occupies slot j + 1.
        total_width = width + 1
        state_zero: List[int] = []
        state_one: List[int] = []
        for ppi in ppis:
            good_value = good_state.get(ppi)
            column = [good_value]
            for slot_ppi in slots:
                if ppi == slot_ppi:
                    column.append(1 - good_value if good_value is not None else None)
                else:
                    column.append(good_value)
            zero, one = pack_column(column)
            state_zero.append(zero)
            state_one.append(one)

        observed_mask = 0
        all_mask = ((1 << width) - 1) << 1
        compiled = simulator.compiled
        for frame_index, vector in enumerate(self.vectors):
            planes = simulator.load_broadcast_planes(
                vector, state_zero, state_one, total_width
            )
            simulator.evaluate_planes(planes)

            for po in self.circuit.primary_outputs:
                po_slot = compiled.slot_of[po]
                # A provable difference needs a binary faulty value on the
                # opposite plane of the binary good value (slot 0).
                if planes.one[po_slot] & 1:
                    diff = planes.zero[po_slot]
                elif planes.zero[po_slot] & 1:
                    diff = planes.one[po_slot]
                else:
                    continue
                fresh = diff & all_mask & ~observed_mask
                if not fresh:
                    continue
                for index, ppi in enumerate(slots):
                    if fresh & (1 << (index + 1)):
                        results[ppi] = PPOObservability(
                            ppi=ppi, observable=True, frame=frame_index, primary_output=po
                        )
                observed_mask |= fresh
            if observed_mask == all_mask:
                break

            state_zero, state_one = simulator.next_state_planes(planes)

        for ppi in slots:
            results.setdefault(ppi, PPOObservability(ppi=ppi, observable=False))
        return results

    def state_trace(self, state: SignalValues) -> List[SignalValues]:
        """Good-machine state after each propagation frame (for diagnostics)."""
        trace: List[SignalValues] = []
        current = dict(state)
        for vector in self.vectors:
            frame = self._simulator.clock(vector, current)
            current = frame.next_state
            trace.append(dict(current))
        return trace
