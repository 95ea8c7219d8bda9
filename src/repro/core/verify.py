"""Independent functional verification and fault-parallel grading of tests.

The ATPG engine and the fault simulator share the eight-valued algebra, so a
bug there could produce consistently wrong but self-agreeing results.  This
module provides an *independent* check based only on plain three-valued logic
simulation and the gross delay fault interpretation: the faulted line misses
the fast clock entirely, i.e. at the fast sample time it still shows the value
it had in the previous (slow) frame.

A robust gate delay fault test must detect every fault size above the slack,
in particular the gross one, so every sequence produced by the flow has to
pass this check; the test-suite relies on it heavily.

Two entry points share the machinery:

:func:`verify_test_sequence`
    Replay one sequence against its own targeted fault and return the full
    :class:`VerificationReport` (detection point plus the good/faulty primary
    output traces).

:func:`grade_test_sequence`
    Grade one sequence against *many* faults at once.  With the packed
    backend the good machine occupies pattern slot 0 and one faulty machine
    occupies each further slot of the unbounded-width planes, so a whole
    fault list is graded in one bit-parallel sweep per frame instead of one
    full interpreter replay per fault — this is what the random baseline
    and the grading benchmarks run.  With the reference backend the faults are
    replayed one at a time; the two paths are differentially tested to be
    identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.gates import evaluate_gate
from repro.circuit.levelize import combinational_order
from repro.circuit.netlist import Circuit, LineKind
from repro.core.results import TestSequence
from repro.faults.model import GateDelayFault
from repro.fausim.backends import create_simulator
from repro.fausim.logic_sim import SignalValues
from repro.fausim.packed_sim import PackedLogicSimulator


@dataclasses.dataclass
class VerificationReport:
    """Outcome of replaying a test sequence against the gross delay fault."""

    detected: bool
    detection_frame: Optional[int] = None
    primary_output: Optional[str] = None
    good_trace: List[SignalValues] = dataclasses.field(default_factory=list)
    faulty_trace: List[SignalValues] = dataclasses.field(default_factory=list)

    def __bool__(self) -> bool:
        return self.detected


@dataclasses.dataclass
class FaultGrade:
    """Gross-delay grading verdict for one fault under one test sequence."""

    fault: GateDelayFault
    detected: bool
    detection_frame: Optional[int] = None
    primary_output: Optional[str] = None

    def __bool__(self) -> bool:
        return self.detected


def _faulty_fast_frame(
    circuit: Circuit,
    order: List[str],
    pi_vector: SignalValues,
    state: SignalValues,
    fault: GateDelayFault,
    stale_value: Optional[int],
) -> SignalValues:
    """Evaluate the fast frame with the faulted line frozen at its stale value."""
    values: SignalValues = {}
    for pi in circuit.primary_inputs:
        values[pi] = pi_vector.get(pi)
    for ppi in circuit.pseudo_primary_inputs:
        values[ppi] = state.get(ppi)

    stem_fault = fault.line.kind is LineKind.STEM
    if stem_fault and fault.line.signal in values:
        values[fault.line.signal] = stale_value

    for name in order:
        gate = circuit.gate(name)
        inputs = []
        for pin, source in enumerate(gate.fanin):
            value = values[source]
            if (
                not stem_fault
                and fault.line.sink == name
                and fault.line.pin == pin
                and source == fault.line.signal
            ):
                value = stale_value
            inputs.append(value)
        output = evaluate_gate(gate.gate_type, inputs)
        if stem_fault and name == fault.line.signal:
            output = stale_value
        values[name] = output
    return values


# --------------------------------------------------------------------------- #
# reference (scalar) grading
# --------------------------------------------------------------------------- #
def _grade_scalar(
    circuit: Circuit,
    simulator,
    order: List[str],
    sequence: TestSequence,
    fault: GateDelayFault,
    collect_traces: bool,
) -> Tuple[FaultGrade, List[SignalValues], List[SignalValues]]:
    """Replay the sequence against one fault with the scalar simulator."""
    fast_index = sequence.clock_schedule.fast_frame_index
    vectors = sequence.vectors

    good_state: SignalValues = {}
    faulty_state: SignalValues = {}
    good_trace: List[SignalValues] = []
    faulty_trace: List[SignalValues] = []
    previous_good_frame: SignalValues = {}

    for index, vector in enumerate(vectors):
        good_frame = simulator.clock(vector, good_state)
        if index < fast_index:
            # Slow clock, fault-free: both machines are identical.
            faulty_values = dict(good_frame.values)
            faulty_next = dict(good_frame.next_state)
        elif index == fast_index:
            stale = previous_good_frame.get(fault.line.signal)
            faulty_values = _faulty_fast_frame(
                circuit, order, vector, faulty_state, fault, stale
            )
            faulty_next = {
                dff.name: faulty_values[dff.fanin[0]] for dff in circuit.flip_flops
            }
        else:
            faulty_frame = simulator.clock(vector, faulty_state)
            faulty_values = faulty_frame.values
            faulty_next = faulty_frame.next_state

        if collect_traces:
            good_trace.append(simulator.outputs(good_frame.values))
            faulty_trace.append({po: faulty_values[po] for po in circuit.primary_outputs})

        if index >= fast_index:
            for po in circuit.primary_outputs:
                good_po = good_frame.values[po]
                faulty_po = faulty_values[po]
                if good_po is not None and faulty_po is not None and good_po != faulty_po:
                    grade = FaultGrade(
                        fault=fault,
                        detected=True,
                        detection_frame=index,
                        primary_output=po,
                    )
                    return grade, good_trace, faulty_trace

        previous_good_frame = good_frame.values
        good_state = good_frame.next_state
        faulty_state = faulty_next

    return FaultGrade(fault=fault, detected=False), good_trace, faulty_trace


# --------------------------------------------------------------------------- #
# packed (fault-parallel) grading
# --------------------------------------------------------------------------- #
def _merge_force(
    forces: Dict[int, Tuple[int, int, int]], key: int, bit: int, stale: Optional[int]
) -> None:
    """Accumulate one pattern bit's freeze into a ``(clear, z, o)`` triple."""
    clear, set_zero, set_one = forces.get(key, (0, 0, 0))
    clear |= bit
    if stale == 0:
        set_zero |= bit
    elif stale == 1:
        set_one |= bit
    forces[key] = (clear, set_zero, set_one)


def _build_forces(
    simulator: PackedLogicSimulator,
    faults: Sequence[GateDelayFault],
    stale_values: Dict[str, Optional[int]],
) -> Tuple[
    List[Tuple[int, int, int, int]],
    Dict[int, Tuple[int, int, int]],
    Dict[int, Tuple[int, int, int]],
]:
    """Freeze each slot's fault line at its stale value (slot ``j`` = bit ``j+1``)."""
    compiled = simulator.compiled
    n_sources = len(compiled.pi_slots) + len(compiled.ppi_slots)
    gate_index_of = compiled.gate_index_of

    source_forces: Dict[int, Tuple[int, int, int]] = {}
    gate_forces: Dict[int, Tuple[int, int, int]] = {}
    branch_forces: Dict[int, Tuple[int, int, int]] = {}
    for position, fault in enumerate(faults):
        bit = 1 << (position + 1)
        stale = stale_values.get(fault.line.signal)
        slot = compiled.slot_of.get(fault.line.signal)
        if fault.line.kind is LineKind.STEM:
            if slot is None:
                continue
            if slot < n_sources:
                _merge_force(source_forces, slot, bit, stale)
            else:
                _merge_force(gate_forces, slot, bit, stale)
        else:
            sink_slot = compiled.slot_of.get(fault.line.sink)
            sink_index = gate_index_of.get(sink_slot)
            if sink_index is None or fault.line.pin is None:
                continue  # sink is not a compiled gate (e.g. a DFF data pin)
            flat = compiled.fanin_offsets[sink_index] + fault.line.pin
            if (
                flat >= compiled.fanin_offsets[sink_index + 1]
                or compiled.fanin_flat[flat] != slot
            ):
                continue  # pin does not exist / does not read the fault stem
            _merge_force(branch_forces, flat, bit, stale)
    sources = [
        (slot, clear, set_zero, set_one)
        for slot, (clear, set_zero, set_one) in source_forces.items()
    ]
    return sources, gate_forces, branch_forces


def _grade_packed(
    circuit: Circuit,
    simulator: PackedLogicSimulator,
    sequence: TestSequence,
    faults: Sequence[GateDelayFault],
    collect_traces: bool = False,
) -> Tuple[List[FaultGrade], List[SignalValues], List[SignalValues]]:
    """Grade a batch of faults in lockstep: good machine in slot 0.

    All machines are identical until the fast frame, so every slot shares the
    broadcast primary inputs and the carried state planes; the fast frame
    freezes slot ``j + 1``'s fault line at its stale value via
    :meth:`~repro.fausim.packed_sim.PackedLogicSimulator.evaluate_planes_forced`,
    and the later frames evolve each machine from its own latched state.
    """
    compiled = simulator.compiled
    fast_index = sequence.clock_schedule.fast_frame_index
    vectors = sequence.vectors
    count = len(faults)
    width = count + 1
    stale_signals = {fault.line.signal for fault in faults}

    ppis = circuit.pseudo_primary_inputs
    state_zero = [0] * len(ppis)
    state_one = [0] * len(ppis)
    grades: Dict[int, FaultGrade] = {}
    undetected = ((1 << count) - 1) << 1
    good_trace: List[SignalValues] = []
    faulty_trace: List[SignalValues] = []
    stale_values: Dict[str, Optional[int]] = {}

    for index, vector in enumerate(vectors):
        planes = simulator.load_broadcast_planes(vector, state_zero, state_one, width)
        zero = planes.zero
        one = planes.one

        if index == fast_index:
            sources, gate_forces, branch_forces = _build_forces(
                simulator, faults, stale_values
            )
            simulator.evaluate_planes_forced(planes, sources, gate_forces, branch_forces)
        else:
            simulator.evaluate_planes(planes)

        if collect_traces:
            good_values: SignalValues = {}
            faulty_values: SignalValues = {}
            for po in circuit.primary_outputs:
                slot = compiled.slot_of[po]
                good_values[po] = planes.value(slot, 0)
                faulty_values[po] = planes.value(slot, 1) if count else planes.value(slot, 0)
            good_trace.append(good_values)
            faulty_trace.append(faulty_values)

        detected_everything = False
        if index >= fast_index and undetected:
            for po in circuit.primary_outputs:
                slot = compiled.slot_of[po]
                # A provable difference needs a binary faulty value on the
                # opposite plane of the binary good value (slot 0).
                if one[slot] & 1:
                    diff = zero[slot]
                elif zero[slot] & 1:
                    diff = one[slot]
                else:
                    continue
                fresh = diff & undetected
                if not fresh:
                    continue
                undetected &= ~fresh
                # Walk only the set bits: the word is as wide as the fault
                # list, so probing every position would cost O(faults).
                while fresh:
                    low = fresh & -fresh
                    position = low.bit_length() - 2
                    grades[position] = FaultGrade(
                        fault=faults[position],
                        detected=True,
                        detection_frame=index,
                        primary_output=po,
                    )
                    fresh ^= low
            detected_everything = not undetected
        if detected_everything:
            # Every fault (and the single-fault verification) stops at its
            # first detection, exactly like the scalar replay.
            break

        if index == fast_index - 1:
            # The stale value of a fault line is its good-machine value in the
            # frame right before the fast one.
            stale_values = {
                name: planes.value(compiled.slot_of[name], 0)
                for name in stale_signals
                if name in compiled.slot_of
            }
        state_zero, state_one = simulator.next_state_planes(planes)

    results = [
        grades.get(position, FaultGrade(fault=faults[position], detected=False))
        for position in range(count)
    ]
    return results, good_trace, faulty_trace


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
def grade_test_sequence(
    circuit: Circuit,
    sequence: TestSequence,
    faults: Sequence[GateDelayFault],
    backend: Optional[str] = None,
) -> List[FaultGrade]:
    """Grade a test sequence against many gross delay faults at once.

    The targeted fault stored in ``sequence.fault`` is ignored; every fault
    in ``faults`` is graded independently under the sequence's vectors and
    clock schedule.  Results come back in input order and are bit-exact
    across backends (the differential suite in ``tests/core`` enforces this).

    Args:
        circuit: circuit under test.
        sequence: the applied vectors with their slow/fast clock schedule.
        faults: the fault universe to grade.
        backend: good-machine simulation backend (see
            :mod:`repro.fausim.backends`); the packed backend grades one
            faulty machine per pattern slot, the reference backend replays one
            fault at a time.
    """
    if not faults:
        return []
    simulator = create_simulator(circuit, backend)
    if isinstance(simulator, PackedLogicSimulator):
        return _grade_packed(circuit, simulator, sequence, list(faults))[0]
    order = combinational_order(circuit)
    return [
        _grade_scalar(circuit, simulator, order, sequence, fault, collect_traces=False)[0]
        for fault in faults
    ]


def verify_test_sequence(
    circuit: Circuit,
    sequence: TestSequence,
    backend: Optional[str] = None,
) -> VerificationReport:
    """Replay a test sequence and check that the gross delay fault is caught.

    Both machines start in the all-unknown state, the initialisation and
    propagation frames use fault-free (slow clock) behaviour, and the fast
    frame of the faulty machine freezes the faulted line at its value from the
    previous frame.  Detection requires a primary output where the good value
    is binary and provably differs from the faulty value.

    ``backend`` selects the simulator (see :mod:`repro.fausim.backends`): the
    packed backend runs good and faulty machine side by side in two pattern
    slots of one bit-parallel replay, the reference backend keeps the
    independent scalar second opinion.
    """
    simulator = create_simulator(circuit, backend)
    if isinstance(simulator, PackedLogicSimulator):
        grades, good_trace, faulty_trace = _grade_packed(
            circuit, simulator, sequence, [sequence.fault], collect_traces=True
        )
        grade = grades[0]
    else:
        order = combinational_order(circuit)
        grade, good_trace, faulty_trace = _grade_scalar(
            circuit, simulator, order, sequence, sequence.fault, collect_traces=True
        )
    return VerificationReport(
        detected=grade.detected,
        detection_frame=grade.detection_frame,
        primary_output=grade.primary_output,
        good_trace=good_trace,
        faulty_trace=faulty_trace,
    )
