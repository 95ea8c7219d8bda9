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

All grading runs through a grader built once per fault universe by
:func:`create_grader` for the simulator's ``backend``.  Universe fault ``j``
owns lane ``j + 1`` of an integer mask (lane 0 is the good machine), and a
grade takes the mask of the *live* lanes, so a caller whose fault list shrinks
from sequence to sequence clears lanes instead of rebuilding lists.
:class:`PackedGrader` runs every lane in one bit-parallel sweep per frame
(Python work per injection site and per detection, not per fault);
:class:`ReferenceGrader` replays each live lane with the scalar interpreter
as the independent oracle.  Two entry points wrap a throw-away grader:

:func:`verify_test_sequence`
    Replay one sequence against its own targeted fault and return the full
    :class:`VerificationReport` (detection point plus the good/faulty primary
    output traces).

:func:`grade_test_sequence`
    Grade one sequence against a fault list and return one
    :class:`FaultGrade` per fault.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuit.gates import evaluate_gate
from repro.circuit.levelize import combinational_order
from repro.circuit.netlist import Circuit, LineKind
from repro.core.results import TestSequence
from repro.faults.model import GateDelayFault
from repro.fausim.backends import create_simulator
from repro.fausim.logic_sim import SignalValues
from repro.fausim.packed_sim import PackedLogicSimulator

#: One first-detection event of :meth:`PackedGrader.grade`: the frame, the
#: primary output, and the lane mask of the faults first detected there.
Detection = Tuple[int, str, int]


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
) -> Tuple[Optional[Tuple[int, str]], List[SignalValues], List[SignalValues]]:
    """Replay the sequence against one fault with the scalar simulator.

    Returns the first detection as ``(frame, primary output)`` (``None`` when
    the fault escapes) plus the good/faulty primary output traces.
    """
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
                    return (index, po), good_trace, faulty_trace

        previous_good_frame = good_frame.values
        good_state = good_frame.next_state
        faulty_state = faulty_next

    return None, good_trace, faulty_trace


# --------------------------------------------------------------------------- #
# universe-resident graders
# --------------------------------------------------------------------------- #
def iter_lanes(lanes: int) -> Iterator[int]:
    """The set lanes of a lane mask, lowest first (fault ``lane - 1``)."""
    while lanes:
        low = lanes & -lanes
        yield low.bit_length() - 1
        lanes ^= low


class _Grader:
    """State shared by both graders: the universe and its lane numbering."""

    def __init__(self, simulator, faults: Sequence[GateDelayFault]) -> None:
        self.simulator = simulator
        self.circuit: Circuit = simulator.circuit
        self.faults: List[GateDelayFault] = list(faults)
        #: Every universe lane: bits ``1 .. len(faults)``.
        self.all_lanes = ((1 << len(self.faults)) - 1) << 1

    def faults_of(self, lanes: int) -> List[GateDelayFault]:
        """The universe faults of a lane mask, in universe order."""
        return [self.faults[lane - 1] for lane in iter_lanes(lanes)]


class PackedGrader(_Grader):
    """Fault-parallel gross-delay grader planned once for a fault universe.

    The plan groups the universe by injection site: a source slot (stem
    fault on a primary or pseudo primary input), a gate output slot (stem
    fault on a gate) or one gate pin (fanout branch fault).  Each site keeps
    its stem slot and the lane mask of its faults, stored as its lowest lane
    and a mask relative to it: a site's faults usually sit on neighbouring
    lanes (a line's rising and falling fault), so the plan stays linear in
    the universe size where whole-width masks would be quadratic.  A fault whose line is not in the compiled program (e.g. a
    branch into a flip-flop's data pin) owns no site and is never detected.
    """

    def __init__(
        self, simulator: PackedLogicSimulator, faults: Sequence[GateDelayFault]
    ) -> None:
        super().__init__(simulator, faults)
        compiled = simulator.compiled
        slot_of = compiled.slot_of
        offsets = compiled.fanin_offsets
        n_sources = len(compiled.pi_slots) + len(compiled.ppi_slots)
        sites: Dict[Tuple[int, int], List[int]] = {}
        for lane, fault in enumerate(self.faults, start=1):
            slot = slot_of.get(fault.line.signal)
            if slot is None:
                continue
            if fault.line.kind is LineKind.STEM:
                site = (0 if slot < n_sources else 1, slot)
            else:
                sink_index = compiled.gate_index_of.get(slot_of.get(fault.line.sink))
                if sink_index is None or fault.line.pin is None:
                    continue  # sink is not a compiled gate (e.g. a DFF data pin)
                flat = offsets[sink_index] + fault.line.pin
                if flat >= offsets[sink_index + 1] or compiled.fanin_flat[flat] != slot:
                    continue  # pin does not exist / does not read the fault stem
                site = (2, flat)
            sites.setdefault(site, []).append(lane)
        #: ``(kind, key, stem slot, lowest lane, relative mask)`` per site;
        #: ``kind`` indexes the source / gate / branch force maps of
        #: ``evaluate_planes_forced``.
        self._sites: List[Tuple[int, int, int, int, int]] = [
            (
                kind,
                key,
                compiled.fanin_flat[key] if kind == 2 else key,
                lanes[0],
                sum(1 << (lane - lanes[0]) for lane in lanes),
            )
            for (kind, key), lanes in sites.items()
        ]
        self._po_slots = [(po, slot_of[po]) for po in self.circuit.primary_outputs]

    def _forces(
        self, zero: List[int], one: List[int], live: int
    ) -> Tuple[Dict[int, Tuple[int, int, int]], ...]:
        """Source, gate and branch forces freezing every live site at its
        stem's stale value: bit 0 (the good machine) of ``zero``/``one``."""
        forces: Tuple[Dict[int, Tuple[int, int, int]], ...] = ({}, {}, {})
        for kind, key, stem, low, relative in self._sites:
            lanes = (live >> low & relative) << low
            if lanes:
                forces[kind][key] = (
                    lanes, lanes if zero[stem] & 1 else 0, lanes if one[stem] & 1 else 0
                )
        return forces

    def grade(
        self,
        sequence: TestSequence,
        live: int,
        traces: Optional[Tuple[List[SignalValues], List[SignalValues]]] = None,
    ) -> List[Detection]:
        """Grade the ``live`` lanes under one sequence, all in lockstep.

        All machines are identical until the fast frame, so every slot shares
        the broadcast primary inputs and the carried state planes.  The fast
        frame freezes each live site at its stem's stale value, the good value
        of the frame before (X without one), via
        :meth:`~repro.fausim.packed_sim.PackedLogicSimulator.evaluate_planes_forced`;
        later frames evolve each machine from its own latched state.  A lane
        stops at its first detection, like the scalar replay; dead lanes run
        as copies of the good machine and are never reported.

        Args:
            sequence: the applied vectors with their slow/fast clock schedule.
            live: lane mask of the faults to grade.
            traces: optional ``(good, faulty)`` lists that receive each
                frame's primary output values of the good machine and of the
                lowest live lane.

        Returns:
            ``(frame, primary output, lanes)`` per first detection, in frame
            order and primary output order within a frame.
        """
        live &= self.all_lanes
        if not live and traces is None:
            return []
        simulator = self.simulator
        fast_index = sequence.clock_schedule.fast_frame_index
        width = len(self.faults) + 1
        traced_lane = (live & -live).bit_length() - 1 if live else 0
        state_zero = state_one = [0] * len(self.circuit.pseudo_primary_inputs)
        if fast_index == 0:  # no frame before the fast one: every stale value is X
            unknown = [0] * simulator.compiled.num_signals
            forces = self._forces(unknown, unknown, live)
        events: List[Detection] = []
        undetected = live

        for index, vector in enumerate(sequence.vectors):
            planes = simulator.load_broadcast_planes(vector, state_zero, state_one, width)
            zero = planes.zero
            one = planes.one
            if index == fast_index:
                simulator.evaluate_planes_forced(planes, *forces)
            else:
                simulator.evaluate_planes(planes)

            if traces is not None:
                traces[0].append({po: planes.value(slot, 0) for po, slot in self._po_slots})
                traces[1].append(
                    {po: planes.value(slot, traced_lane) for po, slot in self._po_slots}
                )

            if index >= fast_index and undetected:
                for po, slot in self._po_slots:
                    # A provable difference needs a binary faulty value on the
                    # opposite plane of the binary good value (slot 0).
                    if one[slot] & 1:
                        fresh = zero[slot] & undetected
                    elif zero[slot] & 1:
                        fresh = one[slot] & undetected
                    else:
                        continue
                    if fresh:
                        undetected ^= fresh
                        events.append((index, po, fresh))
                if not undetected:
                    break

            if index == fast_index - 1:
                forces = self._forces(zero, one, live)
            state_zero, state_one = simulator.next_state_planes(planes)
        return events


class ReferenceGrader(_Grader):
    """The oracle grader: each live lane replayed alone by the interpreter."""

    def __init__(self, simulator, faults: Sequence[GateDelayFault]) -> None:
        super().__init__(simulator, faults)
        self._order = combinational_order(self.circuit)
        self._po_rank = {po: rank for rank, po in enumerate(self.circuit.primary_outputs)}

    def grade(
        self,
        sequence: TestSequence,
        live: int,
        traces: Optional[Tuple[List[SignalValues], List[SignalValues]]] = None,
    ) -> List[Detection]:
        """Same contract as :meth:`PackedGrader.grade`, one replay per lane."""
        first: Dict[Tuple[int, str], int] = {}
        for lane in iter_lanes(live & self.all_lanes):
            detection, good_trace, faulty_trace = _grade_scalar(
                self.circuit, self.simulator, self._order, sequence,
                self.faults[lane - 1], collect_traces=traces is not None,
            )
            if traces is not None:
                traces[0].extend(good_trace)
                traces[1].extend(faulty_trace)
                traces = None
            if detection is not None:
                first[detection] = first.get(detection, 0) | (1 << lane)
        return sorted(
            ((frame, po, lanes) for (frame, po), lanes in first.items()),
            key=lambda event: (event[0], self._po_rank[event[1]]),
        )


def create_grader(simulator, faults: Sequence[GateDelayFault]) -> _Grader:
    """The grader of ``faults`` on ``simulator``: :class:`PackedGrader` for a
    :class:`~repro.fausim.packed_sim.PackedLogicSimulator` (its gate words
    count on the simulator's metrics registry), else :class:`ReferenceGrader`.
    """
    if isinstance(simulator, PackedLogicSimulator):
        return PackedGrader(simulator, faults)
    return ReferenceGrader(simulator, faults)


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
    A caller grading many sequences against a shrinking fault list keeps one
    :func:`create_grader` and a live-lane mask instead.

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
    grader = create_grader(create_simulator(circuit, backend), faults)
    verdicts = {
        lane: (frame, po)
        for frame, po, lanes in grader.grade(sequence, grader.all_lanes)
        for lane in iter_lanes(lanes)
    }
    return [
        FaultGrade(fault, lane in verdicts, *verdicts.get(lane, (None, None)))
        for lane, fault in enumerate(grader.faults, start=1)
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
    grader = create_grader(create_simulator(circuit, backend), [sequence.fault])
    traces: Tuple[List[SignalValues], List[SignalValues]] = ([], [])
    events = grader.grade(sequence, grader.all_lanes, traces)
    frame, po, _ = events[0] if events else (None, None, 0)
    return VerificationReport(bool(events), frame, po, *traces)
