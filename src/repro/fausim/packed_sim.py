"""Bit-parallel three-valued logic simulation over the compiled circuit.

Every signal is represented by two bit planes (the standard two-plane
{0, 1, X} encoding): bit ``j`` of ``zero`` is set when pattern ``j`` carries a
hard 0, bit ``j`` of ``one`` when it carries a hard 1, and a clear bit in both
planes encodes the unknown value X.  A plane is one unbounded-width Python
integer, so one pass over the gate program simulates a whole batch of
patterns at once, and all gate evaluations reduce to a handful of bitwise
operations:

=========  =============================================================
AND        ``one = AND(one_i)``, ``zero = OR(zero_i)``
OR         ``one = OR(one_i)``, ``zero = AND(zero_i)``
NOT        swap the planes
XOR        parity of the ``one`` planes, masked to the patterns where
           every input is known
=========  =============================================================

These identities implement exactly the pessimistic three-valued semantics of
:func:`repro.circuit.gates.evaluate_gate` — a controlling value forces the
output even when other inputs are X, otherwise any X input makes the output X
— which the differential harness in ``tests/fausim`` verifies signal for
signal against the reference interpreter.

:class:`PackedLogicSimulator` also implements the scalar
:class:`~repro.fausim.logic_sim.LogicSimulator` interface (``combinational`` /
``clock`` / ``next_state`` / ``outputs``) so the two backends are drop-in
interchangeable behind :mod:`repro.fausim.backends`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.fausim.compile import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    CompiledCircuit,
    compile_circuit,
)
from repro.fausim.kernels import kernels_for
from repro.fausim.logic_sim import FrameResult, SequenceResult, SignalValues
from repro.obs.metrics import NULL_REGISTRY


@dataclasses.dataclass
class PackedPlanes:
    """Bit planes of every signal for one batch of patterns.

    ``zero[slot]`` / ``one[slot]`` hold the 0-plane and 1-plane of the signal
    in that slot (see :class:`~repro.fausim.compile.CompiledCircuit` for the
    slot layout); ``width`` is the number of valid pattern bits.  The planes
    of an event-driven pass (:meth:`PackedLogicSimulator.evaluate_planes`
    with ``base_values``) hold ``None`` for slots it never touched.
    """

    zero: List[int]
    one: List[int]
    width: int

    def value(self, slot: int, pattern: int) -> Optional[int]:
        """Scalar value of one signal for one pattern (``None`` encodes X)."""
        bit = 1 << pattern
        if self.one[slot] & bit:
            return 1
        if self.zero[slot] & bit:
            return 0
        return None


def pack_column(values: Sequence[Optional[int]]) -> Tuple[int, int]:
    """Pack one signal's value across patterns into ``(zero, one)`` planes."""
    zero = 0
    one = 0
    for pattern, value in enumerate(values):
        if value == 0:
            zero |= 1 << pattern
        elif value == 1:
            one |= 1 << pattern
    return zero, one


class PackedLogicSimulator:
    """Bit-parallel three-valued simulator bound to one compiled circuit.

    The batch entry points (:meth:`combinational_batch`, :meth:`clock_batch`,
    :meth:`sequence_batch`) simulate the whole batch in one pass over the
    gate program per frame.  The scalar entry points mirror
    :class:`~repro.fausim.logic_sim.LogicSimulator` exactly and run as a
    batch of one.
    """

    #: Metrics registry counting gate-word evaluations (in 64-bit word
    #: units): one registry call per evaluation *pass*, never per gate
    #: (no-op by default).
    metrics = NULL_REGISTRY

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        self._kernels = kernels_for(self.compiled)

    # ------------------------------------------------------------------ #
    # packed core
    # ------------------------------------------------------------------ #
    def evaluate_planes(
        self,
        planes: PackedPlanes,
        base_values: "Sequence[Optional[int]] | None" = None,
        changed_slots: Sequence[int] = (),
    ) -> Optional[List[int]]:
        """Run the gate program in place on pre-loaded source planes.

        ``planes`` must carry the PI and PPI planes; every gate output plane
        is (re)computed.  This is the single hot loop of the backend.  A
        full-program pass runs the circuit's ``evaluate`` kernel once it has
        tiered up (:mod:`repro.fausim.kernels`); an event-driven pass always
        runs the interpreted loop below, which reads one tuple of the
        circuit's per-gate plan (:meth:`~repro.fausim.kernels.CircuitKernels.plane_plan`)
        per evaluated gate.

        Args:
            planes: pre-loaded source planes, evaluated in place.
            base_values: the per-slot values (``None`` = X) of the parent
                frame an incremental pass starts from; enables the
                event-driven mode.  ``None`` plane entries read as the
                parent's value broadcast to every pattern, and only the
                gates in the fanout of a slot whose planes left that
                broadcast are evaluated; the rest keep ``None`` entries
                (a ``None`` read fills in the broadcast first).
            changed_slots: the source slots the caller loaded for an
                event-driven pass; each one that differs from the parent's
                broadcast seeds the wavefront.

        Returns:
            ``None`` for a full pass.  An event-driven pass returns the slots
            it wrote: ``changed_slots``, then each evaluated gate output.
        """
        zero = planes.zero
        one = planes.one
        mask = (1 << planes.width) - 1
        compiled = self.compiled
        ops = compiled.ops
        tracking = base_values is not None
        if not tracking:
            if self.metrics.enabled:
                self.metrics.inc(
                    "repro_sim_gate_words_total",
                    compiled.num_gates * ((planes.width + 63) // 64),
                )
            kernel = self._kernels.select("evaluate", self.metrics)
            if kernel is not None:
                kernel(zero, one, mask)
                return None
        plan = self._kernels.plane_plan()
        written: Optional[List[int]] = None
        if tracking:
            # The same wavefront as the set sweep of
            # :mod:`repro.algebra.packed_sets`: wake a gate's fanout only
            # when its planes leave the parent's broadcast.
            fanout = compiled.fanout
            broadcast = {None: (0, 0), 0: (mask, 0), 1: (0, mask)}
            pending = bytearray(len(ops))
            written = list(changed_slots)
            for slot in changed_slots:
                if (zero[slot], one[slot]) != broadcast[base_values[slot]]:
                    for gate in fanout[slot]:
                        pending[gate] = 1
        else:
            pending = bytearray(b"\x01") * len(ops)

        find = pending.find
        index = find(1)
        while index >= 0:
            op, fanins, out, out_fanout = plan[index]
            if tracking:
                for slot in fanins:
                    if zero[slot] is None:
                        zero[slot], one[slot] = broadcast[base_values[slot]]
            if op <= OP_NAND:  # AND / NAND
                acc_one = -1
                acc_zero = 0
                for slot in fanins:
                    acc_one &= one[slot]
                    acc_zero |= zero[slot]
                if op == OP_NAND:
                    acc_zero, acc_one = acc_one, acc_zero
            elif op <= OP_NOR:  # OR / NOR
                acc_one = 0
                acc_zero = -1
                for slot in fanins:
                    acc_one |= one[slot]
                    acc_zero &= zero[slot]
                if op == OP_NOR:
                    acc_zero, acc_one = acc_one, acc_zero
            elif op == OP_NOT:
                acc_zero = one[fanins[0]]
                acc_one = zero[fanins[0]]
            elif op == OP_BUF:
                acc_zero = zero[fanins[0]]
                acc_one = one[fanins[0]]
            else:  # XOR / XNOR
                parity = 0
                known = -1
                for slot in fanins:
                    parity ^= one[slot]
                    known &= zero[slot] | one[slot]
                acc_one = parity & known
                acc_zero = ~parity & known & mask
                if op == OP_XNOR:
                    acc_zero, acc_one = acc_one, acc_zero
            zero[out] = acc_zero
            one[out] = acc_one
            if tracking:
                written.append(out)
                if (acc_zero, acc_one) != broadcast[base_values[out]]:
                    for gate in out_fanout:
                        pending[gate] = 1
            index = find(1, index + 1)

        if tracking and self.metrics.enabled:
            self.metrics.inc(
                "repro_sim_gate_words_total",
                (len(written) - len(changed_slots)) * ((planes.width + 63) // 64),
            )
        return written

    def evaluate_planes_forced(
        self,
        planes: PackedPlanes,
        source_forces: Dict[int, Tuple[int, int, int]],
        gate_forces: Dict[int, Tuple[int, int, int]],
        branch_forces: Dict[int, Tuple[int, int, int]],
    ) -> None:
        """Run the gate program with per-pattern value forces.

        This is the injection primitive of the fault-parallel gross-delay
        grading (:mod:`repro.core.verify`): selected pattern bits of selected
        lines are frozen at an externally chosen value while every other
        pattern evaluates normally.  A force is a ``(clear, set_zero,
        set_one)`` mask triple — the cleared bits are first removed from both
        planes (making those patterns X), then the set masks assert hard
        values.

        Args:
            planes: pre-loaded source planes, evaluated in place.
            source_forces: source (PI/PPI) slot -> force, applied before the
                pass — a stem fault on a primary or pseudo primary input.
            gate_forces: output-slot -> force, applied right after the gate is
                evaluated so all downstream reads see the forced value — a
                stem fault on a gate output.
            branch_forces: flat fanin position -> force, applied to the value
                *read* at one (gate, pin) only — a fanout branch fault; the
                stem itself keeps its computed value.
        """
        zero = planes.zero
        one = planes.one
        for slot, (clear, set_zero, set_one) in source_forces.items():
            zero[slot] = (zero[slot] & ~clear) | set_zero
            one[slot] = (one[slot] & ~clear) | set_one

        mask = (1 << planes.width) - 1
        compiled = self.compiled
        fanin_flat = compiled.fanin_flat
        offsets = compiled.fanin_offsets
        outputs = compiled.outputs
        for index, op in enumerate(compiled.ops):
            start = offsets[index]
            end = offsets[index + 1]

            inputs: List[Tuple[int, int]] = []
            for position in range(start, end):
                slot = fanin_flat[position]
                in_zero = zero[slot]
                in_one = one[slot]
                force = branch_forces.get(position)
                if force is not None:
                    clear, set_zero, set_one = force
                    in_zero = (in_zero & ~clear) | set_zero
                    in_one = (in_one & ~clear) | set_one
                inputs.append((in_zero, in_one))

            acc_zero, acc_one = inputs[0]
            if op <= OP_NAND:  # AND / NAND
                for in_zero, in_one in inputs[1:]:
                    acc_one &= in_one
                    acc_zero |= in_zero
                if op == OP_NAND:
                    acc_zero, acc_one = acc_one, acc_zero
            elif op <= OP_NOR:  # OR / NOR
                for in_zero, in_one in inputs[1:]:
                    acc_one |= in_one
                    acc_zero &= in_zero
                if op == OP_NOR:
                    acc_zero, acc_one = acc_one, acc_zero
            elif op == OP_NOT:
                acc_zero, acc_one = acc_one, acc_zero
            elif op == OP_BUF:
                pass
            else:  # XOR / XNOR
                parity = acc_one
                known = acc_zero | acc_one
                for in_zero, in_one in inputs[1:]:
                    parity ^= in_one
                    known &= in_zero | in_one
                acc_one = parity & known
                acc_zero = ~parity & known & mask
                if op == OP_XNOR:
                    acc_zero, acc_one = acc_one, acc_zero

            out = outputs[index]
            force = gate_forces.get(out)
            if force is not None:
                clear, set_zero, set_one = force
                acc_zero = (acc_zero & ~clear) | set_zero
                acc_one = (acc_one & ~clear) | set_one
            zero[out] = acc_zero
            one[out] = acc_one
        if self.metrics.enabled:
            self.metrics.inc(
                "repro_sim_gate_words_total",
                len(compiled.ops) * ((planes.width + 63) // 64),
            )

    def load_planes(
        self,
        pi_vectors: Sequence[SignalValues],
        states: Sequence[SignalValues],
    ) -> PackedPlanes:
        """Pack a batch of (PI vector, state) pairs into source planes.

        Missing entries default to X, matching the reference simulator.
        """
        width = len(pi_vectors)
        compiled = self.compiled
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals
        for slot, name in zip(compiled.pi_slots, self.circuit.primary_inputs):
            zero[slot], one[slot] = pack_column([vector.get(name) for vector in pi_vectors])
        for slot, name in zip(compiled.ppi_slots, self.circuit.pseudo_primary_inputs):
            zero[slot], one[slot] = pack_column([state.get(name) for state in states])
        return PackedPlanes(zero=zero, one=one, width=width)

    def load_broadcast_planes(
        self,
        vector: SignalValues,
        state_zero: Sequence[int],
        state_one: Sequence[int],
        width: int,
    ) -> PackedPlanes:
        """Source planes with one PI vector broadcast to every pattern slot.

        The fault-parallel workloads (gross-delay grading, the packed
        ``observability_map``) apply the *same* input vector to every machine
        in the batch while each slot carries its own state; this loads exactly
        that shape — broadcast primary inputs plus externally carried per-PPI
        state planes (aligned with ``compiled.ppi_slots``).
        """
        compiled = self.compiled
        broadcast = (1 << width) - 1
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals
        for slot, name in zip(compiled.pi_slots, self.circuit.primary_inputs):
            value = vector.get(name)
            if value == 0:
                zero[slot] = broadcast
            elif value == 1:
                one[slot] = broadcast
        for position, slot in enumerate(compiled.ppi_slots):
            zero[slot] = state_zero[position]
            one[slot] = state_one[position]
        return PackedPlanes(zero=zero, one=one, width=width)

    def unpack(self, planes: PackedPlanes) -> List[SignalValues]:
        """Expand evaluated planes back into one value dict per pattern."""
        names = self.compiled.signal_names
        results: List[SignalValues] = []
        for pattern in range(planes.width):
            bit = 1 << pattern
            values: SignalValues = {}
            for slot, name in enumerate(names):
                if planes.one[slot] & bit:
                    values[name] = 1
                elif planes.zero[slot] & bit:
                    values[name] = 0
                else:
                    values[name] = None
            results.append(values)
        return results

    def next_state_planes(self, planes: PackedPlanes) -> Tuple[List[int], List[int]]:
        """Planes the flip-flops latch at the end of a frame (per PPI)."""
        compiled = self.compiled
        zero = [planes.zero[slot] for slot in compiled.dff_data_slots]
        one = [planes.one[slot] for slot in compiled.dff_data_slots]
        return zero, one

    # ------------------------------------------------------------------ #
    # batch interface
    # ------------------------------------------------------------------ #
    def combinational_batch(
        self,
        pi_vectors: Sequence[SignalValues],
        states: Optional[Sequence[SignalValues]] = None,
    ) -> List[SignalValues]:
        """Evaluate one frame for a batch of patterns.

        Args:
            pi_vectors: one primary-input assignment per pattern.
            states: one PPI state per pattern (defaults to all-X states).

        Returns:
            One full value dict per pattern, bit-exact with the reference
            :meth:`~repro.fausim.logic_sim.LogicSimulator.combinational`.
        """
        planes = self.load_planes(pi_vectors, self._default_states(pi_vectors, states))
        self.evaluate_planes(planes)
        return self.unpack(planes)

    def clock_batch(
        self,
        pi_vectors: Sequence[SignalValues],
        states: Optional[Sequence[SignalValues]] = None,
    ) -> List[FrameResult]:
        """Simulate one clock cycle for a batch of patterns."""
        planes = self.load_planes(pi_vectors, self._default_states(pi_vectors, states))
        self.evaluate_planes(planes)
        next_zero, next_one = self.next_state_planes(planes)
        ppis = self.circuit.pseudo_primary_inputs
        frames: List[FrameResult] = []
        for pattern, values in enumerate(self.unpack(planes)):
            bit = 1 << pattern
            next_state: SignalValues = {}
            for position, ppi in enumerate(ppis):
                if next_one[position] & bit:
                    next_state[ppi] = 1
                elif next_zero[position] & bit:
                    next_state[ppi] = 0
                else:
                    next_state[ppi] = None
            frames.append(FrameResult(values=values, next_state=next_state))
        return frames

    def sequence_batch(
        self,
        vector_sequences: Sequence[Sequence[SignalValues]],
        initial_states: Optional[Sequence[SignalValues]] = None,
        observe: Optional[Sequence[str]] = None,
    ) -> List[SequenceResult]:
        """Simulate a batch of equally long input sequences in lockstep.

        Pattern ``j`` of every frame pass is sequence ``j``; the per-sequence
        state is carried between frames *inside* the bit planes (it is never
        unpacked), so a batch of ``N`` sequences costs one evaluation pass
        per frame instead of ``N``.

        Args:
            vector_sequences: one input-vector sequence per pattern; all
                sequences must have the same length.
            initial_states: one initial PPI state per sequence (default all-X).
            observe: signal names to report in each frame's ``values``;
                ``None`` reports every signal (bit-exact drop-in for the
                reference :func:`~repro.fausim.logic_sim.simulate_sequence`).
                Restricting observation to the primary outputs skips most of
                the unpacking cost.
        """
        if not vector_sequences:
            return []
        length = len(vector_sequences[0])
        if any(len(sequence) != length for sequence in vector_sequences):
            raise ValueError("all sequences in a batch must have the same length")
        states = list(initial_states) if initial_states is not None else [
            {} for _ in vector_sequences
        ]
        if len(states) != len(vector_sequences):
            raise ValueError("need one initial state per sequence")
        if length == 0:
            return [
                SequenceResult(frames=[], final_state=dict(state)) for state in states
            ]

        compiled = self.compiled
        ppis = self.circuit.pseudo_primary_inputs
        observed = (
            list(compiled.signal_names)
            if observe is None
            else [name for name in observe]
        )
        observed_slots = [compiled.slot_of[name] for name in observed]

        width = len(vector_sequences)
        state_zero: List[int] = []
        state_one: List[int] = []
        for ppi in ppis:
            zero, one = pack_column([state.get(ppi) for state in states])
            state_zero.append(zero)
            state_one.append(one)

        per_sequence_frames: List[List[FrameResult]] = [[] for _ in range(width)]
        for frame_index in range(length):
            vectors = [sequence[frame_index] for sequence in vector_sequences]
            zero = [0] * compiled.num_signals
            one = [0] * compiled.num_signals
            for slot, name in zip(compiled.pi_slots, self.circuit.primary_inputs):
                zero[slot], one[slot] = pack_column([vector.get(name) for vector in vectors])
            for position, slot in enumerate(compiled.ppi_slots):
                zero[slot] = state_zero[position]
                one[slot] = state_one[position]
            planes = PackedPlanes(zero=zero, one=one, width=width)
            self.evaluate_planes(planes)
            state_zero, state_one = self.next_state_planes(planes)

            for pattern in range(width):
                bit = 1 << pattern
                values: SignalValues = {}
                for slot, name in zip(observed_slots, observed):
                    if one[slot] & bit:
                        values[name] = 1
                    elif zero[slot] & bit:
                        values[name] = 0
                    else:
                        values[name] = None
                next_state: SignalValues = {}
                for position, ppi in enumerate(ppis):
                    if state_one[position] & bit:
                        next_state[ppi] = 1
                    elif state_zero[position] & bit:
                        next_state[ppi] = 0
                    else:
                        next_state[ppi] = None
                per_sequence_frames[pattern].append(
                    FrameResult(values=values, next_state=next_state)
                )
        return [
            SequenceResult(frames=frames, final_state=dict(frames[-1].next_state))
            for frames in per_sequence_frames
        ]

    def _default_states(
        self,
        pi_vectors: Sequence[SignalValues],
        states: Optional[Sequence[SignalValues]],
    ) -> Sequence[SignalValues]:
        if states is None:
            return [{}] * len(pi_vectors)
        if len(states) != len(pi_vectors):
            raise ValueError("need one state per primary-input vector")
        return states

    # ------------------------------------------------------------------ #
    # scalar interface (LogicSimulator drop-in)
    # ------------------------------------------------------------------ #
    def combinational(self, pi_values: SignalValues, state: SignalValues) -> SignalValues:
        """Scalar frame evaluation (batch of one)."""
        return self.combinational_batch([pi_values], [state])[0]

    def next_state(self, frame_values: SignalValues) -> SignalValues:
        """Extract the state that the flip-flops latch at the end of a frame."""
        return {dff.name: frame_values[dff.fanin[0]] for dff in self.circuit.flip_flops}

    def clock(self, pi_values: SignalValues, state: SignalValues) -> FrameResult:
        """Scalar clock cycle (batch of one)."""
        return self.clock_batch([pi_values], [state])[0]

    def outputs(self, frame_values: SignalValues) -> SignalValues:
        """Project the frame values onto the primary outputs."""
        return {po: frame_values[po] for po in self.circuit.primary_outputs}
