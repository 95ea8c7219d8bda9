"""Fault-parallel two-frame eight-valued simulation on the compiled netlist.

This is the packed counterpart of the fully-specified path through
:func:`repro.tdgen.simulation.simulate_two_frame` — the hot loop of TDsim's
exact stem analysis and PPO confirmation, which the reference implementation
runs as one interpreted set-propagation pass *per injected fault*.

:class:`PackedTwoFrameSimulator` instead simulates a whole batch of fault
injections in a single pass over the compiled gate program
(:mod:`repro.fausim.compile`):

1. the *initial* (slow clock) frame is fault free and therefore identical for
   every injection, so it is evaluated once with plain binary integer
   arithmetic (the pattern must be fully specified, as the reference path
   also requires);
2. the *test* frame runs in the eight-valued algebra with the one-hot
   multi-plane encoding of :mod:`repro.algebra.packed`: pattern slot ``j``
   carries the machine with ``faults[j]`` injected (``None`` for the good
   machine), the injection converting the activating ``R``/``F`` on the fault
   line of that slot into ``Rc``/``Fc`` exactly as the reference
   ``_inject`` does — at the stem output for stem faults, at the single
   faulted gate input for branch faults.

A pass given ``base=`` (a full width-1 good-machine pass over the same
pattern) is *event-driven*: it reuses the base's initial frame, and its
test frame evaluates only the gates a fault effect reaches.  The injection
sites seed a ``pending`` byte per gate, a forward ``bytearray.find`` scan
evaluates the pending gates in program order, and a gate marks its fanout
only when its planes leave the base value broadcast to every slot — the
wavefront of :mod:`repro.algebra.packed_sets`.  A full pass is the same
loop with every gate pending.  TDsim runs its stem analyses and PPO
confirmations this way.

The differential harness in ``tests/fausim/test_packed_two_frame.py`` checks
the per-slot values signal for signal against the reference interpreter over
seeded random circuits and s27, and event-driven passes against full ones.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.packed import (
    NUM_PLANES,
    core_of,
    packed_not,
    packed_pair,
    packed_table,
)
from repro.algebra.values import ALL_VALUES, DelayValue, value_from_pair
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, LineKind
from repro.faults.model import GateDelayFault
from repro.fausim.compile import (
    _OPCODES,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_XNOR,
    CompiledCircuit,
    compile_circuit,
)
from repro.obs.metrics import NULL_REGISTRY

#: Opcode -> (two-input core gate type, apply inverter permutation afterwards),
#: derived mechanically from the compiler's opcode map and the algebra's
#: core decomposition so the two cannot drift apart.
_OP_CORE: Dict[int, Tuple[GateType, bool]] = {
    opcode: core_of(gate_type)
    for gate_type, opcode in _OPCODES.items()
    if gate_type not in (GateType.NOT, GateType.BUF)
}


@dataclasses.dataclass
class PackedTwoFrameResult:
    """Per-slot outcome of one fault-parallel two-frame pass.

    Attributes:
        compiled: the compiled circuit the planes are laid out over.
        planes: per signal slot, the eight one-hot value planes.  An
            event-driven pass leaves ``None`` at every signal its wavefront
            did not reach; such an entry reads as the base value broadcast to
            every slot.
        width: number of valid pattern slots (= number of injections).
        frame1: settled binary value of every signal in the initial frame
            (shared by all slots — the initial frame is fault free).
        base: the good-machine result an event-driven pass started from;
            ``None`` for a full pass.
    """

    compiled: CompiledCircuit
    planes: List[Optional[List[int]]]
    width: int
    frame1: Dict[str, int]
    base: Optional["PackedTwoFrameResult"] = None
    _indices: Optional[List[int]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def value_indices(self) -> List[int]:
        """Value index of every signal in pattern slot 0, by signal slot.

        Memoised: an event-driven pass reads its base's good machine through
        this view.
        """
        if self._indices is None:
            self._indices = [
                next(index for index, plane in enumerate(planes) if plane & 1)
                for planes in self.planes
            ]
        return self._indices

    def value(self, signal: str, pattern: int) -> DelayValue:
        """The algebra value of ``signal`` in pattern slot ``pattern``."""
        bit = 1 << pattern
        slot = self.compiled.slot_of[signal]
        planes = self.planes[slot]
        if planes is None:
            if bit >> self.width == 0:
                return ALL_VALUES[self.base.value_indices()[slot]]
        else:
            for index, plane in enumerate(planes):
                if plane & bit:
                    return ALL_VALUES[index]
        raise ValueError(f"signal {signal!r} has no value in pattern {pattern}")

    def values_for_pattern(self, pattern: int) -> Dict[str, DelayValue]:
        """Every signal's value in one pattern slot (one machine's view)."""
        bit = 1 << pattern
        inside = bit >> self.width == 0
        base = self.base.value_indices() if self.base is not None else None
        values: Dict[str, DelayValue] = {}
        for slot, name in enumerate(self.compiled.signal_names):
            planes = self.planes[slot]
            if planes is None:
                if inside:
                    values[name] = ALL_VALUES[base[slot]]
                continue
            for index, plane in enumerate(planes):
                if plane & bit:
                    values[name] = ALL_VALUES[index]
                    break
        return values

    def fault_effect_mask(self, signal: str) -> int:
        """Pattern bits in which ``signal`` carries a fault effect (Rc/Fc)."""
        planes = self.planes[self.compiled.slot_of[signal]]
        if planes is None:
            return 0  # the wavefront did not reach it: the good value
        mask = 0
        for index, value in enumerate(ALL_VALUES):
            if value.fault:
                mask |= planes[index]
        return mask & ((1 << self.width) - 1)


class PackedTwoFrameSimulator:
    """Bit-parallel eight-valued two-frame simulator bound to one circuit.

    Args:
        circuit: circuit under test.
        robust: evaluate the robust (paper Table 1) or relaxed non-robust
            truth tables.
    """

    #: Metrics sink — assigned by owners that instrument this simulator; the
    #: single counter update per :meth:`simulate` call keeps the disabled
    #: path free of any per-gate overhead.
    metrics = NULL_REGISTRY

    def __init__(self, circuit: Circuit, robust: bool = True) -> None:
        self.circuit = circuit
        self.robust = robust
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        # Core truth tables are resolved once; packed_table is memoised, so
        # this only costs dictionary lookups.
        self._tables = {
            opcode: (packed_table(core, robust), invert)
            for opcode, (core, invert) in _OP_CORE.items()
        }

    # ------------------------------------------------------------------ #
    # frame 1: fault-free binary evaluation
    # ------------------------------------------------------------------ #
    def _frame1(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
    ) -> List[int]:
        """Binary settled values of the initial frame, by signal slot."""
        compiled = self.compiled
        values = [0] * compiled.num_signals
        for slot, name in zip(compiled.pi_slots, self.circuit.primary_inputs):
            value = pi_values.get(name)
            if value is None:
                raise ValueError(
                    "packed two-frame simulation needs a fully specified pattern; "
                    f"primary input {name!r} is not assigned"
                )
            values[slot] = value.initial
        for slot, name in zip(compiled.ppi_slots, self.circuit.pseudo_primary_inputs):
            initial = ppi_initial.get(name)
            if initial is None:
                raise ValueError(
                    "packed two-frame simulation needs a fully specified pattern; "
                    f"pseudo primary input {name!r} is not assigned"
                )
            values[slot] = initial

        fanin_flat = compiled.fanin_flat
        offsets = compiled.fanin_offsets
        outputs = compiled.outputs
        for index, op in enumerate(compiled.ops):
            start = offsets[index]
            end = offsets[index + 1]
            first = values[fanin_flat[start]]
            if op <= OP_NAND:  # AND / NAND
                acc = first
                for position in range(start + 1, end):
                    acc &= values[fanin_flat[position]]
                if op == OP_NAND:
                    acc ^= 1
            elif op <= OP_NOR:  # OR / NOR
                acc = first
                for position in range(start + 1, end):
                    acc |= values[fanin_flat[position]]
                if op == OP_NOR:
                    acc ^= 1
            elif op == OP_NOT:
                acc = first ^ 1
            elif op == OP_BUF:
                acc = first
            else:  # XOR / XNOR
                acc = first
                for position in range(start + 1, end):
                    acc ^= values[fanin_flat[position]]
                if op == OP_XNOR:
                    acc ^= 1
            values[outputs[index]] = acc
        return values

    # ------------------------------------------------------------------ #
    # frame 2: packed eight-valued evaluation with per-slot injection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _inject(planes: List[int], fault: GateDelayFault, bit: int) -> None:
        """Move the activating transition of one slot to its fault variant.

        Mirrors the reference ``_inject``: the conversion happens only when
        the slot actually holds the activation value (``R`` for StR, ``F``
        for StF); any other value passes through unchanged.
        """
        activation = fault.fault_type.activation_value.index
        if planes[activation] & bit:
            planes[activation] &= ~bit
            planes[fault.fault_type.fault_value.index] |= bit

    def simulate(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
        faults: Sequence[Optional[GateDelayFault]] = (None,),
        base: Optional[PackedTwoFrameResult] = None,
    ) -> PackedTwoFrameResult:
        """Run the two local time frames with one fault injection per slot.

        A full pass evaluates every gate.  With ``base`` the pass is
        event-driven: it reuses the base's initial frame, seeds a wavefront
        at the injection sites (the fanout of a PI/PPI stem, the gate driving
        a gate stem, the sink of a branch) and evaluates a gate only when one
        of its inputs left the base value; a gate wakes its fanout only when
        its planes leave that value broadcast to every slot.  Signals the
        wavefront did not reach keep ``None`` plane entries.

        Args:
            pi_values: complete pair value per primary input.
            ppi_initial: complete initial-frame value per pseudo primary input.
            faults: the injection of each pattern slot; ``None`` slots carry
                the fault-free (good) machine.
            base: the result of a full width-1 good-machine pass over the
                same pattern, or ``None`` for a full pass.

        Returns:
            The packed planes of every signal plus the shared initial frame.
        """
        if not faults:
            raise ValueError("need at least one pattern slot")
        if base is not None and (base.width != 1 or base.base is not None):
            raise ValueError("base must be a full width-1 good-machine pass")
        compiled = self.compiled
        ops = compiled.ops
        fanout = compiled.fanout
        width = len(faults)
        broadcast = (1 << width) - 1
        # filled[v]: the planes of value index v broadcast to every slot.
        filled = [
            tuple(broadcast if plane == index else 0 for plane in range(NUM_PLANES))
            for index in range(NUM_PLANES)
        ]
        planes: List[Optional[List[int]]] = [None] * compiled.num_signals
        if base is None:
            indices = None
            pending = bytearray(b"\x01") * len(ops)
            frame1_values = self._frame1(pi_values, ppi_initial)
            frame1 = {
                name: frame1_values[slot]
                for slot, name in enumerate(compiled.signal_names)
            }
            for slot, name in zip(compiled.pi_slots, self.circuit.primary_inputs):
                planes[slot] = list(filled[pi_values[name].index])
            for position, (slot, name) in enumerate(
                zip(compiled.ppi_slots, self.circuit.pseudo_primary_inputs)
            ):
                final = frame1_values[compiled.dff_data_slots[position]]
                pair = value_from_pair(ppi_initial[name], final)
                planes[slot] = list(filled[pair.index])
        else:
            indices = base.value_indices()
            pending = bytearray(len(ops))
            frame1 = base.frame1

        # Injection bookkeeping: stem moves keyed by signal slot, branch moves
        # keyed by flat fanin position (which pins a unique (gate, pin) pair).
        # The gate that applies a move is pending from the start.
        stem_moves: Dict[int, List[Tuple[GateDelayFault, int]]] = {}
        branch_moves: Dict[int, List[Tuple[GateDelayFault, int]]] = {}
        gate_index_of = compiled.gate_index_of
        for pattern, fault in enumerate(faults):
            if fault is None:
                continue
            bit = 1 << pattern
            slot = compiled.slot_of.get(fault.line.signal)
            if fault.line.kind is LineKind.STEM:
                if slot is not None:
                    stem_moves.setdefault(slot, []).append((fault, bit))
                    driver = gate_index_of.get(slot)
                    if driver is not None:
                        pending[driver] = 1
            else:
                sink_slot = compiled.slot_of.get(fault.line.sink)
                sink_index = gate_index_of.get(sink_slot)
                if sink_index is None or fault.line.pin is None:
                    continue  # the faulted sink is not a compiled gate (e.g. a DFF)
                position = compiled.fanin_offsets[sink_index] + fault.line.pin
                if (
                    position >= compiled.fanin_offsets[sink_index + 1]
                    or compiled.fanin_flat[position] != slot
                ):
                    continue  # pin does not exist / does not read the fault stem
                branch_moves.setdefault(position, []).append((fault, bit))
                pending[sink_index] = 1

        # Source stems (PI / PPI) are injected right at the loaded planes;
        # gate stems are injected after the gate is evaluated below.
        num_sources = len(compiled.pi_slots) + len(compiled.ppi_slots)
        for slot, moves in stem_moves.items():
            if slot < num_sources:
                source = planes[slot]
                if source is None:
                    source = planes[slot] = list(filled[indices[slot]])
                for fault, bit in moves:
                    self._inject(source, fault, bit)
                if indices is not None and source[indices[slot]] != broadcast:
                    for gate in fanout[slot]:
                        pending[gate] = 1

        tables = self._tables
        fanin_flat = compiled.fanin_flat
        offsets = compiled.fanin_offsets
        outputs = compiled.outputs
        evaluated = 0
        index = pending.find(1)
        while index >= 0:
            start = offsets[index]
            end = offsets[index + 1]

            input_planes: List[Sequence[int]] = []
            for position in range(start, end):
                slot = fanin_flat[position]
                source = planes[slot]
                if source is None:
                    source = filled[indices[slot]]
                moves = branch_moves.get(position)
                if moves is not None:
                    source = list(source)
                    for fault, bit in moves:
                        self._inject(source, fault, bit)
                input_planes.append(source)

            op = ops[index]
            if op == OP_NOT:
                acc = packed_not(input_planes[0])
            elif op == OP_BUF:
                acc = list(input_planes[0])
            else:
                table, invert = tables[op]
                acc = input_planes[0]
                for nxt in input_planes[1:]:
                    acc = packed_pair(table, acc, nxt)
                if acc is input_planes[0]:
                    acc = list(acc)  # single-input AND/OR: don't alias the source
                if invert:
                    acc = packed_not(acc)

            out = outputs[index]
            moves = stem_moves.get(out)
            if moves is not None:
                for fault, bit in moves:
                    self._inject(acc, fault, bit)
            planes[out] = acc
            evaluated += 1
            # Every slot holds exactly one value, so the planes equal the
            # base broadcast exactly when the base value's plane is full.
            if indices is not None and acc[indices[out]] != broadcast:
                for gate in fanout[out]:
                    pending[gate] = 1
            index = pending.find(1, index + 1)

        if self.metrics.enabled:
            # The test frame counts the gates evaluated over the injection
            # batch, in 64-bit word units; a full pass adds its initial
            # frame, every gate once over a single binary word.
            words = evaluated * ((width + 63) // 64)
            if base is None:
                words += len(ops)
            self.metrics.inc("repro_sim_gate_words_total", words)
        return PackedTwoFrameResult(
            compiled=compiled, planes=planes, width=width, frame1=frame1, base=base
        )
