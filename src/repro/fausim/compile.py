"""One-time lowering of a levelised netlist to flat integer arrays.

The reference simulator interprets the netlist directly: every gate
evaluation goes through a dict lookup by signal name, an enum dispatch and a
freshly built input list.  For the inner loops of the paper's flow (good and
faulty machine simulation, executed once per fault per frame) that
interpretation overhead dominates the runtime.

:func:`compile_circuit` removes it: every signal of the combinational block
gets a dense integer slot, the evaluation order is frozen into an opcode
table, and the fanin lists are flattened into one shared index array.  The
compiled form is all the packed evaluator (:mod:`repro.fausim.packed_sim`)
touches in its hot loop — no strings, no dicts, no enum comparisons.

The compiled circuit is cached on the :class:`~repro.circuit.netlist.Circuit`
instance and invalidated together with the circuit's other structural caches,
so repeated simulator construction (one per targeted fault in the flow) pays
the lowering cost only once.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.circuit.gates import GateType
from repro.circuit.levelize import combinational_order
from repro.circuit.netlist import Circuit

# Opcodes of the compiled gate table.  Kept as plain ints so the evaluator
# dispatches on integer comparison instead of enum identity.
OP_AND = 0
OP_NAND = 1
OP_OR = 2
OP_NOR = 3
OP_NOT = 4
OP_BUF = 5
OP_XOR = 6
OP_XNOR = 7

_OPCODES: Dict[GateType, int] = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
}


@dataclasses.dataclass(frozen=True)
class CompiledCircuit:
    """Flat-array form of one circuit's combinational block.

    Slot layout: primary inputs first, then pseudo primary inputs, then the
    combinational gates in levelised evaluation order.  ``ops[i]``,
    ``outputs[i]`` and ``fanin_flat[fanin_offsets[i]:fanin_offsets[i + 1]]``
    describe the ``i``-th gate evaluation: its opcode, its output slot and
    the slots of its inputs in pin order.

    Attributes:
        circuit: the source netlist (kept for name lookups only).
        signal_names: slot index -> signal name.
        slot_of: signal name -> slot index.
        pi_slots: slots of the primary inputs, in declaration order.
        ppi_slots: slots of the pseudo primary inputs, in flip-flop order.
        po_slots: slots of the primary outputs, in declaration order.
        dff_data_slots: slot of each flip-flop's data input (PPO), aligned
            with ``ppi_slots``.
        ops / outputs / fanin_offsets / fanin_flat: the gate program.
        gate_index_of: output slot -> index into the gate program (used by
            the fault-injecting evaluators to locate a faulted gate).
    """

    circuit: Circuit
    signal_names: Tuple[str, ...]
    slot_of: Dict[str, int]
    pi_slots: Tuple[int, ...]
    ppi_slots: Tuple[int, ...]
    po_slots: Tuple[int, ...]
    dff_data_slots: Tuple[int, ...]
    ops: Tuple[int, ...]
    outputs: Tuple[int, ...]
    fanin_offsets: Tuple[int, ...]
    fanin_flat: Tuple[int, ...]
    gate_index_of: Dict[int, int]

    @property
    def num_signals(self) -> int:
        """Number of slots (primary inputs + PPIs + combinational gates)."""
        return len(self.signal_names)

    @property
    def num_gates(self) -> int:
        """Number of compiled gate evaluations."""
        return len(self.ops)

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the flat arrays only.

        The generated kernels of :mod:`repro.fausim.kernels` hang off the
        instance as ``_kernels``; they are per process and are dropped here,
        so an unpickled circuit starts with cold kernels.
        """
        state = dict(self.__dict__)
        state.pop("_kernels", None)
        return state


#: Process-wide count of actual (cache-missing) netlist lowerings.  The
#: service layer's cache tests read it to prove that a same-netlist
#: resubmission was served from the warmed circuit without recompiling.
_compile_count = 0


def compile_count() -> int:
    """How many real netlist lowerings this process has performed."""
    return _compile_count


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` to its flat-array form (cached per circuit).

    The result is memoised on the circuit instance and recomputed when the
    circuit is structurally modified.
    """
    cached = getattr(circuit, "_compiled_cache", None)
    if cached is not None:
        return cached
    global _compile_count
    _compile_count += 1

    order = combinational_order(circuit)
    signal_names: List[str] = []
    slot_of: Dict[str, int] = {}

    for name in circuit.primary_inputs:
        slot_of[name] = len(signal_names)
        signal_names.append(name)
    for name in circuit.pseudo_primary_inputs:
        slot_of[name] = len(signal_names)
        signal_names.append(name)
    for name in order:
        slot_of[name] = len(signal_names)
        signal_names.append(name)

    ops: List[int] = []
    outputs: List[int] = []
    fanin_offsets: List[int] = [0]
    fanin_flat: List[int] = []
    for name in order:
        gate = circuit.gate(name)
        opcode = _OPCODES.get(gate.gate_type)
        if opcode is None:
            raise ValueError(f"gate type {gate.gate_type} is not combinationally evaluable")
        if not gate.fanin:
            raise ValueError(f"gate {name!r} has no inputs")
        if opcode in (OP_NOT, OP_BUF) and len(gate.fanin) != 1:
            raise ValueError(
                f"{gate.gate_type.value} expects 1 input(s), got {len(gate.fanin)}"
            )
        ops.append(opcode)
        outputs.append(slot_of[name])
        fanin_flat.extend(slot_of[source] for source in gate.fanin)
        fanin_offsets.append(len(fanin_flat))

    compiled = CompiledCircuit(
        circuit=circuit,
        signal_names=tuple(signal_names),
        slot_of=slot_of,
        pi_slots=tuple(slot_of[pi] for pi in circuit.primary_inputs),
        ppi_slots=tuple(slot_of[ppi] for ppi in circuit.pseudo_primary_inputs),
        po_slots=tuple(slot_of[po] for po in circuit.primary_outputs),
        dff_data_slots=tuple(slot_of[dff.fanin[0]] for dff in circuit.flip_flops),
        ops=tuple(ops),
        outputs=tuple(outputs),
        fanin_offsets=tuple(fanin_offsets),
        fanin_flat=tuple(fanin_flat),
        gate_index_of={slot: index for index, slot in enumerate(outputs)},
    )
    circuit._compiled_cache = compiled
    return compiled


@dataclasses.dataclass(frozen=True)
class NetlistDelta:
    """Structural difference between two compiled netlists.

    The changed-gate set is split by what a difference can affect:

    ``changed``
        Signals of the *new* circuit whose driving function differs — they
        did not exist before, or their gate type or fanin list changed.
        Their simulated *values* can differ between the two circuits, so the
        effect propagates forward through their sequential fanout cone.

    ``observability``
        Signals whose driver is identical but whose fanout sink set or
        primary-output membership changed.  Their values are the same under
        every input sequence; only how (and whether) transitions on them are
        *observed* differs, which affects exactly the faults that propagate
        through them — their sequential fanin cone, not their fanout cone.

    ``removed``
        Signals that exist only in the old circuit.  Their surviving
        neighbours always land in one of the two sets above: a rewired sink
        has a different fanin (``changed``), a source that lost the sink has
        a different fanout (``observability``).

    The incremental engine (:mod:`repro.store.incremental`) grows these sets
    into a sequential influence cone to decide which stored fault results
    survive a netlist edit.
    """

    changed: Tuple[str, ...]
    observability: Tuple[str, ...]
    removed: Tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        """True when the two netlists are structurally identical."""
        return not self.changed and not self.observability and not self.removed


def diff_compiled(old: CompiledCircuit, new: CompiledCircuit) -> NetlistDelta:
    """Compute the changed-gate set between two compiled netlists.

    Signals are matched by name, so the diff is meaningful exactly when the
    new netlist is an *edit* of the old one (the incremental-ATPG contract).
    The comparison is purely structural — gate type, fanin list, fanout sink
    set and primary-output membership — and deliberately conservative: any
    local difference puts the signal into the changed or observability set,
    and the influence cone built on top of them does the rest.
    """
    old_circuit = old.circuit
    new_circuit = new.circuit
    old_outputs = set(old_circuit.primary_outputs)
    new_outputs = set(new_circuit.primary_outputs)
    changed: List[str] = []
    observability: List[str] = []
    for name, gate in new_circuit.gates.items():
        other = old_circuit.gates.get(name)
        if (
            other is None
            or gate.gate_type is not other.gate_type
            or list(gate.fanin) != list(other.fanin)
        ):
            changed.append(name)
        elif (name in new_outputs) != (name in old_outputs) or sorted(
            new_circuit.fanout(name)
        ) != sorted(old_circuit.fanout(name)):
            observability.append(name)
    removed = [name for name in old_circuit.gates if name not in new_circuit.gates]
    return NetlistDelta(
        changed=tuple(sorted(changed)),
        observability=tuple(sorted(observability)),
        removed=tuple(sorted(removed)),
    )
