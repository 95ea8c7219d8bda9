"""Word-packed eight-plane *set* propagation on the compiled netlist.

:mod:`repro.algebra.packed` evaluates one concrete eight-valued *value* per
pattern slot; the search side of the flow (TDgen's forward implication,
TDsim's reference fallbacks) instead propagates *sets of still-possible
values* per signal.  This module extends the one-hot multi-plane encoding to
sets: every signal carries eight bit planes and bit ``j`` of plane ``v`` is
set when value index ``v`` is a member of pattern slot ``j``'s possibility
set.  A slot with no plane bit set carries the empty set (a conflict).

The crucial observation is that :func:`repro.algebra.packed.packed_pair`
already implements exact set propagation under this reading::

    out[table[a][b]] |= a_planes[a] & b_planes[b]

unions the gate image over every *member pair* of the two input sets, which
is precisely :func:`repro.algebra.sets.evaluate_gate_sets`'s pairwise image —
for all pattern slots at once.  Emptiness propagates for free: a slot empty in
either input is empty in the output, matching the reference's empty-set
short-circuit.

:class:`PackedSetSimulator` runs this set evaluation over the flat gate
program of :mod:`repro.fausim.compile`, with fault-injection *moves* (convert
the activating transition into its fault-carrying variant on selected slots)
applied at stem outputs and at single fanout-branch pins, mirroring the
reference injection of :mod:`repro.tdgen.simulation`.  Each of the word's
slots therefore carries one independent candidate assignment — a decision
alternative, a candidate frame, or a fault-free/faulty pair — and one pass
over the gate program implies all of them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.packed import (
    NOT_PERMUTATION,
    NUM_PLANES,
    core_of,
    packed_not,
    packed_table,
)
from repro.algebra.sets import ValueSet
from repro.circuit.gates import GateType
from repro.fausim.compile import _OPCODES, OP_BUF, OP_NOT, CompiledCircuit
from repro.obs.metrics import NULL_REGISTRY

#: Plane list of one signal: ``planes[v]`` holds the slots whose possibility
#: set contains the value with index ``v`` (multiple planes may carry the
#: same slot bit — that is what makes it a *set* encoding).
SetPlanes = List[int]

#: An injection move: convert value index ``source`` into value index
#: ``target`` on the slots selected by ``mask`` (the reference ``_inject``
#: with the activation/fault-value pair flattened to indices).
Move = Tuple[int, int, int]

#: Opcode -> (two-input core gate type, apply inverter permutation after the
#: fold), shared with the fault-parallel value simulator so the compiled set
#: evaluation cannot drift from the compiler's opcode map.
OP_CORE: Dict[int, Tuple[GateType, bool]] = {
    opcode: core_of(gate_type)
    for gate_type, opcode in _OPCODES.items()
    if gate_type not in (GateType.NOT, GateType.BUF)
}


def pack_value_sets(sets: Sequence[ValueSet]) -> SetPlanes:
    """Pack one signal's possibility set across slots into eight planes."""
    planes = [0] * NUM_PLANES
    for slot_index, value_set in enumerate(sets):
        bit = 1 << slot_index
        remaining = value_set
        while remaining:
            low = remaining & -remaining
            planes[low.bit_length() - 1] |= bit
            remaining ^= low
    return planes


def unpack_value_sets(planes: Sequence[int], width: int) -> List[ValueSet]:
    """Expand packed set planes back into one :class:`ValueSet` per slot."""
    sets = [0] * width
    for index, plane in enumerate(planes):
        plane &= (1 << width) - 1
        mask = 1 << index
        while plane:
            low = plane & -plane
            sets[low.bit_length() - 1] |= mask
            plane ^= low
    return sets


def slot_set(planes: Sequence[int], pattern: int) -> ValueSet:
    """The possibility set carried by one slot (column read of the planes)."""
    mask = 0
    for index in range(NUM_PLANES):
        if (planes[index] >> pattern) & 1:
            mask |= 1 << index
    return mask


def apply_move(planes: SetPlanes, move: Move) -> None:
    """Apply one injection move in place.

    On every slot selected by the move's mask that contains the source value,
    the source value is removed and the target value added — exactly the
    reference ``_inject`` (slots without the source value are untouched, and
    other members of the set survive).
    """
    source, target, mask = move
    moved = planes[source] & mask
    if moved:
        planes[source] &= ~moved
        planes[target] |= moved


@dataclasses.dataclass
class PackedSetResult:
    """Outcome of one packed set-propagation pass.

    Attributes:
        planes: per signal slot, the eight set planes after propagation.
        width: number of valid pattern slots.
        conflict_mask: slots in which some signal's set became empty, as a
            bit mask.
        conflict_signals: first signal (in evaluation order) whose set became
            empty, per conflicted slot index.
    """

    planes: List[SetPlanes]
    width: int
    conflict_mask: int
    conflict_signals: Dict[int, str]


class PackedSetSimulator:
    """Set propagation over one compiled circuit, one candidate per pattern slot.

    Args:
        compiled: the compiled gate program to run (see
            :func:`repro.fausim.compile.compile_circuit`).
        robust: use the robust (paper Table 1) or relaxed non-robust tables.
    """

    #: Metrics registry counting wavefront gate evaluations/skips: at most
    #: two registry calls per sweep, never one per gate (no-op by default).
    metrics = NULL_REGISTRY

    def __init__(self, compiled: CompiledCircuit, robust: bool = True) -> None:
        self.compiled = compiled
        self.robust = robust
        # Per opcode: the core fold table and the table of the *final* fold
        # step.  For inverting gates (NAND/NOR/XNOR) the inverter permutation
        # is pre-composed into the final table, so the hot loop never runs a
        # separate NOT pass over the folded planes.
        self._tables: Dict[int, Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]] = {}
        for opcode, (core, invert) in OP_CORE.items():
            base = packed_table(core, robust)
            if invert:
                last = tuple(
                    tuple(NOT_PERMUTATION[value] for value in row) for row in base
                )
            else:
                last = base
            self._tables[opcode] = (base, last)

    def propagate(
        self,
        source_planes: List[SetPlanes],
        width: int,
        stem_moves: Optional[Mapping[int, Sequence[Move]]] = None,
        branch_moves: Optional[Mapping[int, Sequence[Move]]] = None,
        gate_indices: Optional[Sequence[int]] = None,
        base_sets: Optional[Sequence[ValueSet]] = None,
        changed_slots: Optional[Sequence[int]] = None,
    ) -> PackedSetResult:
        """Run the gate program over pre-loaded source set planes.

        Args:
            source_planes: one plane list per signal slot; the PI/PPI slots
                must be loaded (including any source-stem injection), gate
                slots are overwritten.
            width: number of valid pattern slots.
            stem_moves: injection moves keyed by *gate output* slot, applied
                right after the gate is evaluated (a stem fault on a gate
                output — every sink sees the injected set).
            branch_moves: injection moves keyed by flat fanin position,
                applied to the set *read* at that one (gate, pin) only (a
                fanout-branch fault — the stem keeps its fault-free set).
            gate_indices: restrict the pass to these gate-program indices, in
                ascending order (incremental cone evaluation); ``None`` runs
                the full program.  Every fanin read outside the subset must
                already hold valid planes.
            base_sets: per-slot sets of the conflict-free *parent* state an
                incremental sweep starts from.  Enables event-driven change
                tracking: a gate none of whose inputs changed relative to
                the parent is skipped outright (its planes entry stays
                ``None`` and readers fall back to the parent column), and a
                gate whose result equals the parent's broadcast does not
                wake its fanout.  Requires ``changed_slots``.
            changed_slots: the source slots whose loaded planes may differ
                from the parent column (the decision variable, re-coupled
                state registers); the transitive wavefront is derived from
                them.

        Returns:
            The evaluated planes plus the per-slot conflict bookkeeping (the
            packed counterpart of recording the first empty set during the
            reference propagation pass).
        """
        stem_moves = stem_moves or {}
        branch_moves = branch_moves or {}
        compiled = self.compiled
        planes = source_planes
        tables = self._tables
        fanin_flat = compiled.fanin_flat
        offsets = compiled.fanin_offsets
        outputs = compiled.outputs
        signal_names = compiled.signal_names
        full = (1 << width) - 1
        conflict_mask = 0
        conflict_signals: Dict[int, str] = {}

        has_branch_moves = bool(branch_moves)
        has_stem_moves = bool(stem_moves)
        ops = compiled.ops
        indices = range(len(ops)) if gate_indices is None else gate_indices

        # Per-slot cache of the nonzero (plane index, plane) entries.  Most
        # possibility sets hold one to four values, so iterating only the
        # occupied planes beats scanning all 8x8 plane pairs per gate; the
        # scan that builds an entry list is paid once per slot per sweep and
        # reused by every fanout read.  The cache lookups are inlined in the
        # loop below — a helper call per fanin read costs more than the scan
        # it saves.
        nonzero: List[Optional[List[Tuple[int, int]]]] = [None] * len(planes)
        branch_positions = frozenset(branch_moves) if has_branch_moves else frozenset()

        # Event-driven mode: gates are evaluated only when an input sits on
        # the change wavefront seeded by ``changed_slots``; everything else
        # keeps its ``None`` planes entry (the parent column answers reads).
        tracking = base_sets is not None
        changed: Optional[bytearray] = None
        if tracking:
            changed = bytearray(len(planes))
            for slot in changed_slots or ():
                changed[slot] = 1

        def base_entries(slot: int) -> List[Tuple[int, int]]:
            """Broadcast entries of an unchanged slot (the parent's value)."""
            entries = []
            remaining = base_sets[slot]
            while remaining:
                low = remaining & -remaining
                entries.append((low.bit_length() - 1, full))
                remaining ^= low
            return entries

        def source_of(slot: int) -> SetPlanes:
            """Plane list of a fanin slot, materialising the parent broadcast."""
            source = planes[slot]
            if source is None:
                source = [0] * NUM_PLANES
                for i, p in base_entries(slot):
                    source[i] = p
            return source

        def injected_entries(position: int) -> List[Tuple[int, int]]:
            """Nonzero planes of one branch-injected (gate, pin) read."""
            source = list(source_of(fanin_flat[position]))
            for move in branch_moves[position]:
                apply_move(source, move)
            return [(i, p) for i, p in enumerate(source) if p]

        evaluated = 0
        for index in indices:
            start = offsets[index]
            end = offsets[index + 1]

            if tracking:
                touched = False
                for position in range(start, end):
                    if changed[fanin_flat[position]]:
                        touched = True
                        break
                if not touched:
                    # No input on the wavefront: the parent's value stands.
                    continue
                evaluated += 1

            op = ops[index]
            arity = end - start

            if arity == 1:
                if start in branch_positions:
                    source = [0] * NUM_PLANES
                    for i, p in injected_entries(start):
                        source[i] = p
                elif tracking:
                    source = source_of(fanin_flat[start])
                else:
                    source = planes[fanin_flat[start]]
                if op == OP_NOT:
                    acc = packed_not(source)
                elif op == OP_BUF:
                    acc = list(source)
                else:
                    base_table, last_table = tables[op]
                    acc = (
                        list(source) if base_table is last_table else packed_not(source)
                    )
            elif arity == 2:
                # Two-input gates dominate; fuse over the occupied planes
                # only.  The fold is inlined (rather than calling
                # :func:`repro.algebra.packed.packed_pair` per step) to keep
                # the hot loop free of per-gate function-call overhead; the
                # final step's table carries any inverter permutation.
                last_table = tables[op][1]
                position_b = start + 1
                if start in branch_positions:
                    a_entries = injected_entries(start)
                else:
                    slot = fanin_flat[start]
                    a_entries = nonzero[slot]
                    if a_entries is None:
                        source = planes[slot]
                        a_entries = (
                            base_entries(slot)
                            if source is None
                            else [(i, p) for i, p in enumerate(source) if p]
                        )
                        nonzero[slot] = a_entries
                if position_b in branch_positions:
                    b_entries = injected_entries(position_b)
                else:
                    slot = fanin_flat[position_b]
                    b_entries = nonzero[slot]
                    if b_entries is None:
                        source = planes[slot]
                        b_entries = (
                            base_entries(slot)
                            if source is None
                            else [(i, p) for i, p in enumerate(source) if p]
                        )
                        nonzero[slot] = b_entries
                acc = [0] * NUM_PLANES
                if b_entries:
                    for a_index, plane_a in a_entries:
                        row = last_table[a_index]
                        for b_index, plane_b in b_entries:
                            both = plane_a & plane_b
                            if both:
                                acc[row[b_index]] |= both
            else:
                base_table, last_table = tables[op]
                if start in branch_positions:
                    acc_entries = injected_entries(start)
                else:
                    slot = fanin_flat[start]
                    acc_entries = nonzero[slot]
                    if acc_entries is None:
                        source = planes[slot]
                        acc_entries = (
                            base_entries(slot)
                            if source is None
                            else [(i, p) for i, p in enumerate(source) if p]
                        )
                        nonzero[slot] = acc_entries
                final_step = arity - 1
                for step in range(1, arity):
                    table = last_table if step == final_step else base_table
                    position = start + step
                    if position in branch_positions:
                        nxt_entries = injected_entries(position)
                    else:
                        slot = fanin_flat[position]
                        nxt_entries = nonzero[slot]
                        if nxt_entries is None:
                            source = planes[slot]
                            nxt_entries = (
                                base_entries(slot)
                                if source is None
                                else [(i, p) for i, p in enumerate(source) if p]
                            )
                            nonzero[slot] = nxt_entries
                    folded = [0] * NUM_PLANES
                    if nxt_entries:
                        for a_index, plane_a in acc_entries:
                            row = table[a_index]
                            for b_index, plane_b in nxt_entries:
                                both = plane_a & plane_b
                                if both:
                                    folded[row[b_index]] |= both
                    if step == final_step:
                        acc = folded
                    else:
                        acc_entries = [(i, p) for i, p in enumerate(folded) if p]

            out = outputs[index]
            if has_stem_moves:
                moves = stem_moves.get(out)
                if moves:
                    for move in moves:
                        apply_move(acc, move)
            planes[out] = acc
            nonzero[out] = None
            if tracking:
                # Wake the fanout only when the result actually left the
                # parent's value (the wavefront dies where sets converge).
                base_value = base_sets[out]
                for value_index in range(NUM_PLANES):
                    expected = full if (base_value >> value_index) & 1 else 0
                    if acc[value_index] != expected:
                        changed[out] = 1
                        break

            live = (
                acc[0] | acc[1] | acc[2] | acc[3]
                | acc[4] | acc[5] | acc[6] | acc[7]
            )
            empty = full & ~live & ~conflict_mask
            if empty:
                conflict_mask |= empty
                name = signal_names[out]
                while empty:
                    low = empty & -empty
                    conflict_signals[low.bit_length() - 1] = name
                    empty ^= low

        metrics = self.metrics
        if metrics.enabled:
            total = len(ops) if gate_indices is None else len(gate_indices)
            if tracking:
                metrics.inc("repro_wavefront_gates_evaluated_total", evaluated)
                if total > evaluated:
                    metrics.inc(
                        "repro_wavefront_gates_skipped_total", total - evaluated
                    )
            else:
                metrics.inc("repro_wavefront_gates_evaluated_total", total)

        return PackedSetResult(
            planes=planes,
            width=width,
            conflict_mask=conflict_mask,
            conflict_signals=conflict_signals,
        )
