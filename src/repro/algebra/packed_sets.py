"""Set-word propagation of value *sets* on the compiled netlist.

The packed engine's eight-valued test frame — TDgen's forward implication
and every TDsim pass alike — propagates *sets of still-possible values* per
signal.  This module packs those sets into one Python int per signal, a
**set word**: byte ``j`` of the word holds pattern slot ``j``'s 8-bit
:data:`~repro.algebra.sets.ValueSet`.  A slot whose byte is zero carries the
empty set (a conflict).  A fully specified pattern holds a singleton in
every byte, so TDsim's concrete eight-valued simulation is the same sweep.

Each gate folds its pins in pin order through pairwise *set images*:
``image[(a << 8) | b]`` is :func:`repro.algebra.sets.evaluate_gate_sets` of
input sets ``a`` and ``b``, filled from :func:`repro.algebra.packed.packed_table`
on first use (one dict per opcode and robustness mode, shared by every
simulator).  Middle pins fold through the core image, the last step through
the image with any inverter pre-composed; the inverter is a two-input image
whose first operand is empty.  The image of an empty set is empty, so
conflicts propagate for free.  Every step works on whole words through a
*word-pair memo* per batch width keyed by ``(image index, word a, word b)``:
one dict lookup per step, with the per-slot fold only on a miss.  Sweep
inputs repeat heavily, so a memo cleared at :data:`MEMO_ENTRIES` entries
answers most lookups in bounded memory.  The sweep reads each gate as one
tuple of a per-gate plan (:func:`set_plan`); a gate that applies an
injection move takes one slow path through the same memo.

:class:`PackedSetSimulator` runs this evaluation over the flat gate program
of :mod:`repro.fausim.compile`, with fault-injection *moves* (convert the
activating transition into its fault-carrying variant on selected slots)
applied at stem outputs and at single fanout-branch pins, mirroring the
reference injection of :mod:`repro.tdgen.simulation`.  Each slot carries one
independent candidate assignment — a decision alternative, a candidate
frame, or a fault-free/faulty pair — and one pass over the gate program
implies all of them.  TDsim's batches put one injected fault per slot
(:meth:`repro.tdgen.implication.ImplicationEngine.implicate_faults`).

An *event-driven* pass starts from the columns of a conflict-free parent
state and evaluates only what changed (selective trace): a ``pending`` byte
per gate marks the fanout (``CompiledCircuit.fanout``) of every slot whose
word left the parent's broadcast, one forward scan evaluates the marked
gates, and every word it never writes stays ``None`` and reads as the
parent's column.  Gates that apply an injection can be seeded directly.
The pass returns the slots it wrote.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.packed import NOT_PERMUTATION, core_of, packed_table
from repro.algebra.sets import ValueSet
from repro.circuit.gates import GateType
from repro.fausim.compile import _OPCODES, OP_NOT, CompiledCircuit
from repro.fausim.kernels import kernels_for
from repro.obs.metrics import NULL_REGISTRY

#: Set word of one signal: byte ``j`` is slot ``j``'s possibility set.
SetWord = int

#: An injection move ``(source, target, byte_mask)``: convert value index
#: ``source`` into value index ``target`` on the slots whose byte in
#: ``byte_mask`` is ``0x01`` (the reference ``_inject`` with the
#: activation/fault-value pair flattened to indices).
SetMove = Tuple[int, int, int]


def slot_mask(width: int) -> int:
    """The word with byte ``0x01`` in each of ``width`` slots.

    ``value_set * slot_mask(width)`` broadcasts one set to every slot, and it
    is the ``byte_mask`` of a move that applies to every slot.
    """
    return int.from_bytes(b"\x01" * width, "little")


def apply_moves(word: SetWord, moves: Sequence[SetMove]) -> SetWord:
    """Apply injection moves to a set word, word-parallel.

    On every selected slot that contains the source value, the source value
    is removed and the target value added — exactly the reference
    ``_inject`` (slots without the source value are untouched, and other
    members of the set survive).
    """
    for source, target, byte_mask in moves:
        hit = (word >> source) & byte_mask
        if hit:
            word = (word & ~(hit << source)) | (hit << target)
    return word


#: ``NOT_IMAGE[s]`` is the inverter's image of value set ``s``.
NOT_IMAGE: Tuple[ValueSet, ...] = tuple(
    sum(1 << NOT_PERMUTATION[index] for index in range(8) if (value_set >> index) & 1)
    for value_set in range(256)
)


#: Every set image; an image's ``index`` (its position) tags its memo keys.
_IMAGES: List["_SetImage"] = []


class _SetImage(dict):
    """Lazily filled pairwise set image of one gate opcode, or of the inverter.

    Keyed by ``(a << 8) | b`` for input sets ``a`` and ``b``; a missing key
    is computed once from the core gate's value-index table, with the
    inverter permutation applied after it for NAND/NOR/XNOR.
    """

    __slots__ = ("core", "invert", "robust", "index")

    def __init__(self, core: GateType, invert: bool, robust: bool) -> None:
        super().__init__()
        self.core = core
        self.invert = invert
        self.robust = robust
        self.index = len(_IMAGES)
        _IMAGES.append(self)

    def __missing__(self, key: int) -> ValueSet:
        table = packed_table(self.core, self.robust)
        a, b = key >> 8, key & 255
        result = 0
        for a_index in range(8):
            if (a >> a_index) & 1:
                row = table[a_index]
                for b_index in range(8):
                    if (b >> b_index) & 1:
                        result |= 1 << row[b_index]
        if self.invert:
            result = NOT_IMAGE[result]
        self[key] = result
        return result


#: robust -> per opcode, the shared set image (``None`` for NOT/BUF).  Every
#: simulator reads these memos; they start empty and fill on first use.
_SET_IMAGES: Dict[bool, List[Optional[_SetImage]]] = {
    True: [None] * len(_OPCODES),
    False: [None] * len(_OPCODES),
}
#: Per opcode: the opcode of its associative core (itself for NOT/BUF).
_CORE_OPCODE: List[int] = list(range(len(_OPCODES)))
#: Per opcode: does a one-input gate of this opcode invert its input?
_UNARY_INVERTS: List[bool] = [opcode == OP_NOT for opcode in range(len(_OPCODES))]
# Derived from the compiler's opcode map, so the set evaluation cannot
# drift from it.
for _gate_type, _opcode in _OPCODES.items():
    if _gate_type not in (GateType.NOT, GateType.BUF):
        _core, _invert = core_of(_gate_type)
        _CORE_OPCODE[_opcode] = _OPCODES[_core]
        _UNARY_INVERTS[_opcode] = _invert
        for _robust in (True, False):
            _SET_IMAGES[_robust][_opcode] = _SetImage(_core, _invert, _robust)
#: The inverter as a two-input image whose first operand is empty, filled
#: whole: the last (and only) step of a one-input inverting gate.
_INVERTER = _SetImage(GateType.NOT, True, True)
_INVERTER.update(enumerate(NOT_IMAGE))

#: Entry count at which a word-pair memo is cleared, so no memo holds more.
MEMO_ENTRIES = 8192


class _WordMemo(dict):
    """The set sweep's word-pair memo for one batch width ``w``.

    Maps ``((image << 8w | a) << 8w) | b`` to the word whose byte ``j`` is
    that image of bytes ``j`` of set words ``a`` and ``b``: one fold step on
    every slot.  A miss folds slot by slot and first clears a memo that holds
    :data:`MEMO_ENTRIES` entries; entries are pure functions of their keys.
    """

    __slots__ = ("bits", "mask", "shifts")

    def __init__(self, width: int) -> None:
        super().__init__()
        self.bits = 8 * width
        self.mask = (1 << self.bits) - 1
        self.shifts = range(0, self.bits, 8)

    def __missing__(self, key: int) -> SetWord:
        bits = self.bits
        image = _IMAGES[key >> (2 * bits)]
        a, b = (key >> bits) & self.mask, key & self.mask
        result = 0
        for shift in self.shifts:
            result |= image[(((a >> shift) & 255) << 8) | ((b >> shift) & 255)] << shift
        if len(self) >= MEMO_ENTRIES:
            self.clear()
        self[key] = result
        return result


#: Per batch width, the shared word-pair memo.  Module-level like the
#: images: forked workers inherit it warm, and no pickle carries it.
_WORD_MEMOS: Dict[int, _WordMemo] = {}


#: One gate of a set plan (see :func:`set_plan`): ``(first, middle, final,
#: core, last, out, fanout)``.
SetStep = Tuple[int, Tuple[int, ...], int, Optional[int], Optional[int], int, Tuple[int, ...]]


def set_plan(compiled: CompiledCircuit, robust: bool) -> Tuple[SetStep, ...]:
    """The set sweep's per-gate plan of ``compiled`` in one robustness mode.

    Per gate, in program order: the first fanin slot, the middle fanin slots,
    the last fanin slot (``-1`` for a one-input gate), the index of the core
    image the middle pins fold through (``None`` for a one-input gate), the
    index of the image of the last step (which carries any inverter; for a
    one-input gate the inverter's, or ``None`` for a buffer), the output slot
    and the gates that read it.  Built on first use and kept on the circuit's
    :func:`~repro.fausim.kernels.kernels_for` object, so a recompile drops
    it and a pickle never carries it.
    """
    kernels = kernels_for(compiled)
    key = ("sets", robust)
    plan = kernels.plans.get(key)
    if plan is None:
        images = _SET_IMAGES[robust]
        steps: List[SetStep] = []
        for op, fanins, out, out_fanout in kernels.plane_plan():
            if len(fanins) == 1:
                last = _INVERTER.index if _UNARY_INVERTS[op] else None
                steps.append((fanins[0], (), -1, None, last, out, out_fanout))
            else:
                steps.append(
                    (fanins[0], fanins[1:-1], fanins[-1],
                     images[_CORE_OPCODE[op]].index, images[op].index, out, out_fanout)
                )
        plan = kernels.plans[key] = tuple(steps)
    return plan


@dataclasses.dataclass
class PackedSetResult:
    """Outcome of one set-word propagation pass.

    Attributes:
        words: per signal slot, the set word after propagation (``None`` for
            a slot an event-driven sweep left at the parent's broadcast).
        width: number of valid pattern slots.
        conflict_mask: slots in which some signal's set became empty, as a
            bit mask (bit ``j`` for slot ``j``).
        conflict_signals: first signal (in evaluation order) whose set became
            empty, per conflicted slot index.
        written: the slots an event-driven sweep wrote (its seeds, then the
            gates it evaluated, in program order); ``None`` for a full sweep,
            which writes every slot.
    """

    words: List[Optional[SetWord]]
    width: int
    conflict_mask: int
    conflict_signals: Dict[int, str]
    written: Optional[List[int]] = None


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
    #: ``site`` label of those counters: the owning engine's metrics site.
    metrics_site = ""

    def __init__(self, compiled: CompiledCircuit, robust: bool = True) -> None:
        self.compiled = compiled
        self.robust = robust

    def propagate(
        self,
        source_words: List[Optional[SetWord]],
        width: int,
        stem_moves: Optional[Mapping[int, Sequence[SetMove]]] = None,
        branch_moves: Optional[Mapping[int, Sequence[SetMove]]] = None,
        base_sets: Optional[Sequence[ValueSet]] = None,
        changed_slots: Sequence[int] = (),
        seed_gates: Sequence[int] = (),
    ) -> PackedSetResult:
        """Run the gate program over pre-loaded source set words.

        Args:
            source_words: one set word per signal slot; the PI/PPI slots
                must be loaded (including any source-stem injection), gate
                slots are overwritten.
            width: number of valid pattern slots.
            stem_moves: injection moves keyed by *gate output* slot, applied
                right after the gate is evaluated (a stem fault on a gate
                output — every sink sees the injected set).
            branch_moves: injection moves keyed by flat fanin position,
                applied to the set *read* at that one (gate, pin) only (a
                fanout-branch fault — the stem keeps its fault-free set).
            base_sets: per-slot sets of the conflict-free *parent* state an
                incremental sweep starts from; enables the event-driven mode.
                A ``None`` word reads as the parent's broadcast
                ``base_sets[slot] * slot_mask(width)``.  Only the gates in the
                fanout of a slot whose word left that broadcast are
                evaluated (the fanout marks of ``compiled.fanout``); every
                other gate keeps its ``None`` word.
            changed_slots: the source slots the caller loaded for an
                event-driven sweep (the decision variable, re-coupled state
                registers); each one whose word differs from the parent's
                broadcast seeds the wavefront.
            seed_gates: gate indices an event-driven sweep evaluates even
                though no input left the parent's value: the gates that
                apply an injection (the gate whose output a stem move
                converts, the sink of a branch move).

        Returns:
            The evaluated words plus the per-slot conflict bookkeeping (the
            packed counterpart of recording the first empty set during the
            reference propagation pass).  An event-driven sweep also lists
            the slots it wrote: ``changed_slots``, then each evaluated gate
            output.
        """
        stem_moves = stem_moves or {}
        branch_moves = branch_moves or {}
        compiled = self.compiled
        plan = set_plan(compiled, self.robust)
        words = source_words
        fanout = compiled.fanout
        signal_names = compiled.signal_names
        num_gates = compiled.num_gates
        rep = slot_mask(width)
        high = rep << 7
        memo = _WORD_MEMOS.get(width) or _WORD_MEMOS.setdefault(width, _WordMemo(width))
        bits, pair_bits = memo.bits, 2 * memo.bits
        conflict_mask = 0
        conflict_signals: Dict[int, str] = {}
        # The gates that apply a move take the slow path (:meth:`_moved_gate`),
        # so the planned path never looks a pin or an output up in the moves.
        gate_index_of = compiled.gate_index_of
        moved = {gate_index_of[slot] for slot in stem_moves if slot in gate_index_of}
        moved.update(
            bisect_right(compiled.fanin_offsets, position) - 1 for position in branch_moves
        )

        # ``pending[i]`` marks gate ``i`` for evaluation.  A full sweep marks
        # every gate; an event-driven sweep marks the fanout of each seed that
        # left the parent's value, and each evaluated gate marks its own
        # fanout only when its result leaves it too (the wavefront dies where
        # sets converge).  Fanout gates come later in program order, so one
        # forward scan reaches every mark.
        tracking = base_sets is not None
        written: Optional[List[int]] = None
        if tracking:
            pending = bytearray(num_gates)
            written = list(changed_slots)
            for slot in changed_slots:
                if words[slot] != base_sets[slot] * rep:
                    for gate in fanout[slot]:
                        pending[gate] = 1
            for gate in seed_gates:
                pending[gate] = 1
        else:
            pending = bytearray(b"\x01") * num_gates

        find = pending.find
        index = find(1)
        while index >= 0:
            first, middle, final, core, last, out, out_fanout = plan[index]
            if index in moved:
                acc = self._moved_gate(
                    index, plan[index], words, base_sets, rep, memo, stem_moves, branch_moves
                )
            else:
                a = words[first]
                if a is None:
                    a = base_sets[first] * rep
                if core is None:
                    # One input: a buffer, or the inverter (empty first operand).
                    acc = a if last is None else memo[(last << pair_bits) | a]
                else:
                    # Fold the pins in order (the non-robust XOR image is not
                    # associative), one memo lookup per step: the middle pins
                    # through the core image, the last step through the image
                    # that carries any inverter.
                    for slot in middle:
                        b = words[slot]
                        if b is None:
                            b = base_sets[slot] * rep
                        a = memo[((core << bits | a) << bits) | b]
                    b = words[final]
                    if b is None:
                        b = base_sets[final] * rep
                    acc = memo[((last << bits | a) << bits) | b]

            words[out] = acc
            if tracking:
                written.append(out)
                if acc != base_sets[out] * rep:
                    for gate in out_fanout:
                        pending[gate] = 1

            # Nonzero exactly when some slot's byte is zero; the per-slot
            # scan then finds which.
            if (acc - rep) & ~acc & high:
                name = signal_names[out]
                for slot_index, shift in enumerate(memo.shifts):
                    bit = 1 << slot_index
                    if not (acc >> shift) & 255 and not conflict_mask & bit:
                        conflict_mask |= bit
                        conflict_signals[slot_index] = name
            index = find(1, index + 1)

        metrics = self.metrics
        if metrics.enabled:
            site = self.metrics_site
            evaluated = len(written) - len(changed_slots) if tracking else num_gates
            metrics.inc("repro_wavefront_gates_evaluated_total", evaluated, site=site)
            if num_gates > evaluated:
                metrics.inc(
                    "repro_wavefront_gates_skipped_total", num_gates - evaluated, site=site
                )

        return PackedSetResult(
            words=words,
            width=width,
            conflict_mask=conflict_mask,
            conflict_signals=conflict_signals,
            written=written,
        )

    def _moved_gate(
        self,
        index: int,
        step: SetStep,
        words: List[Optional[SetWord]],
        base_sets: Optional[Sequence[ValueSet]],
        rep: int,
        memo: _WordMemo,
        stem_moves: Mapping[int, Sequence[SetMove]],
        branch_moves: Mapping[int, Sequence[SetMove]],
    ) -> SetWord:
        """Evaluate one gate that applies an injection move.

        The planned fold of :meth:`propagate` through the same memo, after
        each pin's read takes its branch moves; the output takes its stem
        moves.
        """
        compiled = self.compiled
        reads = []
        for position in range(compiled.fanin_offsets[index], compiled.fanin_offsets[index + 1]):
            slot = compiled.fanin_flat[position]
            b = words[slot]
            if b is None:
                b = base_sets[slot] * rep
            reads.append(apply_moves(b, branch_moves.get(position, ())))
        _, _, _, core, last, out, _ = step
        acc = reads[0]
        if last is not None:
            # A one-input gate's only step has an empty first operand.
            acc, pins = (0, reads) if core is None else (acc, reads[1:])
            bits = memo.bits
            for b in pins[:-1]:
                acc = memo[((core << bits | acc) << bits) | b]
            acc = memo[((last << bits | acc) << bits) | pins[-1]]
        return apply_moves(acc, stem_moves.get(out, ()))
