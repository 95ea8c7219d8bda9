"""Tiered straight-line kernels for the whole-program passes of a circuit.

Two passes walk the entire gate program of a
:class:`~repro.fausim.compile.CompiledCircuit` many times per campaign: the
full-program call of
:meth:`~repro.fausim.packed_sim.PackedLogicSimulator.evaluate_planes`, and
the pair analysis of each SEMILET frame search's root batch
(:func:`pair_analysis`).  A SEMILET decision batch runs neither: it is one
event-driven, interpreted pass from its parent candidate
(:func:`pair_wavefront`), which evaluates only the gates the decision
reaches.
Interpreting the flat opcode table costs an opcode dispatch per gate and a
loop per pin.  Generated Python source, in which every gate is a few bitwise
operations on local variables, removes both.

Every kernel has two tiers:

* **cold** — one interpreted loop over the opcode table;
* **generated** — straight-line functions of at most :data:`CHUNK_GATES`
  gates each.  A function reads the out-of-chunk planes it needs into locals
  once and writes each of its output columns back with one slice assignment
  (the gates of a chunk own a contiguous slot range).

A kernel starts cold and is generated once its circuit has run more than
:data:`TIER_UP_PASSES` passes of it, so a circuit that runs only a few passes
never pays for code generation.  Both tiers compute the same integers, which
``tests/fausim/test_kernels.py`` checks against each other and against the
reference oracles.

The event-driven passes stay interpreted, but read a *per-gate plan*
instead of the flat arrays: one tuple per gate holding what its evaluation
needs (:meth:`CircuitKernels.plane_plan`, and the set-image plan of
:mod:`repro.algebra.packed_sets`), built once per circuit on first use.

The kernels and plans of a circuit live in a :class:`CircuitKernels` object
attached to its compiled form *outside* the pickled state (see
:meth:`~repro.fausim.compile.CompiledCircuit.__getstate__`): ``spawn``
workers and the service cache never pickle generated code, each process tiers
up on its own, and a structural edit (which recompiles the circuit) starts
over cold.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.fausim.compile import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    CompiledCircuit,
)

#: Passes a kernel runs cold on one compiled circuit before it is generated.
#: Generation costs roughly as much as a few dozen interpreted passes, so a
#: circuit that runs fewer passes than this keeps the interpreted loop.
TIER_UP_PASSES = 64

#: Gates per generated function.  Each function is compiled on its own, and
#: CPython's parser needs memory in proportion to the source it is handed, so
#: the chunk size bounds the transient peak of a tier-up (see ALGORITHMS.md,
#: "Tiered straight-line kernels").
CHUNK_GATES = 16


@dataclasses.dataclass(frozen=True)
class PairAnalysis:
    """The three columns of one pair-frame candidate batch.

    Bit ``2 * i`` of every mask belongs to candidate ``i`` (the good-machine
    bit of the pair encoding, where bit ``2 * i + 1`` is the faulty machine).

    Attributes:
        potential: per slot, the good and the faulty machine could still
            differ: provably, or through a fanin where either machine is X
            (the propagation PODEM's X-path check).
        provable: per slot, both machines are binary and differ.
        frontier: ``(gate index, mask)`` in gate-program order for every gate
            on some candidate's D-frontier: a fanin provably differs while
            the output is X in at least one machine.
    """

    potential: List[int]
    provable: List[int]
    frontier: List[Tuple[int, int]]


#: The plane bits of a pair code (see :class:`PairColumns`); 0 is X/X.
PAIR_PLANES = 0b001111
#: The potential-difference bit of a pair code.
PAIR_POTENTIAL = 0b010000
#: The provable-difference bit of a pair code.
PAIR_PROVABLE = 0b100000


class PairColumns(NamedTuple):
    """One candidate of a pair-frame batch: one pair code per signal slot.

    A pair code holds all the search reads of one slot in six bits: bits 0
    and 1 are the good and faulty machine's zero-plane bits, bits 2 and 3
    their one-plane bits, bit 4 the potential and bit 5 the provable
    difference of :class:`PairAnalysis`.  A candidate's columns are the base
    of the event-driven pass of its child decision (:func:`pair_wavefront`).

    Attributes:
        codes: the pair code of every slot.
        frontier: the gate indices of the candidate's D-frontier, in
            gate-program order.
    """

    codes: List[int]
    frontier: List[int]


class PairWave(NamedTuple):
    """What one event-driven pair pass wrote (see :func:`pair_wavefront`).

    A *pair word* holds one slot of a batch ``W`` pattern slots wide: the
    zero plane in bits ``0..W-1``, the one plane in bits ``W..2W-1``, and
    from bit ``2W`` on, candidate ``i``'s potential bit at ``2W + 2i`` and
    its provable bit at ``2W + 2i + 1``.

    Attributes:
        words: the pair word of every slot the pass wrote or read; ``None``
            for a slot it did not reach, which keeps the base candidate's
            code (a slot it only read holds that code's broadcast).
        written: the written slots: the loaded source, then each evaluated
            gate's output in gate-program order.
        frontier: ``(gate index, mask)`` of the batch's D-frontier, as in
            :class:`PairAnalysis`.
    """

    words: List[Optional[int]]
    written: List[int]
    frontier: List[Tuple[int, int]]


#: Width -> the pair word of each pair code broadcast to every candidate.
_PAIR_BROADCASTS: Dict[int, List[int]] = {}


def pair_broadcast(width: int) -> List[int]:
    """The pair word of each of the 64 pair codes, in every candidate of a batch."""
    table = _PAIR_BROADCASTS.get(width)
    if table is None:
        good = ((1 << width) - 1) // 3
        table = [
            ((code & 3) | ((code & 12) << (width - 2)) | ((code >> 4) << 2 * width)) * good
            for code in range(64)
        ]
        _PAIR_BROADCASTS[width] = table
    return table


#: One gate of a :meth:`CircuitKernels.plane_plan`: its opcode, fanin slots
#: in pin order, output slot and the gates that read the output.
PlaneStep = Tuple[int, Tuple[int, ...], int, Tuple[int, ...]]


class CircuitKernels:
    """The tiered kernels and the per-gate plans of one compiled circuit.

    Threads that share a circuit (the service's warmed-circuit cache) need
    no lock here: a lost pass count only delays the tier-up, and two
    threads that tier up at once build equivalent kernels (or plans).

    Attributes:
        compiled: the circuit the kernels are generated from.
        passes: cold passes run so far, per kernel name.
        generated: the generated kernel per name, once it has tiered up.
        plans: the per-gate plans built so far, by name: ``"planes"``
            (:meth:`plane_plan`) and the set plans of
            :func:`repro.algebra.packed_sets.set_plan`.
    """

    def __init__(self, compiled: CompiledCircuit) -> None:
        self.compiled = compiled
        self.passes: Dict[str, int] = {name: 0 for name in _GENERATORS}
        self.generated: Dict[str, Callable] = {}
        self.plans: Dict[object, tuple] = {}

    def plane_plan(self) -> Tuple[PlaneStep, ...]:
        """Per gate, in program order: ``(op, fanins, out, fanout of out)``.

        The event-driven passes read one tuple per woken gate instead of
        four flat arrays and a fanin slice.  Built on first use.
        """
        plan = self.plans.get("planes")
        if plan is None:
            compiled = self.compiled
            offsets = compiled.fanin_offsets
            fanin_flat = compiled.fanin_flat
            fanout = compiled.fanout
            plan = self.plans["planes"] = tuple(
                (op, fanin_flat[offsets[index]:offsets[index + 1]], out, fanout[out])
                for index, (op, out) in enumerate(zip(compiled.ops, compiled.outputs))
            )
        return plan

    def select(self, name: str, metrics) -> Optional[Callable]:
        """The generated kernel ``name``, or ``None`` to run this pass cold.

        Counts the pass; the pass after the :data:`TIER_UP_PASSES`-th cold
        one generates the kernel and records the generation time in
        ``metrics`` (``repro_kernel_generate_seconds``, one observation per
        tier-up).
        """
        kernel = self.generated.get(name)
        if kernel is not None:
            return kernel
        self.passes[name] += 1
        if self.passes[name] <= TIER_UP_PASSES:
            return None
        start = time.perf_counter()
        kernel = _GENERATORS[name](self.compiled)
        self.generated[name] = kernel
        if metrics.enabled:
            metrics.observe(
                "repro_kernel_generate_seconds", time.perf_counter() - start, kernel=name
            )
        return kernel


def kernels_for(compiled: CompiledCircuit) -> CircuitKernels:
    """The kernels of ``compiled``, created cold on first use."""
    kernels = compiled.__dict__.get("_kernels")
    if kernels is None:
        kernels = CircuitKernels(compiled)
        object.__setattr__(compiled, "_kernels", kernels)
    return kernels


# --------------------------------------------------------------------------- #
# pair analysis
# --------------------------------------------------------------------------- #
def pair_analysis(
    compiled: CompiledCircuit, zero: Sequence[int], one: Sequence[int], width: int, metrics
) -> PairAnalysis:
    """Analyse evaluated pair planes for every candidate of a batch at once.

    ``zero``/``one`` are the evaluated planes of a pair-frame batch: the good
    machine of candidate ``i`` in pattern slot ``2i``, the faulty machine in
    slot ``2i + 1``, ``width`` slots in all.  One sweep over the gate program
    computes all three columns of :class:`PairAnalysis`.

    Both machines of a pair frame apply the same primary inputs, so the
    machines can only come to differ downstream of a pseudo primary input.
    A gate none of whose fanins could differ therefore sees identical
    three-valued inputs in both machines: its output is the same value in
    both, and all three of its columns are 0 without looking at its planes.
    Both tiers take that shortcut; PI columns stay 0.
    """
    good = ((1 << width) - 1) // 3  # bits 0, 2, 4, ... (0b01 repeated)
    potential = [0] * compiled.num_signals
    provable = [0] * compiled.num_signals
    frontier: List[Tuple[int, int]] = []
    for slot in compiled.ppi_slots:
        potential[slot], provable[slot] = _ppi_columns(zero[slot], one[slot], good)
    kernel = kernels_for(compiled).select("pair_analysis", metrics)
    if kernel is None:
        _pair_gates_cold(compiled, zero, one, good, potential, provable, frontier)
    else:
        kernel(zero, one, good, potential, provable, frontier)
    return PairAnalysis(potential=potential, provable=provable, frontier=frontier)


def _ppi_columns(held_zero: int, held: int, good: int) -> Tuple[int, int]:
    """Potential and provable masks of a pseudo primary input's pair planes."""
    defined = held_zero | held
    defined_good = defined & good
    defined_faulty = (defined >> 1) & good
    differs = defined_good & defined_faulty & (held ^ (held >> 1))
    # A binary/X mix could differ; an X/X pair is the same unknown in both
    # machines, never a difference source.
    return differs | (defined_good ^ defined_faulty), differs


def pair_wavefront(
    compiled: CompiledCircuit,
    base: PairColumns,
    slot: int,
    held_zero: int,
    held: int,
    width: int,
    metrics,
) -> PairWave:
    """Evaluate a pair-frame batch event-driven from one parent candidate.

    The batch differs from the parent candidate ``base`` in one source slot,
    whose planes the caller loaded (``held_zero``/``held``, ``width`` pattern
    slots).  Every other slot reads as the parent's pair code broadcast to
    each candidate (:func:`pair_broadcast`).  A gate is evaluated -- planes,
    potential and provable bits in one step, exactly as a full
    ``evaluate_planes`` pass plus :func:`pair_analysis` compute them -- only
    when a fanin's pair word left that broadcast, so the wavefront stops
    where planes and both difference bits converge.  A PI's difference bits
    are 0; a PPI's follow from its planes.  The D-frontier is the parent's
    entries for the gates not evaluated, merged in program order with the
    evaluated gates' entries.

    The counter ``repro_sim_gate_words_total`` counts only the evaluated
    gates.  This loop is interpreted; full passes run :func:`pair_analysis`.
    """
    mask = (1 << width) - 1
    good = mask // 3
    shift = 2 * width
    table = pair_broadcast(width)
    codes = base.codes
    fanout = compiled.fanout
    offsets = compiled.fanin_offsets
    fanin_flat = compiled.fanin_flat
    outputs = compiled.outputs
    ops = compiled.ops
    word = held_zero | (held << width)
    if slot >= len(compiled.pi_slots):
        potential, provable = _ppi_columns(held_zero, held, good)
        word |= (potential | (provable << 1)) << shift
    words: List[Optional[int]] = [None] * compiled.num_signals
    words[slot] = word
    written = [slot]
    pending = bytearray(compiled.num_gates)
    if word != table[codes[slot]]:
        for gate in fanout[slot]:
            pending[gate] = 1
    frontier: List[Tuple[int, int]] = []
    find = pending.find
    append = written.append
    index = find(1)
    while index >= 0:
        start = offsets[index]
        end = offsets[index + 1]
        op = ops[index]
        # AND-fold and OR-fold of the fanin words: the planes of every
        # gate type but XOR/XNOR, and (OR) the fanins' difference bits.
        fold_and = -1
        fold_or = 0
        if op <= OP_NOR:  # AND / NAND / OR / NOR
            for source in fanin_flat[start:end]:
                word = words[source]
                if word is None:
                    word = words[source] = table[codes[source]]
                fold_and &= word
                fold_or |= word
            if op <= OP_NAND:
                held = (fold_and >> width) & mask
                held_zero = fold_or & mask
            else:
                held = (fold_or >> width) & mask
                held_zero = fold_and & mask
            if op == OP_NAND or op == OP_NOR:
                held_zero, held = held, held_zero
        elif op == OP_NOT or op == OP_BUF:
            source = fanin_flat[start]
            word = words[source]
            if word is None:
                word = words[source] = table[codes[source]]
            fold_or = word
            held_zero = word & mask
            held = (word >> width) & mask
            if op == OP_NOT:
                held_zero, held = held, held_zero
        else:  # XOR / XNOR: parity of the 1-planes where every input is known
            parity = 0
            known = mask
            for source in fanin_flat[start:end]:
                word = words[source]
                if word is None:
                    word = words[source] = table[codes[source]]
                fold_or |= word
                parity ^= word
                known &= word | (word >> width)
            parity >>= width
            held = parity & known
            held_zero = ~parity & known & mask
            if op == OP_XNOR:
                held_zero, held = held, held_zero
        # The pair analysis of the gate (the cold loop below, per gate).
        reach = (fold_or >> shift) & good
        differs = 0
        if reach:
            defined = held_zero | held
            known = defined & (defined >> 1) & good  # binary in both machines
            differs = known & (held ^ (held >> 1))
            feed = (fold_or >> (shift + 1)) & good & ~known
            reach = differs | (reach & ~known)
            if feed:
                frontier.append((index, feed))
        out = outputs[index]
        word = held_zero | (held << width) | ((reach | (differs << 1)) << shift)
        words[out] = word
        append(out)
        if word != table[codes[out]]:
            for gate in fanout[out]:
                pending[gate] = 1
        index = find(1, index + 1)
    if metrics.enabled and len(written) > 1:
        metrics.inc("repro_sim_gate_words_total", (len(written) - 1) * ((width + 63) // 64))
    # The parent's frontier gates the pass did not evaluate stay on every
    # candidate's frontier.
    kept = [(gate, good) for gate in base.frontier if not pending[gate]]
    if kept:
        frontier = sorted(kept + frontier) if frontier else kept
    return PairWave(words=words, written=written, frontier=frontier)


def _pair_gates_cold(compiled, zero, one, good, potential, provable, frontier) -> None:
    """The cold tier of the pair analysis: one loop over the gate program."""
    offsets = compiled.fanin_offsets
    fanin_flat = compiled.fanin_flat
    for gate_index, out in enumerate(compiled.outputs):
        reach = 0
        feed = 0
        for position in range(offsets[gate_index], offsets[gate_index + 1]):
            source = fanin_flat[position]
            reach |= potential[source]
            feed |= provable[source]
        if not reach:
            continue
        held = one[out]
        defined = zero[out] | held
        known = defined & (defined >> 1) & good  # binary in both machines
        differs = known & (held ^ (held >> 1))
        provable[out] = differs
        potential[out] = differs | (reach & ~known)
        feed &= ~known
        if feed:
            frontier.append((gate_index, feed))


def _generate_pair_analysis(compiled: CompiledCircuit) -> Callable:
    """Straight-line form of :func:`_pair_gates_cold`."""

    def gate_lines(gate_index: int, out: int, sources: Sequence[int]) -> List[str]:
        reach = " | ".join(f"p{source}" for source in sources)
        feed = " | ".join(f"v{source}" for source in sources)
        return [
            f"r = {reach}",
            "if r:",
            f"    h = one[{out}]",
            f"    d = zero[{out}] | h",
            "    k = d & (d >> 1) & good",
            f"    v{out} = k & (h ^ (h >> 1))",
            "    k = ~k",
            f"    p{out} = v{out} | (r & k)",
            f"    f = ({feed}) & k",
            f"    if f: frontier.append(({gate_index}, f))",
            "else:",
            f"    p{out} = v{out} = 0",
        ]

    return _generate(
        compiled,
        "pair_analysis",
        "zero, one, good, potential, provable, frontier",
        lambda slot: f"p{slot} = potential[{slot}]; v{slot} = provable[{slot}]",
        gate_lines,
        (("potential", "p"), ("provable", "v")),
    )


# --------------------------------------------------------------------------- #
# full-program three-valued evaluation
# --------------------------------------------------------------------------- #
def _generate_evaluate(compiled: CompiledCircuit) -> Callable:
    """Straight-line form of the full-program ``evaluate_planes`` loop.

    The generated kernel takes ``(zero, one, mask)`` — the planes and the
    all-patterns mask — and evaluates every gate in place.
    """

    def gate_lines(gate_index: int, out: int, sources: Sequence[int]) -> List[str]:
        op = compiled.ops[gate_index]
        ones = [f"o{source}" for source in sources]
        zeros = [f"z{source}" for source in sources]
        if op in (OP_AND, OP_NAND):
            hold_one, hold_zero = " & ".join(ones), " | ".join(zeros)
        elif op in (OP_OR, OP_NOR):
            hold_one, hold_zero = " | ".join(ones), " & ".join(zeros)
        elif op in (OP_NOT, OP_BUF):
            hold_one, hold_zero = ones[0], zeros[0]
        else:  # XOR / XNOR: parity of the 1-planes where every input is known
            known = " & ".join(f"(z{source} | o{source})" for source in sources)
            lines = [f"q = {' ^ '.join(ones)}", f"k = {known}"]
            if op == OP_XNOR:
                return lines + [f"z{out} = q & k", f"o{out} = ~q & k & mask"]
            return lines + [f"o{out} = q & k", f"z{out} = ~q & k & mask"]
        if op in (OP_NAND, OP_NOR, OP_NOT):
            hold_one, hold_zero = hold_zero, hold_one
        return [f"o{out} = {hold_one}", f"z{out} = {hold_zero}"]

    return _generate(
        compiled,
        "evaluate",
        "zero, one, mask",
        lambda slot: f"z{slot} = zero[{slot}]; o{slot} = one[{slot}]",
        gate_lines,
        (("zero", "z"), ("one", "o")),
    )


_GENERATORS: Dict[str, Callable[[CompiledCircuit], Callable]] = {
    "evaluate": _generate_evaluate,
    "pair_analysis": _generate_pair_analysis,
}


# --------------------------------------------------------------------------- #
# the chunked code generator both kernels share
# --------------------------------------------------------------------------- #
def _generate(
    compiled: CompiledCircuit,
    name: str,
    params: str,
    load: Callable[[int], str],
    gate_lines: Callable[[int, int, Sequence[int]], List[str]],
    columns: Sequence[Tuple[str, str]],
) -> Callable:
    """Compile the gate program into chunked straight-line functions.

    Args:
        compiled: the circuit.
        name: kernel name (labels the generated code).
        params: the parameter list every chunk function takes.
        load: the statement that reads one out-of-chunk source slot into
            its locals.
        gate_lines: the statements of one gate, given its program index,
            output slot and fanin slots.
        columns: ``(column parameter, local prefix)`` of each per-slot
            output column the chunk writes back.

    Returns:
        One function taking ``params`` that runs every chunk in order.
    """
    offsets = compiled.fanin_offsets
    fanin_flat = compiled.fanin_flat
    outputs = compiled.outputs
    label = f"<{name} kernel: {compiled.circuit.name}>"
    chunks: List[Callable] = []
    for low in range(0, compiled.num_gates, CHUNK_GATES):
        high = min(low + CHUNK_GATES, compiled.num_gates)
        # Gate outputs take consecutive slots in program order (the slot
        # layout of compile_circuit), so each column is one slice per chunk.
        first_slot = outputs[low]
        loads: Dict[int, None] = {}
        body: List[str] = []
        for gate_index in range(low, high):
            sources = fanin_flat[offsets[gate_index]:offsets[gate_index + 1]]
            loads.update((slot, None) for slot in sources if slot < first_slot)
            body.extend(gate_lines(gate_index, outputs[gate_index], sources))
        source = [f"def chunk({params}):"]
        source.extend(f"    {load(slot)}" for slot in loads)
        source.extend(f"    {line}" for line in body)
        for column, prefix in columns:
            items = ", ".join(f"{prefix}{slot}" for slot in outputs[low:high])
            source.append(f"    {column}[{first_slot}:{outputs[high - 1] + 1}] = ({items},)")
        namespace: Dict[str, Callable] = {}
        exec(compile("\n".join(source), label, "exec"), namespace)
        chunks.append(namespace["chunk"])

    def kernel(*args) -> None:
        for chunk in chunks:
            chunk(*args)

    return kernel
