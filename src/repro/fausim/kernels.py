"""Tiered straight-line kernels for the whole-program passes of a circuit.

Two passes walk the entire gate program of a
:class:`~repro.fausim.compile.CompiledCircuit` thousands of times per
campaign: the full-program call of
:meth:`~repro.fausim.packed_sim.PackedLogicSimulator.evaluate_planes`, and
the pair analysis of each SEMILET candidate batch (:func:`pair_analysis`).
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

The kernels of a circuit live in a :class:`CircuitKernels` object attached to
its compiled form *outside* the pickled state (see
:meth:`~repro.fausim.compile.CompiledCircuit.__getstate__`): ``spawn``
workers and the service cache never pickle generated code, each process tiers
up on its own, and a structural edit (which recompiles the circuit) starts
over cold.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


class CircuitKernels:
    """The tiered kernels of one compiled circuit.

    Threads that share a circuit (the service's warmed-circuit cache) need
    no lock here: a lost pass count only delays the tier-up, and two
    threads that tier up at once build equivalent kernels.

    Attributes:
        compiled: the circuit the kernels are generated from.
        passes: cold passes run so far, per kernel name.
        generated: the generated kernel per name, once it has tiered up.
    """

    def __init__(self, compiled: CompiledCircuit) -> None:
        self.compiled = compiled
        self.passes: Dict[str, int] = {name: 0 for name in _GENERATORS}
        self.generated: Dict[str, Callable] = {}

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
        held = one[slot]
        defined = zero[slot] | held
        defined_good = defined & good
        defined_faulty = (defined >> 1) & good
        differs = defined_good & defined_faulty & (held ^ (held >> 1))
        provable[slot] = differs
        # A binary/X mix could differ; an X/X pair is the same unknown in
        # both machines, never a difference source.
        potential[slot] = differs | (defined_good ^ defined_faulty)
    kernel = kernels_for(compiled).select("pair_analysis", metrics)
    if kernel is None:
        _pair_gates_cold(compiled, zero, one, good, potential, provable, frontier)
    else:
        kernel(zero, one, good, potential, provable, frontier)
    return PairAnalysis(potential=potential, provable=provable, frontier=frontier)


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
