"""Bit-parallel (packed) evaluation of the eight-valued delay algebra.

The three-valued packed simulator (:mod:`repro.fausim.packed_sim`) encodes a
signal in two bit planes; eight values need three bits of information, but an
arbitrary eight-valued truth table does not decompose into a handful of
bitwise identities the way the {0, 1, X} tables do.  This module therefore
uses the *one-hot multi-plane* encoding: every signal carries eight bit
planes, one per algebra value, and bit ``j`` of plane ``v`` is set exactly
when pattern ``j`` holds the value with index ``v``.  A valid pattern has
exactly one plane bit set; a clear bit in all eight planes encodes an
unassigned pattern slot.

Gate evaluation is *table driven*: the two-input truth tables are taken
verbatim from :mod:`repro.algebra.tables` (:func:`packed_table` is a flat
index-to-index view of :func:`~repro.algebra.tables.table_for_gate`), so the
packed evaluator cannot drift from the paper's Table 1 / Table 2 semantics —
the property suite in ``tests/algebra/test_packed.py`` additionally checks
every input pair of every gate type against
:func:`~repro.algebra.tables.evaluate_delay_gate`.

For a two-input gate the evaluation visits every pair of *non-empty* input
planes::

    out[table[a][b]] |= a_planes[a] & b_planes[b]

which is at most 64 mask operations per gate for the whole batch of patterns
— but in the fault-parallel workloads that dominate the flow almost every
signal holds one or two distinct values across the batch, so the loop usually
degenerates to a handful of operations.  Multi-input gates fold pairwise over the AND/OR/XOR
core and apply the inverter permutation afterwards, exactly mirroring
:func:`~repro.algebra.tables.evaluate_delay_gate`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple

from repro.algebra.tables import evaluate_delay_gate, not1
from repro.algebra.values import ALL_VALUES, DelayValue
from repro.circuit.gates import GateType

#: Number of bit planes per signal (one per algebra value).
NUM_PLANES = len(ALL_VALUES)

#: ``NOT_PERMUTATION[v]`` is the value index the inverter maps index ``v`` to.
NOT_PERMUTATION: Tuple[int, ...] = tuple(not1(value).index for value in ALL_VALUES)

#: Packed planes of one signal: ``planes[v]`` holds the pattern bits carrying
#: the value with index ``v``.
PackedValue = List[int]


@functools.lru_cache(maxsize=None)
def packed_table(gate_type: GateType, robust: bool = True) -> Tuple[Tuple[int, ...], ...]:
    """Two-input truth table of a gate as an index matrix.

    ``packed_table(g, robust)[a][b]`` is the value *index* of
    ``evaluate_delay_gate(g, (ALL_VALUES[a], ALL_VALUES[b]), robust)``, i.e. a
    flat integer view of the dictionaries in :mod:`repro.algebra.tables`.
    """
    return tuple(
        tuple(
            evaluate_delay_gate(gate_type, (ALL_VALUES[a], ALL_VALUES[b]), robust).index
            for b in range(NUM_PLANES)
        )
        for a in range(NUM_PLANES)
    )


def pack_delay_values(values: Sequence[Optional[DelayValue]]) -> PackedValue:
    """Pack one signal's value across patterns into eight one-hot planes.

    ``None`` entries leave the pattern slot empty in every plane (used for
    slots beyond the active width).
    """
    planes = [0] * NUM_PLANES
    for pattern, value in enumerate(values):
        if value is not None:
            planes[value.index] |= 1 << pattern
    return planes


def unpack_delay_values(planes: Sequence[int], width: int) -> List[Optional[DelayValue]]:
    """Expand packed planes back into one value (or ``None``) per pattern."""
    values: List[Optional[DelayValue]] = [None] * width
    for index, plane in enumerate(planes):
        plane &= (1 << width) - 1
        while plane:
            low = plane & -plane
            values[low.bit_length() - 1] = ALL_VALUES[index]
            plane ^= low
    return values


def packed_not(planes: Sequence[int]) -> PackedValue:
    """Inverter over packed planes: a pure plane permutation (Table 2)."""
    out = [0] * NUM_PLANES
    for index, plane in enumerate(planes):
        if plane:
            out[NOT_PERMUTATION[index]] = plane
    return out


def packed_pair(
    table: Tuple[Tuple[int, ...], ...], a_planes: Sequence[int], b_planes: Sequence[int]
) -> PackedValue:
    """Evaluate one two-input gate over packed planes, given its index table.

    Skips empty planes on both sides, so the cost is proportional to the
    number of *distinct* values each input actually holds across the word.
    """
    out = [0] * NUM_PLANES
    populated_b = [
        (b_index, plane_b) for b_index, plane_b in enumerate(b_planes) if plane_b
    ]
    for a_index, plane_a in enumerate(a_planes):
        if not plane_a:
            continue
        row = table[a_index]
        for b_index, plane_b in populated_b:
            both = plane_a & plane_b
            if both:
                out[row[b_index]] |= both
    return out


_CORE_OF = {
    GateType.AND: (GateType.AND, False),
    GateType.NAND: (GateType.AND, True),
    GateType.OR: (GateType.OR, False),
    GateType.NOR: (GateType.OR, True),
    GateType.XOR: (GateType.XOR, False),
    GateType.XNOR: (GateType.XOR, True),
}


def core_of(gate_type: GateType) -> Tuple[GateType, bool]:
    """Decompose a multi-input gate type into its associative core + inversion.

    Mirrors :func:`~repro.algebra.tables.evaluate_delay_gate`: ``NAND`` is the
    pairwise ``AND`` fold followed by the inverter permutation, and so on.
    """
    try:
        return _CORE_OF[gate_type]
    except KeyError:
        raise ValueError(f"gate type {gate_type} has no two-input core") from None


def evaluate_packed_delay_gate(
    gate_type: GateType, input_planes: Sequence[Sequence[int]], robust: bool = True
) -> PackedValue:
    """Packed counterpart of :func:`~repro.algebra.tables.evaluate_delay_gate`.

    Evaluates one combinational gate for a whole word of patterns at once.
    Every pattern slot that is assigned in all inputs is assigned in the
    output; slots that are empty in some input stay empty.
    """
    if not input_planes:
        raise ValueError(f"{gate_type.value} gate with no inputs")
    if gate_type is GateType.BUF:
        if len(input_planes) != 1:
            raise ValueError("BUF expects exactly one input")
        return list(input_planes[0])
    if gate_type is GateType.NOT:
        if len(input_planes) != 1:
            raise ValueError("NOT expects exactly one input")
        return packed_not(input_planes[0])

    core, invert = core_of(gate_type)
    table = packed_table(core, robust)
    acc: PackedValue = list(input_planes[0])
    for planes in input_planes[1:]:
        acc = packed_pair(table, acc, planes)
    if invert:
        acc = packed_not(acc)
    return acc
