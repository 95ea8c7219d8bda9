"""Flat index views of the eight-valued truth tables, for the set images.

The packed engine evaluates gates on *set words*
(:mod:`repro.algebra.packed_sets`), through pairwise set images built from
the tables here.  Every algebra value has an index (``value.index``, its bit
in a :data:`~repro.algebra.sets.ValueSet`), and the two-input truth tables
are taken verbatim from :mod:`repro.algebra.tables`: :func:`packed_table`
is an index-to-index view of :func:`~repro.algebra.tables.table_for_gate`,
so the set images cannot drift from the paper's Table 1 / Table 2
semantics.  Multi-input gates fold pairwise over their AND/OR/XOR core and
apply the inverter permutation afterwards (:func:`core_of`), exactly
mirroring :func:`~repro.algebra.tables.evaluate_delay_gate`.
"""

from __future__ import annotations

import functools
from typing import Tuple

from repro.algebra.tables import evaluate_delay_gate, not1
from repro.algebra.values import ALL_VALUES
from repro.circuit.gates import GateType

#: Number of algebra values (and of bits in a value set).
NUM_PLANES = len(ALL_VALUES)

#: ``NOT_PERMUTATION[v]`` is the value index the inverter maps index ``v`` to.
NOT_PERMUTATION: Tuple[int, ...] = tuple(not1(value).index for value in ALL_VALUES)


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
