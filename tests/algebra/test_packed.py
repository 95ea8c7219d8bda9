"""Property tests: packed eight-valued evaluation vs the reference tables.

The packed engine evaluates gates on set words
(:mod:`repro.algebra.packed_sets`), through set images built from the index
tables of :mod:`repro.algebra.packed`.  On singleton sets — one concrete
value per pattern slot, the case of every TDsim pass — each slot must equal
:func:`repro.algebra.tables.evaluate_delay_gate` on *every* input
combination.  The two-input case is checked exhaustively (all 64 value pairs
of every gate type, robust and non-robust, in one 64-slot word); multi-input
gates and words with empty slots are checked with seeded random sweeps.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import pytest

from repro.algebra.packed import NOT_PERMUTATION, NUM_PLANES, packed_table
from repro.algebra.packed_sets import NOT_IMAGE, PackedSetSimulator
from repro.algebra.tables import evaluate_delay_gate, not1
from repro.algebra.values import ALL_VALUES, DelayValue
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.fausim.compile import compile_circuit

TWO_INPUT_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def evaluate_slots(
    gate_type: GateType, columns: Sequence[Sequence[Optional[DelayValue]]], robust: bool = True
) -> List[Optional[DelayValue]]:
    """One gate over set words of singletons (``None`` is an empty slot).

    ``columns[pin][slot]`` is the value on ``pin`` in ``slot``; the result is
    each slot's output value, ``None`` where its set is empty.
    """
    builder = CircuitBuilder(gate_type.value)
    inputs = builder.inputs([f"i{pin}" for pin in range(len(columns))])
    builder.gate(gate_type, "y", inputs)
    builder.output("y")
    compiled = compile_circuit(builder.build())
    width = len(columns[0])
    words: List[Optional[int]] = [None] * compiled.num_signals
    for pin, column in enumerate(columns):
        words[compiled.slot_of[f"i{pin}"]] = sum(
            value.mask << (8 * slot) for slot, value in enumerate(column) if value is not None
        )
    result = PackedSetSimulator(compiled, robust=robust).propagate(words, width)
    word = result.words[compiled.slot_of["y"]]
    values: List[Optional[DelayValue]] = []
    for slot in range(width):
        value_set = (word >> (8 * slot)) & 255
        assert value_set & (value_set - 1) == 0, "a singleton input gave a wider set"
        values.append(ALL_VALUES[value_set.bit_length() - 1] if value_set else None)
    return values


@pytest.mark.parametrize("gate_type", TWO_INPUT_TYPES)
@pytest.mark.parametrize("robust", [True, False])
def test_all_pairs_all_gate_types(gate_type, robust):
    """All 64 (a, b) pairs of the eight values, evaluated in one set word."""
    pairs = [(a, b) for a in ALL_VALUES for b in ALL_VALUES]
    got = evaluate_slots(gate_type, [[a for a, _ in pairs], [b for _, b in pairs]], robust)
    for (a, b), value in zip(pairs, got):
        want = evaluate_delay_gate(gate_type, (a, b), robust)
        assert value is want, f"{gate_type.value}({a}, {b}) robust={robust}: {value} != {want}"


def test_not_and_buf_all_values():
    values = list(ALL_VALUES)
    assert evaluate_slots(GateType.NOT, [values]) == [not1(value) for value in values]
    assert evaluate_slots(GateType.BUF, [values]) == values
    for value in ALL_VALUES:
        assert ALL_VALUES[NOT_PERMUTATION[value.index]] is not1(value)
        assert NOT_IMAGE[value.mask] == not1(value).mask


@pytest.mark.parametrize("gate_type", TWO_INPUT_TYPES)
@pytest.mark.parametrize("arity", [3, 4, 5])
def test_multi_input_fold_matches_reference(gate_type, arity):
    """Random multi-input words agree with the associative reference fold."""
    rng = random.Random(100 * arity + gate_type.value.__hash__() % 97)
    for robust in (True, False):
        columns = [
            [rng.choice(ALL_VALUES) for _ in range(64)] for _ in range(arity)
        ]
        got = evaluate_slots(gate_type, columns, robust)
        for pattern in range(64):
            inputs = tuple(column[pattern] for column in columns)
            assert got[pattern] is evaluate_delay_gate(gate_type, inputs, robust)


def test_empty_slots_stay_empty():
    """An empty input slot never produces an output value."""
    a = [ALL_VALUES[0], None, ALL_VALUES[2]]
    b = [ALL_VALUES[1], ALL_VALUES[1], None]
    values = evaluate_slots(GateType.AND, [a, b])
    assert values[0] is evaluate_delay_gate(GateType.AND, (ALL_VALUES[0], ALL_VALUES[1]))
    assert values[1] is None
    assert values[2] is None


def test_packed_table_matches_reference_tables():
    """The index matrix is a verbatim view of the dictionary truth tables."""
    for gate_type in TWO_INPUT_TYPES:
        for robust in (True, False):
            table = packed_table(gate_type, robust)
            assert len(table) == NUM_PLANES
            for a in ALL_VALUES:
                for b in ALL_VALUES:
                    want = evaluate_delay_gate(gate_type, (a, b), robust)
                    assert ALL_VALUES[table[a.index][b.index]] is want
