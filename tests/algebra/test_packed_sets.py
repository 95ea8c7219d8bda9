"""The set-word kernel on its own, slot by slot against the set algebra.

:class:`repro.algebra.packed_sets.PackedSetSimulator` packs one possibility
set per pattern slot into a set word (byte ``j`` = slot ``j``).  Every slot
must equal the interpreted set algebra — :func:`evaluate_gate_sets` for the
gate images, the reference ``_inject`` for the injection moves, the first
empty set in evaluation order for the conflict bookkeeping — and an
event-driven sweep off a parent column must equal a full sweep.  Widths 9
and 17 put slots past the 64-bit boundary of the words.  The sweep's
word-pair memo must stay inside its entry bound, and a word pair sent
through two images must get each image's own result.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Dict, List, Optional, Sequence

import pytest

from repro.algebra import packed_sets
from repro.algebra.packed_sets import PackedSetSimulator, apply_moves, slot_mask
from repro.algebra.sets import FULL_SET, ValueSet, evaluate_gate_sets
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.faults.model import DelayFaultType
from repro.fausim.compile import compile_circuit
from repro.tdgen.simulation import _inject

from tests.fausim import test_kernels
from tests.fausim.test_packed_differential import random_circuit

WIDTHS = (1, 2, 4, 9, 17)
SEEDS = list(range(12))

_GATE_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def _word(sets: Sequence[ValueSet]) -> int:
    return sum(value_set << (8 * slot) for slot, value_set in enumerate(sets))


def _slots(word: int, width: int) -> List[ValueSet]:
    return [(word >> (8 * slot)) & 255 for slot in range(width)]


def _random_sets(rng: random.Random, width: int, empty_share: float = 0.0) -> List[ValueSet]:
    return [
        0 if rng.random() < empty_share else rng.randint(1, FULL_SET)
        for _ in range(width)
    ]


def _one_gate(gate_type: GateType, arity: int):
    builder = CircuitBuilder(f"{gate_type.value}{arity}")
    inputs = builder.inputs([f"i{pin}" for pin in range(arity)])
    builder.gate(gate_type, "y", inputs)
    builder.output("y")
    return compile_circuit(builder.build())


_SHAPES = [(gate_type, arity) for gate_type in _GATE_TYPES for arity in (1, 2, 3, 4)]
_SHAPES += [(GateType.NOT, 1), (GateType.BUF, 1)]


@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
@pytest.mark.parametrize(
    "gate_type,arity", _SHAPES, ids=[f"{g.value}{a}" for g, a in _SHAPES]
)
def test_gate_image_matches_set_algebra(gate_type, arity, robust):
    compiled = _one_gate(gate_type, arity)
    simulator = PackedSetSimulator(compiled, robust=robust)
    rng = random.Random(f"{gate_type.value}{arity}{robust}")
    for width in WIDTHS:
        for _ in range(6):
            inputs = [_random_sets(rng, width, empty_share=0.15) for _ in range(arity)]
            words: List[Optional[int]] = [None] * compiled.num_signals
            for pin in range(arity):
                words[compiled.slot_of[f"i{pin}"]] = _word(inputs[pin])
            result = simulator.propagate(words, width)
            got = _slots(result.words[compiled.slot_of["y"]], width)
            expected = [
                evaluate_gate_sets(gate_type, [inputs[pin][slot] for pin in range(arity)], robust)
                for slot in range(width)
            ]
            assert got == expected, (width, inputs)


@pytest.mark.parametrize("fault_type", list(DelayFaultType), ids=lambda f: f.value)
@pytest.mark.parametrize("width", WIDTHS)
def test_moves_match_reference_inject(fault_type, width):
    rng = random.Random(width * 31 + len(fault_type.value))
    source = fault_type.activation_value.index
    target = fault_type.fault_value.index
    for _ in range(50):
        sets = _random_sets(rng, width, empty_share=0.1)
        selected = [rng.random() < 0.6 for _ in range(width)]
        byte_mask = _word([1 if hit else 0 for hit in selected])
        moved = apply_moves(_word(sets), [(source, target, byte_mask)])
        expected = [
            _inject(value_set, fault_type) if hit else value_set
            for value_set, hit in zip(sets, selected)
        ]
        assert _slots(moved, width) == expected


def _reference_sweep(circuit, compiled, columns, robust, stem=None, branch=None):
    """Slot-by-slot interpreted sweep: (per-signal sets, conflict signal) per slot.

    ``stem`` is ``(signal, fault_type)`` injected after that gate, ``branch``
    is ``(gate, pin, fault_type)`` injected into that one read.
    """
    results = []
    for column in columns:
        sets: Dict[str, ValueSet] = dict(column)
        conflict = None
        for out in compiled.outputs:
            name = compiled.signal_names[out]
            gate = circuit.gate(name)
            reads = [sets[fanin] for fanin in gate.fanin]
            if branch is not None and branch[0] == name:
                reads[branch[1]] = _inject(reads[branch[1]], branch[2])
            value_set = evaluate_gate_sets(gate.gate_type, reads, robust)
            if stem is not None and stem[0] == name:
                value_set = _inject(value_set, stem[1])
            sets[name] = value_set
            if value_set == 0 and conflict is None:
                conflict = name
        results.append((sets, conflict))
    return results


def _source_columns(compiled, rng, width, empty_share):
    sources = compiled.pi_slots + compiled.ppi_slots
    return [
        {
            compiled.signal_names[slot]: (
                0 if rng.random() < empty_share else rng.randint(1, FULL_SET)
            )
            for slot in sources
        }
        for _ in range(width)
    ]


def _load(compiled, columns) -> List[Optional[int]]:
    words: List[Optional[int]] = [None] * compiled.num_signals
    for slot in compiled.pi_slots + compiled.ppi_slots:
        name = compiled.signal_names[slot]
        words[slot] = _word([column[name] for column in columns])
    return words


@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_and_conflicts_match_reference(seed, robust):
    circuit = random_circuit(seed)
    compiled = compile_circuit(circuit)
    simulator = PackedSetSimulator(compiled, robust=robust)
    rng = random.Random(seed)
    for width in WIDTHS:
        columns = _source_columns(compiled, rng, width, empty_share=0.05)
        result = simulator.propagate(_load(compiled, columns), width)
        reference = _reference_sweep(circuit, compiled, columns, robust)
        conflict_mask = 0
        for slot, (sets, conflict) in enumerate(reference):
            for name, value_set in sets.items():
                word = result.words[compiled.slot_of[name]]
                assert (word >> (8 * slot)) & 255 == value_set, (seed, width, slot, name)
            if conflict is not None:
                conflict_mask |= 1 << slot
                assert result.conflict_signals[slot] == conflict
        assert result.conflict_mask == conflict_mask
        assert set(result.conflict_signals) == {
            slot for slot in range(width) if conflict_mask >> slot & 1
        }


@pytest.mark.parametrize("seed", SEEDS)
def test_stem_and_branch_moves_in_sweep(seed):
    circuit = random_circuit(seed)
    compiled = compile_circuit(circuit)
    simulator = PackedSetSimulator(compiled, robust=True)
    rng = random.Random(1000 + seed)
    fault_type = rng.choice(list(DelayFaultType))
    move = (fault_type.activation_value.index, fault_type.fault_value.index)
    gate_index = rng.randrange(len(compiled.ops))
    position = rng.randrange(
        compiled.fanin_offsets[gate_index], compiled.fanin_offsets[gate_index + 1]
    )
    sink = compiled.signal_names[compiled.outputs[gate_index]]
    stem = compiled.signal_names[compiled.outputs[rng.randrange(len(compiled.ops))]]
    for width in WIDTHS:
        full = slot_mask(width)
        columns = _source_columns(compiled, rng, width, empty_share=0.0)
        result = simulator.propagate(
            _load(compiled, columns),
            width,
            stem_moves={compiled.slot_of[stem]: [move + (full,)]},
            branch_moves={position: [move + (full,)]},
        )
        reference = _reference_sweep(
            circuit, compiled, columns, True,
            stem=(stem, fault_type),
            branch=(sink, position - compiled.fanin_offsets[gate_index], fault_type),
        )
        for slot, (sets, _) in enumerate(reference):
            for name, value_set in sets.items():
                word = result.words[compiled.slot_of[name]]
                assert (word >> (8 * slot)) & 255 == value_set, (seed, width, slot, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_event_driven_sweep_matches_full_sweep(seed):
    circuit = random_circuit(seed)
    compiled = compile_circuit(circuit)
    simulator = PackedSetSimulator(compiled, robust=True)
    rng = random.Random(2000 + seed)
    sources = compiled.pi_slots + compiled.ppi_slots

    # The parent: one conflict-free column (non-empty sources only).
    parent = simulator.propagate(_load(compiled, _source_columns(compiled, rng, 1, 0.0)), 1)
    base_sets = [word & 255 for word in parent.words]

    for width in WIDTHS:
        full = slot_mask(width)
        changed = rng.sample(sources, rng.randint(1, min(2, len(sources))))
        fresh = {
            slot: _word([rng.randint(1, FULL_SET) for _ in range(width)])
            for slot in changed
        }

        everything: List[Optional[int]] = [None] * compiled.num_signals
        for slot in sources:
            everything[slot] = fresh.get(slot, base_sets[slot] * full)
        expected = simulator.propagate(everything, width)

        sparse: List[Optional[int]] = [None] * compiled.num_signals
        for slot, word in fresh.items():
            sparse[slot] = word
        result = simulator.propagate(
            sparse, width, base_sets=base_sets, changed_slots=changed
        )
        for slot in range(compiled.num_signals):
            word = result.words[slot]
            if word is None:
                word = base_sets[slot] * full
            assert word == expected.words[slot], (seed, width, compiled.signal_names[slot])
        assert result.conflict_signals == expected.conflict_signals
        # The sweep lists exactly the slots it wrote: the seeds, then the
        # gates it evaluated in program order.
        assert result.written[: len(changed)] == changed
        gates = result.written[len(changed):]
        assert gates == sorted(set(gates))
        assert set(result.written) == {
            slot for slot, word in enumerate(result.words) if word is not None
        }

        # A seed that keeps the parent's set wakes no gate.
        unchanged: List[Optional[int]] = [None] * compiled.num_signals
        unchanged[changed[0]] = base_sets[changed[0]] * full
        quiet = simulator.propagate(
            unchanged, width, base_sets=base_sets, changed_slots=changed[:1]
        )
        assert quiet.written == changed[:1]


@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
def test_memo_bound_holds_and_a_cleared_memo_changes_no_result(width, robust, monkeypatch):
    """The planned-sweep comparison, with a bound small enough to clear mid-sweep."""
    bound = 5
    monkeypatch.setattr(packed_sets, "MEMO_ENTRIES", bound)
    monkeypatch.setattr(packed_sets, "_WORD_MEMOS", {})
    sizes = []
    missing = packed_sets._WordMemo.__missing__

    def recording_missing(memo, key):
        result = missing(memo, key)
        sizes.append(len(memo))
        return result

    monkeypatch.setattr(packed_sets._WordMemo, "__missing__", recording_missing)
    # Full and event-driven sweeps with stem and branch moves, every check
    # of the per-slot comparison.
    test_kernels.test_planned_set_sweep_matches_the_per_slot_algebra(width, robust)
    assert max(sizes) == bound
    assert any(after < before for before, after in zip(sizes, sizes[1:]))
    assert all(len(memo) <= bound for memo in packed_sets._WORD_MEMOS.values())


def _two_input_gates():
    builder = CircuitBuilder("pair")
    a, b = builder.inputs(["a", "b"])
    for gate_type in (GateType.AND, GateType.OR, GateType.XOR):
        builder.gate(gate_type, gate_type.value, [a, b])
        builder.output(gate_type.value)
    builder.gate(GateType.NOT, "not_b", [b])
    builder.output("not_b")
    return compile_circuit(builder.build())


@pytest.mark.parametrize("width", [2, 4])
def test_memo_keys_keep_images_apart(width, monkeypatch):
    """One word pair through AND and OR, robust and non-robust XOR, the inverter.

    Every gate reads the same two words from one memo, so a key that lost
    its image index would hand one gate another's result.  Words with
    zero high bytes and an all-empty first word (the inverter's own first
    operand) are the pairs a short key would mix up.
    """
    monkeypatch.setattr(packed_sets, "_WORD_MEMOS", {})
    compiled = _two_input_gates()
    rng = random.Random(width)
    pairs = [(_random_sets(rng, width), _random_sets(rng, width)) for _ in range(20)]
    pairs += [([a[0]] + [0] * (width - 1), [b[0]] + [0] * (width - 1)) for a, b in pairs[:10]]
    pairs += [([0] * width, b) for _, b in pairs[:10]]
    xor_differs = False
    # Robust again last: its XOR words are read back after the non-robust
    # ones went into the same memo.
    for robust in (True, False, True):
        simulator = PackedSetSimulator(compiled, robust=robust)
        for a, b in pairs:
            words: List[Optional[int]] = [None] * compiled.num_signals
            words[compiled.slot_of["a"]] = _word(a)
            words[compiled.slot_of["b"]] = _word(b)
            result = simulator.propagate(words, width)
            for gate_type in (GateType.AND, GateType.OR, GateType.XOR):
                got = _slots(result.words[compiled.slot_of[gate_type.value]], width)
                assert got == [
                    evaluate_gate_sets(gate_type, [x, y], robust) for x, y in zip(a, b)
                ], (gate_type, robust, a, b)
            got = _slots(result.words[compiled.slot_of["not_b"]], width)
            assert got == [evaluate_gate_sets(GateType.NOT, [y], robust) for y in b]
            xor_differs |= any(
                evaluate_gate_sets(GateType.XOR, [x, y], True)
                != evaluate_gate_sets(GateType.XOR, [x, y], False)
                for x, y in zip(a, b)
            )
    # The two XOR images disagree on some pair, so sharing a key would show.
    assert xor_differs


def test_threads_sharing_a_clearing_memo_get_the_single_threaded_words(monkeypatch):
    """Sweeps on more threads than cores share one memo that keeps clearing.

    Entries are pure functions of their keys, so a clear by another thread
    may only cost misses, never change a word.
    """
    monkeypatch.setattr(packed_sets, "MEMO_ENTRIES", 7)
    monkeypatch.setattr(packed_sets, "_WORD_MEMOS", {})
    jobs = []
    for seed in range(4):
        compiled = compile_circuit(random_circuit(seed))
        columns = _source_columns(compiled, random.Random(seed), 4, empty_share=0.05)
        expected = PackedSetSimulator(compiled).propagate(_load(compiled, columns), 4).words
        jobs.append((compiled, columns, expected))
    failures = []

    def sweep(compiled, columns, expected):
        simulator = PackedSetSimulator(compiled)
        for _ in range(30):
            if simulator.propagate(_load(compiled, columns), 4).words != expected:
                failures.append(compiled)

    threads = [threading.Thread(target=sweep, args=job) for job in jobs * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
