"""Differential harness: packed backend vs reference simulator.

The packed bit-parallel backend must be *bit-exact* against the reference
per-gate interpreter — including X propagation and flip-flop clocking — on
arbitrary circuits.  These tests generate seeded random circuits with
:class:`~repro.circuit.builder.CircuitBuilder` (all eight gate types, random
fanin, random flip-flops) plus random three-valued input vectors, and compare
the two backends signal for signal.

Any mismatch prints the failing seed, so a reproduction is one
``random_circuit(seed)`` call away.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.fausim.fault_sim import PropagationFaultSimulator
from repro.fausim.logic_sim import LogicSimulator, simulate_sequence
from repro.fausim.packed_sim import PackedLogicSimulator

#: Seeds of the random-circuit population; the acceptance bar is >= 50.
SEEDS = list(range(60))

_MULTI_INPUT = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)
_SINGLE_INPUT = (GateType.NOT, GateType.BUF)


def random_circuit(seed: int) -> Circuit:
    """Build a seeded random synchronous circuit via the public builder API."""
    rng = random.Random(0xD1FF ^ seed)
    builder = CircuitBuilder(f"rand{seed}")
    n_inputs = rng.randint(2, 6)
    n_ffs = rng.randint(0, 4)
    n_gates = rng.randint(5, 40)

    inputs = builder.inputs([f"i{index}" for index in range(n_inputs)])
    ffs = [f"q{index}" for index in range(n_ffs)]
    pool: List[str] = list(inputs) + list(ffs)

    gates: List[str] = []
    for index in range(n_gates):
        name = f"g{index}"
        if rng.random() < 0.2:
            gate_type = rng.choice(_SINGLE_INPUT)
            builder.gate(gate_type, name, [rng.choice(pool)])
        else:
            gate_type = rng.choice(_MULTI_INPUT)
            arity = rng.randint(2, min(4, len(pool)))
            builder.gate(gate_type, name, rng.sample(pool, arity))
        gates.append(name)
        pool.append(name)

    # Flip-flop data inputs come from anywhere in the netlist, so state
    # feedback (q -> logic -> q) is common.
    for ff in ffs:
        builder.dff(ff, rng.choice(gates))

    for po in rng.sample(gates, rng.randint(1, min(3, len(gates)))):
        builder.output(po)
    return builder.build()


def random_vector(rng: random.Random, names: List[str]) -> Dict[str, Optional[int]]:
    """A three-valued assignment; X appears both as ``None`` and as absence."""
    vector: Dict[str, Optional[int]] = {}
    for name in names:
        roll = rng.random()
        if roll < 0.4:
            vector[name] = 1
        elif roll < 0.8:
            vector[name] = 0
        elif roll < 0.9:
            vector[name] = None
        # else: leave the entry out entirely (implicit X)
    return vector


def random_state(rng: random.Random, circuit: Circuit) -> Dict[str, Optional[int]]:
    return random_vector(rng, circuit.pseudo_primary_inputs)


@pytest.mark.parametrize("seed", SEEDS)
def test_combinational_bit_exact(seed):
    """Packed frame evaluation equals the reference for every signal."""
    circuit = random_circuit(seed)
    rng = random.Random(1000 + seed)
    reference = LogicSimulator(circuit)
    packed = PackedLogicSimulator(circuit)

    vectors = [random_vector(rng, circuit.primary_inputs) for _ in range(24)]
    states = [random_state(rng, circuit) for _ in range(24)]
    results = packed.combinational_batch(vectors, states)
    for vector, state, got in zip(vectors, states, results):
        want = reference.combinational(vector, state)
        assert got == want, f"seed {seed}: mismatch for {vector} / {state}"


@pytest.mark.parametrize("seed", SEEDS)
def test_sequence_bit_exact(seed):
    """Packed lockstep clocking equals reference frame-by-frame simulation."""
    circuit = random_circuit(seed)
    rng = random.Random(2000 + seed)
    packed = PackedLogicSimulator(circuit)

    n_sequences, n_frames = 8, 6
    sequences = [
        [random_vector(rng, circuit.primary_inputs) for _ in range(n_frames)]
        for _ in range(n_sequences)
    ]
    initial_states = [random_state(rng, circuit) for _ in range(n_sequences)]

    batch = packed.sequence_batch(sequences, initial_states)
    for sequence, initial, got in zip(sequences, initial_states, batch):
        want = simulate_sequence(circuit, sequence, initial)
        assert got.final_state == want.final_state, f"seed {seed}"
        assert got.frame_count == want.frame_count
        for got_frame, want_frame in zip(got.frames, want.frames):
            assert got_frame.values == want_frame.values, f"seed {seed}"
            assert got_frame.next_state == want_frame.next_state, f"seed {seed}"


@pytest.mark.parametrize("seed", SEEDS[::5])
def test_scalar_adapter_bit_exact(seed):
    """The packed backend's scalar LogicSimulator interface is a drop-in."""
    circuit = random_circuit(seed)
    rng = random.Random(3000 + seed)
    reference = LogicSimulator(circuit)
    packed = PackedLogicSimulator(circuit)

    for _ in range(10):
        vector = random_vector(rng, circuit.primary_inputs)
        state = random_state(rng, circuit)
        want = reference.clock(vector, state)
        got = packed.clock(vector, state)
        assert got.values == want.values
        assert got.next_state == want.next_state
        assert packed.outputs(got.values) == reference.outputs(want.values)
        assert packed.next_state(got.values) == reference.next_state(want.values)


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_observability_map_bit_exact(seed):
    """Bit-parallel multi-candidate fault simulation equals per-candidate runs."""
    circuit = random_circuit(seed)
    if not circuit.flip_flops:
        pytest.skip("combinational sample")
    rng = random.Random(4000 + seed)
    vectors = [random_vector(rng, circuit.primary_inputs) for _ in range(4)]
    state = random_state(rng, circuit)
    candidates = circuit.pseudo_primary_inputs

    reference = PropagationFaultSimulator(circuit, vectors, backend="reference")
    packed = PropagationFaultSimulator(circuit, vectors, backend="packed")
    want = reference.observability_map(state, candidates)
    got = packed.observability_map(state, candidates)

    assert set(got) == set(want)
    for ppi in candidates:
        assert got[ppi].observable == want[ppi].observable, f"seed {seed}: {ppi}"
        assert got[ppi].frame == want[ppi].frame, f"seed {seed}: {ppi}"
        assert got[ppi].primary_output == want[ppi].primary_output, f"seed {seed}: {ppi}"


def test_exhaustive_three_valued_s27(s27):
    """All 3^4 input combinations x sample states on the real s27 netlist."""
    reference = LogicSimulator(s27)
    packed = PackedLogicSimulator(s27)
    states = [{}, {"G5": 0, "G6": 1, "G7": 0}, {"G5": None, "G6": 0, "G7": 1}]
    vectors, state_list = [], []
    for combo in itertools.product((0, 1, None), repeat=len(s27.primary_inputs)):
        for state in states:
            vectors.append(dict(zip(s27.primary_inputs, combo)))
            state_list.append(state)
    results = packed.combinational_batch(vectors, state_list)
    for vector, state, got in zip(vectors, state_list, results):
        assert got == reference.combinational(vector, state)


def test_wide_batch_bit_exact(s27):
    """Batches wider than a 64-bit machine word run in one unbounded pass."""
    rng = random.Random(99)
    reference = LogicSimulator(s27)
    packed = PackedLogicSimulator(s27)
    for batch_size in (63, 64, 65, 130):
        vectors = [random_vector(rng, s27.primary_inputs) for _ in range(batch_size)]
        states = [random_state(rng, s27) for _ in range(batch_size)]
        results = packed.combinational_batch(vectors, states)
        assert len(results) == batch_size
        for vector, state, got in zip(vectors, states, results):
            assert got == reference.combinational(vector, state)


def test_sequence_batch_rejects_ragged_input(s27):
    packed = PackedLogicSimulator(s27)
    with pytest.raises(ValueError):
        packed.sequence_batch([[{}], [{}, {}]])
    with pytest.raises(ValueError):
        packed.sequence_batch([[{}], [{}]], initial_states=[{}])


def test_empty_sequences_match_reference(s27):
    """Zero-frame sequences keep the initial state, like the reference."""
    packed = PackedLogicSimulator(s27)
    states = [{"G5": 1}, {"G5": 0, "G6": None}]
    results = packed.sequence_batch([[], []], states)
    for state, got in zip(states, results):
        want = simulate_sequence(s27, [], state)
        assert got.frames == [] == want.frames
        assert got.final_state == want.final_state


def test_observed_subset_matches_full_unpack(small_surrogate):
    """Restricting observation changes reporting, never the simulation."""
    rng = random.Random(5)
    packed = PackedLogicSimulator(small_surrogate)
    sequences = [
        [random_vector(rng, small_surrogate.primary_inputs) for _ in range(5)]
        for _ in range(6)
    ]
    full = packed.sequence_batch(sequences)
    observed = packed.sequence_batch(sequences, observe=small_surrogate.primary_outputs)
    for full_result, observed_result in zip(full, observed):
        assert observed_result.final_state == full_result.final_state
        for full_frame, observed_frame in zip(full_result.frames, observed_result.frames):
            assert set(observed_frame.values) == set(small_surrogate.primary_outputs)
            for po in small_surrogate.primary_outputs:
                assert observed_frame.values[po] == full_frame.values[po]
            assert observed_frame.next_state == full_frame.next_state
