"""Differential harness: generated straight-line kernels vs the cold tier.

:mod:`repro.fausim.kernels` generates Python source per compiled circuit for
the full-program ``evaluate_planes`` pass and the SEMILET pair analysis.  The
generated tier must compute the same integers as the interpreted cold tier
and as the reference simulator, at every width and chunk boundary; a
structural edit or a pickle round-trip must start over cold; and forcing
every kernel to tier up at once must leave campaign results unchanged.

The per-gate plans the interpreted event-driven passes read live on the same
kernels object: the planned set sweep (with its unrolled widths and the slow
path of the gates that apply a move) must equal a per-slot evaluation of the
reference set algebra, and a plan must be rebuilt after an edit and never be
pickled.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.algebra.packed_sets import PackedSetSimulator, set_plan, slot_mask
from repro.algebra.sets import evaluate_gate_sets
from repro.algebra.values import ALL_VALUES, F, FC, R, RC
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.fausim import kernels
from repro.fausim.compile import _OPCODES, compile_circuit
from repro.fausim.kernels import kernels_for
from repro.fausim.logic_sim import LogicSimulator
from repro.fausim.packed_sim import PackedLogicSimulator, PackedPlanes

from tests.fausim.test_packed_differential import random_circuit
from tests.fuzz.harness import _incremental_config, generate_case, generate_incremental_case

NEVER = 10**9


def _circuits():
    """Random builder circuits plus the fuzz harness's circuit shapes."""
    shapes = [(f"random{seed}", lambda seed=seed: random_circuit(seed)) for seed in range(8)]
    shapes += [
        (f"fuzz{seed}", lambda seed=seed: generate_case(seed).circuit.build())
        for seed in range(6)
    ]
    return shapes


CIRCUITS = _circuits()


@pytest.fixture(params=[1, 3, 64], ids=lambda size: f"chunk{size}")
def chunk_gates(request, monkeypatch):
    """Generate with several chunk sizes, so chunk boundaries fall everywhere."""
    monkeypatch.setattr(kernels, "CHUNK_GATES", request.param)
    return request.param


def _random_planes(rng, compiled, width):
    """Source planes with random 0/1/X per pattern; gate planes zeroed."""
    zero = [0] * compiled.num_signals
    one = [0] * compiled.num_signals
    for slot in compiled.pi_slots + compiled.ppi_slots:
        for pattern in range(width):
            roll = rng.random()
            if roll < 0.4:
                one[slot] |= 1 << pattern
            elif roll < 0.8:
                zero[slot] |= 1 << pattern
    return PackedPlanes(zero=zero, one=one, width=width)


def _copy(planes):
    return PackedPlanes(zero=list(planes.zero), one=list(planes.one), width=planes.width)


@pytest.mark.parametrize("width", [1, 2, 64, 300])
@pytest.mark.parametrize("name,build", CIRCUITS, ids=[name for name, _ in CIRCUITS])
def test_generated_evaluate_matches_cold_and_reference(
    name, build, width, chunk_gates, monkeypatch
):
    circuit = build()
    simulator = PackedLogicSimulator(circuit)
    compiled = simulator.compiled
    source = _random_planes(random.Random(width), compiled, width)

    monkeypatch.setattr(kernels, "TIER_UP_PASSES", NEVER)
    cold = _copy(source)
    simulator.evaluate_planes(cold)
    assert "evaluate" not in kernels_for(compiled).generated

    monkeypatch.setattr(kernels, "TIER_UP_PASSES", 0)
    generated = _copy(source)
    simulator.evaluate_planes(generated)
    assert "evaluate" in kernels_for(compiled).generated
    assert generated.zero == cold.zero, name
    assert generated.one == cold.one, name

    reference = LogicSimulator(circuit)
    for pattern in sorted({0, width // 2, width - 1}):
        pis = {
            pi: value
            for pi, slot in zip(circuit.primary_inputs, compiled.pi_slots)
            if (value := source.value(slot, pattern)) is not None
        }
        state = {
            ppi: value
            for ppi, slot in zip(circuit.pseudo_primary_inputs, compiled.ppi_slots)
            if (value := source.value(slot, pattern)) is not None
        }
        want = reference.combinational(pis, state)
        got = {
            signal: generated.value(slot, pattern)
            for signal, slot in compiled.slot_of.items()
        }
        assert got == want, f"{name} width {width} pattern {pattern}"


@pytest.mark.parametrize("width", [1, 2, 64, 300])
def test_xor_xnor_zero_planes_stay_inside_the_width(width, monkeypatch):
    """The XOR/XNOR 0-plane is ``~parity`` masked to the batch width."""
    builder = CircuitBuilder("parity")
    builder.inputs(["a", "b", "c"])
    builder.gate(GateType.XOR, "x", ["a", "b", "c"])
    builder.gate(GateType.XNOR, "n", ["a", "b"])
    builder.output("x")
    builder.output("n")
    circuit = builder.build()
    simulator = PackedLogicSimulator(circuit)
    compiled = simulator.compiled
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", 0)
    full = (1 << width) - 1
    planes = PackedPlanes(
        zero=[0] * compiled.num_signals, one=[0] * compiled.num_signals, width=width
    )
    for slot in compiled.pi_slots:
        planes.zero[slot] = full  # every input a known 0
    simulator.evaluate_planes(planes)
    x, n = compiled.slot_of["x"], compiled.slot_of["n"]
    assert (planes.zero[x], planes.one[x]) == (full, 0)
    assert (planes.zero[n], planes.one[n]) == (0, full)


def test_tier_up_waits_for_the_pass_threshold(monkeypatch):
    circuit = random_circuit(3)
    simulator = PackedLogicSimulator(circuit)
    compiled = simulator.compiled
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", 2)
    source = _random_planes(random.Random(0), compiled, 4)
    for _ in range(2):
        simulator.evaluate_planes(_copy(source))
        assert "evaluate" not in kernels_for(compiled).generated
    # Event-driven passes always run interpreted and do not count as passes.
    written = simulator.evaluate_planes(
        _copy(source), [None] * compiled.num_signals, compiled.pi_slots
    )
    assert written[: len(compiled.pi_slots)] == list(compiled.pi_slots)
    assert kernels_for(compiled).passes["evaluate"] == 2
    simulator.evaluate_planes(_copy(source))
    assert "evaluate" in kernels_for(compiled).generated


def test_kernels_are_dropped_after_add_gate(monkeypatch):
    """An ECO edit recompiles the circuit, and its kernels start cold."""
    circuit = random_circuit(5)
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", 0)
    simulator = PackedLogicSimulator(circuit)
    simulator.evaluate_planes(_random_planes(random.Random(1), simulator.compiled, 4))
    assert kernels_for(simulator.compiled).generated
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    edited = compile_circuit(circuit)
    assert edited is not simulator.compiled
    assert kernels_for(edited).generated == {}
    assert "eco_obs" in edited.slot_of


def test_kernels_are_absent_after_a_pickle_round_trip(monkeypatch):
    circuit = random_circuit(7)
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", 0)
    simulator = PackedLogicSimulator(circuit)
    source = _random_planes(random.Random(2), simulator.compiled, 8)
    evaluated = _copy(source)
    simulator.evaluate_planes(evaluated)
    assert kernels_for(simulator.compiled).generated

    clone = pickle.loads(pickle.dumps(circuit))
    assert "_kernels" not in clone._compiled_cache.__dict__
    again = _copy(source)
    PackedLogicSimulator(clone).evaluate_planes(again)
    assert (again.zero, again.one) == (evaluated.zero, evaluated.one)


_GATE_TYPE_OF_OP = {op: gate_type for gate_type, op in _OPCODES.items()}


def _inject_slot(value_set, move, slot_index):
    """The reference injection of one move on one pattern slot."""
    source, target, byte_mask = move
    if (byte_mask >> (8 * slot_index)) & 1 and (value_set >> source) & 1:
        return (value_set & ~(1 << source)) | (1 << target)
    return value_set


def _per_slot_sweep(compiled, sources, width, stem_moves, branch_moves, robust):
    """Per pattern slot, every signal's set by the reference set algebra."""
    columns = []
    for slot_index in range(width):
        column = list(sources[slot_index])
        for index, op in enumerate(compiled.ops):
            start, end = compiled.fanin_offsets[index], compiled.fanin_offsets[index + 1]
            inputs = []
            for position in range(start, end):
                value_set = column[compiled.fanin_flat[position]]
                for move in branch_moves.get(position, ()):
                    value_set = _inject_slot(value_set, move, slot_index)
                inputs.append(value_set)
            value_set = evaluate_gate_sets(_GATE_TYPE_OF_OP[op], inputs, robust)
            for move in stem_moves.get(compiled.outputs[index], ()):
                value_set = _inject_slot(value_set, move, slot_index)
            column[compiled.outputs[index]] = value_set
        columns.append(column)
    return columns


def _random_moves(rng, compiled, width):
    """A stem move on one gate output and a branch move on one fanin pin."""
    byte_mask = sum(1 << (8 * j) for j in range(width) if rng.random() < 0.7)
    rise = (R.index, RC.index, byte_mask)
    fall = (F.index, FC.index, byte_mask ^ slot_mask(width))
    stem_moves = {rng.choice(compiled.outputs): [rise]}
    branch_moves = {rng.randrange(len(compiled.fanin_flat)): [fall, rise]}
    return stem_moves, branch_moves


@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
def test_planned_set_sweep_matches_the_per_slot_algebra(width, robust):
    """Full and event-driven sweeps, with stem and branch moves, every width."""
    fault_free = [value.mask for value in ALL_VALUES if not value.fault]
    for seed in range(10):
        circuit = random_circuit(seed)
        compiled = compile_circuit(circuit)
        rng = random.Random(seed * 100 + width)
        sources = [[0] * compiled.num_signals for _ in range(width)]
        for column in sources:
            for slot in compiled.pi_slots + compiled.ppi_slots:
                # Mostly definite values, some wider sets, a few conflicts.
                roll = rng.random()
                if roll < 0.05:
                    column[slot] = 0
                elif roll < 0.6:
                    column[slot] = rng.choice(fault_free)
                else:
                    column[slot] = rng.randrange(1, 256)
        stem_moves, branch_moves = _random_moves(rng, compiled, width)
        want = _per_slot_sweep(compiled, sources, width, stem_moves, branch_moves, robust)
        words = [
            sum(sources[j][slot] << (8 * j) for j in range(width))
            for slot in range(compiled.num_signals)
        ]
        simulator = PackedSetSimulator(compiled, robust=robust)
        result = simulator.propagate(list(words), width, stem_moves, branch_moves)
        for slot in range(compiled.num_signals):
            got = [(result.words[slot] >> (8 * j)) & 255 for j in range(width)]
            assert got == [want[j][slot] for j in range(width)], (seed, slot)
        conflicted = [j for j in range(width) if 0 in want[j][len(compiled.pi_slots) + len(compiled.ppi_slots):]]
        assert result.conflict_mask == sum(1 << j for j in conflicted), seed

        # Event-driven from a parent without moves: one source changes, the
        # gates that apply a move are seeded.
        parent = _per_slot_sweep(compiled, sources[:1], 1, {}, {}, robust)[0]
        rep = slot_mask(width)
        changed = rng.choice(compiled.pi_slots + compiled.ppi_slots)
        event_sources = [list(parent) for _ in range(width)]
        for j in range(width):
            event_sources[j][changed] = rng.choice(fault_free)
        want = _per_slot_sweep(
            compiled, event_sources, width, stem_moves, branch_moves, robust
        )
        loaded = [None] * compiled.num_signals
        loaded[changed] = sum(event_sources[j][changed] << (8 * j) for j in range(width))
        seeds = [compiled.gate_index_of[slot] for slot in stem_moves]
        seeds += [
            next(
                index for index in range(compiled.num_gates)
                if compiled.fanin_offsets[index] <= position < compiled.fanin_offsets[index + 1]
            )
            for position in branch_moves
        ]
        result = simulator.propagate(
            loaded, width, stem_moves, branch_moves,
            base_sets=parent, changed_slots=[changed], seed_gates=seeds,
        )
        for slot in range(compiled.num_signals):
            word = result.words[slot]
            if word is None:
                word = parent[slot] * rep
            got = [(word >> (8 * j)) & 255 for j in range(width)]
            assert got == [want[j][slot] for j in range(width)], (seed, slot, "event")


def test_set_plans_are_rebuilt_after_add_gate():
    """An ECO edit recompiles the circuit; its plans are built anew."""
    circuit = random_circuit(5)
    compiled = compile_circuit(circuit)
    plan = set_plan(compiled, True)
    assert set_plan(compiled, True) is plan
    assert set_plan(compiled, False) is not plan
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    edited = compile_circuit(circuit)
    assert edited is not compiled
    assert kernels_for(edited).plans == {}
    rebuilt = set_plan(edited, True)
    assert len(rebuilt) == edited.num_gates == compiled.num_gates + 1
    assert rebuilt[edited.gate_index_of[edited.slot_of["eco_obs"]]][5] == edited.slot_of["eco_obs"]


def test_set_plans_are_absent_after_a_pickle_round_trip():
    circuit = random_circuit(7)
    compiled = compile_circuit(circuit)
    set_plan(compiled, True)
    kernels_for(compiled).plane_plan()
    assert kernels_for(compiled).plans
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_kernels" not in clone.__dict__
    assert kernels_for(clone).plans == {}


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_eager_tier_up_leaves_campaign_fingerprints_unchanged(seed, monkeypatch):
    """Fuzz-harness campaigns: every kernel generated at once vs never.

    The seeds cover robust and non-robust runs, with and without the random
    prefix, and each of them runs both kernels.
    """
    case = generate_incremental_case(seed)
    config = dataclasses.replace(_incremental_config(case), backend="packed")
    fingerprints = []
    for tier_up, expected in ((NEVER, []), (0, ["evaluate", "pair_analysis"])):
        monkeypatch.setattr(kernels, "TIER_UP_PASSES", tier_up)
        circuit = case.circuit.build()
        result = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(
            prefix=config.prefix_config()
        )
        fingerprints.append(result.fingerprint())
        assert sorted(kernels_for(compile_circuit(circuit)).generated) == expected
    assert fingerprints[0] == fingerprints[1]
