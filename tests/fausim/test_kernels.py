"""Differential harness: generated straight-line kernels vs the cold tier.

:mod:`repro.fausim.kernels` generates Python source per compiled circuit for
the full-program ``evaluate_planes`` pass and the SEMILET pair analysis.  The
generated tier must compute the same integers as the interpreted cold tier
and as the reference simulator, at every width and chunk boundary; a
structural edit or a pickle round-trip must start over cold; and forcing
every kernel to tier up at once must leave campaign results unchanged.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.fausim import kernels
from repro.fausim.compile import compile_circuit
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
    # Cone subsets always run interpreted and do not count as passes.
    simulator.evaluate_planes(_copy(source), gate_indices=[0])
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
