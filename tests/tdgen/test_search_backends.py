"""Differential harness: packed search kernels vs the interpreted reference.

The packed kernels of :mod:`repro.tdgen.search` must be *bit-exact* against
the interpreted walks they replace, query for query:

* TDgen's D-frontier objective selection and eight-valued multiple
  backtrace (over full and incremental packed states, stem and branch
  faults, both robustness modes),
* SEMILET propagation's potential-difference scan and pair-frame decision
  backtrace,
* SEMILET justification's controlling-value backtrace (the recursion vs the
  iterative worklist),
* the fold-image backward implication of :mod:`repro.algebra.sets` vs the
  historical combination-enumerating oracle kept in
  :func:`repro.tdgen.search.exhaustive_backward_input_sets`,

Whole-campaign equivalence of the two backends is pinned in
``tests/tdgen/test_implication_backends.py``.  Any mismatch prints the
failing seed, so a reproduction is one ``random_circuit(seed)`` call away.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import pytest

from repro.algebra.sets import FULL_SET, backward_input_sets
from repro.algebra.values import ALL_VALUES, DelayValue, PI_VALUES
from repro.circuit.gates import GateType
from repro.faults.model import enumerate_delay_faults
from repro.fausim import kernels
from repro.fausim.backends import available_backends
from repro.fausim.kernels import kernels_for
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine
from repro.tdgen.search import (
    PackedSearchKernels,
    ReferenceSearchKernels,
    _differs,
    exhaustive_backward_input_sets,
)

from tests.fausim.test_packed_differential import random_circuit

SEEDS = list(range(1, 25, 2))


def _kernel_pairs(circuit, robust=True):
    """(reference engine + kernels, packed engine + kernels) for one circuit."""
    context = TDgenContext(circuit)
    reference = create_implication_engine(
        circuit, "reference", robust=robust, context=context
    )
    packed = create_implication_engine(
        circuit, "packed", robust=robust, context=context
    )
    return (
        (reference, reference.search_kernels()),
        (packed, packed.search_kernels()),
    )


def _partial_assignment(rng, circuit, density=0.55):
    pi_values: Dict[str, Optional[DelayValue]] = {
        pi: (rng.choice(PI_VALUES) if rng.random() < density else None)
        for pi in circuit.primary_inputs
    }
    ppi_initial: Dict[str, Optional[int]] = {
        ppi: (rng.randint(0, 1) if rng.random() < density else None)
        for ppi in circuit.pseudo_primary_inputs
    }
    return pi_values, ppi_initial


def _random_states(rng, circuit):
    """Random captured good/faulty machine states (X allowed)."""
    good = {}
    faulty = {}
    for ppi in circuit.pseudo_primary_inputs:
        good[ppi] = rng.choice([0, 1, None])
        faulty[ppi] = good[ppi] if rng.random() < 0.6 else rng.choice([0, 1, None])
    return good, faulty


# --------------------------------------------------------------------------- #
# registry and dispatch
# --------------------------------------------------------------------------- #
def test_registry_names():
    """Every backend name yields the kernels of its own engine."""
    circuit = random_circuit(0)
    kernels = {
        type(create_implication_engine(circuit, name).search_kernels())
        for name in available_backends()
    }
    assert kernels == {ReferenceSearchKernels, PackedSearchKernels}


def test_kernels_follow_engine_backend():
    circuit = random_circuit(0)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    assert isinstance(reference_kernels, ReferenceSearchKernels)
    assert isinstance(packed_kernels, PackedSearchKernels)
    # Cached per engine.
    assert reference.search_kernels() is reference_kernels
    assert packed.search_kernels() is packed_kernels


# --------------------------------------------------------------------------- #
# backward implication: fold images vs the exhaustive oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize(
    "gate_type",
    [
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    ],
)
def test_backward_input_sets_matches_exhaustive_oracle(gate_type, robust):
    """Random set combinations, arity 1-4, vs the combination enumeration."""
    rng = random.Random(hash((gate_type.value, robust)) & 0xFFFF)
    for _ in range(150):
        arity = rng.randint(2, 4)
        input_sets = [rng.randint(0, FULL_SET) for _ in range(arity)]
        output_set = rng.randint(0, FULL_SET)
        want = exhaustive_backward_input_sets(gate_type, input_sets, output_set, robust)
        got = backward_input_sets(gate_type, input_sets, output_set, robust)
        assert got == want, (gate_type, robust, input_sets, output_set)


def test_backward_input_sets_exhaustive_pairs():
    """Every singleton/pair input combination of the two-input AND/XOR."""
    small_sets = [value.mask for value in ALL_VALUES] + [
        ALL_VALUES[i].mask | ALL_VALUES[j].mask for i in range(8) for j in range(i)
    ]
    rng = random.Random(99)
    outputs = [rng.randint(1, FULL_SET) for _ in range(5)]
    for gate_type in (GateType.AND, GateType.XOR):
        for left in small_sets:
            for right in small_sets[:12]:
                for output_set in outputs:
                    want = exhaustive_backward_input_sets(
                        gate_type, [left, right], output_set, False
                    )
                    got = backward_input_sets(gate_type, [left, right], output_set, False)
                    assert got == want, (gate_type, left, right, output_set)


def test_backward_input_sets_wide_gates_unpruned():
    """Fanins above the bound fall back to no pruning in both versions."""
    input_sets = [FULL_SET] * 5
    assert backward_input_sets(GateType.AND, input_sets, 1, True) == input_sets
    assert exhaustive_backward_input_sets(GateType.AND, input_sets, 1, True) == input_sets


# --------------------------------------------------------------------------- #
# TDgen: objective selection and backtrace
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_objective_and_backtrace_bit_exact(seed, robust):
    """Objective choice and backtrace agree on identical random states."""
    circuit = random_circuit(seed)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(
        circuit, robust=robust
    )
    rng = random.Random(4321 + seed)
    faults = enumerate_delay_faults(circuit)

    for trial in range(4):
        pi_values, ppi_initial = _partial_assignment(rng, circuit)
        fault = rng.choice(faults)
        reference_state = reference.implicate(pi_values, ppi_initial, fault)
        packed_state = packed.implicate(pi_values, ppi_initial, fault)
        if reference_state.has_conflict():
            continue
        want = reference_kernels.propagation_objective(reference_state, fault)
        got = packed_kernels.propagation_objective(packed_state, fault)
        assert got == want, f"seed {seed} trial {trial} objective differs"
        if want is None:
            continue
        want_key = reference_kernels.backtrace(
            reference_state, fault, want, pi_values, ppi_initial
        )
        got_key = packed_kernels.backtrace(
            packed_state, fault, want, pi_values, ppi_initial
        )
        assert got_key == want_key, f"seed {seed} trial {trial} backtrace differs"


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_objective_bit_exact_on_incremental_states(seed):
    """Kernels agree on states produced by incremental candidate sweeps."""
    circuit = random_circuit(seed)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    rng = random.Random(777 + seed)
    faults = enumerate_delay_faults(circuit)
    fault = rng.choice(faults)

    pi_values = {pi: None for pi in circuit.primary_inputs}
    ppi_initial = {ppi: None for ppi in circuit.pseudo_primary_inputs}
    reference_state = reference.implicate(pi_values, ppi_initial, fault)
    packed_state = packed.implicate(pi_values, ppi_initial, fault)

    # Chain three decisions like TDgen does, comparing after each sweep.
    for _ in range(3):
        free = [pi for pi in circuit.primary_inputs if pi_values[pi] is None]
        if not free or packed_state.has_conflict():
            break
        name = rng.choice(free)
        candidates = [("pi", name, value) for value in PI_VALUES]
        reference_states = reference.implicate_candidates(
            pi_values, ppi_initial, fault, candidates
        )
        packed_states = packed.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=packed_state
        )
        slot = rng.randrange(len(candidates))
        pi_values[name] = candidates[slot][2]
        reference_state = reference_states.state(slot)
        packed_state = packed_states.state(slot)
        if reference_state.has_conflict():
            assert packed_state.has_conflict()
            break
        want = reference_kernels.propagation_objective(reference_state, fault)
        got = packed_kernels.propagation_objective(packed_state, fault)
        assert got == want, f"seed {seed} incremental objective differs"
        if want is not None:
            assert packed_kernels.backtrace(
                packed_state, fault, want, pi_values, ppi_initial
            ) == reference_kernels.backtrace(
                reference_state, fault, want, pi_values, ppi_initial
            )


# --------------------------------------------------------------------------- #
# SEMILET propagation: potential difference and pair decisions
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_potential_difference_bit_exact(seed):
    """The word-parallel scan equals the interpreted scan on every signal."""
    circuit = random_circuit(seed)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    rng = random.Random(888 + seed)

    for trial in range(4):
        good, faulty = _random_states(rng, circuit)
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.5 else None)
            for pi in circuit.primary_inputs
        }
        free = {
            ppi: None
            for ppi in circuit.pseudo_primary_inputs
            if rng.random() < 0.4
        }
        decisions = [None]
        if circuit.primary_inputs:
            name = rng.choice(circuit.primary_inputs)
            decisions = [(name, True, 0), (name, True, 1)]
        reference_frames = reference.pair_frame_candidates(
            pi_values, good, faulty, free, decisions
        )
        packed_frames = packed.pair_frame_candidates(
            pi_values, good, faulty, free, decisions
        )
        for index in range(len(decisions)):
            want = reference_kernels.potential_difference(reference_frames, index)
            got = packed_kernels.potential_difference(packed_frames, index)
            got_dict = {name: got[name] for name in want}
            assert got_dict == want, f"seed {seed} trial {trial} potential differs"

            want_key = reference_kernels.pair_frame_decision(
                reference_frames, index, pi_values, free
            )
            got_key = packed_kernels.pair_frame_decision(
                packed_frames, index, pi_values, free
            )
            assert got_key == want_key, f"seed {seed} trial {trial} decision differs"


@pytest.mark.parametrize("tier_up", [10**9, 0], ids=["cold", "generated"])
@pytest.mark.parametrize("seed", SEEDS)
def test_pair_analysis_bit_exact(seed, tier_up, monkeypatch):
    """Both tiers of the pair analysis equal the reference per-name walks.

    Potential and provable difference per signal, the D-frontier per
    candidate, and the frame classification for both goals.
    """
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", tier_up)
    monkeypatch.setattr(kernels, "CHUNK_GATES", 4)
    circuit = random_circuit(seed)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    compiled = packed.compiled
    rng = random.Random(4242 + seed)

    for trial in range(4):
        good, faulty = _random_states(rng, circuit)
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.5 else None)
            for pi in circuit.primary_inputs
        }
        free = {ppi: None for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.4}
        decisions = [None]
        if free and rng.random() < 0.5:
            name = rng.choice(sorted(free))
            decisions = [(name, False, 0), (name, False, 1), None]
        elif circuit.primary_inputs:
            name = rng.choice(circuit.primary_inputs)
            decisions = [(name, True, 0), (name, True, 1)]
        reference_frames = reference.pair_frame_candidates(
            pi_values, good, faulty, free, decisions
        )
        packed_frames = packed.pair_frame_candidates(pi_values, good, faulty, free, decisions)
        analysis = packed_frames.pair_analysis()
        generated = "pair_analysis" in kernels_for(compiled).generated
        assert generated == (tier_up == 0)
        blocked = {ppi for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.3}
        context = f"seed {seed} trial {trial}"
        for index in range(len(decisions)):
            bit = 1 << (2 * index)
            pairs = reference_frames.pairs(index)
            want = reference_kernels.potential_difference(reference_frames, index)
            assert {
                name: bool(analysis.potential[compiled.slot_of[name]] & bit) for name in want
            } == want, context
            assert {
                name: bool(analysis.provable[slot] & bit)
                for name, slot in compiled.slot_of.items()
            } == {name: _differs(*pairs[name]) for name in compiled.slot_of}, context
            assert [
                compiled.signal_names[compiled.outputs[gate_index]]
                for gate_index, mask in analysis.frontier
                if mask & bit
            ] == reference_kernels._pair_d_frontier(pairs), context
            for goal in ("po", "ppo"):
                assert packed_kernels.classify_pair_frame(
                    packed_frames, index, packed_kernels.pair_frame_targets(goal, blocked)
                ) == reference_kernels.classify_pair_frame(
                    reference_frames, index, reference_kernels.pair_frame_targets(goal, blocked)
                ), f"{context} goal {goal}"


# --------------------------------------------------------------------------- #
# SEMILET justification: controlling-value backtrace
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_justification_backtrace_bit_exact(seed):
    """The iterative worklist reproduces the recursion, node for node."""
    circuit = random_circuit(seed)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    rng = random.Random(555 + seed)
    signals = [
        name
        for name in circuit.gates
        if not circuit.gates[name].is_input and not circuit.gates[name].is_dff
    ]

    for trial in range(4):
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.4 else None)
            for pi in circuit.primary_inputs
        }
        ppi_values = {
            ppi: (rng.randint(0, 1) if rng.random() < 0.4 else None)
            for ppi in circuit.pseudo_primary_inputs
        }
        reference_frames = reference.frame_candidates(pi_values, ppi_values, (None,))
        packed_frames = packed.frame_candidates(pi_values, ppi_values, (None,))
        for signal in rng.sample(signals, min(4, len(signals))):
            for target in (0, 1):
                for decide_ppis in (True, False):
                    want = reference_kernels.justification_backtrace(
                        reference_frames, 0, signal, target,
                        pi_values, ppi_values, decide_ppis,
                    )
                    got = packed_kernels.justification_backtrace(
                        packed_frames, 0, signal, target,
                        pi_values, ppi_values, decide_ppis,
                    )
                    assert got == want, (
                        f"seed {seed} trial {trial} justification backtrace differs "
                        f"({signal} -> {target}, decide_ppis={decide_ppis})"
                    )
