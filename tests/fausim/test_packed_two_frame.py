"""Differential harness: packed eight-valued two-frame sim vs the reference.

:class:`repro.fausim.packed_two_frame.PackedTwoFrameSimulator` must agree
*signal for signal and slot for slot* with the reference interpreter
(:func:`repro.tdgen.simulation.simulate_two_frame`) for every injected fault:
stem and branch faults, robust and non-robust tables, PI/PPI stem injection
and reconvergent circuits.  Random circuits come from the same seeded
generator the three-valued differential harness uses.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest

from repro.algebra.sets import is_singleton, single_value
from repro.algebra.values import DelayValue, PI_VALUES
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.fausim.packed_two_frame import PackedTwoFrameSimulator
from repro.tdgen.context import TDgenContext
from repro.tdgen.simulation import simulate_two_frame

from tests.fausim.test_packed_differential import random_circuit

SEEDS = list(range(0, 40))


def full_pattern(rng: random.Random, circuit):
    """A fully specified random two-pattern stimulus."""
    pi_values: Dict[str, DelayValue] = {
        pi: rng.choice(PI_VALUES) for pi in circuit.primary_inputs
    }
    ppi_initial: Dict[str, int] = {
        ppi: rng.randint(0, 1) for ppi in circuit.pseudo_primary_inputs
    }
    return pi_values, ppi_initial


def reference_values(
    context: TDgenContext,
    pi_values,
    ppi_initial,
    fault: Optional[GateDelayFault],
    robust: bool,
) -> Dict[str, DelayValue]:
    state = simulate_two_frame(context, pi_values, ppi_initial, fault=fault, robust=robust)
    values: Dict[str, DelayValue] = {}
    for signal, value_set in state.signal_sets.items():
        assert is_singleton(value_set), f"{signal} not determined"
        values[signal] = single_value(value_set)
    return values


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_fault_slots_bit_exact(seed, robust):
    """Every injected fault slot equals a dedicated reference pass."""
    circuit = random_circuit(seed)
    context = TDgenContext(circuit)
    packed = PackedTwoFrameSimulator(circuit, robust=robust)
    rng = random.Random(7000 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)

    universe = enumerate_delay_faults(circuit)
    sample = rng.sample(universe, min(len(universe), 63))
    faults: List[Optional[GateDelayFault]] = [None] + sample

    result = packed.simulate(pi_values, ppi_initial, faults)
    for pattern, fault in enumerate(faults):
        want = reference_values(context, pi_values, ppi_initial, fault, robust)
        got = result.values_for_pattern(pattern)
        assert got == want, f"seed {seed} fault {fault}"


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_frame1_matches_reference(seed):
    """The shared initial frame equals the reference three-valued pass."""
    circuit = random_circuit(seed)
    context = TDgenContext(circuit)
    packed = PackedTwoFrameSimulator(circuit)
    rng = random.Random(8000 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)

    state = simulate_two_frame(context, pi_values, ppi_initial)
    result = packed.simulate(pi_values, ppi_initial, (None,))
    assert result.frame1 == state.frame1


def test_fault_effect_mask(s27):
    """The aggregated Rc/Fc mask flags exactly the fault-carrying slots."""
    packed = PackedTwoFrameSimulator(s27)
    context = TDgenContext(s27)
    rng = random.Random(11)
    universe = enumerate_delay_faults(s27)
    for _ in range(20):
        pi_values, ppi_initial = full_pattern(rng, s27)
        faults = [None] + rng.sample(universe, 10)
        result = packed.simulate(pi_values, ppi_initial, faults)
        for po in s27.primary_outputs:
            mask = result.fault_effect_mask(po)
            for pattern, fault in enumerate(faults):
                want = reference_values(context, pi_values, ppi_initial, fault, True)
                assert bool(mask & (1 << pattern)) == want[po].fault


def test_value_accessors(s27):
    packed = PackedTwoFrameSimulator(s27)
    rng = random.Random(12)
    pi_values, ppi_initial = full_pattern(rng, s27)
    result = packed.simulate(pi_values, ppi_initial, (None,))
    for signal, value in result.values_for_pattern(0).items():
        assert result.value(signal, 0) is value
    with pytest.raises(ValueError):
        result.value(s27.primary_outputs[0], 5)  # slot beyond the width


def test_requires_fully_specified_pattern(s27):
    packed = PackedTwoFrameSimulator(s27)
    rng = random.Random(13)
    pi_values, ppi_initial = full_pattern(rng, s27)
    missing_pi = dict(pi_values)
    del missing_pi[s27.primary_inputs[0]]
    with pytest.raises(ValueError, match="fully specified"):
        packed.simulate(missing_pi, ppi_initial)
    missing_state = dict(ppi_initial)
    del missing_state[s27.pseudo_primary_inputs[0]]
    with pytest.raises(ValueError, match="fully specified"):
        packed.simulate(pi_values, missing_state)


def test_slot_count_validation(s27):
    packed = PackedTwoFrameSimulator(s27)
    rng = random.Random(14)
    pi_values, ppi_initial = full_pattern(rng, s27)
    with pytest.raises(ValueError):
        packed.simulate(pi_values, ppi_initial, ())
    # Any number of slots fits the unbounded-width planes.
    assert packed.simulate(pi_values, ppi_initial, [None] * 100).width == 100
