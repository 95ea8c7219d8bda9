"""Differential harness: packed eight-valued two-frame sim vs the reference.

:class:`repro.fausim.packed_two_frame.PackedTwoFrameSimulator` must agree
*signal for signal and slot for slot* with the reference interpreter
(:func:`repro.tdgen.simulation.simulate_two_frame`) for every injected fault:
stem and branch faults, robust and non-robust tables, PI/PPI stem injection
and reconvergent circuits.  Random circuits come from the same seeded
generator the three-valued differential harness uses.  An event-driven pass
(``base=`` a good-machine pass) must read the same as a full pass.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest

from repro.algebra.sets import is_singleton, single_value
from repro.algebra.values import DelayValue, PI_VALUES
from repro.circuit.netlist import Circuit
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


# --------------------------------------------------------------------------- #
# event-driven (delta) passes against full passes
# --------------------------------------------------------------------------- #
DELTA_SEEDS = list(range(0, 40, 3))

#: Fault-site kinds an event-driven pass seeds its wavefront from differently.
FAULT_KINDS = ("pi_stem", "ppi_stem", "gate_stem", "gate_branch", "dff_branch")


def fault_kind(circuit: Circuit, fault: GateDelayFault) -> str:
    """Which of :data:`FAULT_KINDS` a fault's line is."""
    line = fault.line
    if line.is_branch:
        return "dff_branch" if circuit.gates[line.sink].is_dff else "gate_branch"
    if circuit.is_primary_input(line.signal):
        return "pi_stem"
    return "ppi_stem" if circuit.gates[line.signal].is_dff else "gate_stem"


def delta_batches(rng: random.Random, circuit: Circuit):
    """Injection batches of widths 1, 2 and 41 covering every fault kind.

    Width 1 is one fault of each kind, width 2 both directions of one line
    of each kind (the shape of a TDsim stem analysis), width 41 a random mix
    with good-machine slots.
    """
    universe = enumerate_delay_faults(circuit)
    by_kind: Dict[str, List[GateDelayFault]] = {kind: [] for kind in FAULT_KINDS}
    for fault in universe:
        by_kind[fault_kind(circuit, fault)].append(fault)
    batches: List[List[Optional[GateDelayFault]]] = []
    for faults in by_kind.values():
        if faults:
            fault = rng.choice(faults)
            batches.append([fault])
            partner = [
                other
                for other in faults
                if other.line == fault.line and other.fault_type is not fault.fault_type
            ]
            batches.append([fault] + partner)
    batches.append(rng.choices(universe + [None], k=41))
    return batches


def test_delta_batches_cover_every_fault_kind():
    """The differential below sees every fault kind at every width."""
    seen = set()
    for seed in DELTA_SEEDS:
        circuit = random_circuit(seed)
        rng = random.Random(9100 + seed)
        full_pattern(rng, circuit)  # the differential draws its pattern first
        for faults in delta_batches(rng, circuit):
            for fault in faults:
                if fault is not None:
                    seen.add((fault_kind(circuit, fault), len(faults)))
    assert seen >= {(kind, width) for kind in FAULT_KINDS for width in (1, 2, 41)}


@pytest.mark.parametrize("seed", DELTA_SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_event_driven_pass_matches_full_pass(seed, robust):
    """Every slot of a pass on a good-machine base reads as the full pass."""
    circuit = random_circuit(seed)
    packed = PackedTwoFrameSimulator(circuit, robust=robust)
    rng = random.Random(9100 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)
    good = packed.simulate(pi_values, ppi_initial, (None,))
    observed = list(circuit.primary_outputs) + list(circuit.pseudo_primary_outputs)

    reached_less = False
    for faults in delta_batches(rng, circuit):
        full = packed.simulate(pi_values, ppi_initial, faults)
        delta = packed.simulate(pi_values, ppi_initial, faults, base=good)
        assert delta.frame1 == full.frame1
        reached_less |= None in delta.planes
        for pattern in range(len(faults)):
            assert delta.values_for_pattern(pattern) == full.values_for_pattern(
                pattern
            ), f"seed {seed} slot {pattern} fault {faults[pattern]}"
            for signal in observed:
                assert delta.value(signal, pattern) is full.value(signal, pattern)
        for signal in observed:
            assert delta.fault_effect_mask(signal) == full.fault_effect_mask(signal)
    assert reached_less, "no pass left a signal unreached"


def test_dff_branch_fault_leaves_the_base_untouched(s27):
    """A branch into a flip-flop is not injected, so nothing is evaluated."""
    packed = PackedTwoFrameSimulator(s27)
    rng = random.Random(15)
    pi_values, ppi_initial = full_pattern(rng, s27)
    good = packed.simulate(pi_values, ppi_initial, (None,))
    faults = [
        fault
        for fault in enumerate_delay_faults(s27)
        if fault_kind(s27, fault) == "dff_branch"
    ]
    assert faults
    delta = packed.simulate(pi_values, ppi_initial, faults, base=good)
    assert delta.planes == [None] * len(delta.planes)
    full = packed.simulate(pi_values, ppi_initial, faults)
    for pattern in range(len(faults)):
        assert delta.values_for_pattern(pattern) == good.values_for_pattern(0)
        assert full.values_for_pattern(pattern) == good.values_for_pattern(0)


def test_base_must_be_a_full_single_slot_pass(s27):
    packed = PackedTwoFrameSimulator(s27)
    rng = random.Random(16)
    pi_values, ppi_initial = full_pattern(rng, s27)
    wide = packed.simulate(pi_values, ppi_initial, (None, None))
    with pytest.raises(ValueError, match="base"):
        packed.simulate(pi_values, ppi_initial, (None,), base=wide)
    good = packed.simulate(pi_values, ppi_initial, (None,))
    delta = packed.simulate(pi_values, ppi_initial, (None,), base=good)
    with pytest.raises(ValueError, match="base"):
        packed.simulate(pi_values, ppi_initial, (None,), base=delta)
