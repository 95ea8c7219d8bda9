"""Differential harness: TDsim's injection batches, packed against reference.

:meth:`repro.tdgen.implication.ImplicationEngine.implicate_faults` implies
one fully specified two-pattern stimulus with one injected fault per slot.
The packed engine's set-word sweep must agree *column by column and slot by
slot* with the reference engine, which interprets
:func:`repro.tdgen.simulation.simulate_two_frame` once per slot.  The
batches cover every kind of slot: PI, PPI and gate stems, gate branches,
branches into a flip-flop, pins that do not read the fault stem and
good-machine (``None``) slots, under the robust and the non-robust tables,
on seeded random circuits (the generator of the three-valued differential
harness) and s27.  An event-driven batch (``base=`` the good machine's
view) must read as a full pass.  Batches are compared through their five
per-candidate accessors.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest

from repro.algebra.sets import has_fault_value, is_singleton
from repro.algebra.values import DelayValue, PI_VALUES
from repro.circuit.netlist import Circuit, Line, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault, enumerate_delay_faults
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine
from repro.tdgen.simulation import _inject, simulate_two_frame
from repro.tdsim.cpt import DelayFaultSimulator

from tests.fausim.test_packed_differential import random_circuit
from tests.fuzz.harness import implicate, state_mismatch

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


def engines(circuit: Circuit, robust: bool = True):
    """The reference and the packed engine of one circuit."""
    return tuple(
        create_implication_engine(circuit, backend, robust=robust)
        for backend in ("reference", "packed")
    )


def assert_same_slots(got, want, message: str = "") -> None:
    """Two batches agree slot by slot on every per-candidate accessor."""
    assert len(got) == len(want)
    for index in range(len(want)):
        field = state_mismatch((got, index), (want, index))
        assert field is None, f"{message} slot {index} {field}"


def carries_fault(batch, index: int, slot: int) -> bool:
    """TDsim's verdict: signal ``slot`` surely carries ``Rc``/``Fc`` in candidate ``index``."""
    observed = batch.column_sets(index)[slot]
    return is_singleton(observed) and has_fault_value(observed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_fault_slots_bit_exact(seed, robust):
    """Every injected fault slot equals a dedicated reference pass."""
    circuit = random_circuit(seed)
    reference, packed = engines(circuit, robust)
    rng = random.Random(7000 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)

    universe = enumerate_delay_faults(circuit)
    sample = rng.sample(universe, min(len(universe), 63))
    faults: List[Optional[GateDelayFault]] = [None] + sample

    want = reference.implicate_faults(pi_values, ppi_initial, faults)
    for index in range(len(faults)):
        for slot, value_set in enumerate(want.column_sets(index)):
            assert is_singleton(value_set), f"slot {slot} not determined"
    good = implicate(packed, pi_values, ppi_initial)
    for base in (None, good):
        got = packed.implicate_faults(pi_values, ppi_initial, faults, base=base)
        assert_same_slots(got, want, f"seed {seed} base {base is not None}")


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_frame1_matches_reference(seed):
    """Every slot's initial frame is the fault-free reference frame."""
    circuit = random_circuit(seed)
    reference, packed = engines(circuit)
    rng = random.Random(8000 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)
    faults = [None] + rng.sample(enumerate_delay_faults(circuit), 3)

    want_batch, want_index = implicate(reference, pi_values, ppi_initial)
    want = want_batch.column_frame1(want_index)
    good = implicate(packed, pi_values, ppi_initial)
    for base in (None, good):
        batch = packed.implicate_faults(pi_values, ppi_initial, faults, base=base)
        for index in range(len(faults)):
            assert batch.column_frame1(index) == want


def test_fault_effect_mask(s27):
    """The slots TDsim reads a fault effect in at a PO match the reference."""
    reference, packed = engines(s27)
    rng = random.Random(11)
    universe = enumerate_delay_faults(s27)
    for _ in range(20):
        pi_values, ppi_initial = full_pattern(rng, s27)
        faults = [None] + rng.sample(universe, 10)
        want = reference.implicate_faults(pi_values, ppi_initial, faults)
        good = implicate(packed, pi_values, ppi_initial)
        got = packed.implicate_faults(pi_values, ppi_initial, faults, base=good)
        for slot in packed.compiled.po_slots:
            for index in range(len(faults)):
                assert carries_fault(got, index, slot) == carries_fault(want, index, slot)
            assert not carries_fault(got, 0, slot)


def test_value_accessors(s27):
    """A packed slot's accessors read its column.

    The fault line set is the column at the fault line (injected for a
    branch fault), every coupled PPI set is the column at its PPI (unless
    the slot's fault sits on that PPI), and a fully specified pattern has
    no conflict.
    """
    _, packed = engines(s27)
    rng = random.Random(12)
    pi_values, ppi_initial = full_pattern(rng, s27)
    faults = [None] + enumerate_delay_faults(s27)
    good = implicate(packed, pi_values, ppi_initial)
    slot_of = packed.compiled.slot_of
    for base in (None, good):
        batch = packed.implicate_faults(pi_values, ppi_initial, faults, base=base)
        assert len(batch) == len(faults)
        for index, fault in enumerate(faults):
            column = batch.column_sets(index)
            if fault is None:
                assert batch.fault_line_set(index) == 0
            else:
                line_set = column[slot_of[fault.line.signal]]
                if fault.line.is_branch:
                    line_set = _inject(line_set, fault.fault_type)
                assert batch.fault_line_set(index) == line_set, fault
            for ppi, pair_set in batch.ppi_pair_sets(index).items():
                if fault is None or fault.line.signal != ppi:
                    assert column[slot_of[ppi]] == pair_set, (fault, ppi)
            assert batch.conflict_signal(index) is None


def test_reference_accessors_are_the_interpreted_oracle(s27):
    """The reference accessors are the interpreted oracle, re-indexed by slot.

    ``column_sets``/``column_frame1`` of a reference batch must be exactly
    :func:`~repro.tdgen.simulation.simulate_two_frame`'s ``signal_sets`` and
    ``frame1`` listed in ``compiled.signal_names`` order, and the other
    accessors its fields: the reference engine stays an oracle independent
    of the compiled sweeps.
    """
    reference, packed = engines(s27)
    rng = random.Random(12)
    universe = enumerate_delay_faults(s27)
    signal_names = reference.compiled.signal_names
    assert sorted(signal_names) == sorted(
        simulate_two_frame(TDgenContext(s27), {}, {}).signal_sets
    )
    for _ in range(5):
        pi_values, ppi_initial = _partial_pattern(rng, s27)
        faults = [None] + rng.sample(universe, 4)
        batch = reference.implicate_faults(pi_values, ppi_initial, faults)
        assert len(batch) == len(faults)
        for index, fault in enumerate(faults):
            want = simulate_two_frame(reference.context, pi_values, ppi_initial, fault)
            assert batch.column_sets(index) == [
                want.signal_sets[name] for name in signal_names
            ]
            assert batch.column_frame1(index) == [want.frame1[name] for name in signal_names]
            assert batch.fault_line_set(index) == want.fault_line_set
            assert batch.ppi_pair_sets(index) == want.ppi_pair_sets
            assert batch.conflict_signal(index) == want.conflict_signal
        # The packed batch reads the same through the same accessors.
        assert_same_slots(packed.implicate_faults(pi_values, ppi_initial, faults), batch)


def _partial_pattern(rng: random.Random, circuit):
    """A random two-pattern stimulus with some inputs left unassigned."""
    pi_values, ppi_initial = full_pattern(rng, circuit)
    for name in rng.sample(sorted(pi_values), len(pi_values) // 2):
        pi_values[name] = None
    for name in rng.sample(sorted(ppi_initial), len(ppi_initial) // 2):
        ppi_initial[name] = None
    return pi_values, ppi_initial


def test_requires_fully_specified_pattern(s27):
    """TDsim's good machine rejects a partly specified pattern on both backends."""
    rng = random.Random(13)
    pi_values, ppi_initial = full_pattern(rng, s27)
    missing_pi = dict(pi_values)
    del missing_pi[s27.primary_inputs[0]]
    missing_state = dict(ppi_initial)
    del missing_state[s27.pseudo_primary_inputs[0]]
    for backend in ("reference", "packed"):
        simulator = DelayFaultSimulator(s27, backend=backend)
        with pytest.raises(ValueError, match="fully specified"):
            simulator.good_machine(missing_pi, ppi_initial)
        with pytest.raises(ValueError, match="fully specified"):
            simulator.good_machine(pi_values, missing_state)


def test_slot_count_validation(s27):
    rng = random.Random(14)
    pi_values, ppi_initial = full_pattern(rng, s27)
    for engine in engines(s27):
        with pytest.raises(ValueError):
            engine.implicate_faults(pi_values, ppi_initial, ())
    _, packed = engines(s27)
    good = implicate(packed, pi_values, ppi_initial)
    # Any number of slots fits the unbounded-width set words.
    batch = packed.implicate_faults(pi_values, ppi_initial, [None] * 100, base=good)
    assert len(batch) == 100
    assert batch.column_sets(99) == good[0].column_sets(0)


# --------------------------------------------------------------------------- #
# event-driven batches against full passes
# --------------------------------------------------------------------------- #
DELTA_SEEDS = list(range(0, 40, 3))

#: Slot kinds an event-driven batch seeds its wavefront from differently.
FAULT_KINDS = (
    "pi_stem",
    "ppi_stem",
    "gate_stem",
    "gate_branch",
    "dff_branch",
    "foreign_pin",
    "good",
)


def fault_kind(circuit: Circuit, fault: Optional[GateDelayFault]) -> str:
    """Which of :data:`FAULT_KINDS` a slot's fault is."""
    if fault is None:
        return "good"
    line = fault.line
    if line.is_branch:
        sink = circuit.gates[line.sink]
        if sink.is_dff:
            return "dff_branch"
        return "gate_branch" if sink.fanin[line.pin] == line.signal else "foreign_pin"
    if circuit.is_primary_input(line.signal):
        return "pi_stem"
    return "ppi_stem" if circuit.gates[line.signal].is_dff else "gate_stem"


def foreign_pin_faults(circuit: Circuit) -> List[GateDelayFault]:
    """Branch faults naming a gate pin that reads another signal.

    Neither engine injects them; a slot carrying one reads as the good
    machine.
    """
    faults = []
    for gate in circuit.gates.values():
        if gate.is_dff or len(gate.fanin) < 2 or gate.fanin[0] == gate.fanin[1]:
            continue
        line = Line(gate.fanin[1], LineKind.BRANCH, gate.name, 0)
        faults += [GateDelayFault(line, fault_type) for fault_type in DelayFaultType]
    return faults


def delta_batches(rng: random.Random, circuit: Circuit):
    """Injection batches of widths 1, 2 and 41 covering every slot kind.

    Width 1 is one slot of each kind, width 2 both directions of one line
    of each kind (the shape of a TDsim stem analysis), width 41 a random mix
    with good-machine slots.
    """
    pool = enumerate_delay_faults(circuit) + foreign_pin_faults(circuit) + [None]
    by_kind: Dict[str, List[Optional[GateDelayFault]]] = {kind: [] for kind in FAULT_KINDS}
    for fault in pool:
        by_kind[fault_kind(circuit, fault)].append(fault)
    batches: List[List[Optional[GateDelayFault]]] = []
    for faults in by_kind.values():
        if faults:
            fault = rng.choice(faults)
            batches.append([fault])
            partner = [
                other
                for other in faults
                if fault is not None
                and other.line == fault.line
                and other.fault_type is not fault.fault_type
            ]
            batches.append([fault] + (partner or [None]))
    batches.append(rng.choices(pool, k=41))
    return batches


def test_delta_batches_cover_every_fault_kind():
    """The differential below sees every slot kind at every width."""
    seen = set()
    for seed in DELTA_SEEDS:
        circuit = random_circuit(seed)
        rng = random.Random(9100 + seed)
        full_pattern(rng, circuit)  # the differential draws its pattern first
        for faults in delta_batches(rng, circuit):
            for fault in faults:
                seen.add((fault_kind(circuit, fault), len(faults)))
    assert seen >= {(kind, width) for kind in FAULT_KINDS for width in (1, 2, 41)}


@pytest.mark.parametrize("seed", DELTA_SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_event_driven_pass_matches_full_pass(seed, robust):
    """Every slot of a batch on the good machine reads as the full pass."""
    circuit = random_circuit(seed)
    reference, packed = engines(circuit, robust)
    rng = random.Random(9100 + seed)
    pi_values, ppi_initial = full_pattern(rng, circuit)
    good = implicate(packed, pi_values, ppi_initial)
    slot_of = packed.compiled.slot_of
    observed = [
        slot_of[signal]
        for signal in list(circuit.primary_outputs) + list(circuit.pseudo_primary_outputs)
    ]

    reached_less = False
    for faults in delta_batches(rng, circuit):
        full = packed.implicate_faults(pi_values, ppi_initial, faults)
        delta = packed.implicate_faults(pi_values, ppi_initial, faults, base=good)
        message = f"seed {seed} faults {faults}"
        assert_same_slots(delta, full, message)
        reached_less |= None in delta._set_words
        want = reference.implicate_faults(pi_values, ppi_initial, faults)
        for index in range(len(faults)):
            for slot in observed:
                assert carries_fault(delta, index, slot) == carries_fault(
                    want, index, slot
                ), message
    assert reached_less, "no batch left a signal unreached"


def test_dff_branch_fault_leaves_the_base_untouched(s27):
    """A branch into a flip-flop is not injected, so nothing is evaluated."""
    _, packed = engines(s27)
    rng = random.Random(15)
    pi_values, ppi_initial = full_pattern(rng, s27)
    good = implicate(packed, pi_values, ppi_initial)
    good_column = good[0].column_sets(0)
    faults = [
        fault
        for fault in enumerate_delay_faults(s27)
        if fault_kind(s27, fault) == "dff_branch"
    ]
    assert faults
    delta = packed.implicate_faults(pi_values, ppi_initial, faults, base=good)
    assert delta._set_written == []
    full = packed.implicate_faults(pi_values, ppi_initial, faults)
    for index in range(len(faults)):
        assert delta.column_sets(index) == good_column
        assert full.column_sets(index) == good_column


def test_base_must_be_a_fault_free_state_of_the_engine(s27):
    reference, packed = engines(s27)
    rng = random.Random(16)
    pi_values, ppi_initial = full_pattern(rng, s27)
    fault = enumerate_delay_faults(s27)[0]
    faulty = implicate(packed, pi_values, ppi_initial, fault)
    foreign = [
        faulty,
        implicate(engines(s27)[1], pi_values, ppi_initial),
        implicate(reference, pi_values, ppi_initial),
    ]
    for base in foreign:
        with pytest.raises(ValueError, match="base"):
            packed.implicate_faults(pi_values, ppi_initial, (fault,), base=base)
    # A good-machine slot of a batch is a base like the full pass.
    good = implicate(packed, pi_values, ppi_initial)
    batch = packed.implicate_faults(pi_values, ppi_initial, (fault, None), base=good)
    chained = packed.implicate_faults(pi_values, ppi_initial, (fault,), base=(batch, 1))
    assert chained.column_sets(0) == batch.column_sets(0)
