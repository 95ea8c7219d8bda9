"""The fault cone: TDgen's per-decision scans may stop at its edge.

A fault value (``Rc``/``Fc``) is created only by the injection move, and no
gate table maps fault-free inputs to one, so outside the transitive fanout
of the injection site no possibility set holds a fault value.
:meth:`repro.tdgen.search.SearchKernels.fault_cone` computes that fanout once
per search; the D-frontier scan (``propagation_objective``) and TDgen's
classification scan only the cone.  These tests check the table invariant
exhaustively, and check both cone-bounded scans against full-scan oracles
(the harness's :func:`~tests.fuzz.harness.full_scan_objective`, and
:func:`full_scan_classify` here) for every fault of several circuits, on
both backends, on the root batch and on decision batches.
"""

from __future__ import annotations

import itertools

import pytest

from repro.algebra.packed_sets import _SET_IMAGES, NOT_IMAGE
from repro.algebra.sets import PI_SET, has_fault_value, is_singleton, single_value
from repro.algebra.tables import evaluate_delay_gate
from repro.algebra.values import ALL_VALUES, PI_VALUES
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Line, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault, enumerate_delay_faults
from repro.fausim.backends import available_backends
from repro.tdgen.engine import TDgen
from repro.tdgen.simulation import FAULT_MASK, _ppi_pair_set

from tests.fausim.test_packed_differential import random_circuit
from tests.fuzz.harness import full_scan_objective

FAULT_FREE = [value for value in ALL_VALUES if not value.fault]
FAULT_FREE_SET = sum(value.mask for value in FAULT_FREE)


# --------------------------------------------------------------------------- #
# the invariant
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
def test_no_table_maps_fault_free_inputs_to_a_fault_value(robust):
    for gate_type in GateType:
        if gate_type in (GateType.INPUT, GateType.DFF):
            continue
        arities = (1,) if gate_type in (GateType.NOT, GateType.BUF) else (1, 2, 3)
        for arity in arities:
            for inputs in itertools.product(FAULT_FREE, repeat=arity):
                output = evaluate_delay_gate(gate_type, list(inputs), robust)
                assert not output.fault, (gate_type, inputs, robust)


@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
def test_no_set_image_maps_fault_free_sets_to_a_fault_value(robust):
    """The packed sweep's images agree: fault-free sets stay fault free."""
    fault_free_sets = [
        value_set for value_set in range(256) if not value_set & ~FAULT_FREE_SET
    ]
    for image in _SET_IMAGES[robust]:
        if image is None:
            continue
        for a in fault_free_sets:
            for b in fault_free_sets:
                assert not image[(a << 8) | b] & FAULT_MASK
    assert all(not NOT_IMAGE[value_set] & FAULT_MASK for value_set in fault_free_sets)


def test_source_sets_hold_no_fault_value():
    assert not PI_SET & FAULT_MASK
    for initial, final in itertools.product((None, 0, 1), repeat=2):
        assert not _ppi_pair_set(initial, final) & FAULT_MASK


# --------------------------------------------------------------------------- #
# the full-scan classification oracle
# --------------------------------------------------------------------------- #
def full_scan_classify(tdgen, state, fault, constraints, blocked, allow_ppo, unreachable):
    """TDgen's classification with the X-path and success tests over every
    observation signal, read by name (the scan the cone bounds)."""
    if state.has_conflict():
        return "conflict"
    for blocked_state in unreachable:
        if all(
            is_singleton(state.ppi_pair_sets.get(ppi, 0))
            and single_value(state.ppi_pair_sets[ppi]).initial == value
            for ppi, value in blocked_state.items()
        ):
            return "conflict"
    if not state.fault_line_set & fault.fault_value.mask:
        return "conflict"
    for ppo, value in constraints.items():
        if not tdgen._constraint_possible(state.signal_sets[ppo], value):
            return "conflict"
    observation = tdgen._observation_signals(blocked, allow_ppo)
    sets = [state.signal_sets[signal] for signal in observation]
    if not any(has_fault_value(value_set) for value_set in sets):
        return "conflict"
    if any(is_singleton(value_set) and has_fault_value(value_set) for value_set in sets):
        if all(
            tdgen._constraint_satisfied(state.signal_sets[ppo], value)
            for ppo, value in constraints.items()
        ):
            return "success"
    return "continue"


# --------------------------------------------------------------------------- #
# circuits
# --------------------------------------------------------------------------- #
def _observed_sources():
    """A PI and a PPI that are primary outputs, and a branch into a flip-flop.

    ``a`` fans out to ``g`` and to the data pin of ``q``; ``q`` is both a
    flip-flop output and a primary output, and so is the input ``a``.
    """
    builder = CircuitBuilder("observed_sources")
    builder.inputs(["a", "b"])
    builder.dff("q", "a")
    builder.dff("p", "g")
    builder.and_("g", ["a", "q"])
    builder.xor("h", ["g", "p", "b"])
    builder.outputs(["a", "q", "h"])
    return builder.build()


def _reconvergent():
    """Three-input gates, an inverter chain and reconvergent fanout."""
    builder = CircuitBuilder("reconvergent")
    builder.inputs(["a", "b", "c"])
    builder.dff("q", "o2")
    builder.gate(GateType.NAND, "n1", ["a", "b", "q"])
    builder.not_("n2", "n1")
    builder.buf("n3", "n2")
    builder.gate(GateType.NOR, "o1", ["n3", "c", "a"])
    builder.gate(GateType.XNOR, "o2", ["n1", "o1"])
    builder.outputs(["o1", "o2"])
    return builder.build()


def _circuits(s27):
    return [s27, _observed_sources(), _reconvergent(), random_circuit(3), random_circuit(11)]


def _decision_states(tdgen, fault, turn):
    """The root state and a chain of decision batches, as TDgen opens them.

    Every primary input, then every pseudo primary input, is decided in
    turn; each batch holds all values of its variable and is implied off a
    conflict-free candidate of the batch before (chosen by ``turn``).
    """
    circuit = tdgen.circuit
    pi_values = {pi: None for pi in circuit.primary_inputs}
    ppi_initial = {ppi: None for ppi in circuit.pseudo_primary_inputs}
    engine = tdgen.implication
    base = engine.implicate_candidates(pi_values, ppi_initial, fault, (None,)).state(0)
    states = [base]
    decisions = [("pi", pi, PI_VALUES, pi_values) for pi in circuit.primary_inputs]
    decisions += [
        ("ppi", ppi, (0, 1), ppi_initial) for ppi in circuit.pseudo_primary_inputs
    ]
    for step, (kind, name, domain, assignment) in enumerate(decisions):
        batch = engine.implicate_candidates(
            pi_values, ppi_initial, fault,
            [(kind, name, value) for value in domain], base=base,
        )
        batch_states = [batch.state(index) for index in range(len(batch))]
        states += batch_states
        order = [(turn + step + offset) % len(domain) for offset in range(len(domain))]
        chosen = next((index for index in order if not batch_states[index].has_conflict()), None)
        if chosen is None:
            break
        assignment[name] = domain[chosen]
        base = batch_states[chosen]
    return states


@pytest.mark.parametrize("backend", available_backends())
def test_cone_scans_equal_full_scans_for_every_fault(s27, backend):
    for circuit in _circuits(s27):
        tdgen = TDgen(circuit, backend=backend)
        kernels = tdgen.search
        signal_names = kernels.compiled.signal_names
        for number, fault in enumerate(enumerate_delay_faults(circuit)):
            cone = kernels.fault_cone(fault)
            allow_ppo = number % 3 != 2
            blocked = {circuit.primary_outputs[0]} if number % 4 == 1 else set()
            slots = tdgen._observation_slots(fault, blocked, allow_ppo)
            for state in _decision_states(tdgen, fault, number):
                context = (circuit.name, backend, str(fault))
                column = kernels.state_column(state)
                # The invariant itself: nothing outside the cone holds a
                # fault value.
                assert all(
                    not column[slot] & FAULT_MASK
                    for slot in range(len(column))
                    if slot not in cone.slots
                ), (context, [signal_names[slot] for slot in range(len(column))
                              if column[slot] & FAULT_MASK])
                assert tdgen._classify(
                    state, fault, {}, slots, []
                ) == full_scan_classify(
                    tdgen, state, fault, {}, blocked, allow_ppo, []
                ), context
                if not state.has_conflict():
                    assert kernels.propagation_objective(
                        state, fault
                    ) == full_scan_objective(kernels, state, fault), context


def test_named_edge_cases():
    circuit = _observed_sources()
    tdgen = TDgen(circuit, backend="packed")
    kernels = tdgen.search
    compiled = kernels.compiled
    slot_of = compiled.slot_of
    str_ = DelayFaultType.SLOW_TO_RISE

    # A PPI stem: the PPI's slot and everything it reaches.
    cone = kernels.fault_cone(GateDelayFault(Line("q"), str_))
    assert cone.slots == {slot_of["q"], slot_of["g"], slot_of["h"]}
    assert [compiled.outputs[gate] for gate in cone.gates] == [slot_of["g"], slot_of["h"]]
    assert cone.branch_position is None

    # A PO that is also a PI (and one that is a PPI): its own slot is an
    # observation slot of its stem fault.
    for source in ("a", "q"):
        fault = GateDelayFault(Line(source), str_)
        assert slot_of[source] in tdgen._observation_slots(fault, set(), True)

    # A branch into a flip-flop data pin owns no injection: the cone is empty
    # and no observation slot remains.
    into_dff = GateDelayFault(Line("a", LineKind.BRANCH, "q", 0), str_)
    assert into_dff in enumerate_delay_faults(circuit)
    cone = kernels.fault_cone(into_dff)
    assert cone.gates == () and cone.slots == frozenset()
    assert cone.branch_position is None
    assert tdgen._observation_slots(into_dff, set(), True) == ()

    # A branch into a gate: the sink gate and its fanout, not the stem.
    branch = GateDelayFault(Line("a", LineKind.BRANCH, "g", 0), str_)
    cone = kernels.fault_cone(branch)
    assert slot_of["a"] not in cone.slots
    assert cone.slots == {slot_of["g"], slot_of["h"]}
    assert cone.branch_position == compiled.fanin_offsets[compiled.gate_index_of[slot_of["g"]]]


def test_the_last_cone_is_memoised_per_fault():
    circuit = _reconvergent()
    kernels = TDgen(circuit, backend="packed").search
    first, second = enumerate_delay_faults(circuit)[:2]
    cone = kernels.fault_cone(first)
    assert kernels.fault_cone(GateDelayFault(first.line, first.fault_type)) is cone
    assert kernels.fault_cone(second) is not cone


@pytest.mark.parametrize("backend", available_backends())
def test_every_scan_of_a_search_equals_the_full_scan(s27, backend, monkeypatch):
    """The states TDgen's own searches reach, checked call by call."""
    calls = {"classify": 0, "objective": 0}
    for circuit in _circuits(s27):
        tdgen = TDgen(circuit, backend=backend, backtrack_limit=20)
        kernels = tdgen.search
        cone_objective = kernels.propagation_objective
        cone_classify = tdgen._classify

        def objective(state, fault):
            got = cone_objective(state, fault)
            assert got == full_scan_objective(kernels, state, fault), str(fault)
            calls["objective"] += got is not None
            return got

        def classify(state, fault, constraints, slots, unreachable):
            got = cone_classify(state, fault, constraints, slots, unreachable)
            assert got == full_scan_classify(
                tdgen, state, fault, constraints, set(), True, unreachable
            ), str(fault)
            calls["classify"] += 1
            return got

        monkeypatch.setattr(kernels, "propagation_objective", objective)
        monkeypatch.setattr(tdgen, "_classify", classify)
        for fault in enumerate_delay_faults(circuit):
            tdgen.generate(fault)
    assert calls["objective"] and calls["classify"]
