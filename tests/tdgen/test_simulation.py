"""Two-frame eight-valued forward implication with fault injection."""

import pytest

from repro.algebra.sets import is_singleton, members, set_of, single_value
from repro.algebra.values import F, FC, H0, H1, R, RC, V0, V1
from repro.circuit.netlist import Line, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.tdgen.context import TDgenContext
from repro.tdgen.simulation import (
    branch_fault_key,
    branch_injected_input_sets,
    good_machine_values,
    simulate_two_frame,
)


def test_fault_free_full_assignment(and_chain):
    context = TDgenContext(and_chain)
    values = good_machine_values(context, {"a": R, "b": V1, "c": V0}, {})
    assert values["ab"] is R
    assert values["bc"] is V0
    assert values["y"] is R


def test_unassigned_inputs_give_full_pi_sets(and_chain):
    context = TDgenContext(and_chain)
    state = simulate_two_frame(context, {}, {})
    assert members(state.signal_sets["a"]) == [V0, V1, R, F]
    assert not is_singleton(state.signal_sets["y"])


def test_partial_assignment_narrows_sets(and_chain):
    context = TDgenContext(and_chain)
    state = simulate_two_frame(context, {"b": V0}, {})
    # b = 0 forces both AND gates and the output to a clean zero.
    assert state.signal_sets["y"] == set_of(V0)


def test_stem_fault_injection(and_chain):
    context = TDgenContext(and_chain)
    fault = GateDelayFault(Line("ab"), DelayFaultType.SLOW_TO_RISE)
    state = simulate_two_frame(context, {"a": R, "b": V1, "c": V0}, {}, fault)
    assert single_value(state.signal_sets["ab"]) is RC
    assert single_value(state.signal_sets["y"]) is RC
    assert single_value(state.fault_line_set) is RC


def test_branch_fault_injection_only_affects_one_sink(s27):
    context = TDgenContext(s27)
    # G8 fans out to G15 and G16; fault only on the branch to G15.
    fault = GateDelayFault(Line("G8", LineKind.BRANCH, "G15", 1), DelayFaultType.SLOW_TO_RISE)
    # G0 = F makes G14 rise; with the state (0, 1, 0) and G3 = 1 the initial
    # frame drives G11 to 1, so G6 stays at 1 and G8 = AND(G14, G6) rises.
    pi_values = {"G0": F, "G1": V0, "G2": V0, "G3": V1}
    ppi_initial = {"G5": 0, "G6": 1, "G7": 0}
    state = simulate_two_frame(context, pi_values, ppi_initial, fault)
    # The stem set itself is not fault carrying...
    assert not any(value.fault for value in members(state.signal_sets["G8"]))
    # ...but the faulted branch view is.
    key = branch_fault_key(fault)
    inputs_g15 = branch_injected_input_sets(s27.gate("G15"), state.signal_sets, fault, key)
    assert any(value.fault for value in members(inputs_g15[1]))
    inputs_g16 = branch_injected_input_sets(s27.gate("G16"), state.signal_sets, fault, key)
    assert not any(value.fault for value in members(inputs_g16[1]))


def test_activation_requires_matching_transition(and_chain):
    context = TDgenContext(and_chain)
    fault = GateDelayFault(Line("ab"), DelayFaultType.SLOW_TO_RISE)
    # ab is falling, so an StR fault is not provoked and no Rc appears.
    state = simulate_two_frame(context, {"a": F, "b": V1, "c": V0}, {}, fault)
    assert single_value(state.signal_sets["ab"]) is F
    assert not any(value.fault for value in members(state.signal_sets["y"]))


def test_state_register_coupling(toggle_ff):
    """The PPI's final value equals the PPO's initial-frame value."""
    context = TDgenContext(toggle_ff)
    # enable pair = R (0 then 1); initial q = 1.
    # Frame 1: next_q = enable XOR q = 0 XOR 1 = 1, so q's final value is 1:
    # the PPI pair must be steady 1.
    state = simulate_two_frame(context, {"enable": R}, {"q": 1})
    assert single_value(state.ppi_pair_sets["q"]) is V1
    # With initial q = 0: frame 1 next_q = 0, so q stays 0.
    state = simulate_two_frame(context, {"enable": R}, {"q": 0})
    assert single_value(state.ppi_pair_sets["q"]) is V0


def test_state_register_coupling_transition(s27):
    """A PPI may legitimately see a transition between the two frames."""
    context = TDgenContext(s27)
    pi_values = {"G0": V1, "G1": V0, "G2": V1, "G3": V0}
    ppi_initial = {"G5": 0, "G6": 0, "G7": 1}
    state = simulate_two_frame(context, pi_values, ppi_initial, None)
    for ppi in ("G5", "G6", "G7"):
        value = single_value(state.ppi_pair_sets[ppi])
        assert value.initial == ppi_initial[ppi]
        # final value must equal the PPO's initial-frame value
        ppo = s27.ppo_of_ppi(ppi)
        assert value.final == state.frame1[ppo]


def test_unassigned_ppi_initial_keeps_all_options(toggle_ff):
    context = TDgenContext(toggle_ff)
    state = simulate_two_frame(context, {"enable": V0}, {})
    # q's initial value is unknown, so its frame-1 next value is unknown too;
    # the conservative implication keeps all four hazard-free candidates (the
    # init/final correlation through the unknown is intentionally not tracked).
    assert set(members(state.ppi_pair_sets["q"])) == {V0, V1, R, F}
    # Once the initial value is decided, the coupling rule pins the pair down.
    state = simulate_two_frame(context, {"enable": V0}, {"q": 1})
    assert members(state.ppi_pair_sets["q"]) == [V1]


def test_good_machine_values_requires_full_assignment(and_chain):
    context = TDgenContext(and_chain)
    with pytest.raises(ValueError):
        good_machine_values(context, {"a": R, "b": V1}, {})


def test_hazard_generation_through_reconvergence():
    """R AND F produces a hazardous steady zero (0h)."""
    from repro.circuit.builder import CircuitBuilder

    builder = CircuitBuilder("hazard")
    builder.inputs(["a", "b"])
    builder.and_("y", ["a", "b"])
    builder.output("y")
    circuit = builder.build()
    context = TDgenContext(circuit)
    values = good_machine_values(context, {"a": R, "b": F}, {})
    assert values["y"] is H0


def test_has_conflict_flag(and_chain):
    context = TDgenContext(and_chain)
    state = simulate_two_frame(context, {"a": R, "b": V1, "c": V0}, {})
    assert not state.has_conflict()
    assert state.definite_value("y") is R
    assert state.definite_value("a") is R
