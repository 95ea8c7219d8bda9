"""What one TDsim stem analysis costs: the gates its fault effect reaches.

A stem analysis is an event-driven two-frame pass on the pattern's
good-machine pass: it evaluates a gate only when one of its inputs left the
good value, and skips the initial frame.  The circuit below has two disjoint
cones, so the ``repro_sim_gate_words_total`` counter of a
:class:`~repro.obs.metrics.MetricsRegistry` (64-bit word units; one word per
gate at these widths) shows exactly which gates a pass evaluated.  Each stem
is analysed once per :meth:`DelayFaultSimulator.simulate` call, however many
observation points reach it.
"""

from __future__ import annotations

import pytest

from repro.algebra.values import F, R, V0, V1
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Line
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.fausim.packed_two_frame import PackedTwoFrameSimulator
from repro.obs.metrics import MetricsRegistry
from repro.tdsim.cpt import DelayFaultSimulator


def _two_cones():
    """Cone A: ``g1 = AND(a, b)``, ``g2 = NOT(g1)``.  Cone B: ``h1 = OR(c, q)``,
    ``h2 = AND(h1, d)`` with the flip-flop ``q`` latching ``h2``."""
    builder = CircuitBuilder("two_cones")
    builder.inputs(["a", "b", "c", "d"])
    builder.and_("g1", ["a", "b"])
    builder.not_("g2", "g1")
    builder.dff("q", "h2")
    builder.or_("h1", ["c", "q"])
    builder.and_("h2", ["h1", "d"])
    builder.outputs(["g2", "h2"])
    return builder.build()


def _stem(signal):
    return (
        GateDelayFault(Line(signal), DelayFaultType.SLOW_TO_RISE),
        GateDelayFault(Line(signal), DelayFaultType.SLOW_TO_FALL),
    )


def _words(simulator, metrics, pi_values, faults, base):
    before = metrics.counter_value("repro_sim_gate_words_total")
    result = simulator.simulate(pi_values, {"q": 0}, faults, base=base)
    words = metrics.counter_value("repro_sim_gate_words_total") - before
    # Skipping gates never changes what the pass computes.
    full = simulator.simulate(pi_values, {"q": 0}, faults)
    for pattern in range(len(faults)):
        assert result.values_for_pattern(pattern) == full.values_for_pattern(pattern)
    return words, result


@pytest.fixture
def simulator():
    simulator = PackedTwoFrameSimulator(_two_cones())
    simulator.metrics = MetricsRegistry()
    return simulator


def test_full_pass_counts_both_frames(simulator):
    words, _ = _words(
        simulator, simulator.metrics, {"a": R, "b": V0, "c": F, "d": V1}, (None,), None
    )
    assert words == 2 * simulator.compiled.num_gates


def test_stem_blocked_at_its_first_gate_evaluates_that_gate(simulator):
    # b holds a stable 0, so AND(a, b) masks the transition on a.
    pi_values = {"a": R, "b": V0, "c": F, "d": V1}
    good = simulator.simulate(pi_values, {"q": 0}, (None,))
    words, result = _words(simulator, simulator.metrics, pi_values, _stem("a"), good)
    assert words == 1
    assert result.fault_effect_mask("g2") == 0
    assert result.planes[simulator.compiled.slot_of["h2"]] is None


def test_stem_effect_evaluates_the_gates_it_reaches(simulator):
    pi_values = {"a": R, "b": V1, "c": F, "d": V1}
    good = simulator.simulate(pi_values, {"q": 0}, (None,))
    words, result = _words(simulator, simulator.metrics, pi_values, _stem("g1"), good)
    assert words == 2  # g1 (the stem's driver) and g2
    assert result.fault_effect_mask("g2") == 0b01
    words, _ = _words(simulator, simulator.metrics, pi_values, (None, None), good)
    assert words == 0


def test_each_stem_is_analysed_once_per_pattern():
    """Two primary outputs reach the stem ``a``; one pass answers both."""
    builder = CircuitBuilder("shared_stem")
    builder.inputs(["a", "b", "c"])
    builder.and_("o1", ["a", "b"])
    builder.or_("o2", ["a", "c"])
    builder.outputs(["o1", "o2"])
    circuit = builder.build()
    pi_values = {"a": R, "b": V1, "c": V0}
    detections = {}
    for backend in ("packed", "reference"):
        metrics = MetricsRegistry()
        simulator = DelayFaultSimulator(circuit, metrics=metrics, backend=backend)
        detections[backend] = [
            (detection.fault, detection.observation_point)
            for detection in simulator.simulate(pi_values, {})
        ]
        assert metrics.counter_value("repro_tdsim_stem_analyses_total") == 1
    assert detections["packed"] == detections["reference"]
    assert (GateDelayFault(Line("a"), DelayFaultType.SLOW_TO_RISE), "o1") in detections[
        "packed"
    ]
