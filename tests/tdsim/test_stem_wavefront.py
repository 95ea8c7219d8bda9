"""What one TDsim stem analysis costs: the gates its fault effect reaches.

A stem analysis is an event-driven batch on the pattern's good machine
(:meth:`~repro.tdgen.implication.ImplicationEngine.implicate_faults` with
``base=``): it evaluates a gate only when one of its inputs left the good
value, and skips the initial frame.  The circuit below has two disjoint
cones, so the ``repro_wavefront_gates_evaluated_total`` counter of a
:class:`~repro.obs.metrics.MetricsRegistry`, read at the engine's
``site="tdsim"`` label, shows exactly which gates a batch evaluated.  Each stem is analysed once per
:meth:`DelayFaultSimulator.simulate` call, however many observation points
reach it.
"""

from __future__ import annotations

import pytest

from repro.algebra.sets import has_fault_value
from repro.algebra.values import F, R, V0, V1
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Line
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.obs.metrics import MetricsRegistry
from repro.tdgen.implication import create_implication_engine
from repro.tdsim.cpt import DelayFaultSimulator

from tests.fuzz.harness import implicate

EVALUATED = "repro_wavefront_gates_evaluated_total"
GATE_WORDS = "repro_sim_gate_words_total"


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


def _evaluated(engine, pi_values, faults, base):
    metrics = engine.metrics
    before = metrics.counter_value(EVALUATED, site="tdsim")
    batch = engine.implicate_faults(pi_values, {"q": 0}, faults, base=base)
    evaluated = metrics.counter_value(EVALUATED, site="tdsim") - before
    # Skipping gates never changes what the batch computes.
    full = engine.implicate_faults(pi_values, {"q": 0}, faults)
    for index in range(len(faults)):
        assert batch.column_sets(index) == full.column_sets(index)
    return evaluated, batch


def _fault_slots(engine, batch, signal):
    """The slots in which ``signal`` carries a fault effect, as a bit mask."""
    slot = engine.compiled.slot_of[signal]
    return sum(
        1 << index
        for index in range(len(batch))
        if has_fault_value(batch.column_sets(index)[slot])
    )


@pytest.fixture
def engine():
    engine = create_implication_engine(_two_cones(), "packed")
    engine.set_metrics(MetricsRegistry(), site="tdsim")
    return engine


def test_full_pass_counts_both_frames(engine):
    metrics = engine.metrics
    implicate(engine, {"a": R, "b": V0, "c": F, "d": V1}, {"q": 0})
    # The initial frame counts in gate words, the test frame in wavefront
    # gates; a full pass evaluates every gate in each.
    assert metrics.counter_value(GATE_WORDS) == engine.compiled.num_gates
    assert metrics.counter_value(EVALUATED, site="tdsim") == engine.compiled.num_gates


def test_stem_blocked_at_its_first_gate_evaluates_that_gate(engine):
    # b holds a stable 0, so AND(a, b) masks the transition on a.
    pi_values = {"a": R, "b": V0, "c": F, "d": V1}
    good = implicate(engine, pi_values, {"q": 0})
    evaluated, batch = _evaluated(engine, pi_values, _stem("a"), good)
    assert evaluated == 1
    assert _fault_slots(engine, batch, "g2") == 0
    assert batch._set_words[engine.compiled.slot_of["h2"]] is None


def test_stem_effect_evaluates_the_gates_it_reaches(engine):
    pi_values = {"a": R, "b": V1, "c": F, "d": V1}
    good = implicate(engine, pi_values, {"q": 0})
    evaluated, batch = _evaluated(engine, pi_values, _stem("g1"), good)
    assert evaluated == 2  # g1 (the gate of the stem) and g2
    assert _fault_slots(engine, batch, "g2") == 0b01
    evaluated, _ = _evaluated(engine, pi_values, (None, None), good)
    assert evaluated == 0


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
