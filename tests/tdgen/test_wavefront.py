"""What one incremental TDgen sweep costs: the gates its wavefronts reach.

An incremental sweep (a candidate batch over one decision variable, started
from the parent decision's view) evaluates a gate in either frame only when
one of its inputs left the parent's value.  The circuit below has two
disjoint cones, so the counters of the engine's metrics registry show
exactly which gates a sweep touched:

* ``repro_wavefront_gates_evaluated_total`` — test-frame (set word) gates,
  read at the engine's ``site="tdgen"`` label;
* ``repro_sim_gate_words_total`` — initial-frame (three-valued) gates, in
  64-bit word units (one word per gate at these widths);
* ``repro_wavefront_gates_skipped_total`` — program gates the set sweep did
  not evaluate (same label).
"""

from __future__ import annotations

import pytest

from repro.algebra.values import PI_VALUES, V0
from repro.circuit.builder import CircuitBuilder
from repro.obs.metrics import MetricsRegistry
from repro.tdgen.implication import create_implication_engine

from tests.fuzz.harness import implicate, state_mismatch


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


@pytest.fixture
def setup():
    circuit = _two_cones()
    engine = create_implication_engine(circuit, "packed")
    # The parent holds b at a stable 0, so AND(a, b) is 0 whatever a is.
    pi_values = {"a": None, "b": V0, "c": None, "d": None}
    ppi_initial = {"q": None}
    parent = implicate(engine, pi_values, ppi_initial)
    metrics = MetricsRegistry()
    engine.set_metrics(metrics, "tdgen")
    return engine, pi_values, ppi_initial, parent, metrics


def _sweep(setup, candidates):
    engine, pi_values, ppi_initial, parent, metrics = setup
    states = engine.implicate_candidates(
        pi_values, ppi_initial, None, candidates, base=parent
    )
    counts = (
        metrics.counter_value("repro_wavefront_gates_evaluated_total", site="tdgen"),
        metrics.counter_value("repro_sim_gate_words_total"),
        metrics.counter_value("repro_wavefront_gates_skipped_total", site="tdgen"),
    )
    # Skipping gates never changes what the sweep implies.
    full = engine.implicate_candidates(pi_values, ppi_initial, None, candidates)
    for index in range(len(candidates)):
        assert state_mismatch((states, index), (full, index)) is None
    return counts


def test_candidate_equal_to_the_parent_evaluates_no_gate(setup):
    engine = setup[0]
    evaluated, frame1_words, skipped = _sweep(setup, [("pi", "b", V0)])
    assert (evaluated, frame1_words) == (0, 0)
    assert skipped == engine.compiled.num_gates


def test_change_that_converges_after_one_gate_evaluates_that_gate(setup):
    engine = setup[0]
    evaluated, frame1_words, skipped = _sweep(
        setup, [("pi", "a", value) for value in PI_VALUES]
    )
    assert (evaluated, frame1_words) == (1, 1)
    assert skipped == engine.compiled.num_gates - 1
