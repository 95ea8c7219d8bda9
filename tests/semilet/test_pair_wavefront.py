"""Event-driven SEMILET pair frames: same results as a full pass, and their cost.

A propagation decision's candidate batch is built from the parent view
(``base=(batch, cursor)``): the packed engine loads only the decision
variable's slot, evaluates a gate only when a fanin's pair planes left the
parent candidate's value, and runs the pair analysis (potential, provable,
D-frontier) on the same rule for the potential and provable bits.

* The differential tests chain decisions as the propagation PODEM does, each
  batch built from the previous event-driven batch, and check every
  candidate against a full pass (and against the reference interpreter),
  with the pair analysis cold and generated.
* The cost tests count ``repro_sim_gate_words_total`` (64-bit word units;
  one word per gate at these widths) through a
  :class:`~repro.obs.metrics.MetricsRegistry` on a circuit with two
  disjoint cones, so the counter shows exactly which gates a batch
  evaluated.
"""

from __future__ import annotations

import random

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.fausim import kernels
from repro.fausim.kernels import PAIR_POTENTIAL
from repro.obs.metrics import MetricsRegistry
from repro.tdgen.implication import create_implication_engine

from tests.fausim.test_packed_differential import random_circuit

SEEDS = list(range(2, 30, 3))


def _random_states(rng, circuit):
    """Captured good/faulty states that differ in some flip-flops (X allowed)."""
    good = {}
    faulty = {}
    for ppi in circuit.pseudo_primary_inputs:
        value = rng.choice([0, 1, None])
        good[ppi] = value
        faulty[ppi] = (1 - value) if value is not None and rng.random() < 0.5 else (
            rng.choice([0, 1, None]) if rng.random() < 0.3 else value
        )
    return good, faulty


def _assert_batches_equal(got, want, context):
    """Every candidate's pair codes, analysis columns and D-frontier agree."""
    assert len(got) == len(want), context
    for index in range(len(want)):
        assert got.columns(index) == want.columns(index), context
    got_analysis = got.pair_analysis()
    want_analysis = want.pair_analysis()
    assert got_analysis.potential == want_analysis.potential, context
    assert got_analysis.provable == want_analysis.provable, context
    assert got_analysis.frontier == want_analysis.frontier, context


@pytest.mark.parametrize("tier_up", [10**9, 0], ids=["cold", "generated"])
@pytest.mark.parametrize("seed", SEEDS)
def test_chained_decisions_match_full_pass(seed, tier_up, monkeypatch):
    """Chains of PI and free-PPI decisions, each from an event-driven parent."""
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", tier_up)
    monkeypatch.setattr(kernels, "CHUNK_GATES", 4)
    circuit = random_circuit(seed)
    packed = create_implication_engine(circuit, "packed")
    reference = create_implication_engine(circuit, "reference")
    rng = random.Random(7100 + seed)
    event_driven = 0
    for trial in range(3):
        good, faulty = _random_states(rng, circuit)
        pi_values = {pi: None for pi in circuit.primary_inputs}
        free = {ppi: None for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.6}
        view = (packed.pair_frame_candidates(pi_values, good, faulty, free, (None,)), 0)
        variables = [(pi, True) for pi in circuit.primary_inputs]
        variables += [(ppi, False) for ppi in free]
        rng.shuffle(variables)
        for step, (name, is_pi) in enumerate(variables[:6]):
            values = [0, 1] if is_pi or rng.random() < 0.6 else [1, None, 0]
            candidates = [(name, is_pi, value) for value in values]
            batch = packed.pair_frame_candidates(
                pi_values, good, faulty, free, candidates, base=view
            )
            assert batch._base is not None  # the event-driven path ran
            event_driven += 1
            context = f"seed {seed} trial {trial} step {step} ({name})"
            full = packed.pair_frame_candidates(pi_values, good, faulty, free, candidates)
            _assert_batches_equal(batch, full, context)
            oracle = reference.pair_frame_candidates(
                pi_values, good, faulty, free, candidates, base=view
            )
            for index in range(len(candidates)):
                assert batch.columns(index) == oracle.columns(index), context
            # Descend like the decision loop: assign one candidate's value
            # and make its view the parent of the next decision.
            cursor = rng.randrange(len(candidates))
            (pi_values if is_pi else free)[name] = candidates[cursor][2]
            view = (batch, cursor)
    assert event_driven >= 3


def test_other_shapes_keep_the_full_pass():
    """Roots, mixed variables and foreign views are evaluated in full."""
    circuit = _two_cones()
    engine = create_implication_engine(circuit, "packed")
    other = create_implication_engine(circuit, "packed")
    pi_values = {"a": None, "b": 0, "c": None, "d": None}
    good, faulty = {"q": 1}, {"q": 0}
    root = engine.pair_frame_candidates(pi_values, good, faulty, {}, (None,))
    view = (root, 0)
    for candidates, base in (
        ([None], view),
        ([("a", True, 0), ("c", True, 1)], view),
        ([("a", True, 0), None], view),
        ([("a", True, 0)], (other.pair_frame_candidates(pi_values, good, faulty, {}, (None,)), 0)),
        ([("a", True, 0)], None),
    ):
        batch = engine.pair_frame_candidates(pi_values, good, faulty, {}, candidates, base=base)
        assert batch._base is None, candidates
    # The same states by value but not by identity: not provably the
    # parent's state pair, so the pass is full.
    batch = engine.pair_frame_candidates(
        pi_values, dict(good), dict(faulty), {}, [("a", True, 0)], base=view
    )
    assert batch._base is None


# --------------------------------------------------------------------------- #
# cost
# --------------------------------------------------------------------------- #
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
    # The parent holds b at 0, so AND(a, b) is 0 whatever a is.  The
    # captured state has q = 0 in the good machine and X in the faulty one,
    # so q, and through OR(c, q) also h1 and h2, could still differ.
    pi_values = {"a": None, "b": 0, "c": None, "d": None}
    good, faulty = {"q": 0}, {"q": None}
    free = {"q": None}
    root = engine.pair_frame_candidates(pi_values, good, faulty, free, (None,))
    metrics = MetricsRegistry()
    engine.set_metrics(metrics, "propagation")
    return engine, pi_values, good, faulty, free, root, metrics


def _words(setup, candidates):
    engine, pi_values, good, faulty, free, root, metrics = setup
    before = metrics.counter_value("repro_sim_gate_words_total")
    batch = engine.pair_frame_candidates(
        pi_values, good, faulty, free, candidates, base=(root, 0)
    )
    batch.columns(0)  # runs the analysis pass too
    words = metrics.counter_value("repro_sim_gate_words_total") - before
    # Skipping gates never changes the batch.
    full = engine.pair_frame_candidates(pi_values, good, faulty, free, candidates)
    _assert_batches_equal(batch, full, str(candidates))
    return words, batch


def test_full_pass_counts_every_gate(setup):
    engine, pi_values, good, faulty, free, _, metrics = setup
    engine.pair_frame_candidates(pi_values, good, faulty, free, [("a", True, 0)])
    assert metrics.counter_value("repro_sim_gate_words_total") == engine.compiled.num_gates


def test_decision_equal_to_the_parent_evaluates_no_gate(setup):
    words, _ = _words(setup, [("b", True, 0)])
    assert words == 0


def test_decision_that_converges_after_one_gate_evaluates_that_gate(setup):
    words, batch = _words(setup, [("a", True, 0), ("a", True, 1)])
    assert words == 1
    slot_of = setup[0].compiled.slot_of
    assert batch._wave.words[slot_of["g2"]] is None  # never reached


def test_difference_bits_wake_gates_past_converged_planes(setup):
    # q = 0 in both machines leaves OR(c, q) at X/X, as in the parent, but
    # h1 can no longer differ: its potential bit changes, so AND(h1, d) is
    # evaluated too, and cone A is never reached.
    words, batch = _words(setup, [("q", False, 0)])
    assert words == 2
    engine, _, _, _, _, root, _ = setup
    slot_of = engine.compiled.slot_of
    assert batch._wave.words[slot_of["g1"]] is None
    for name in ("h1", "h2"):
        assert root.columns(0).codes[slot_of[name]] & PAIR_POTENTIAL
        assert not batch.columns(0).codes[slot_of[name]] & PAIR_POTENTIAL


def test_repeated_decision_from_the_same_view_reuses_its_batch(setup):
    # A dead end steps back to the parent's view, and the search decides
    # the same variable again: the batch it already implied is returned.
    engine, pi_values, good, faulty, free, root, metrics = setup
    candidates = [("a", True, 0), ("a", True, 1)]
    first = engine.pair_frame_candidates(
        pi_values, good, faulty, free, candidates, base=(root, 0)
    )
    before = metrics.counter_value("repro_sim_gate_words_total")
    again = engine.pair_frame_candidates(
        pi_values, good, faulty, free, list(candidates), base=(root, 0)
    )
    assert again is first
    assert metrics.counter_value("repro_sim_gate_words_total") == before
    # Another decision in between, or another view, is implied afresh.
    engine.pair_frame_candidates(
        pi_values, good, faulty, free, [("c", True, 0), ("c", True, 1)], base=(root, 0)
    )
    assert engine.pair_frame_candidates(
        pi_values, good, faulty, free, candidates, base=(root, 0)
    ) is not first
    # The same decision from another view of the batch is another batch.
    decision = [("q", False, 0), ("q", False, 1)]
    from_zero = engine.pair_frame_candidates(
        {**pi_values, "a": 0}, good, faulty, free, decision, base=(first, 0)
    )
    from_one = engine.pair_frame_candidates(
        {**pi_values, "a": 1}, good, faulty, free, decision, base=(first, 1)
    )
    assert from_one is not from_zero
    full = engine.pair_frame_candidates({**pi_values, "a": 1}, good, faulty, free, decision)
    _assert_batches_equal(from_one, full, "from the second view")
