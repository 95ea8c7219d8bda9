"""Random-sequence and enhanced-scan baselines."""

import pytest

from repro.baselines.random_atpg import RandomSequenceATPG
from repro.baselines.scan_atpg import EnhancedScanATPG, scan_model
from repro.circuit.gates import GateType
from repro.faults.model import enumerate_delay_faults


# --------------------------------------------------------------------------- #
# scan model transformation
# --------------------------------------------------------------------------- #
def test_scan_model_structure(s27):
    model = scan_model(s27)
    # Flip-flop outputs become primary inputs.
    assert set(model.primary_inputs) == set(s27.primary_inputs) | {"G5", "G6", "G7"}
    # Flip-flop data inputs become observable outputs.
    assert set(model.primary_outputs) == set(s27.primary_outputs) | {"G10", "G11", "G13"}
    assert not model.flip_flops
    assert all(gate.gate_type is not GateType.DFF for gate in model.gates.values())
    # The combinational gates are untouched.
    assert len(model.combinational_gates) == len(s27.combinational_gates)


def test_scan_model_does_not_duplicate_outputs(resettable_ff):
    model = scan_model(resettable_ff)
    assert len(model.primary_outputs) == len(set(model.primary_outputs))


# --------------------------------------------------------------------------- #
# enhanced-scan baseline
# --------------------------------------------------------------------------- #
def test_enhanced_scan_dominates_non_scan_testability(s27):
    """With full state access every non-scan-testable fault stays testable."""
    from repro.core.flow import SequentialDelayATPG

    scan = EnhancedScanATPG(s27).run()
    non_scan = SequentialDelayATPG(s27).run()
    assert scan.total_faults == non_scan.total_faults
    assert scan.tested >= non_scan.tested
    # On s27 the scan assumption removes the sequential untestability almost
    # entirely; the robust-combinational untestable faults remain.
    assert scan.untestable <= non_scan.untestable + non_scan.aborted
    assert 0.0 <= scan.fault_coverage <= 1.0
    assert scan.fault_efficiency >= scan.fault_coverage


def test_enhanced_scan_pattern_accounting(s27):
    result = EnhancedScanATPG(s27).run(max_target_faults=5)
    assert result.pattern_count <= 2 * 5
    assert result.tested + result.untestable + result.aborted == result.total_faults


@pytest.mark.parametrize("backend", ["reference", "packed"])
def test_enhanced_scan_expected_responses(s27, backend):
    """Every tested fault yields a pattern whose response is the good value."""
    from repro.fausim.logic_sim import LogicSimulator

    atpg = EnhancedScanATPG(s27, backend=backend)
    result = atpg.run(max_target_faults=10)
    assert len(result.patterns) == result.tested
    oracle = LogicSimulator(atpg.model)
    for pattern in result.patterns:
        # Fully specified vectors over the scan model's inputs.
        assert set(pattern.initial) == set(atpg.model.primary_inputs)
        assert set(pattern.final) == set(atpg.model.primary_inputs)
        assert set(pattern.expected_response) == set(atpg.model.primary_outputs)
        # The recorded response is the reference good-machine value of v2.
        values = oracle.combinational(pattern.final, {})
        for po, expected in pattern.expected_response.items():
            assert expected == values[po]


def test_enhanced_scan_backends_agree(s27):
    reference = EnhancedScanATPG(s27, backend="reference").run(max_target_faults=8)
    packed = EnhancedScanATPG(s27, backend="packed").run(max_target_faults=8)
    assert reference.tested == packed.tested
    assert [p.expected_response for p in reference.patterns] == [
        p.expected_response for p in packed.patterns
    ]


# --------------------------------------------------------------------------- #
# random baseline
# --------------------------------------------------------------------------- #
def test_random_baseline_detects_some_faults(s27):
    baseline = RandomSequenceATPG(s27, sequence_length=6, seed=11)
    result = baseline.run(max_sequences=25)
    assert result.total_faults == len(enumerate_delay_faults(s27))
    assert 0 < result.detected <= result.total_faults
    assert result.sequences_applied <= 25
    assert result.pattern_count == result.sequences_applied * 6
    assert 0.0 < result.fault_coverage <= 1.0


def test_random_baseline_is_reproducible(s27):
    first = RandomSequenceATPG(s27, sequence_length=5, seed=3).run(max_sequences=10)
    second = RandomSequenceATPG(s27, sequence_length=5, seed=3).run(max_sequences=10)
    assert first.detected == second.detected
    assert first.pattern_count == second.pattern_count


@pytest.mark.parametrize("seed", [3, 11])
def test_random_baseline_backends_agree(s27, seed):
    """The live-mask grading loop detects the same faults on both backends.

    A coverage target makes the number of applied sequences depend on every
    sequence's detections, so a grading difference shows in both counts.
    """
    runs = [
        RandomSequenceATPG(s27, sequence_length=6, seed=seed, backend=backend).run(
            max_sequences=40, target_coverage=0.5
        )
        for backend in ("reference", "packed")
    ]
    reference, packed = runs
    assert reference.detected > 0
    assert packed.detected == reference.detected
    assert packed.sequences_applied == reference.sequences_applied
    assert packed.pattern_count == reference.pattern_count


def test_random_baseline_rejects_too_short_sequences(s27):
    with pytest.raises(ValueError):
        RandomSequenceATPG(s27, sequence_length=1)


def test_deterministic_atpg_beats_random_on_s27(s27):
    """The headline comparison: FOGBUSTER coverage > random coverage at a
    comparable pattern budget."""
    from repro.core.flow import SequentialDelayATPG

    deterministic = SequentialDelayATPG(s27).run()
    random_budget = max(deterministic.pattern_count, 10)
    random_result = RandomSequenceATPG(s27, sequence_length=5, seed=7).run(
        max_sequences=max(random_budget // 5, 2)
    )
    assert deterministic.tested >= random_result.detected
