"""JSON round-trip tests for the result containers.

The campaign journal (``repro.orchestrate.journal``) persists every fault
outcome as JSON and the coordinator rebuilds the merged campaign from those
records, so the round trip has to be loss-free for everything that enters the
Table 3 row: statuses, phases, sequences (including their clock schedules and
algebra-level pair values) and the additionally-detected fault lists.
"""

import json

import pytest

from repro.circuit.netlist import Line, LineKind
from repro.core.flow import SequentialDelayATPG
from repro.core.results import CampaignResult, FaultResult, TestSequence
from repro.faults.model import DelayFaultType, GateDelayFault


@pytest.fixture(scope="module")
def s27_campaign(s27):
    return SequentialDelayATPG(s27).run()


def _json_round_trip(payload):
    """Force the payload through an actual JSON encode/decode."""
    return json.loads(json.dumps(payload))


def test_fault_round_trip_stem_and_branch():
    stem = GateDelayFault(Line("G11"), DelayFaultType.SLOW_TO_RISE)
    branch = GateDelayFault(
        Line("G5", LineKind.BRANCH, sink="G10", pin=1), DelayFaultType.SLOW_TO_FALL
    )
    for fault in (stem, branch):
        rebuilt = GateDelayFault.from_json(_json_round_trip(fault.to_json()))
        assert rebuilt == fault
        assert hash(rebuilt) == hash(fault)


def test_sequence_round_trip_preserves_everything(s27_campaign):
    assert s27_campaign.sequences
    for sequence in s27_campaign.sequences:
        rebuilt = TestSequence.from_json(_json_round_trip(sequence.to_json()))
        assert rebuilt.fault == sequence.fault
        assert rebuilt.vectors == sequence.vectors
        assert rebuilt.pattern_count == sequence.pattern_count
        assert rebuilt.clock_schedule == sequence.clock_schedule
        assert rebuilt.observation_point == sequence.observation_point
        assert rebuilt.observed_at_po == sequence.observed_at_po
        assert rebuilt.pi_pair_values == sequence.pi_pair_values
        assert rebuilt.ppi_initial_values == sequence.ppi_initial_values


def test_fault_result_round_trip(s27_campaign):
    for result in s27_campaign.fault_results:
        rebuilt = FaultResult.from_json(_json_round_trip(result.to_json()))
        assert rebuilt.fault == result.fault
        assert rebuilt.status is result.status
        assert rebuilt.phase is result.phase
        assert rebuilt.additionally_detected == result.additionally_detected
        assert rebuilt.local_backtracks == result.local_backtracks
        assert rebuilt.sequential_backtracks == result.sequential_backtracks
        assert rebuilt.attempts == result.attempts
        assert (rebuilt.sequence is None) == (result.sequence is None)
        if result.sequence is not None:
            assert rebuilt.sequence.vectors == result.sequence.vectors


def test_campaign_round_trip_preserves_table3_row(s27_campaign):
    rebuilt = CampaignResult.from_json(_json_round_trip(s27_campaign.to_json()))
    assert rebuilt.as_table3_row() == s27_campaign.as_table3_row()
    assert rebuilt.untestable_breakdown() == s27_campaign.untestable_breakdown()
    assert rebuilt.targeted == s27_campaign.targeted
    assert rebuilt.detected_by_simulation == s27_campaign.detected_by_simulation
    assert len(rebuilt.sequences) == len(s27_campaign.sequences)
    assert [r.fault for r in rebuilt.fault_results] == [
        r.fault for r in s27_campaign.fault_results
    ]
