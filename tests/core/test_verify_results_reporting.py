"""Verification harness, result containers and Table 3 style reporting."""

import pytest

from repro.algebra.values import R, V0, V1
from repro.circuit.netlist import Line, LineKind
from repro.core.clocking import ClockSchedule
from repro.core.reporting import (
    campaign_row,
    format_campaign_table,
    format_shard_summary,
    format_untestable_breakdown,
)
from repro.core.results import (
    CampaignResult,
    FaultResult,
    FaultResultStatus,
    FlowPhase,
    TestSequence,
)
from repro.core.verify import verify_test_sequence
from repro.faults.model import DelayFaultType, GateDelayFault


def _sequence_for(circuit, fault, init, v1, v2, prop):
    return TestSequence(
        fault=fault,
        initialization_vectors=init,
        v1=v1,
        v2=v2,
        propagation_vectors=prop,
        clock_schedule=ClockSchedule.for_sequence(len(init), len(prop)),
        observation_point=circuit.primary_outputs[0],
        observed_at_po=True,
    )


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #
def test_verify_detects_hand_built_test(and_chain):
    # a rises while b=1, c=0: a slow-to-rise on 'a' keeps y at 0 in the fast frame.
    fault = GateDelayFault(Line("a"), DelayFaultType.SLOW_TO_RISE)
    sequence = _sequence_for(
        and_chain,
        fault,
        init=[],
        v1={"a": 0, "b": 1, "c": 0},
        v2={"a": 1, "b": 1, "c": 0},
        prop=[],
    )
    report = verify_test_sequence(and_chain, sequence)
    assert report.detected
    assert report.primary_output == "y"
    assert report.detection_frame == 1


def test_verify_rejects_non_test(and_chain):
    # No transition on 'a': the fault cannot be provoked.
    fault = GateDelayFault(Line("a"), DelayFaultType.SLOW_TO_RISE)
    sequence = _sequence_for(
        and_chain,
        fault,
        init=[],
        v1={"a": 1, "b": 1, "c": 0},
        v2={"a": 1, "b": 1, "c": 0},
        prop=[],
    )
    assert not verify_test_sequence(and_chain, sequence).detected


def test_verify_sequential_detection_through_propagation(resettable_ff):
    # Provoke a rising transition on 'data' -> next_q while observe masks the
    # output in the fast frame; the wrong captured state is seen one frame later.
    fault = GateDelayFault(Line("data"), DelayFaultType.SLOW_TO_RISE)
    sequence = _sequence_for(
        resettable_ff,
        fault,
        init=[{"data": 0, "reset": 1, "observe": 0}],
        v1={"data": 0, "reset": 0, "observe": 0},
        v2={"data": 1, "reset": 0, "observe": 0},
        prop=[{"data": 0, "reset": 0, "observe": 1}],
    )
    report = verify_test_sequence(resettable_ff, sequence)
    assert report.detected
    assert report.detection_frame == 3


def test_verify_branch_fault(and_chain):
    # Branch fault b -> bc: provoke a rise on b, observe through bc while ab
    # stays at 0 (a=0).
    fault = GateDelayFault(
        Line("b", LineKind.BRANCH, sink="bc", pin=0),
        DelayFaultType.SLOW_TO_RISE,
    )
    sequence = _sequence_for(
        and_chain,
        fault,
        init=[],
        v1={"a": 0, "b": 0, "c": 1},
        v2={"a": 0, "b": 1, "c": 1},
        prop=[],
    )
    assert verify_test_sequence(and_chain, sequence).detected


# --------------------------------------------------------------------------- #
# result containers
# --------------------------------------------------------------------------- #
def test_test_sequence_vector_accounting(and_chain):
    fault = GateDelayFault(Line("a"), DelayFaultType.SLOW_TO_RISE)
    sequence = _sequence_for(
        and_chain,
        fault,
        init=[{"a": 0, "b": 0, "c": 0}],
        v1={"a": 0, "b": 1, "c": 0},
        v2={"a": 1, "b": 1, "c": 0},
        prop=[{"a": 0, "b": 0, "c": 0}] * 2,
    )
    assert sequence.pattern_count == 5
    assert sequence.vectors[0] == {"a": 0, "b": 0, "c": 0}
    assert sequence.vectors[1] == sequence.v1
    assert sequence.vectors[2] == sequence.v2


def test_campaign_result_accounting(and_chain):
    fault = GateDelayFault(Line("a"), DelayFaultType.SLOW_TO_RISE)
    campaign = CampaignResult(circuit_name="demo", total_faults=10)
    sequence = _sequence_for(
        and_chain, fault, init=[], v1={"a": 0}, v2={"a": 1}, prop=[]
    )
    campaign.record(
        FaultResult(fault, FaultResultStatus.TESTED, FlowPhase.COMPLETE, sequence=sequence),
        newly_detected=3,
    )
    campaign.record(
        FaultResult(fault, FaultResultStatus.UNTESTABLE, FlowPhase.LOCAL), newly_detected=0
    )
    campaign.record(
        FaultResult(fault, FaultResultStatus.UNTESTABLE, FlowPhase.INITIALIZATION),
        newly_detected=0,
    )
    campaign.record(
        FaultResult(fault, FaultResultStatus.ABORTED, FlowPhase.PROPAGATION), newly_detected=0
    )
    assert campaign.targeted == 4
    assert campaign.pattern_count == 2
    assert campaign.untestable_local == 1
    assert campaign.untestable_sequential == 1
    assert campaign.aborted_sequential == 1
    assert campaign.detected_by_simulation == 2

    campaign.finalize({"tested": 3, "untestable": 2, "aborted": 1, "untargeted": 4}, 1.5)
    assert campaign.tested == 3
    assert campaign.untestable == 2
    assert campaign.aborted == 5  # aborted + never targeted
    assert campaign.cpu_seconds == 1.5
    assert campaign.fault_coverage == pytest.approx(0.3)
    assert campaign.fault_efficiency == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def _dummy_campaign(name, tested, untestable, aborted, patterns, seconds):
    campaign = CampaignResult(circuit_name=name, total_faults=tested + untestable + aborted)
    campaign.tested = tested
    campaign.untestable = untestable
    campaign.aborted = aborted
    campaign.pattern_count = patterns
    campaign.cpu_seconds = seconds
    return campaign


def test_campaign_row_columns():
    row = campaign_row(_dummy_campaign("s27", 39, 11, 2, 40, 0.7))
    assert row == {
        "circuit": "s27",
        "tested": 39,
        "untstbl": 11,
        "aborted": 2,
        "#pat": 40,
        "time[s]": 0.7,
    }


def test_format_campaign_table_contains_all_rows():
    table = format_campaign_table(
        [
            _dummy_campaign("s27", 39, 11, 2, 40, 0.5),
            _dummy_campaign("s298", 112, 242, 163, 16, 452.0),
        ],
        title="Table 3",
    )
    assert "Table 3" in table
    assert "s27" in table and "s298" in table
    assert "tested" in table and "time[s]" in table
    # Column alignment: every data row has the same number of columns.
    lines = [line for line in table.splitlines() if line and not line.startswith("Table")]
    assert len(lines) >= 4


def test_format_untestable_breakdown():
    campaign = _dummy_campaign("s27", 39, 11, 2, 40, 0.5)
    campaign.untestable_local = 4
    campaign.untestable_sequential = 7
    text = format_untestable_breakdown([campaign])
    assert "s27" in text
    assert "4" in text and "7" in text


def test_format_shard_summary_renders_worker_stats():
    stats = [
        {
            "worker": 0, "targeted": 5,
            "tested": 1, "untestable": 2, "aborted": 2, "seconds": 0.25,
        },
        {
            "worker": 1, "targeted": 4,
            "tested": 4, "untestable": 0, "aborted": 0, "seconds": 0.5,
        },
    ]
    text = format_shard_summary(
        stats, recomputed=2, dropped=17, title="Shard summary — s27"
    )
    assert "Shard summary — s27" in text
    header = text.splitlines()[2].split()
    assert header == ["shard", "targeted", "tested", "untstbl", "aborted", "time[s]"]
    assert text.splitlines()[-1] == "coordinator dropped 17 fault(s), recomputed 2"
    lines = text.splitlines()
    assert len(lines) == 2 + 2 + len(stats) + 1  # title+blank, header+rule, rows, footer
