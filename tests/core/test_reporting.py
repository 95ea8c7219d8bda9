"""Edge-case tests of the text report renderers (:mod:`repro.core.reporting`).

The renderers run on whatever a campaign produced — including nothing at
all.  These tests pin the degenerate shapes: an empty result list, a
zero-fault universe, values much wider than their column headers, empty
shard stats, and a ``--profile`` report over an empty snapshot.
"""

from __future__ import annotations

from repro.core.reporting import (
    format_campaign_table,
    format_prefix_summary,
    format_profile,
    format_shard_summary,
    format_untestable_breakdown,
)
from repro.core.results import CampaignResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import FaultCost


def _cost(fault, seconds, **overrides):
    """A FaultCost with benign defaults for table tests."""
    fields = dict(
        fault=fault, status="tested", phase="fault simulation",
        seconds=seconds, attempts=1, local_backtracks=0,
        sequential_backtracks=0, decisions=1, implication_sweeps=1,
        wavefront_skipped=0, words_simulated=8, engine="packed",
    )
    fields.update(overrides)
    return FaultCost(**fields)


# --------------------------------------------------------------------- #
# campaign tables
# --------------------------------------------------------------------- #
def test_empty_campaign_list_renders_header_only():
    text = format_campaign_table([])
    lines = text.splitlines()
    assert lines[0] == "Benchmark results"
    header = lines[2].split()
    assert header == ["circuit", "tested", "untstbl", "aborted", "#pat", "time[s]"]
    # Title, blank, header, separator — and no data rows.
    assert len(lines) == 4


def test_zero_fault_universe_renders_a_zero_row():
    campaign = CampaignResult(circuit_name="void", total_faults=0)
    text = format_campaign_table([campaign], title="Empty universe")
    row = text.splitlines()[-1].split()
    assert row == ["void", "0", "0", "0", "0", "0.0"]
    assert campaign.fault_coverage == 0.0
    assert campaign.fault_efficiency == 0.0


def test_wide_values_expand_their_columns():
    campaign = CampaignResult(
        circuit_name="very-long-circuit-name-x", total_faults=10**9,
        tested=123456789, untestable=98765432, aborted=1,
        pattern_count=1000000007, cpu_seconds=98765.4321,
    )
    text = format_campaign_table([campaign])
    lines = text.splitlines()
    header, separator, row = lines[2], lines[3], lines[4]
    assert len(header) == len(separator) == len(row)
    assert "123456789" in row
    assert "1000000007" in row
    # Right-aligned: every column value ends where its header ends.
    assert row.split() == [
        "very-long-circuit-name-x", "123456789", "98765432", "1", "1000000007",
        "98765.43",
    ]


def test_untestable_and_prefix_summaries_handle_empty_input():
    assert format_untestable_breakdown([]).startswith("circuit")
    assert format_prefix_summary([]).startswith("circuit")
    campaign = CampaignResult(circuit_name="s0", total_faults=0)
    assert "s0" in format_untestable_breakdown([campaign])
    assert "-" in format_prefix_summary([campaign])  # no stop reason yet


def test_shard_summary_with_no_shards():
    text = format_shard_summary([], recomputed=0)
    assert "coordinator dropped 0 fault(s), recomputed 0" in text
    assert text.splitlines()[0].split()[0] == "shard"


def test_shard_summary_row_starts_with_worker_and_targeted():
    text = format_shard_summary(
        [{"worker": 0, "targeted": 3, "seconds": 0.5}],
        recomputed=2,
    )
    assert text.splitlines()[0].split()[:2] == ["shard", "targeted"]
    row = text.splitlines()[2].split()
    assert row[:3] == ["0", "3", "0"]  # missing counters render as 0
    assert "recomputed 2" in text


# --------------------------------------------------------------------- #
# the --profile report
# --------------------------------------------------------------------- #
def test_profile_of_empty_snapshot_is_just_the_title():
    text = format_profile(MetricsRegistry().snapshot(), title="Nothing here")
    assert text == "Nothing here"


def test_profile_renders_all_three_sections():
    registry = MetricsRegistry()
    with registry.timed("repro_phase_seconds", phase="campaign"):
        pass
    with registry.timed("repro_phase_seconds", phase="tdgen"):
        pass
    registry.inc("repro_fault_aborts_total", 3, phase="local test generation")
    costs = [
        _cost("G0 StR", 0.5),
        _cost("G1 StF", 2.0, status="aborted", local_backtracks=4,
              sequential_backtracks=6),
        _cost("G2 StR", 0.1),
    ]
    text = format_profile(registry.snapshot(), costs, top_n=2, title="Breakdown")
    assert text.startswith("Breakdown")
    assert "Time per phase" in text
    assert "Top 2 most expensive faults (of 3)" in text
    assert "Aborts by phase" in text
    assert "local test generation" in text
    # Sorted by seconds descending; the cheapest fault is cut by top_n=2.
    lines = text.splitlines()
    g1 = next(i for i, line in enumerate(lines) if "G1 StF" in line)
    g0 = next(i for i, line in enumerate(lines) if "G0 StR" in line)
    assert g1 < g0
    assert not any("G2 StR" in line for line in lines)
    # Backtracks column sums the local and sequential counts.
    assert lines[g1].split()[-3] == "10"


def test_profile_top_n_zero_hides_the_fault_table():
    text = format_profile(
        MetricsRegistry().snapshot(), [_cost("G0 StR", 0.5)], top_n=0
    )
    assert "most expensive" not in text
