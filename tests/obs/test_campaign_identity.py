"""Instrumentation must never perturb results (the hard obs constraint).

Two contracts from the observability acceptance criteria:

* **bit-identity** — a campaign run with a live registry produces a
  CampaignResult fingerprint-identical to the uninstrumented run, serially
  and under ``--jobs 4``;
* **jobs-invariant aggregates** — the deterministic counters and the cost
  log of an orchestrated campaign are identical to the serial campaign's
  for any worker count, and the shard snapshots merge
  order-independently.
"""

from __future__ import annotations

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import deterministic_counters, fold_cost
from repro.orchestrate import CampaignOrchestrator, OrchestratorConfig


def _fingerprint(campaign):
    """Everything the bit-identical contract covers, minus wall time."""
    row = {key: value for key, value in campaign.as_table3_row().items() if key != "time_s"}
    per_fault = [
        (
            str(result.fault),
            result.status.value,
            result.phase.name,
            sorted(str(fault) for fault in result.additionally_detected),
            result.sequence.vectors if result.sequence is not None else None,
            str(result.sequence.clock_schedule) if result.sequence is not None else None,
        )
        for result in campaign.fault_results
    ]
    return (
        row,
        campaign.untestable_breakdown(),
        campaign.targeted,
        campaign.detected_by_simulation,
        per_fault,
    )


@pytest.fixture(scope="module")
def s27_plain(s27):
    """The uninstrumented serial reference campaign."""
    return _fingerprint(SequentialDelayATPG(s27).run())


@pytest.fixture(scope="module")
def s27_serial_registry(s27):
    """One serial metrics-on run: ``(fingerprint, registry, cost_log)``."""
    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(s27, metrics=registry)
    campaign = atpg.run()
    return _fingerprint(campaign), registry, list(atpg.cost_log)


def test_serial_campaign_identical_with_metrics_on(s27_plain, s27_serial_registry):
    fingerprint, registry, cost_log = s27_serial_registry
    assert fingerprint == s27_plain
    # ... and the instrumentation actually measured the campaign.
    assert registry.counter_sum("repro_faults_total") == len(cost_log) > 0
    assert registry.counter_sum("repro_decisions_total") > 0


def test_jobs4_campaign_identical_with_metrics_on(s27, s27_plain):
    orchestrator = CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=4, collect_metrics=True)
    )
    campaign = orchestrator.run()
    assert _fingerprint(campaign) == s27_plain


@pytest.mark.parametrize("jobs", (2, 3))
def test_orchestrated_aggregates_match_serial(jobs, s27, s27_serial_registry):
    _, serial_registry, serial_costs = s27_serial_registry
    orchestrator = CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=jobs, collect_metrics=True)
    )
    orchestrator.run()
    assert deterministic_counters(orchestrator.metrics) == deterministic_counters(
        serial_registry
    )
    # The replayed cost log matches the serial one field-for-field except
    # wall time (seconds), in the same fault-enumeration order.
    def stripped(costs):
        return [
            {k: v for k, v in cost.to_json().items() if k != "seconds"}
            for cost in costs
        ]

    assert stripped(orchestrator.fault_costs) == stripped(serial_costs)


def test_shard_snapshots_merge_order_independently(s27):
    orchestrator = CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=4, collect_metrics=True)
    )
    orchestrator.run()
    assert orchestrator.shard_metrics is not None
    snapshots = orchestrator._worker_snapshots
    assert len(snapshots) >= 2
    forward = MetricsSnapshot.merge_all(snapshots).to_json()
    backward = MetricsSnapshot.merge_all(reversed(snapshots)).to_json()
    assert forward == backward == orchestrator.shard_metrics.to_json()


def test_orchestrated_without_collect_metrics_stays_null(s27, s27_plain):
    orchestrator = CampaignOrchestrator(s27, config=OrchestratorConfig(jobs=2))
    campaign = orchestrator.run()
    assert _fingerprint(campaign) == s27_plain
    assert orchestrator.metrics.enabled is False
    assert orchestrator.fault_costs == []
    assert orchestrator.shard_metrics is None


def test_fold_of_shard_costs_equals_orchestrator_registry(s27):
    """The orchestrator's registry is exactly the fold of its cost log."""
    orchestrator = CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=2, collect_metrics=True)
    )
    orchestrator.run()
    folded = MetricsRegistry()
    for cost in orchestrator.fault_costs:
        fold_cost(folded, cost)
    assert deterministic_counters(folded) == deterministic_counters(
        orchestrator.metrics
    )


def test_kernel_tier_ups_are_observed_without_perturbing_results(monkeypatch):
    """Generated passes count the same gate words; each tier-up is timed.

    The same s27 campaign runs once with every kernel kept cold and once
    with every kernel generated on its first pass: the results and the
    deterministic counters (gate words included) agree, the generated run
    records one generation timing per kernel, and ``--profile`` prints them
    on one line.
    """
    from repro.core.reporting import format_profile
    from repro.data import load_circuit
    from repro.fausim import kernels

    runs = []
    for tier_up in (10**9, 0):
        monkeypatch.setattr(kernels, "TIER_UP_PASSES", tier_up)
        registry = MetricsRegistry()
        campaign = SequentialDelayATPG(load_circuit("s27"), metrics=registry).run()
        runs.append((_fingerprint(campaign), registry))
    (cold_fingerprint, cold), (generated_fingerprint, generated) = runs
    assert generated_fingerprint == cold_fingerprint
    assert deterministic_counters(generated) == deterministic_counters(cold)
    assert generated.counter_sum("repro_sim_gate_words_total") > 0

    timers = {
        key: timer
        for key, timer in generated.snapshot().timers.items()
        if key.startswith("repro_kernel_generate_seconds")
    }
    assert sorted(timers) == [
        'repro_kernel_generate_seconds{kernel="evaluate"}',
        'repro_kernel_generate_seconds{kernel="pair_analysis"}',
    ]
    assert all(timer["count"] == 1 and timer["sum"] > 0 for timer in timers.values())
    assert not any(
        key.startswith("repro_kernel_generate_seconds") for key in cold.snapshot().timers
    )

    report = format_profile(generated.snapshot())
    (line,) = [line for line in report.splitlines() if line.startswith("Kernel generation:")]
    assert "evaluate" in line and "pair_analysis" in line
    assert "Kernel generation" not in format_profile(cold.snapshot())
