"""Tests of span tracing and cost folding (:mod:`repro.obs.tracing`).

The load-bearing property is *fold equivalence*: replaying a serial
campaign's :class:`FaultCost` records into a fresh registry with
:func:`fold_cost` must reproduce the serial registry's deterministic
counters exactly — that is what makes the orchestrator's merged aggregates
independent of ``--jobs`` and scheduling.
"""

from __future__ import annotations

import json

from repro.core.flow import SequentialDelayATPG
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import FaultCost, deterministic_counters, fold_cost


def test_fault_cost_json_round_trip():
    cost = FaultCost(
        fault="G10 StF", status="aborted", phase="local test generation",
        seconds=0.125, attempts=3, local_backtracks=7, sequential_backtracks=2,
        decisions=19, implication_sweeps=20, wavefront_skipped=5,
        words_simulated=64, engine="packed",
    )
    payload = json.loads(json.dumps(cost.to_json()))
    assert FaultCost.from_json(payload) == cost


def test_serial_campaign_emits_one_cost_per_targeted_fault(s27):
    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(s27, metrics=registry)
    campaign = atpg.run()
    assert len(atpg.cost_log) == campaign.targeted
    statuses = {cost.status for cost in atpg.cost_log}
    assert statuses <= {"tested", "untestable", "aborted"}
    # The status counter agrees with the cost log.
    assert registry.counter_sum("repro_faults_total") == campaign.targeted
    # Engine work was actually attributed.
    assert sum(cost.decisions for cost in atpg.cost_log) > 0
    assert sum(cost.implication_sweeps for cost in atpg.cost_log) > 0
    assert sum(cost.words_simulated for cost in atpg.cost_log) > 0


def test_fold_cost_reproduces_serial_counters(s27):
    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(s27, metrics=registry)
    atpg.run()

    folded = MetricsRegistry()
    for cost in atpg.cost_log:
        fold_cost(folded, cost)
    # Prefix counters are absent from both (no prefix phase ran).
    assert deterministic_counters(folded) == deterministic_counters(registry)


def test_fold_cost_round_trips_through_json(s27):
    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(s27, metrics=registry)
    atpg.run()

    folded = MetricsRegistry()
    for cost in atpg.cost_log:
        fold_cost(folded, FaultCost.from_json(cost.to_json()))
    assert deterministic_counters(folded) == deterministic_counters(registry)


def test_propagation_work_is_counted_in_gate_words(s27):
    """Faults that reach SEMILET propagation never report zero gate words.

    The implication engines' internal simulators receive the registry, so
    the pair-frame and justification passes count toward the fault's
    ``words_simulated``.
    """
    from repro.faults.model import enumerate_delay_faults

    registry = MetricsRegistry()
    atpg = SequentialDelayATPG(s27, metrics=registry)
    reached = 0
    for fault in enumerate_delay_faults(s27):
        before = registry.counter_value("repro_implication_sweeps_total", site="propagation")
        atpg.target_fault(fault)
        after = registry.counter_value("repro_implication_sweeps_total", site="propagation")
        if after > before:
            reached += 1
            assert atpg.cost_log[-1].words_simulated > 0, fault
    assert reached > 0, "the campaign must reach propagation to be a meaningful check"


def test_deterministic_counters_collapse_labels():
    labelled = MetricsRegistry()
    labelled.inc("repro_backtracks_total", 3, engine="tdgen")
    labelled.inc("repro_backtracks_total", 4, engine="semilet")
    flat = MetricsRegistry()
    flat.inc("repro_backtracks_total", 7)
    assert (
        deterministic_counters(labelled)["repro_backtracks_total"]
        == deterministic_counters(flat)["repro_backtracks_total"]
        == 7
    )


def test_cost_log_is_empty_without_a_registry(s27):
    atpg = SequentialDelayATPG(s27)
    atpg.run()
    assert atpg.cost_log == []
