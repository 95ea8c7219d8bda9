"""One campaign runner: ``jobs=1`` runs in-process through the loop the
sharded merge uses.

Every campaign goes through :class:`~repro.orchestrate.CampaignOrchestrator`,
whose body is one :class:`~repro.core.flow.SequentialDelayATPG`: a fault
with a record reads it, any other fault is targeted in-process and counts
live.  These tests pin that a ``jobs=1`` campaign with a journal starts no
process and still stops and resumes to the unjournaled result, that a
resumed finished journal folds its cost records, and that a fault no worker
recorded is targeted by the coordinator with its counters counted once.
A resumed prefix counts the simulation gate words its journal records carry,
so every deterministic counter of a resumed campaign equals an uninterrupted
one's.
"""

import pytest

from repro.core.flow import CampaignInterrupted, SequentialDelayATPG
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import deterministic_counters
from repro.orchestrate import (
    OrchestratorConfig,
    coordinator,
    read_journal,
    run_campaign,
)

CONFIGS = {
    "deterministic": OrchestratorConfig(jobs=1),
    "hybrid": OrchestratorConfig(jobs=1, rpg_prefix=True, rpg_budget=8, rpg_window=4),
}


def _observed(run, registry):
    """Fingerprint, cost records without wall time, deterministic counters."""
    costs = [
        {key: value for key, value in cost.to_json().items() if key != "seconds"}
        for cost in run.costs
    ]
    return run.result.fingerprint(), costs, deterministic_counters(registry)


def _campaign(circuit, config, **kwargs):
    registry = MetricsRegistry()
    return _observed(run_campaign(circuit, config, metrics=registry, **kwargs), registry)


@pytest.fixture
def no_processes(monkeypatch):
    def refuse():
        raise AssertionError("a jobs=1 campaign asked for a process context")

    monkeypatch.setattr(coordinator, "_mp_context", refuse)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_jobs1_journal_stops_and_resumes_in_process(name, s27, tmp_path, no_processes):
    """Stopped after 5 fault records (hybrid: after 2 of its 4 prefix
    sequences) and resumed, with no process started, the journaled run
    equals the unjournaled one and the serial flow."""
    config = CONFIGS[name]
    reference = _campaign(s27, config)
    serial = SequentialDelayATPG(s27, **config.atpg_kwargs()).run(
        prefix=config.prefix_config()
    )
    assert reference[0] == serial.fingerprint()

    path = str(tmp_path / "journal.jsonl")
    kind, count = ("prefix", 2) if config.rpg_prefix else ("fault", 5)
    seen = []
    with pytest.raises(CampaignInterrupted):
        run_campaign(
            s27, config, journal_path=path, metrics=MetricsRegistry(),
            on_record=lambda record: seen.append(record["type"]),
            should_stop=lambda: seen.count(kind) >= count,
        )
    journaled = read_journal(path)
    kinds = [record["type"] for record in journaled]
    assert kinds.count(kind) == count
    assert "result" not in kinds and "prefix-done" not in kinds
    assert all(record["worker"] == -1 for record in journaled if record["type"] == "fault")

    resumed = _campaign(s27, config, journal_path=path, resume=True)
    assert resumed == reference


def test_resumed_finished_journal_keeps_its_costs(s27, tmp_path, no_processes):
    """Resuming a finished journal reads its records: same result, costs and counters."""
    path = str(tmp_path / "journal.jsonl")
    fresh = _campaign(s27, CONFIGS["deterministic"], journal_path=path)
    assert len(fresh[1]) > 0
    targeted = []
    resumed = _campaign(
        s27, CONFIGS["deterministic"], journal_path=path, resume=True,
        on_record=lambda record: targeted.append(record["type"]),
    )
    assert resumed == fresh
    assert "fault" not in targeted  # nothing targeted again, nothing re-journaled


def test_coordinator_targets_a_fault_no_worker_recorded(s27, monkeypatch):
    """At ``jobs=2`` a fault the feed drops but the loop reaches is targeted
    in-process and counted live on the campaign registry, exactly once."""
    feed_init = coordinator._WorkerFeed.__init__

    def over_dropping(feed, *args, **kwargs):
        feed_init(feed, *args, **kwargs)
        feed.detected.add(0)  # the first fault: the serial order always reaches it

    monkeypatch.setattr(coordinator._WorkerFeed, "__init__", over_dropping)
    reference = _campaign(s27, OrchestratorConfig(jobs=1))
    registry = MetricsRegistry()
    run = run_campaign(s27, OrchestratorConfig(jobs=2), metrics=registry)
    assert run.recomputed == 1
    assert len(run.shard_stats) == 2
    assert _observed(run, registry) == reference
