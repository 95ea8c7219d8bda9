"""Differential tests: sharded campaigns must equal the serial campaign.

The orchestration contract (see :mod:`repro.orchestrate.coordinator`) is that
the merged result is *bit-identical* to ``SequentialDelayATPG.run`` — same
Table 3 row, same untestable breakdown, same per-fault verdicts, sequences
and detection credits — independent of worker count and scheduling order.  These tests enforce the
contract on the embedded s27, on surrogates whose campaigns exercise heavy
fault dropping, and across a kill-and-resume cycle.  They also pin how much
work the workers do: each queued fault is targeted once, and a capped
campaign queues only the faults its loop targets.
"""

import json
import time

import pytest

from repro.core.flow import CampaignInterrupted, SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults
from repro.orchestrate import (
    CampaignOrchestrator,
    OrchestratorConfig,
    read_journal,
    run_campaign,
)


def _fingerprint(campaign):
    """Everything the serial-equivalence contract covers, minus wall time."""
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
def s344_small():
    """Surrogate whose campaign generates tests and drops many faults."""
    return load_circuit("s344", scale=0.3)


@pytest.fixture(scope="module")
def s344_serial(s344_small):
    return SequentialDelayATPG(s344_small).run()


def test_s27_jobs4_matches_serial(s27):
    serial = SequentialDelayATPG(s27).run()
    parallel = run_campaign(s27, OrchestratorConfig(jobs=4)).result
    assert _fingerprint(parallel) == _fingerprint(serial)


def _sharded(circuit, jobs, **kwargs):
    """A sharded campaign's orchestrator, result and streamed records."""
    records = []
    orchestrator = CampaignOrchestrator(
        circuit, config=OrchestratorConfig(jobs=jobs), on_record=records.append
    )
    return orchestrator, orchestrator.run(**kwargs), records


def _assert_shard_accounting(orchestrator, records):
    """Every queued fault is targeted by exactly one worker, and the loop
    targets nothing itself."""
    worker_targets = [
        record["index"]
        for record in records
        if record["type"] == "fault" and record["worker"] >= 0
    ]
    assert len(worker_targets) == len(set(worker_targets))
    assert sum(stats["targeted"] for stats in orchestrator.shard_stats) == len(
        worker_targets
    )
    assert orchestrator.recomputed == 0


def test_coordinator_drops_eliminate_merge_recompute(s344_small, s344_serial):
    """The coordinator drops detected faults when it queues, and the loop
    recomputes nothing.

    The drop rule reads the TDsim detections of earlier records — the exact
    lists the loop credits — so every fault the coordinator keeps off the
    queue is one the serial order drops as well.
    """
    orchestrator, parallel, records = _sharded(s344_small, 4)
    assert _fingerprint(parallel) == _fingerprint(s344_serial)
    _assert_shard_accounting(orchestrator, records)
    assert orchestrator.dropped > 0


def test_dynamic_work_queue_matches_serial(s344_small, s344_serial):
    parallel = run_campaign(s344_small, OrchestratorConfig(jobs=3)).result
    assert _fingerprint(parallel) == _fingerprint(s344_serial)


def test_s838_surrogate_matches_serial():
    """The acceptance pairing: s27 is covered above, s838-surrogate here."""
    circuit = load_circuit("s838-surrogate", scale=0.12)
    serial = SequentialDelayATPG(circuit).run()
    assert serial.tested > 0, "campaign must generate sequences to be a meaningful check"
    parallel = run_campaign(circuit, OrchestratorConfig(jobs=4)).result
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_capped_campaign_matches_serial(s344_small):
    serial = SequentialDelayATPG(s344_small).run(max_target_faults=15)
    parallel = run_campaign(
        s344_small, OrchestratorConfig(jobs=3), max_target_faults=15
    ).result
    assert _fingerprint(parallel) == _fingerprint(serial)


@pytest.fixture(scope="module")
def s838_half():
    return load_circuit("s838", scale=0.5)


def test_capped_jobs2_queues_only_the_loop_targets(s838_half):
    """Under a cap the workers target exactly the faults the loop reads.

    None of the first ten s838@0.5 targets is tested, so nothing is dropped
    and the count is deterministic.
    """
    cap = 10
    serial = SequentialDelayATPG(s838_half).run(max_target_faults=cap)
    assert serial.tested == 0
    orchestrator, parallel, records = _sharded(s838_half, 2, max_target_faults=cap)
    assert _fingerprint(parallel) == _fingerprint(serial)
    _assert_shard_accounting(orchestrator, records)
    assert sum(stats["targeted"] for stats in orchestrator.shard_stats) == cap


def test_stop_terminates_busy_workers_at_once(s838_half):
    """A stop request does not wait for the workers' in-flight faults."""
    seen = []
    stop_requested = []

    def should_stop():
        if seen.count("fault") >= 3 and not stop_requested:
            stop_requested.append(time.perf_counter())
        return bool(stop_requested)

    orchestrator = CampaignOrchestrator(
        s838_half, config=OrchestratorConfig(jobs=2),
        on_record=lambda record: seen.append(record["type"]), should_stop=should_stop,
    )
    with pytest.raises(CampaignInterrupted):
        orchestrator.run()
    assert time.perf_counter() - stop_requested[0] < 3.0


def test_explicit_fault_subset_matches_serial(s344_small):
    faults = enumerate_delay_faults(s344_small)
    subset = faults[:60]
    serial = SequentialDelayATPG(s344_small).run(faults=subset)
    parallel = run_campaign(s344_small, OrchestratorConfig(jobs=2), faults=subset).result
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_kill_and_resume_reaches_identical_result(tmp_path, s344_small, s344_serial):
    """Interrupting a journaled campaign and resuming must change nothing.

    The 'kill' is simulated at the journal level: the complete journal is cut
    after the first 40 per-fault records plus a torn half-written line —
    exactly what a SIGKILL mid-campaign leaves behind.  The resume then runs
    with a different worker count and must still produce the serial
    fingerprint.
    """
    path = str(tmp_path / "journal.jsonl")
    orchestrator = CampaignOrchestrator(
        s344_small, config=OrchestratorConfig(jobs=2), journal_path=path
    )
    complete = orchestrator.run()
    assert _fingerprint(complete) == _fingerprint(s344_serial)

    records = read_journal(path)
    kept, per_fault = [], 0
    for record in records:
        if record["type"] == "campaign":
            kept.append(record)
        elif record["type"] == "fault" and per_fault < 40:
            kept.append(record)
            per_fault += 1
    with open(path, "w", encoding="utf-8") as handle:
        for record in kept:
            handle.write(json.dumps(record) + "\n")
        handle.write('{"type": "fault", "index": 999, "torn')  # mid-write kill

    resumed_orchestrator = CampaignOrchestrator(
        s344_small,
        config=OrchestratorConfig(jobs=3),
        journal_path=path,
        resume=True,
    )
    resumed = resumed_orchestrator.run()
    assert _fingerprint(resumed) == _fingerprint(s344_serial)

    # A second resume finds the final result record: no worker starts and
    # the loop reads the journaled records again.
    final = CampaignOrchestrator(
        s344_small, config=OrchestratorConfig(jobs=2), journal_path=path, resume=True
    ).run()
    assert _fingerprint(final) == _fingerprint(s344_serial)


def test_resume_requires_matching_digest(tmp_path, s27):
    path = str(tmp_path / "journal.jsonl")
    CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=2), journal_path=path
    ).run(max_target_faults=3)
    mismatched = CampaignOrchestrator(
        s27,
        config=OrchestratorConfig(jobs=2, robust=False),  # different settings
        journal_path=path,
        resume=True,
    )
    with pytest.raises(ValueError, match="digest"):
        mismatched.run(max_target_faults=3)


def test_resume_without_journal_fails(s27):
    with pytest.raises(ValueError):
        CampaignOrchestrator(s27, resume=True)
    orchestrator = CampaignOrchestrator(
        s27, journal_path="/nonexistent/journal.jsonl", resume=True
    )
    with pytest.raises(FileNotFoundError):
        orchestrator.run()


def test_worker_failure_is_reported(s27):
    """A fault for a signal the circuit does not have crashes the worker."""
    foreign = load_circuit("s298", scale=0.2)
    faults = enumerate_delay_faults(s27)
    orchestrator = CampaignOrchestrator(foreign, config=OrchestratorConfig(jobs=2))
    with pytest.raises(RuntimeError, match="worker"):
        orchestrator.run(faults=faults[:4])


def test_resume_under_different_backend(tmp_path, s27):
    """A campaign journaled under one backend resumes under another.

    The digest deliberately excludes the backend (both backends are pinned
    bit-exact), so the finished per-fault records of a ``packed`` campaign
    must be accepted — and completed identically — by a ``reference`` resume.
    """
    path = str(tmp_path / "journal.jsonl")
    CampaignOrchestrator(
        s27,
        config=OrchestratorConfig(jobs=2, backend="packed"),
        journal_path=path,
    ).run()

    records = read_journal(path)
    kept, per_fault = [], 0
    for record in records:
        if record["type"] == "campaign":
            kept.append(record)
        elif record["type"] == "fault" and per_fault < 30:
            kept.append(record)
            per_fault += 1
    with open(path, "w", encoding="utf-8") as handle:
        for record in kept:
            handle.write(json.dumps(record) + "\n")

    resumed = CampaignOrchestrator(
        s27,
        config=OrchestratorConfig(jobs=2, backend="reference"),
        journal_path=path,
        resume=True,
    ).run()
    assert _fingerprint(resumed) == _fingerprint(SequentialDelayATPG(s27).run())
