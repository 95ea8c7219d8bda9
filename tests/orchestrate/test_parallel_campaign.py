"""Differential tests: sharded campaigns must equal the serial campaign.

The orchestration contract (see :mod:`repro.orchestrate.coordinator`) is that
the merged result is *bit-identical* to ``SequentialDelayATPG.run`` — same
Table 3 row, same untestable breakdown, same per-fault verdicts, sequences
and detection credits — independent of worker count and scheduling order.  These tests enforce the contract on the embedded s27, on
surrogates whose campaigns exercise heavy cross-shard fault dropping, and
across a kill-and-resume cycle.
"""

import json

import pytest

from repro.core.flow import SequentialDelayATPG
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


def _assert_shard_accounting(orchestrator, fed):
    """Every fed fault is targeted or dropped once, and nothing is recomputed."""
    shards = orchestrator.shard_stats
    assert sum(stats["targeted"] + stats["dropped"] for stats in shards) == fed
    assert orchestrator.recomputed == 0
    # The campaign must actually have exercised the broadcast exchange;
    # dropping mirrors the serial credit exactly.
    assert sum(stats["dropped"] for stats in shards) > 0
    assert sum(stats["absorbed_broadcasts"] for stats in shards) > 0


def test_broadcast_detections_eliminate_merge_recompute(s344_small, s344_serial):
    """Regression: the merge must not recompute over-dropped faults.

    Broadcasts used to carry raw sequences that receiving shards re-graded
    with the gross-delay pre-filter — a superset of the TDsim detections the
    replay merge credits, so ~20 faults per s344@0.3 campaign were dropped in
    parallel, missing from the records, and recomputed serially during the
    merge.  Broadcasting the source shard's TDsim detection set instead makes
    worker drops exactly the serial drops: zero recomputes.
    """
    orchestrator = CampaignOrchestrator(s344_small, config=OrchestratorConfig(jobs=4))
    parallel = orchestrator.run()
    assert _fingerprint(parallel) == _fingerprint(s344_serial)
    _assert_shard_accounting(orchestrator, s344_serial.total_faults)


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


def test_capped_jobs2_queue_accounting(s344_small):
    """A capped campaign queues at most ``cap * jobs`` faults, each accounted once."""
    cap = 20
    serial = SequentialDelayATPG(s344_small).run(max_target_faults=cap)
    orchestrator = CampaignOrchestrator(s344_small, config=OrchestratorConfig(jobs=2))
    parallel = orchestrator.run(max_target_faults=cap)
    assert _fingerprint(parallel) == _fingerprint(serial)
    _assert_shard_accounting(orchestrator, cap * 2)


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
        elif record["type"] in ("fault", "drop") and per_fault < 40:
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
        elif record["type"] in ("fault", "drop") and per_fault < 30:
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
