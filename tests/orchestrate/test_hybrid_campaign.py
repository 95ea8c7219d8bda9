"""Differential tests: the hybrid campaign is bit-identical everywhere.

The hybrid (random-prefix + deterministic-residue) campaign extends the
orchestration contract: with a fixed campaign seed the merged result — prefix
counters, kept prefix sequences, per-fault verdicts, sequences, coverage —
must be identical to the serial hybrid flow across worker counts and
interrupt/resume cycles, including a kill at a record boundary
*inside* the prefix phase.
"""

import json

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.core.prefilter import PrefixConfig
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults
from repro.orchestrate import CampaignOrchestrator, OrchestratorConfig, read_journal

#: Prefix settings mirrored between the serial flow and the orchestrator.
BUDGET, WINDOW, LENGTH, SEED = 64, 8, 8, 0


def _config(jobs):
    return OrchestratorConfig(
        jobs=jobs,
        campaign_seed=SEED,
        rpg_prefix=True,
        rpg_budget=BUDGET,
        rpg_window=WINDOW,
    )


def _fingerprint(campaign):
    """The serial-equivalence contract, extended with the prefix fields."""
    row = {key: value for key, value in campaign.as_table3_row().items() if key != "time_s"}
    per_fault = [
        (
            str(result.fault),
            result.status.value,
            result.phase.name,
            sorted(str(fault) for fault in result.additionally_detected),
            result.sequence.vectors if result.sequence is not None else None,
        )
        for result in campaign.fault_results
    ]
    return (
        row,
        campaign.untestable_breakdown(),
        campaign.targeted,
        campaign.detected_by_simulation,
        campaign.prefix_applied,
        campaign.prefix_detected,
        campaign.prefix_stop_reason,
        [sequence.to_json() for sequence in campaign.prefix_sequences],
        campaign.pattern_count,
        per_fault,
    )


@pytest.fixture(scope="module")
def s344_small():
    return load_circuit("s344", scale=0.3)


@pytest.fixture(scope="module")
def serial_hybrid(s344_small):
    prefix = PrefixConfig(budget=BUDGET, window=WINDOW, sequence_length=LENGTH, seed=SEED)
    return SequentialDelayATPG(s344_small).run(prefix=prefix)


def test_hybrid_actually_strips_faults(serial_hybrid):
    assert serial_hybrid.prefix_applied > 0
    assert serial_hybrid.prefix_detected > 0
    assert serial_hybrid.prefix_sequences, "credited sequences must be kept"


def test_hybrid_jobs_match_serial(s344_small, serial_hybrid):
    """Bit-identical across --jobs 1/2/4."""
    for jobs in (1, 2, 4):
        orchestrator = CampaignOrchestrator(s344_small, config=_config(jobs))
        parallel = orchestrator.run()
        assert _fingerprint(parallel) == _fingerprint(serial_hybrid), jobs


def test_hybrid_resume_at_prefix_record_boundary(tmp_path, s344_small, serial_hybrid):
    """A kill mid-prefix resumes into the identical campaign.

    The journal is cut after the header plus the first eight ``prefix``
    records (before ``prefix-done``), plus a torn half-written line — the
    state a SIGKILL leaves while Phase A is still grading.  The resume (with
    a different worker count) must regenerate the
    remaining prefix sequences from their derived seeds and produce the
    serial hybrid fingerprint.
    """
    path = str(tmp_path / "journal.jsonl")
    orchestrator = CampaignOrchestrator(
        s344_small, config=_config(2), journal_path=path
    )
    complete = orchestrator.run()
    assert _fingerprint(complete) == _fingerprint(serial_hybrid)

    records = read_journal(path)
    kept, prefix_kept = [], 0
    for record in records:
        if record["type"] == "campaign":
            kept.append(record)
        elif record["type"] == "prefix" and prefix_kept < 8:
            kept.append(record)
            prefix_kept += 1
    assert prefix_kept == 8, "workload must journal enough prefix records to cut"
    with open(path, "w", encoding="utf-8") as handle:
        for record in kept:
            handle.write(json.dumps(record) + "\n")
        handle.write('{"type": "prefix", "seq": 8, "torn')  # mid-write kill

    resumed = CampaignOrchestrator(
        s344_small,
        config=_config(4),
        journal_path=path,
        resume=True,
    ).run()
    assert _fingerprint(resumed) == _fingerprint(serial_hybrid)


def test_hybrid_resume_after_prefix_done(tmp_path, s344_small, serial_hybrid):
    """A kill in Phase B replays the finished prefix without re-grading."""
    path = str(tmp_path / "journal.jsonl")
    CampaignOrchestrator(s344_small, config=_config(2), journal_path=path).run()

    records = read_journal(path)
    kept, per_fault = [], 0
    for record in records:
        if record["type"] in ("campaign", "prefix", "prefix-done"):
            kept.append(record)
        elif record["type"] == "fault" and per_fault < 20:
            kept.append(record)
            per_fault += 1
    with open(path, "w", encoding="utf-8") as handle:
        for record in kept:
            handle.write(json.dumps(record) + "\n")

    resumed = CampaignOrchestrator(
        s344_small, config=_config(3), journal_path=path, resume=True
    ).run()
    assert _fingerprint(resumed) == _fingerprint(serial_hybrid)


def test_hybrid_digest_guards_prefix_settings(tmp_path, s27):
    """A plain journal cannot be resumed as hybrid (and vice versa)."""
    path = str(tmp_path / "journal.jsonl")
    CampaignOrchestrator(
        s27, config=OrchestratorConfig(jobs=2, campaign_seed=SEED), journal_path=path
    ).run(max_target_faults=3)
    mismatched = CampaignOrchestrator(
        s27, config=_config(2), journal_path=path, resume=True
    )
    with pytest.raises(ValueError, match="digest"):
        mismatched.run(max_target_faults=3)


def test_plain_campaign_digest_unchanged_by_hybrid_fields(s27):
    """Pre-hybrid journals stay resumable: the digest adds keys only when on."""
    plain = OrchestratorConfig(jobs=2, campaign_seed=SEED)
    default_flags = OrchestratorConfig(
        jobs=2, campaign_seed=SEED, rpg_budget=999, rpg_window=3
    )
    assert plain.digest_payload() == default_flags.digest_payload()
    assert "rpg_budget" in _config(2).digest_payload()
