"""Campaign orchestration: sharded multi-process ATPG.

The subsystem hands one circuit's fault universe to worker processes through
a shared work queue, fed as the campaign loop reads the records; each worker
only runs the per-fault FOGBUSTER step (:mod:`~repro.orchestrate.worker`).
The coordinator checkpoints every outcome to a JSONL journal
(:mod:`~repro.orchestrate.journal`), and its campaign loop — the only place
that drops faults — builds a :class:`~repro.core.results.CampaignResult`
that is bit-identical to the serial campaign regardless of worker count or
scheduling (:mod:`~repro.orchestrate.coordinator`).

Quickstart::

    from repro import load_circuit
    from repro.orchestrate import OrchestratorConfig, run_campaign

    circuit = load_circuit("s838", scale=0.5)
    run = run_campaign(circuit, OrchestratorConfig(jobs=4))
    print(run.result.as_table3_row())
"""

from repro.orchestrate.coordinator import (
    CampaignInterrupted,
    CampaignOrchestrator,
    CampaignRun,
    OrchestratorConfig,
    campaign_mode,
    run_campaign,
)
from repro.orchestrate.journal import (
    CampaignJournal,
    JournalSegment,
    campaign_digest,
    load_segments,
    read_journal,
)

__all__ = [
    "CampaignInterrupted",
    "CampaignOrchestrator",
    "CampaignRun",
    "OrchestratorConfig",
    "campaign_mode",
    "run_campaign",
    "CampaignJournal",
    "JournalSegment",
    "campaign_digest",
    "load_segments",
    "read_journal",
]
