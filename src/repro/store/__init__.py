"""Persistent campaign store and incremental ATPG.

Campaign results no longer die with the process: :mod:`repro.store.store`
persists per-fault outcomes, sequences, timings and cost records into a
stdlib-sqlite3 file (schema in :mod:`repro.store.schema`), with cross-
campaign analytics (coverage trends, cost outliers, backend ablations) as
plain SQL.  On top of it, :mod:`repro.store.incremental` turns a stored
campaign into a reuse map for a re-run after a netlist edit: only the faults
inside the edit's sequential influence cone are re-targeted, and the result
is fingerprint-identical to a from-scratch run.

CLI surface: ``python -m repro store {ingest,query,report}``, plus
``--store`` / ``--incremental-from`` on ``python -m repro campaign`` and the
``incremental_from`` field of a service job.  The full schema and the
invalidation correctness argument live in ``docs/STORE.md``.
"""

from repro.store.incremental import (
    IncrementalOutcome,
    ReusePlan,
    influence_cone,
    invalidate,
    plan_reuse,
    run_incremental,
)
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import BaseCampaign, CampaignStore

__all__ = [
    "BaseCampaign",
    "CampaignStore",
    "IncrementalOutcome",
    "ReusePlan",
    "SCHEMA_VERSION",
    "influence_cone",
    "invalidate",
    "plan_reuse",
    "run_incremental",
]
