"""A store and a journal written by an older release still seed and resume.

``data/s27_store.sql`` is the ``sqlite3`` ``iterdump()`` text of the store
that ``python -m repro campaign --circuits s27 --store s27.sqlite`` wrote,
and ``data/s27_journal.jsonl`` the journal of ``python -m repro campaign
--circuits s27 --journal s27_journal.jsonl``.  Both were written before a
store's per-fault outcomes became journal-format records, so these tests pin
that files of that age keep working: the store seeds ``--incremental-from``
serially and sharded, and the journal resumes, each to the scratch result.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.orchestrate import OrchestratorConfig, run_campaign

DATA = Path(__file__).parent / "data"


def _scratch_fingerprint(circuit, config):
    """Fingerprint of a serial from-scratch campaign."""
    return SequentialDelayATPG(circuit, **config.atpg_kwargs()).run().fingerprint()


def _restored_store(tmp_path) -> str:
    """The checked-in store dump loaded into a fresh database file."""
    path = str(tmp_path / "s27.sqlite")
    conn = sqlite3.connect(path)
    try:
        conn.executescript((DATA / "s27_store.sql").read_text(encoding="utf-8"))
    finally:
        conn.close()
    return path


@pytest.mark.parametrize("jobs", [1, 2])
def test_checked_in_store_seeds_incremental(tmp_path, jobs):
    """The old store seeds an incremental re-run of an edited s27."""
    edited = load_circuit("s27")
    edited.add_gate("eco_obs", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_output("eco_obs")
    config = OrchestratorConfig(jobs=jobs)
    run = run_campaign(edited.copy(), config, incremental_from=_restored_store(tmp_path))
    assert run.incremental["base_campaign_id"] == 1
    assert run.incremental["reused"] > 0
    assert run.result.fingerprint() == _scratch_fingerprint(edited, config)


@pytest.mark.parametrize("torn", [False, True], ids=["finished", "torn"])
def test_checked_in_journal_resumes(tmp_path, torn):
    """The old journal resumes to the scratch result, finished or torn
    mid-file, in-process and sharded; its ``drop`` records are ignored."""
    lines = (DATA / "s27_journal.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert sum('"type": "drop"' in line for line in lines) == 27
    if torn:
        cut = len(lines) // 2
        lines = lines[:cut] + [lines[cut][: len(lines[cut]) // 2]]
    for jobs in (1, 2):
        journal = tmp_path / f"s27-jobs{jobs}.jsonl"
        journal.write_text("".join(lines), encoding="utf-8")
        config = OrchestratorConfig(jobs=jobs)
        run = run_campaign(load_circuit("s27"), config, journal_path=str(journal), resume=True)
        assert run.result.fingerprint() == _scratch_fingerprint(load_circuit("s27"), config)
