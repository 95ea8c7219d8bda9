"""Unit tests of the campaign store: round-trips, journal ingest, safety.

Everything runs on the embedded s27 benchmark so the suite stays tier-1
fast.  The invariant under test throughout: whatever goes into the store
comes back **bit-identical** — a reloaded campaign's ``to_json()`` equals
the ingested one's, cost records survive field for field, and any store
whose contents no longer match their recorded digests is rejected rather
than silently reused.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate import CampaignOrchestrator, OrchestratorConfig
from repro.store import CampaignStore


def _config(**overrides) -> OrchestratorConfig:
    """A small serial config; overrides map onto OrchestratorConfig fields."""
    settings = {"jobs": 1, "local_backtrack_limit": 20, "sequential_backtrack_limit": 20}
    settings.update(overrides)
    return OrchestratorConfig(**settings)


def _run_serial(circuit, config, metrics=None):
    """One serial campaign under ``config``; returns (result, cost log)."""
    atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
    result = atpg.run(prefix=config.prefix_config())
    return result, list(atpg.cost_log)


@pytest.fixture(scope="module")
def s27_run():
    """One shared s27 campaign (circuit, config, result, costs)."""
    circuit = load_circuit("s27")
    config = _config()
    registry = MetricsRegistry()
    result, costs = _run_serial(circuit, config, metrics=registry)
    return circuit, config, result, costs


def test_ingest_load_round_trip(tmp_path, s27_run):
    """A reloaded campaign is bit-identical to the ingested one."""
    circuit, config, result, _ = s27_run
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        campaign_id = store.ingest_result(result, circuit=circuit, config=config)
        loaded = store.load_result(campaign_id)
    assert loaded.to_json() == result.to_json()
    assert loaded.fingerprint() == result.fingerprint()


def test_round_trip_covers_prefix_fields(tmp_path):
    """Hybrid-campaign rows keep the prefix counters and prefix sequences."""
    circuit = load_circuit("s27")
    config = _config(rpg_prefix=True, rpg_budget=32, rpg_window=8, campaign_seed=7)
    result, _ = _run_serial(circuit, config)
    assert result.prefix_applied > 0
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        campaign_id = store.ingest_result(result, circuit=circuit, config=config)
        loaded = store.load_result(campaign_id)
    assert loaded.to_json() == result.to_json()
    assert loaded.prefix_applied == result.prefix_applied
    assert loaded.prefix_detected == result.prefix_detected
    assert loaded.prefix_stop_reason == result.prefix_stop_reason
    assert [s.to_json() for s in loaded.prefix_sequences] == [
        s.to_json() for s in result.prefix_sequences
    ]


def test_round_trip_covers_cost_records(tmp_path, s27_run):
    """Per-fault obs cost records survive the store field for field."""
    circuit, config, result, costs = s27_run
    assert costs, "the metrics-enabled fixture campaign must log costs"
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        campaign_id = store.ingest_result(
            result, circuit=circuit, config=config, costs=costs
        )
        loaded = store.load_costs(campaign_id)
    assert [cost.to_json() for cost in loaded] == [cost.to_json() for cost in costs]


def test_fault_records_memo_matches_results(tmp_path, s27_run):
    """The per-fault memo rebuilds each outcome (minus recomputed fields)."""
    circuit, config, result, costs = s27_run
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        campaign_id = store.ingest_result(
            result, circuit=circuit, config=config, costs=costs
        )
        records = store.fault_records(campaign_id)
    assert set(records) == {str(r.fault) for r in result.fault_results}
    for fault_result in result.fault_results:
        rebuilt = records[str(fault_result.fault)].build_result()
        assert rebuilt.status is fault_result.status
        assert rebuilt.phase is fault_result.phase
        assert rebuilt.attempts == fault_result.attempts
        if fault_result.sequence is None:
            assert rebuilt.sequence is None
        else:
            assert rebuilt.sequence.to_json() == fault_result.sequence.to_json()


def test_journal_ingest_equivalent_to_result_ingest(tmp_path, s27_run):
    """A journal import reproduces the exact campaign the API import stores."""
    circuit, config, result, _ = s27_run
    journal = tmp_path / "s27.jsonl"
    orchestrator = CampaignOrchestrator(circuit, config=config, journal_path=str(journal))
    journaled = orchestrator.run()
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        direct_id = store.ingest_result(journaled, circuit=circuit, config=config)
        (journal_id,) = store.ingest_journal(str(journal), circuit=circuit, config=config)
        from_journal = store.load_result(journal_id)
        from_direct = store.load_result(direct_id)
    assert from_journal.to_json() == from_direct.to_json()
    # And the serial fixture campaign agrees too (modulo wall clock).
    assert from_journal.fingerprint() == result.fingerprint()


def test_torn_journal_ingests_as_partial(tmp_path, s27_run):
    """A journal cut mid-write still imports, flagged partial."""
    circuit, config, _, _ = s27_run
    journal = tmp_path / "s27.jsonl"
    CampaignOrchestrator(circuit, config=config, journal_path=str(journal)).run()
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    # Drop the final-result record and tear the last fault record in half.
    torn = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
    journal.write_text("".join(torn), encoding="utf-8")
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        (campaign_id,) = store.ingest_journal(
            str(journal), circuit=circuit, config=config
        )
        rows = store.campaigns()
        records = store.fault_records(campaign_id)
    assert rows[0]["partial"] == 1
    assert records, "the surviving fault records must still import"


def test_partial_journal_counts_each_fault_once(tmp_path):
    """A speculative record for an already-detected fault is skipped.

    Record 0 (``G0 StR``, tested) detects ``G17 StR``; a worker's
    speculative aborted record for ``G17 StR`` is never reached in serial
    order, so the partial row counts two tested faults and nothing aborted,
    and only ``G0 StR``'s cost record is stored.  Unrecorded faults stay out
    of every column.
    """
    import json

    from repro.core.results import FaultResult, FaultResultStatus, FlowPhase
    from repro.faults.model import enumerate_delay_faults
    from repro.obs.tracing import FaultCost

    universe = enumerate_delay_faults(load_circuit("s27"))
    by_name = {str(fault): fault for fault in universe}
    g0, g17 = by_name["G0 StR"], by_name["G17 StR"]

    def fault_record(index, fault, status, phase, detections):
        result = FaultResult(fault=fault, status=status, phase=phase)
        cost = FaultCost(
            fault=str(fault), status=status.value, phase=phase.name, seconds=0.5,
            attempts=1, local_backtracks=0, sequential_backtracks=0, decisions=3,
            implication_sweeps=4, wavefront_skipped=0, words_simulated=9,
            engine="packed",
        )
        return {
            "type": "fault", "index": index, "worker": 0,
            "result": result.to_json(),
            "detections": [detection.to_json() for detection in detections],
            "cost": cost.to_json(),
        }

    records = [
        {"type": "campaign", "circuit": "s27", "digest": "synthetic",
         "total_faults": len(universe)},
        fault_record(0, g0, FaultResultStatus.TESTED, FlowPhase.COMPLETE, [g0, g17]),
        fault_record(
            universe.index(g17), g17, FaultResultStatus.ABORTED, FlowPhase.LOCAL, []
        ),
    ]
    journal = tmp_path / "partial.jsonl"
    journal.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        (campaign_id,) = store.ingest_journal(str(journal))
        row = store.campaigns()[0]
        loaded = store.load_result(campaign_id)
        costs = store.load_costs(campaign_id)
    assert [cost.fault for cost in costs] == ["G0 StR"]
    assert row["partial"] == 1
    assert (row["tested"], row["untestable"], row["aborted"]) == (2, 0, 0)
    assert row["total_faults"] == len(universe)
    assert [str(result.fault) for result in loaded.fault_results] == ["G0 StR"]
    assert loaded.targeted == 1


def test_journal_ingest_rejects_wrong_settings(tmp_path, s27_run):
    """A journal cannot be imported under a different config digest."""
    circuit, config, result, _ = s27_run
    journal = tmp_path / "s27.jsonl"
    CampaignOrchestrator(circuit, config=config, journal_path=str(journal)).run()
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        with pytest.raises(ValueError, match="digest mismatch"):
            store.ingest_journal(
                str(journal), circuit=circuit, config=_config(robust=False)
            )


def test_find_base_requires_matching_config(tmp_path, s27_run):
    """A store written under robust settings never serves a non-robust run."""
    circuit, config, result, _ = s27_run
    path = str(tmp_path / "s.sqlite")
    with CampaignStore(path) as store:
        store.ingest_result(result, circuit=circuit, config=config)
        base = store.find_base("s27", config)
        assert base.fault_names
        with pytest.raises(LookupError, match="no campaign"):
            store.find_base("s27", _config(robust=False))
        with pytest.raises(LookupError, match="no campaign"):
            store.find_base("s27", _config(local_backtrack_limit=99))


def test_find_base_rejects_tampered_store(tmp_path, s27_run):
    """Edited fault rows or netlist text fail the digest re-derivation."""
    circuit, config, result, _ = s27_run
    path = str(tmp_path / "s.sqlite")
    with CampaignStore(path) as store:
        campaign_id = store.ingest_result(result, circuit=circuit, config=config)
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE faults SET fault = 'bogus StR' WHERE campaign_id = ? AND idx = 0",
            (campaign_id,),
        )
    conn.close()
    with CampaignStore(path) as store:
        with pytest.raises(ValueError, match="stale or corrupt"):
            store.find_base("s27", config)


def test_find_base_rejects_tampered_bench(tmp_path, s27_run):
    """A netlist swap behind an unchanged digest is caught."""
    circuit, config, result, _ = s27_run
    path = str(tmp_path / "s.sqlite")
    with CampaignStore(path) as store:
        campaign_id = store.ingest_result(result, circuit=circuit, config=config)
    conn = sqlite3.connect(path)
    bench = conn.execute(
        "SELECT bench FROM campaigns WHERE id = ?", (campaign_id,)
    ).fetchone()[0]
    with conn:
        conn.execute(
            "UPDATE campaigns SET bench = ? WHERE id = ?",
            (bench + "\n# tampered\n", campaign_id),
        )
    conn.close()
    # A comment-only edit keeps the digest (comments are stripped), so go
    # further: flip a gate type in the stored text.
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE campaigns SET bench = ? WHERE id = ?",
            (bench.replace("NAND", "NOR", 1), campaign_id),
        )
    conn.close()
    with CampaignStore(path) as store:
        with pytest.raises(ValueError, match="stale or corrupt"):
            store.find_base("s27", config)


def test_concurrent_writers_share_one_store(tmp_path, s27_run):
    """Several threads with their own connections ingest into one file."""
    circuit, config, result, _ = s27_run
    path = str(tmp_path / "s.sqlite")
    errors = []

    def ingest():
        try:
            with CampaignStore(path) as store:
                store.ingest_result(result, circuit=circuit, config=config)
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=ingest) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    with CampaignStore(path) as store:
        rows = store.campaigns()
        assert len(rows) == 4
        for row in rows:
            assert store.load_result(row["id"]).to_json() == result.to_json()


def test_schema_version_mismatch_rejected(tmp_path):
    """A store written by a different schema version does not open."""
    path = str(tmp_path / "s.sqlite")
    CampaignStore(path).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
    conn.close()
    with pytest.raises(ValueError, match="schema version"):
        CampaignStore(path)


def test_analytics_views(tmp_path, s27_run):
    """Coverage trend, cost outliers and backend ablation answer from SQL."""
    circuit, config, result, costs = s27_run
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        store.ingest_result(result, circuit=circuit, config=config, costs=costs)
        reference = _config(backend="reference")
        reference_result, _ = _run_serial(circuit, reference)
        store.ingest_result(reference_result, circuit=circuit, config=reference)
        trend = store.coverage_trend("s27")
        outliers = store.cost_outliers(limit=3)
        ablation = store.backend_ablation()
    assert [row["campaign_id"] for row in trend] == [1, 2]
    assert all(0.0 <= row["coverage"] <= 1.0 for row in trend)
    # Both backends produced bit-identical campaigns (tested counts agree).
    assert trend[0]["tested"] == trend[1]["tested"]
    assert len(outliers) == 3
    assert outliers[0]["seconds"] >= outliers[-1]["seconds"]
    assert {row["backend"] for row in ablation} == {"default", "reference"}


def test_ingest_without_circuit_is_analytics_only(tmp_path, s27_run):
    """Rows ingested without a netlist cannot serve as incremental bases."""
    _, config, result, _ = s27_run
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        campaign_id = store.ingest_result(result)
        assert store.load_result(campaign_id).to_json() == result.to_json()
        with pytest.raises(LookupError):
            store.find_base("s27", config)
