"""Tests of the JSONL campaign journal: write, read, torn tails, segments."""

import json

import pytest

from repro.orchestrate.journal import (
    CampaignJournal,
    campaign_digest,
    load_segments,
    read_journal,
)


def _header(circuit="s27", digest="abc"):
    return {"type": "campaign", "circuit": circuit, "digest": digest}


def test_append_and_read_round_trip(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CampaignJournal(path) as journal:
        journal.append(_header())
        journal.append({"type": "fault", "index": 3, "worker": 0, "result": {}, "detections": []})
        journal.append({"type": "drop", "index": 4, "worker": 1, "by": 3})
    records = read_journal(path)
    assert [record["type"] for record in records] == ["campaign", "fault", "drop"]


def test_closed_journal_refuses_appends(tmp_path):
    journal = CampaignJournal(str(tmp_path / "journal.jsonl"))
    journal.close()
    with pytest.raises(ValueError):
        journal.append(_header())


def test_read_tolerates_torn_final_line_only(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text(json.dumps(_header()) + "\n" + '{"type": "fault", "ind')
    records = read_journal(str(path))
    assert len(records) == 1

    path.write_text('{"torn' + "\n" + json.dumps(_header()) + "\n")
    with pytest.raises(ValueError):
        read_journal(str(path))


def test_reopening_truncates_torn_tail(tmp_path):
    """A resume must cut the torn fragment, or it corrupts the next record."""
    path = tmp_path / "journal.jsonl"
    path.write_text(json.dumps(_header()) + "\n" + '{"type": "fault", "ind')
    with CampaignJournal(str(path)) as journal:
        journal.append({"type": "drop", "index": 1, "worker": 0, "by": 0})
    records = read_journal(str(path))
    assert [record["type"] for record in records] == ["campaign", "drop"]


def test_segments_merge_resumed_runs(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CampaignJournal(path) as journal:
        journal.append(_header("s27", "d1"))
        journal.append({"type": "fault", "index": 0, "worker": 0, "result": {}, "detections": []})
        # Journals written while workers dropped faults also hold ``drop``
        # records; they load and are ignored.
        journal.append({"type": "drop", "index": 2, "worker": 1, "by": 0})
        journal.append(_header("s386", "d2"))
        journal.append({"type": "fault", "index": 5, "worker": 0, "result": {}, "detections": []})
        # Resumed run of s27 appends a fresh header plus more records.
        journal.append(_header("s27", "d1"))
        journal.append({"type": "fault", "index": 1, "worker": 1, "result": {}, "detections": []})
        journal.append({"type": "result", "circuit": "s27", "campaign": {}})
    segments = load_segments(path)
    assert set(segments) == {"s27", "s386"}
    assert sorted(segments["s27"].fault_records) == [0, 1]
    assert segments["s27"].final is not None
    assert sorted(segments["s386"].fault_records) == [5]
    assert segments["s386"].final is None


def test_segments_reject_digest_change(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CampaignJournal(path) as journal:
        journal.append(_header("s27", "d1"))
        journal.append(_header("s27", "DIFFERENT"))
    with pytest.raises(ValueError):
        load_segments(path)


def test_records_before_header_are_rejected(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with CampaignJournal(path) as journal:
        journal.append({"type": "fault", "index": 0, "worker": 0, "result": {}, "detections": []})
    with pytest.raises(ValueError):
        load_segments(path)


def test_digest_tracks_circuit_config_and_universe(s27):
    from repro.faults.model import enumerate_delay_faults

    faults = enumerate_delay_faults(s27)
    base = campaign_digest("s27", {"robust": True}, faults)
    assert base == campaign_digest("s27", {"robust": True}, faults)
    assert base != campaign_digest("s298", {"robust": True}, faults)
    assert base != campaign_digest("s27", {"robust": False}, faults)
    assert base != campaign_digest("s27", {"robust": True}, faults[:-1])
    assert base != campaign_digest("s27", {"robust": True}, list(reversed(faults)))


def test_digest_ignores_backend():
    """Both backends are bit-exact, so the digest must not pin one.

    Regression test: ``OrchestratorConfig.digest_payload`` used to include
    the resolved backend, wrongly blocking a cross-backend ``--resume`` even
    though every backend produces identical per-fault results.
    """
    from repro.orchestrate.coordinator import OrchestratorConfig

    payloads = {
        backend: OrchestratorConfig(backend=backend).digest_payload()
        for backend in (None, "packed", "reference")
    }
    reference = payloads[None]
    for backend, payload in payloads.items():
        assert payload == reference, f"digest payload differs for {backend}"
    assert "backend" not in reference


@pytest.mark.parametrize(
    "settings, digest, payload_json",
    [
        (
            {},
            "e4c44b1fc512be0d",
            '{"campaign_seed": 0, "enable_fault_simulation": true, "fill_value": 0, '
            '"local_backtrack_limit": 100, "max_local_retries": 3, "robust": true, '
            '"sequential_backtrack_limit": 100, "verify_sequences": true}',
        ),
        (
            {
                "robust": False, "local_backtrack_limit": 8,
                "sequential_backtrack_limit": 8, "campaign_seed": 3,
            },
            "091ca89691dc2a43",
            '{"campaign_seed": 3, "enable_fault_simulation": true, "fill_value": 0, '
            '"local_backtrack_limit": 8, "max_local_retries": 3, "robust": false, '
            '"sequential_backtrack_limit": 8, "verify_sequences": true}',
        ),
        (
            {"rpg_prefix": True, "rpg_budget": 32, "rpg_window": 8},
            "bd77a6130ae201cf",
            '{"campaign_seed": 0, "enable_fault_simulation": true, "fill_value": 0, '
            '"local_backtrack_limit": 100, "max_local_retries": 3, "robust": true, '
            '"rpg_budget": 32, "rpg_length": 8, "rpg_prefix": true, "rpg_window": 8, '
            '"sequential_backtrack_limit": 100, "verify_sequences": true}',
        ),
    ],
    ids=["defaults", "non-robust-limit8-seed3", "hybrid-32-8"],
)
def test_campaign_digest_golden(settings, digest, payload_json):
    """Literal s27 digests: a changed settings payload would orphan every
    journal and store written before the change.

    The values were recorded before the config dropped its fixed engine
    settings (fill value, sequence verification, fault simulation, prefix
    sequence length); the digest still records them at their defaults.
    """
    from repro.data import load_circuit
    from repro.faults.model import enumerate_delay_faults
    from repro.orchestrate.coordinator import OrchestratorConfig
    from repro.store.store import config_payload_json

    payload = OrchestratorConfig(**settings).digest_payload()
    assert config_payload_json(payload) == payload_json
    universe = enumerate_delay_faults(load_circuit("s27"))
    assert campaign_digest("s27", payload, universe) == digest
