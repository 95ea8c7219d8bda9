"""End-to-end CLI coverage of the store surface.

``python -m repro campaign --store/--incremental-from`` and the ``store``
subcommand (``ingest``/``query``/``report``) are exercised in-process the
way a user would run them, plus the cross-resume safety rails: a robust
store or journal can never seed a non-robust re-run and vice versa.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.circuit.bench import parse_bench_file, write_bench
from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.orchestrate import OrchestratorConfig
from repro.store import CampaignStore


def run_cli(capsys, *argv):
    """Run the CLI in-process and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _edited_bench(tmp_path):
    """s27 with an ECO observer gate, written as ``s27.bench``.

    The file stem names the parsed circuit, so the store lookup matches the
    stored base campaign by circuit name.
    """
    circuit = load_circuit("s27")
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    path = tmp_path / "s27.bench"
    path.write_text(write_bench(circuit), encoding="utf-8")
    return str(path)


def test_campaign_store_then_incremental(tmp_path, capsys):
    """Run + store, edit the netlist, resume incrementally from the store."""
    store = str(tmp_path / "s.sqlite")
    code, out, _ = run_cli(capsys, "campaign", "--circuits", "s27", "--store", store)
    assert code == 0
    assert "stored s27 as campaign #1" in out

    code, out, _ = run_cli(
        capsys, "campaign", "--circuits", _edited_bench(tmp_path),
        "--incremental-from", store, "--store", store,
    )
    assert code == 0
    assert "Incremental re-run — s27: base campaign #1" in out
    assert "stored s27 as campaign #2" in out

    # The chained store now serves the *edited* netlist as a base: an
    # unchanged re-run reuses everything.
    code, out, _ = run_cli(
        capsys, "campaign", "--circuits", _edited_bench(tmp_path),
        "--incremental-from", store,
    )
    assert code == 0
    assert "base campaign #2" in out
    assert "retargeted 0" in out


def test_incremental_matches_direct_run_output(tmp_path, capsys):
    """The printed Table 3 row is identical to a from-scratch run."""
    store = str(tmp_path / "s.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--store", store)[0] == 0
    bench = _edited_bench(tmp_path)

    code, direct, _ = run_cli(capsys, "campaign", "--circuits", bench)
    assert code == 0
    code, incremental, _ = run_cli(
        capsys, "campaign", "--circuits", bench, "--incremental-from", store
    )
    assert code == 0

    def table_row(text):
        rows = [line for line in text.splitlines() if line.lstrip().startswith("s27")]
        return [row.split()[:-1] if "." in row else row.split() for row in rows]

    assert table_row(incremental) == table_row(direct)


HYBRID = ("--rpg-prefix", "--rpg-budget", "8", "--rpg-window", "4")


def _scratch_fingerprint(bench, extra):
    """Fingerprint of a from-scratch serial campaign under the CLI ``extra`` flags."""
    prefix = "--rpg-prefix" in extra
    config = OrchestratorConfig(jobs=1, rpg_prefix=prefix, rpg_budget=8, rpg_window=4)
    atpg = SequentialDelayATPG(parse_bench_file(bench), **config.atpg_kwargs())
    return atpg.run(prefix=config.prefix_config()).fingerprint()


def _stored_fingerprint(path, campaign_id=1):
    """Fingerprint of one campaign as reloaded from a store file."""
    with CampaignStore(path) as store:
        return store.load_result(campaign_id).fingerprint()


@pytest.mark.parametrize(
    "extra",
    [
        ("--jobs", "2"),
        (*HYBRID, "--jobs", "2"),
        ("--journal", "j.jsonl"),
    ],
    ids=["jobs2", "rpg-prefix-jobs2", "journal"],
)
def test_incremental_combination_matches_scratch(tmp_path, capsys, extra):
    """--incremental-from with sharding or a journal gives the serial scratch result."""
    store = str(tmp_path / "s.sqlite")
    rerun_store = str(tmp_path / "rerun.sqlite")
    base_extra = HYBRID if "--rpg-prefix" in extra else ()
    assert run_cli(capsys, "campaign", "--circuits", "s27", *base_extra, "--store", store)[0] == 0
    bench = _edited_bench(tmp_path)
    flags = [str(tmp_path / flag) if flag.endswith(".jsonl") else flag for flag in extra]
    code, out, err = run_cli(
        capsys, "campaign", "--circuits", bench, *flags,
        "--incremental-from", store, "--store", rerun_store,
    )
    assert code == 0, err
    assert "Incremental re-run — s27: base campaign #1" in out
    assert _stored_fingerprint(rerun_store) == _scratch_fingerprint(bench, extra)


def test_incremental_torn_journal_resumes_to_scratch(tmp_path, capsys):
    """A journaled incremental run torn mid-file resumes to the scratch result."""
    store = str(tmp_path / "s.sqlite")
    rerun_store = str(tmp_path / "rerun.sqlite")
    journal = tmp_path / "j.jsonl"
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--store", store)[0] == 0
    bench = _edited_bench(tmp_path)
    assert run_cli(
        capsys, "campaign", "--circuits", bench,
        "--incremental-from", store, "--journal", str(journal),
    )[0] == 0
    # What a kill mid-write leaves: the first half of the records and a
    # torn one after them, no final result.
    lines = journal.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = len(lines) // 2
    journal.write_text("".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2], encoding="utf-8")
    code, out, err = run_cli(
        capsys, "campaign", "--circuits", bench, "--incremental-from", store,
        "--resume", str(journal), "--store", rerun_store,
    )
    assert code == 0, err
    assert "Incremental re-run — s27" in out
    assert _stored_fingerprint(rerun_store) == _scratch_fingerprint(bench, ())


def test_incremental_journal_ingests_to_scratch(tmp_path, capsys):
    """The journal of an incremental run holds every reused record.

    ``store ingest`` rebuilds the campaign from the journal alone, so the
    ingested fingerprint equals the scratch one only if the reused records
    were journaled like the re-targeted ones.
    """
    store = str(tmp_path / "s.sqlite")
    ingested = str(tmp_path / "ingested.sqlite")
    journal = str(tmp_path / "j.jsonl")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--store", store)[0] == 0
    bench = _edited_bench(tmp_path)
    assert run_cli(
        capsys, "campaign", "--circuits", bench,
        "--incremental-from", store, "--journal", journal,
    )[0] == 0
    records = [json.loads(line) for line in open(journal, encoding="utf-8")]
    header = records[0]
    assert header["resumed_records"] == 0
    faults = [record for record in records if record["type"] == "fault"]
    assert len(faults) <= header["total_faults"]
    code, _, err = run_cli(
        capsys, "store", "ingest", "--store", ingested,
        "--journal", journal, "--circuits", bench,
    )
    assert code == 0, err
    assert _stored_fingerprint(ingested) == _scratch_fingerprint(bench, ())


@pytest.mark.parametrize("extra", [HYBRID, ("--time-limit", "600")])
def test_incremental_accepts_prefix_and_time_limit(tmp_path, capsys, extra):
    """--rpg-prefix and --time-limit combine with --incremental-from."""
    store = str(tmp_path / "s.sqlite")
    rerun_store = str(tmp_path / "rerun.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", *extra, "--store", store)[0] == 0
    bench = _edited_bench(tmp_path)
    code, out, _ = run_cli(
        capsys, "campaign", "--circuits", bench, *extra,
        "--incremental-from", store, "--store", rerun_store,
    )
    assert code == 0
    assert "Incremental re-run — s27" in out
    assert _stored_fingerprint(rerun_store) == _scratch_fingerprint(bench, extra)


def test_hybrid_journal_ingests_and_seeds_incremental(tmp_path, capsys):
    """A hybrid journal validates under store ingest and seeds a hybrid re-run."""
    journal = str(tmp_path / "h.jsonl")
    store = str(tmp_path / "s.sqlite")
    rerun_store = str(tmp_path / "rerun.sqlite")
    assert run_cli(
        capsys, "campaign", "--circuits", "s27", *HYBRID, "--journal", journal
    )[0] == 0
    code, out, err = run_cli(
        capsys, "store", "ingest", "--store", store,
        "--journal", journal, "--circuits", "s27", *HYBRID,
    )
    assert code == 0, err
    bench = _edited_bench(tmp_path)
    code, out, _ = run_cli(
        capsys, "campaign", "--circuits", bench, *HYBRID,
        "--incremental-from", store, "--store", rerun_store,
    )
    assert code == 0
    assert "Incremental re-run — s27: base campaign #1" in out
    assert _stored_fingerprint(rerun_store) == _scratch_fingerprint(bench, HYBRID)


def test_incremental_rejects_cross_config_store(tmp_path, capsys):
    """A robust store never seeds a non-robust incremental run."""
    store = str(tmp_path / "s.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--store", store)[0] == 0
    code, _, err = run_cli(
        capsys, "campaign", "--circuits", "s27",
        "--incremental-from", store, "--non-robust",
    )
    assert code == 2
    assert "no campaign for circuit 's27'" in err


def test_journal_cross_resume_rejected(tmp_path, capsys):
    """A robust journal cannot be resumed under --non-robust settings."""
    journal = str(tmp_path / "s27.jsonl")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--journal", journal)[0] == 0
    code, out, err = run_cli(
        capsys, "campaign", "--circuits", "s27", "--resume", journal, "--non-robust"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "digest" in err


def test_store_ingest_query_report(tmp_path, capsys):
    """Journal ingest, JSON queries and the human-readable report."""
    journal = str(tmp_path / "s27.jsonl")
    store = str(tmp_path / "s.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--journal", journal)[0] == 0

    code, out, _ = run_cli(
        capsys, "store", "ingest", "--store", store,
        "--journal", journal, "--circuits", "s27",
    )
    assert code == 0
    assert "ingested 1 campaign(s)" in out

    code, out, _ = run_cli(capsys, "store", "query", "campaigns", "--store", store)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["circuit"] == "s27"
    assert rows[0]["source"] == "journal"
    assert rows[0]["partial"] == 0

    code, out, _ = run_cli(capsys, "store", "query", "coverage", "--store", store)
    assert code == 0
    (trend,) = json.loads(out)
    assert 0.0 < trend["coverage"] <= 1.0

    code, out, _ = run_cli(capsys, "store", "query", "ablation", "--store", store)
    assert code == 0
    assert json.loads(out)[0]["campaigns"] == 1

    code, out, _ = run_cli(capsys, "store", "report", "--store", store)
    assert code == 0
    assert "Campaign store" in out and "s27" in out


def test_store_ingest_rejects_wrong_settings(tmp_path, capsys):
    """Journal ingest re-derives the digest and refuses a settings mismatch."""
    journal = str(tmp_path / "s27.jsonl")
    store = str(tmp_path / "s.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--journal", journal)[0] == 0
    code, _, err = run_cli(
        capsys, "store", "ingest", "--store", store,
        "--journal", journal, "--circuits", "s27", "--non-robust",
    )
    assert code == 2
    assert "digest mismatch" in err


def test_journal_then_incremental_via_store_ingest(tmp_path, capsys):
    """The full journal -> store -> incremental chain works end to end."""
    journal = str(tmp_path / "s27.jsonl")
    store = str(tmp_path / "s.sqlite")
    assert run_cli(capsys, "campaign", "--circuits", "s27", "--journal", journal)[0] == 0
    assert run_cli(
        capsys, "store", "ingest", "--store", store,
        "--journal", journal, "--circuits", "s27",
    )[0] == 0
    code, out, _ = run_cli(
        capsys, "campaign", "--circuits", _edited_bench(tmp_path),
        "--incremental-from", store,
    )
    assert code == 0
    assert "Incremental re-run — s27" in out
