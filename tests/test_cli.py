"""End-to-end coverage of the ``python -m repro`` command line interface.

Each subcommand is exercised the way a user would run it, on the embedded
s27 benchmark so the tests stay fast.  One test goes through a real
subprocess to cover the ``python -m repro`` entry point itself; the rest
call :func:`repro.__main__.main` in-process and inspect stdout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.data import list_circuits
from repro.data.s27 import S27_BENCH


def run_cli(capsys, *argv):
    """Run the CLI in-process and return (exit_code, stdout)."""
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_circuits_lists_registry(capsys):
    code, out = run_cli(capsys, "circuits")
    assert code == 0
    assert "s27" in out and "s1238" in out
    assert "embedded" in out and "surrogate" in out
    # One header plus one row per registered circuit.
    assert len(out.strip().splitlines()) == 1 + len(list_circuits())


def test_tables_prints_algebra(capsys):
    code, out = run_cli(capsys, "tables")
    assert code == 0
    assert "Table 1" in out and "Table 2" in out
    # The eight-valued algebra symbols appear in the rendered tables.
    for symbol in ("R", "F", "0h", "1h", "Rc", "Fc"):
        assert symbol in out


def test_campaign_on_s27(capsys):
    code, out = run_cli(capsys, "campaign", "--circuits", "s27")
    assert code == 0
    assert "s27" in out
    assert "tested" in out and "untstbl" in out
    assert "comb.untestable" in out


def _without_timings(report: str) -> str:
    """Drop the wall-clock column, the only backend-dependent output."""
    lines = []
    for line in report.splitlines():
        fields = line.split()
        if fields and "." in fields[-1] and fields[-1].replace(".", "").isdigit():
            fields = fields[:-1]
        lines.append(" ".join(fields))
    return "\n".join(lines)


def test_campaign_packed_backend_matches_reference(capsys):
    code, reference_out = run_cli(
        capsys, "campaign", "--circuits", "s27", "--backend", "reference"
    )
    assert code == 0
    # No --backend: the process default must be the packed backend.
    code, packed_out = run_cli(capsys, "campaign", "--circuits", "s27")
    assert code == 0
    assert _without_timings(packed_out) == _without_timings(reference_out)


def test_campaign_with_max_faults_and_options(capsys):
    code, out = run_cli(
        capsys,
        "campaign",
        "--circuits",
        "s27",
        "--max-faults",
        "5",
        "--non-robust",
        "--backtrack-limit",
        "50",
    )
    assert code == 0
    assert "s27" in out


def test_campaign_from_bench_file(tmp_path, capsys):
    bench = tmp_path / "mini.bench"
    bench.write_text(S27_BENCH)
    code, out = run_cli(capsys, "campaign", "--circuits", str(bench))
    assert code == 0
    assert "mini" in out


def test_campaign_jobs4_row_matches_serial(capsys):
    """The acceptance check: ``--jobs 4`` must print the serial Table 3 rows.

    Uses the literal ``s27,s838-surrogate`` circuit pairing (down-scaled so
    the test stays fast); everything except the wall-clock column must be
    identical, untestable breakdown included.
    """
    code, parallel_out = run_cli(
        capsys,
        "campaign",
        "--circuits", "s27,s838-surrogate",
        "--scale", "0.12",
        "--jobs", "4",
    )
    assert code == 0
    assert "Shard summary" in parallel_out
    code, serial_out = run_cli(
        capsys,
        "campaign",
        "--circuits", "s27,s838-surrogate",
        "--scale", "0.12",
        "--jobs", "1",
    )
    assert code == 0
    parallel_tables = parallel_out.split("Shard summary")[0].strip()
    assert _without_timings(parallel_tables) == _without_timings(serial_out.strip())


def test_campaign_journal_and_resume(tmp_path, capsys):
    journal = str(tmp_path / "campaign.jsonl")
    code, first_out = run_cli(
        capsys, "campaign", "--circuits", "s27", "--jobs", "2", "--journal", journal
    )
    assert code == 0
    # Resuming the finished journal reuses the stored result.
    code, resumed_out = run_cli(
        capsys, "campaign", "--circuits", "s27", "--resume", journal
    )
    assert code == 0
    first_table = first_out.split("Shard summary")[0].strip()
    assert _without_timings(resumed_out.strip()) == _without_timings(first_table)


def test_campaign_rejects_time_limit_with_jobs(capsys):
    code = main(["campaign", "--circuits", "s27", "--jobs", "2", "--time-limit", "1"])
    assert code == 2


def test_campaign_rejects_conflicting_journal_paths(capsys):
    code = main(
        ["campaign", "--circuits", "s27", "--journal", "a.jsonl", "--resume", "b.jsonl"]
    )
    assert code == 2


def test_unknown_circuit_raises(capsys):
    """An unknown circuit name is a one-line usage error, not a traceback."""
    code = main(["campaign", "--circuits", "s9999"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "unknown circuit 's9999'" in captured.err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (("campaign", "--rpg-prefix", "--rpg-window", "0"), "'rpg_window' must be >= 1"),
        (("campaign", "--rpg-prefix", "--rpg-budget", "0"), "'rpg_budget' must be >= 1"),
        (("campaign", "--rpg-window", "0"), "'rpg_window' must be >= 1"),
        (("campaign", "--backtrack-limit", "0"), "'local_backtrack_limit' must be >= 1"),
        (("campaign", "--jobs", "0"), "'jobs' must be >= 1"),
        (("campaign", "--time-limit", "-1"), "'time_limit_s' must be > 0"),
        (("campaign", "--max-faults", "-3"), "'max_target_faults' must be >= 1"),
        (("campaign", "--scale", "-1"), "'scale' must be > 0"),
        (("campaign", "--circuits", "s208", "--scale", "0"), "'scale' must be > 0"),
        (("campaign", "--resume", "{tmp}/missing.jsonl"), "missing.jsonl"),
        (
            ("store", "ingest", "--store", "{tmp}/s.sqlite", "--journal", "{tmp}/missing.jsonl"),
            "missing.jsonl",
        ),
        (
            ("store", "ingest", "--store", "{tmp}/s.sqlite", "--journal", "{tmp}/j.jsonl",
             "--circuits", "s9999"),
            "unknown circuit 's9999'",
        ),
    ],
    ids=[
        "rpg-window", "rpg-budget", "rpg-window-no-prefix", "backtrack-limit", "jobs",
        "time-limit", "max-faults", "scale-negative", "scale-zero", "resume-missing",
        "ingest-missing-journal", "ingest-unknown-circuit",
    ],
)
def test_input_errors_are_one_line_exit_2(tmp_path, capsys, argv, fragment):
    """A bad setting or input is one ``error:`` line on stderr and exit 2."""
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""  # nothing ran
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and fragment in captured.err


def test_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--circuits", "s27", "--backend", "warp-drive"])


def test_rejects_removed_backend(capsys):
    """The former ``bigint`` tier is not a valid choice any more."""
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--circuits", "s27", "--backend", "bigint"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bigint'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bench, message",
    [
        ("INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = NOT(x)\n", "combinational loop"),
        ("INPUT(a)\nOUTPUT(y)\ny = AND a\n", "unrecognised statement"),
    ],
    ids=["loop", "syntax"],
)
def test_malformed_netlist_fails_cleanly(tmp_path, capsys, bench, message):
    """A bad ``.bench`` file is one line on stderr and exit code 3."""
    path = tmp_path / "bad.bench"
    path.write_text(bench)
    code = main(["campaign", "--circuits", f"s27,{path}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""  # nothing ran, not even the valid s27
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: ") and message in captured.err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point_subprocess():
    repo_root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "repro", "circuits"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "s27" in result.stdout


# --------------------------------------------------------------------- #
# observability flags: --profile, --metrics-out, --verbose/--quiet
# --------------------------------------------------------------------- #
def test_campaign_profile_on_s27(capsys):
    code, out = run_cli(capsys, "campaign", "--circuits", "s27", "--profile")
    assert code == 0
    assert "Cost breakdown — s27" in out
    assert "Time per phase" in out
    assert "most expensive faults" in out
    # The deterministic campaign phases all show up in the phase table.
    for phase in ("campaign", "tdgen", "tdsim"):
        assert phase in out


def test_campaign_profile_on_surrogate(capsys):
    code, out = run_cli(
        capsys, "campaign", "--circuits", "s344", "--scale", "0.2", "--profile"
    )
    assert code == 0
    assert "Cost breakdown — s344" in out
    assert "Time per phase" in out


def test_campaign_metrics_out_writes_the_document(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    code, out = run_cli(
        capsys, "campaign", "--circuits", "s27", "--metrics-out", str(path)
    )
    assert code == 0
    assert f"metrics written to {path}" in out
    document = json.loads(path.read_text())
    assert document["version"] == 1
    assert document["context"]["command"] == "campaign"
    assert document["context"]["circuits"] == ["s27"]
    assert len(document["fault_costs"]) > 0
    counters = document["metrics"]["counters"]
    assert sum(
        value for key, value in counters.items()
        if key.startswith("repro_faults_total")
    ) == len(document["fault_costs"])


def test_campaign_metrics_out_with_jobs(tmp_path, capsys):
    """The orchestrated path produces the same document shape as serial."""
    serial_path = tmp_path / "serial.json"
    jobs_path = tmp_path / "jobs.json"
    run_cli(capsys, "campaign", "--circuits", "s27", "--metrics-out", str(serial_path))
    run_cli(
        capsys, "campaign", "--circuits", "s27", "--jobs", "2",
        "--metrics-out", str(jobs_path),
    )
    serial = json.loads(serial_path.read_text())
    parallel = json.loads(jobs_path.read_text())

    def stripped_costs(document):
        return [
            {k: v for k, v in cost.items() if k != "seconds"}
            for cost in document["fault_costs"]
        ]

    assert stripped_costs(parallel) == stripped_costs(serial)


def test_campaign_row_unchanged_by_profile(capsys):
    plain = run_cli(capsys, "campaign", "--circuits", "s27")[1]
    profiled = run_cli(capsys, "campaign", "--circuits", "s27", "--profile")[1]
    row = next(line for line in plain.splitlines() if line.startswith("s27"))
    profiled_row = next(
        line for line in profiled.splitlines() if line.startswith("s27")
    )
    assert _without_timings(row) == _without_timings(profiled_row)


def test_verbose_and_quiet_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--circuits", "s27", "--verbose", "--quiet"])


def test_verbose_flag_emits_info_logs(capsys):
    code = main(["campaign", "--circuits", "s27", "--verbose"])
    assert code == 0
    err = capsys.readouterr().err
    assert "campaign start: circuit=s27" in err
    assert "campaign done: circuit=s27" in err
