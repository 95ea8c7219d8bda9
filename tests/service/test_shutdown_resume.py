"""Crash/robustness tests: graceful shutdown checkpoints, restart resumes.

The service contract under test: a SIGTERM (or an embedded ``stop()``)
mid-campaign loses no finished work — the in-flight job is checkpointed
through its JSONL journal, marked ``interrupted`` in the persisted table,
and a daemon restarted on the same state directory re-queues it with
resume semantics.  The resumed merge must be **fingerprint-identical** to
an uninterrupted run (and hence to the serial campaign — the
orchestrate-layer contract the service builds on).

Two tiers:

* in-process: ``ServiceThread`` stopped between record boundaries —
  fast, deterministic, runs everywhere;
* subprocess: a real ``python -m repro serve`` daemon SIGTERMed at
  randomized progress points (property-style, seeded), restarted, and
  polled to completion.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.data import load_circuit
from repro.orchestrate import OrchestratorConfig, run_campaign

from tests.service.conftest import ServiceClient, result_fingerprint

SPEC = {"circuit": "s344", "scale": 0.3, "jobs": 2, "seed": 7}


@pytest.fixture(scope="module")
def uninterrupted():
    """The campaign the daemon should reproduce, run directly and once."""
    circuit = load_circuit("s344", scale=SPEC["scale"])
    config = OrchestratorConfig(jobs=SPEC["jobs"], campaign_seed=SPEC["seed"])
    return run_campaign(circuit, config).result.to_json()


def _wait_for_events(client, job_id, minimum, timeout=120.0):
    """Block until the job has recorded at least ``minimum`` progress events."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = client.get(f"/jobs/{job_id}/events")
        if status == 200:
            if body["next_offset"] >= minimum:
                return body["next_offset"]
            if body["done"]:
                return body["next_offset"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {minimum} events")


# --------------------------------------------------------------------- #
# in-process: embedded graceful stop
# --------------------------------------------------------------------- #
def test_graceful_stop_resumes_fingerprint_identical(daemon_factory, tmp_path, uninterrupted):
    state_dir = tmp_path / "state"
    thread, client = daemon_factory(state_dir)
    job_id = client.submit(SPEC)
    _wait_for_events(client, job_id, minimum=5)
    thread.stop()  # graceful: waits for the record-boundary checkpoint

    # the interrupted state is persisted, journal and all
    table = json.loads((state_dir / "jobs.json").read_text())
    (row,) = [row for row in table["jobs"] if row["id"] == job_id]
    assert row["status"] in ("interrupted", "done")
    journal = state_dir / "journals" / f"{job_id}.jsonl"
    assert journal.exists() and journal.stat().st_size > 0

    # a new daemon on the same state dir re-queues and finishes the job
    _, client2 = daemon_factory(state_dir)
    job = client2.wait(job_id)
    assert job["status"] == "done"
    assert job["error"] is None
    if row["status"] == "interrupted":
        assert job["resumed"] is True

    served = client2.result(job_id)["campaign"]
    assert result_fingerprint(served) == result_fingerprint(uninterrupted)


def test_submit_during_drain_is_503(daemon_factory):
    thread, client = daemon_factory()
    thread.service.shutdown.stopping = True
    status, body = client.post("/jobs", {"circuit": "s27"})
    assert status == 503
    assert "shutting down" in body["error"]
    thread.service.shutdown.stopping = False  # let teardown stop cleanly


# --------------------------------------------------------------------- #
# subprocess: real daemon, real SIGTERM, property-style kill points
# --------------------------------------------------------------------- #
class _Daemon:
    """One ``python -m repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, state_dir: Path, port_file: Path) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--state-dir", str(state_dir),
                "--port-file", str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.process.poll() is not None:
                raise AssertionError(
                    "daemon exited at startup:\n"
                    + self.process.stdout.read().decode(errors="replace")
                )
            if time.monotonic() > deadline:
                raise AssertionError("daemon did not bind within 60s")
            time.sleep(0.05)
        self.client = ServiceClient(int(port_file.read_text()))
        port_file.unlink()

    def sigterm_and_wait(self, timeout=120.0) -> int:
        """Send SIGTERM and wait for the graceful exit."""
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)

    def kill(self) -> None:
        """Hard-kill (teardown safety net)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


@pytest.mark.parametrize("trial_seed", [0, 1])
def test_sigterm_mid_campaign_resumes_fingerprint_identical(
    tmp_path, uninterrupted, trial_seed
):
    state_dir = tmp_path / "state"
    total_events = len(uninterrupted["fault_results"])  # lower bound on records
    kill_after = random.Random(trial_seed).randint(2, max(3, total_events // 2))

    first = _Daemon(state_dir, tmp_path / "port-a")
    try:
        job_id = first.client.submit(SPEC)
        reached = _wait_for_events(first.client, job_id, minimum=kill_after)
        assert first.sigterm_and_wait() == 0
    finally:
        first.kill()

    # the daemon checkpointed: some progress is journaled, the table knows
    journal = state_dir / "journals" / f"{job_id}.jsonl"
    assert journal.exists() and journal.stat().st_size > 0
    table = json.loads((state_dir / "jobs.json").read_text())
    (row,) = [r for r in table["jobs"] if r["id"] == job_id]
    assert row["status"] in ("interrupted", "done")

    second = _Daemon(state_dir, tmp_path / "port-b")
    try:
        job = second.client.wait(job_id, timeout=300)
        assert job["status"] == "done", job
        assert job["error"] is None
        if row["status"] == "interrupted":
            assert job["resumed"] is True
            # the resumed run really skipped the checkpointed prefix
            _, events = second.client.get(f"/jobs/{job_id}/events")
            resumed_header = events["events"][0]
            assert resumed_header["type"] == "campaign"
            assert resumed_header.get("resumed_records", 0) > 0
        served = second.client.result(job_id)["campaign"]
        assert second.sigterm_and_wait() == 0
    finally:
        second.kill()

    assert result_fingerprint(served) == result_fingerprint(uninterrupted)


def test_sigterm_mid_incremental_campaign_resumes_to_scratch(tmp_path):
    """An incremental job SIGTERMed mid-run resumes from its journal.

    The base is capped, so the re-run reuses a few records and re-targets
    the rest; the resumed result equals a from-scratch run on the edited
    netlist.
    """
    from repro.circuit.bench import write_bench
    from repro.circuit.gates import GateType
    from repro.core.flow import SequentialDelayATPG
    from repro.store import CampaignStore

    circuit = load_circuit("s344", scale=SPEC["scale"])
    config = OrchestratorConfig(jobs=1, campaign_seed=SPEC["seed"])
    base = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(max_target_faults=5)
    store_path = str(tmp_path / "base.sqlite")
    with CampaignStore(store_path) as store:
        store.ingest_result(base, circuit=circuit, config=config)
    edited = circuit.copy()
    edited.add_gate("eco_obs", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_output("eco_obs")
    scratch = SequentialDelayATPG(edited.copy(), **config.atpg_kwargs()).run()
    spec = {
        "bench": write_bench(edited), "name": circuit.name, "jobs": SPEC["jobs"],
        "seed": SPEC["seed"], "incremental_from": store_path,
    }

    state_dir = tmp_path / "state"
    first = _Daemon(state_dir, tmp_path / "port-a")
    try:
        job_id = first.client.submit(spec)
        _wait_for_events(first.client, job_id, minimum=12)
        assert first.sigterm_and_wait() == 0
    finally:
        first.kill()
    table = json.loads((state_dir / "jobs.json").read_text())
    (row,) = [r for r in table["jobs"] if r["id"] == job_id]
    assert row["status"] in ("interrupted", "done")

    second = _Daemon(state_dir, tmp_path / "port-b")
    try:
        job = second.client.wait(job_id, timeout=300)
        assert job["status"] == "done", job
        assert job["recorded"] <= job["total_faults"]
        if row["status"] == "interrupted":
            assert job["resumed"] is True
        served = second.client.result(job_id)["campaign"]
        assert second.sigterm_and_wait() == 0
    finally:
        second.kill()

    assert result_fingerprint(served) == result_fingerprint(scratch.to_json())
