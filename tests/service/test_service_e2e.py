"""End-to-end tests of the ATPG daemon over real HTTP.

An in-process daemon (:class:`~repro.service.app.ServiceThread`) binds an
ephemeral loopback port; every test drives it exactly like an external
client would — ``POST /jobs``, poll, fetch the result.  The headline
assertions are the service-level acceptance criteria:

* a served campaign is fingerprint-identical to calling the orchestrate
  layer directly (the daemon adds no nondeterminism);
* an identical resubmission is a result-cache hit — finishes without any
  compute and says so;
* a same-netlist resubmission with different settings recomputes the
  campaign but never recompiles the netlist (compile counter pinned);
* jobs run in priority order, higher first, FIFO within a priority;
* a per-job time limit runs the serial bounded path and is never cached;
* malformed requests surface as 4xx JSON errors, not hung connections.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.data import load_circuit
from repro.data.s27 import S27_BENCH
from repro.fausim.compile import compile_count
from repro.orchestrate import OrchestratorConfig, run_campaign

from tests.service.conftest import result_fingerprint


def _direct(circuit, **settings):
    """Direct ``run_campaign`` result (JSON) of the settings a test submits."""
    return run_campaign(circuit, OrchestratorConfig(**settings)).result.to_json()


@pytest.fixture(scope="module")
def s27_direct():
    """Direct orchestrate-layer run of the spec the e2e tests submit."""
    return _direct(load_circuit("s27"), jobs=2, campaign_seed=3)


# --------------------------------------------------------------------- #
# served results match direct runs
# --------------------------------------------------------------------- #
def test_served_result_matches_direct_run(daemon, s27_direct):
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 2, "seed": 3})
    job = client.wait(job_id)
    assert job["status"] == "done", job
    assert job["error"] is None
    assert job["total_faults"] == 52

    body = client.result(job_id)
    assert body["cache_hit"] is False
    assert result_fingerprint(body["campaign"]) == result_fingerprint(s27_direct)


def test_served_surrogate_matches_direct_run(daemon):
    _, client = daemon
    job_id = client.submit({"circuit": "s344", "scale": 0.25, "jobs": 2, "seed": 5})
    assert client.wait(job_id)["status"] == "done"
    served = client.result(job_id)["campaign"]

    direct = _direct(load_circuit("s344", scale=0.25), jobs=2, campaign_seed=5)
    assert result_fingerprint(served) == result_fingerprint(direct)


def test_inline_bench_submission(daemon, s27_direct):
    _, client = daemon
    job_id = client.submit({"bench": S27_BENCH, "name": "s27", "jobs": 2, "seed": 3})
    assert client.wait(job_id)["status"] == "done"
    served = client.result(job_id)["campaign"]
    assert result_fingerprint(served) == result_fingerprint(s27_direct)


def test_served_hybrid_campaign_matches_direct_run(daemon):
    """A hybrid JobSpec round-trips: prefix events, counters and the result."""
    _, client = daemon
    spec = {
        "circuit": "s344", "scale": 0.3, "jobs": 2, "seed": 0,
        "rpg_prefix": True, "rpg_budget": 64, "rpg_window": 8,
    }
    job_id = client.submit(spec)
    job = client.wait(job_id)
    assert job["status"] == "done", job
    assert job["prefix_recorded"] > 0

    served = client.result(job_id)["campaign"]
    assert served["prefix_applied"] == job["prefix_recorded"]
    assert served["prefix_detected"] > 0
    assert served["prefix_stop_reason"] in ("window", "budget", "exhausted")

    direct = _direct(
        load_circuit("s344", scale=0.3),
        jobs=2, campaign_seed=0,
        rpg_prefix=True, rpg_budget=64, rpg_window=8,
    )
    assert result_fingerprint(served) == result_fingerprint(direct)

    _, events = client.get(f"/jobs/{job_id}/events")
    kinds = [record["type"] for record in events["events"]]
    assert kinds.count("prefix") == job["prefix_recorded"]
    assert "prefix-done" in kinds
    assert kinds.index("prefix-done") < kinds.index("result")

    # the hybrid result is cached under its own key: a plain resubmission
    # of the same circuit/seed must NOT hit it
    plain = client.submit({"circuit": "s344", "scale": 0.3, "jobs": 2, "seed": 0})
    assert client.wait(plain)["cache_hit"] is False
    # ... while an identical hybrid resubmission does
    again = client.submit(spec)
    assert client.wait(again)["cache_hit"] is True


# --------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------- #
def test_identical_resubmission_is_a_result_cache_hit(daemon):
    _, client = daemon
    spec = {"circuit": "s27", "jobs": 2, "seed": 3}
    first = client.submit(spec)
    assert client.wait(first)["status"] == "done"
    compiles_after_first = compile_count()
    events_after_first = client.get(f"/jobs/{first}/events")[1]["next_offset"]
    assert events_after_first > 0  # the first run really computed

    second = client.submit(spec)
    job = client.wait(second)
    assert job["status"] == "done"
    assert job["cache_hit"] is True
    # no compute happened: no compile, no per-fault records — one cache note
    assert compile_count() == compiles_after_first
    _, events = client.get(f"/jobs/{second}/events")
    assert [record["type"] for record in events["events"]] == ["cache-hit"]

    # both report the same result; the second says it came from cache
    assert client.result(second)["cache_hit"] is True
    assert result_fingerprint(client.result(second)["campaign"]) == result_fingerprint(
        client.result(first)["campaign"]
    )

    _, stats = client.get("/cache")
    assert stats["results"]["hits"] >= 1


def test_same_netlist_resubmission_skips_compilation(daemon):
    _, client = daemon
    first = client.submit({"bench": S27_BENCH, "jobs": 2, "seed": 3})
    assert client.wait(first)["status"] == "done"
    compiles_after_first = compile_count()

    # different seed -> different campaign (result-cache miss), same netlist
    second = client.submit({"bench": S27_BENCH, "jobs": 2, "seed": 4})
    job = client.wait(second)
    assert job["status"] == "done"
    assert job["cache_hit"] is False
    _, events = client.get(f"/jobs/{second}/events")
    assert events["next_offset"] > 1  # it really re-ran the campaign
    assert compile_count() == compiles_after_first  # ... on the warm netlist

    _, stats = client.get("/cache")
    assert stats["netlists"]["hits"] >= 1
    assert stats["netlists"]["entries"] == 1


# --------------------------------------------------------------------- #
# queue semantics
# --------------------------------------------------------------------- #
def test_priority_ordering(daemon_factory):
    _, client = daemon_factory(paused=True)
    low = client.submit({"circuit": "s27", "seed": 10, "priority": 0, "jobs": 1})
    mid = client.submit({"circuit": "s27", "seed": 11, "priority": 5, "jobs": 1})
    high = client.submit({"circuit": "s27", "seed": 12, "priority": 9, "jobs": 1})
    late_mid = client.submit({"circuit": "s27", "seed": 13, "priority": 5, "jobs": 1})

    _, status = client.get("/status")
    assert status["paused"] is True
    assert status["queue"] == [high, mid, late_mid, low]

    assert client.post("/queue/resume")[0] == 200
    jobs = {job_id: client.wait(job_id) for job_id in (low, mid, high, late_mid)}
    assert all(job["status"] == "done" for job in jobs.values())
    started = sorted(jobs, key=lambda job_id: jobs[job_id]["started_at"])
    assert started == [high, mid, late_mid, low]


def test_cancel_queued_job(daemon_factory):
    _, client = daemon_factory(paused=True)
    job_id = client.submit({"circuit": "s27"})
    status, body = client.post(f"/jobs/{job_id}/cancel")
    assert status == 200 and body["job"]["status"] == "cancelled"
    assert client.get(f"/jobs/{job_id}/result")[0] == 409
    # cancelling again is a 409: the job is already terminal
    assert client.post(f"/jobs/{job_id}/cancel")[0] == 409
    # resuming the queue must not run the cancelled job
    client.post("/queue/resume")
    time.sleep(0.2)
    assert client.get(f"/jobs/{job_id}")[1]["job"]["status"] == "cancelled"


def test_time_limited_job_runs_serial_and_is_not_cached(daemon):
    _, client = daemon
    spec = {"circuit": "s344", "scale": 0.3, "jobs": 1, "time_limit_s": 0.2}
    first = client.submit(spec)
    job = client.wait(first)
    assert job["status"] == "done"
    campaign = client.result(first)["campaign"]
    # the limit bit: the campaign stopped early, leaving faults untargeted
    assert campaign["targeted"] < campaign["total_faults"]

    second = client.submit(spec)
    job = client.wait(second)
    assert job["status"] == "done"
    assert job["cache_hit"] is False  # time-limited results are never cached


def test_time_limited_job_streams_progress(daemon):
    """A time-limited job runs in-process and streams its records like any job."""
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 1, "time_limit_s": 600})
    job = client.wait(job_id)
    assert job["status"] == "done"
    campaign = client.result(job_id)["campaign"]
    assert campaign["targeted"] > 0
    status, events = client.get(f"/jobs/{job_id}/events")
    assert status == 200
    kinds = [event.get("type") for event in events["events"]]
    assert kinds.count("campaign") == 1
    assert kinds.count("fault") == campaign["targeted"] == job["recorded"]


# --------------------------------------------------------------------- #
# events: offset polling and NDJSON streaming
# --------------------------------------------------------------------- #
def test_event_polling_pagination(daemon):
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 2})
    client.wait(job_id)
    _, first_page = client.get(f"/jobs/{job_id}/events?offset=0")
    assert first_page["done"] is True
    records = first_page["events"]
    assert records[0]["type"] == "campaign"
    assert any(record["type"] == "fault" for record in records)
    assert records[-1]["type"] == "result"
    assert first_page["next_offset"] == len(records)

    _, rest = client.get(f"/jobs/{job_id}/events?offset={first_page['next_offset']}")
    assert rest["events"] == []
    _, tail = client.get(f"/jobs/{job_id}/events?offset={len(records) - 2}")
    assert tail["events"] == records[-2:]


def test_event_stream_delivers_all_records(daemon):
    _, client = daemon
    job_id = client.submit({"circuit": "s27", "jobs": 2})
    # connect while the job is (probably) still running: the stream must
    # deliver every record exactly once and close at completion
    with socket.create_connection(("127.0.0.1", client.port), timeout=120) as sock:
        sock.sendall(
            f"GET /jobs/{job_id}/events?stream=1 HTTP/1.1\r\n"
            "Host: localhost\r\n\r\n".encode()
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head and b"application/x-ndjson" in head
    streamed = [json.loads(line) for line in body.decode().splitlines()]

    client.wait(job_id)
    _, polled = client.get(f"/jobs/{job_id}/events?offset=0")
    assert streamed == polled["events"]


# --------------------------------------------------------------------- #
# malformed requests -> 4xx JSON errors
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"circuit": "never-heard-of-it"}, "unknown circuit"),
        ({"circuit": "s27", "bench": "x"}, "exactly one"),
        ({"circuit": "s27", "time_limit_s": 1.0, "jobs": 2}, "requires 'jobs' == 1"),
        ({"circuit": "s27", "frobnicate": True}, "unknown field"),
        ({"bench": "this is not bench syntax ("}, ""),
        ([1, 2, 3], "JSON object"),
        ({"circuit": "s27", "backend": "numpy"}, "unknown backend 'numpy'"),
        (
            {"bench": "INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = NOT(x)\n"},
            "combinational loop",
        ),
    ],
)
def test_bad_submissions_are_400(daemon, payload, fragment):
    _, client = daemon
    status, body = client.post("/jobs", payload)
    assert status == 400
    assert fragment in body["error"]


def test_error_paths(daemon):
    _, client = daemon
    assert client.get("/jobs/job-999999")[0] == 404
    assert client.get("/jobs/job-999999/result")[0] == 404
    assert client.get("/nope")[0] == 404
    assert client.request("DELETE", "/jobs")[0] == 405

    # result of a queued/running job is a 409, not a 404
    job_id = client.submit({"circuit": "s27"})
    status, body = client.get(f"/jobs/{job_id}/result")
    if status != 200:  # may legitimately have finished already
        assert status == 409
    client.wait(job_id)

    # offset validation happens after the job lookup (unknown job -> 404)
    assert client.get(f"/jobs/{job_id}/events?offset=-1")[0] == 400
    assert client.get(f"/jobs/{job_id}/events?offset=nope")[0] == 400
    assert client.get("/jobs/job-999999/events?offset=-1")[0] == 404

    # non-JSON body
    status, body = client.request("POST", "/jobs", payload=None)
    assert status == 400 and "JSON" in body["error"]


def test_raw_socket_malformed_requests(daemon):
    _, client = daemon

    def roundtrip(raw: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", client.port), timeout=30) as sock:
            sock.sendall(raw)
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return response
                response += chunk

    assert b"400" in roundtrip(b"GARBAGE\r\n\r\n").split(b"\r\n", 1)[0]
    oversized = (
        b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
    )
    assert b"413" in roundtrip(oversized).split(b"\r\n", 1)[0]


def test_index_and_status_endpoints(daemon):
    _, client = daemon
    status, body = client.get("/")
    assert status == 200 and "POST /jobs" in body["endpoints"]
    status, body = client.get("/status")
    assert status == 200 and body["status"] == "running"
    status, body = client.get("/jobs")
    assert status == 200 and body["jobs"] == []


# --------------------------------------------------------------------- #
# store-backed incremental jobs
# --------------------------------------------------------------------- #
@pytest.fixture()
def s27_store(tmp_path):
    """A store holding one finished s27 base under JobSpec default settings."""
    from repro.core.flow import SequentialDelayATPG
    from repro.store import CampaignStore

    circuit = load_circuit("s27")
    config = OrchestratorConfig(
        jobs=1,
        campaign_seed=0,
        robust=True,
        local_backtrack_limit=100,
        sequential_backtrack_limit=100,
    )
    result = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run()
    path = str(tmp_path / "base.sqlite")
    with CampaignStore(path) as store:
        store.ingest_result(result, circuit=circuit, config=config)
    return path, config


def test_incremental_job_matches_scratch(daemon, s27_store):
    """An incremental_from job returns the exact from-scratch campaign."""
    from repro.circuit.bench import write_bench
    from repro.circuit.gates import GateType
    from repro.core.flow import SequentialDelayATPG

    store_path, config = s27_store
    edited = load_circuit("s27")
    edited.add_gate("eco_obs", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_output("eco_obs")
    scratch = SequentialDelayATPG(edited.copy(), **config.atpg_kwargs()).run()

    _, client = daemon
    job_id = client.submit(
        {
            "bench": write_bench(edited),
            "name": "s27",
            "incremental_from": store_path,
            "jobs": 4,  # a sharded, journaled run that reads the reused records
        }
    )
    job = client.wait(job_id)
    assert job["status"] == "done", job
    # Reused records stream as fault events once, never also as resumed ones.
    assert 0 < job["recorded"] <= job["total_faults"]
    body = client.result(job_id)
    assert body["cache_hit"] is False
    assert result_fingerprint(body["campaign"]) == result_fingerprint(
        scratch.to_json()
    )

    # The job's event stream records the reuse accounting.
    status, events = client.get(f"/jobs/{job_id}/events")
    assert status == 200
    (record,) = [e for e in events["events"] if e.get("type") == "incremental"]
    assert record["kept"] + record["invalidated"] == body["campaign"]["total_faults"]
    assert record["reused"] > 0
    kinds = [e.get("type") for e in events["events"]]
    assert kinds.count("fault") == job["recorded"]
    assert kinds.count("fault") >= record["reused"]
    (header,) = [e for e in events["events"] if e.get("type") == "campaign"]
    assert header["resumed_records"] == 0

    # Bit-identity makes the result cacheable under the ordinary campaign
    # key: an equivalent from-scratch submission is a cache hit.
    rerun = client.submit({"bench": write_bench(edited), "name": "s27"})
    client.wait(rerun)
    assert client.result(rerun)["cache_hit"] is True


def test_incremental_job_mismatched_store_fails_cleanly(daemon, s27_store):
    """A spec whose settings have no stored base fails the job, not the daemon."""
    store_path, _ = s27_store
    _, client = daemon
    job_id = client.submit(
        {"circuit": "s27", "incremental_from": store_path, "robust": False}
    )
    job = client.wait(job_id)
    assert job["status"] == "failed"
    assert "no campaign" in job["error"]
    # the daemon is still serving
    assert client.get("/status")[0] == 200


def _eco_s27():
    """s27 with the ECO observer edit: AND of the first two PIs at a new PO."""
    from repro.circuit.gates import GateType

    edited = load_circuit("s27")
    edited.add_gate("eco_obs", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_output("eco_obs")
    return edited


def test_incremental_job_accepts_prefix_and_time_limit(daemon, tmp_path, s27_store):
    """rpg_prefix and time_limit_s combine with incremental_from.

    The hybrid job matches a from-scratch hybrid campaign; the time-limited
    job (serial, like every time-limited job) is not cached.
    """
    import dataclasses

    from repro.circuit.bench import write_bench
    from repro.core.flow import SequentialDelayATPG
    from repro.store import CampaignStore

    store_path, config = s27_store
    hybrid = dataclasses.replace(config, rpg_prefix=True, rpg_budget=32, rpg_window=8)
    hybrid_store = str(tmp_path / "hybrid.sqlite")
    base = SequentialDelayATPG(load_circuit("s27"), **hybrid.atpg_kwargs()).run(
        prefix=hybrid.prefix_config()
    )
    with CampaignStore(hybrid_store) as store:
        store.ingest_result(base, circuit=load_circuit("s27"), config=hybrid)
    scratch = SequentialDelayATPG(_eco_s27(), **hybrid.atpg_kwargs()).run(
        prefix=hybrid.prefix_config()
    )

    _, client = daemon
    bench = write_bench(_eco_s27())
    job_id = client.submit(
        {
            "bench": bench, "name": "s27", "incremental_from": hybrid_store,
            "rpg_prefix": True, "rpg_budget": 32, "rpg_window": 8,
        }
    )
    assert client.wait(job_id)["status"] == "done"
    campaign = client.result(job_id)["campaign"]
    assert campaign["prefix_applied"] > 0
    assert result_fingerprint(campaign) == result_fingerprint(scratch.to_json())

    job_id = client.submit(
        {
            "bench": bench, "name": "s27", "incremental_from": store_path,
            "time_limit_s": 600, "jobs": 1,
        }
    )
    assert client.wait(job_id)["status"] == "done"
    rerun = client.submit({"bench": bench, "name": "s27"})
    client.wait(rerun)
    assert client.result(rerun)["cache_hit"] is False


def test_cancel_running_incremental_job(daemon, tmp_path):
    """Cancelling a running incremental job stops it as ``cancelled``."""
    from repro.core.flow import SequentialDelayATPG
    from repro.store import CampaignStore

    # A base capped at three targets leaves the re-run minutes of work.
    circuit = load_circuit("s838", scale=0.5)
    config = OrchestratorConfig(jobs=1)
    base = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(max_target_faults=3)
    store_path = str(tmp_path / "capped.sqlite")
    with CampaignStore(store_path) as store:
        store.ingest_result(base, circuit=circuit, config=config)

    _, client = daemon
    job_id = client.submit(
        {"circuit": "s838", "scale": 0.5, "jobs": 1, "incremental_from": store_path}
    )
    deadline = time.monotonic() + 120
    while client.get(f"/jobs/{job_id}")[1]["job"]["recorded"] < 3:
        assert time.monotonic() < deadline, "the incremental job never streamed records"
        time.sleep(0.05)
    status, body = client.post(f"/jobs/{job_id}/cancel")
    assert status == 200
    job = client.wait(job_id)
    assert job["status"] == "cancelled", job
    assert client.get(f"/jobs/{job_id}/result")[0] == 409


def test_cancel_running_time_limited_job(daemon):
    """Cancelling a running serial (time-limited) job stops it well inside its limit."""
    _, client = daemon
    submitted = time.monotonic()
    job_id = client.submit(
        {"circuit": "s838", "scale": 0.5, "jobs": 1, "time_limit_s": 600}
    )
    deadline = submitted + 120
    while client.get(f"/jobs/{job_id}")[1]["job"]["status"] != "running":
        assert time.monotonic() < deadline, "the time-limited job never started"
        time.sleep(0.05)
    status, _ = client.post(f"/jobs/{job_id}/cancel")
    assert status == 200
    job = client.wait(job_id, timeout=120)
    assert job["status"] == "cancelled", job
    assert time.monotonic() - submitted < 120
    assert client.get(f"/jobs/{job_id}/result")[0] == 409


def test_queued_job_with_removed_partition_field_runs(daemon_factory, tmp_path, s27_direct):
    """A ``jobs.json`` from before ``partition`` was removed still loads and runs."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    spec = {
        "backend": None, "backtrack_limit": 100, "bench": None, "circuit": "s27",
        "incremental_from": None, "jobs": 2, "max_target_faults": None, "name": None,
        "partition": "round-robin", "priority": 0, "robust": True, "rpg_budget": 256,
        "rpg_prefix": False, "rpg_window": 16, "scale": 1.0, "seed": 3,
        "time_limit_s": None,
    }
    table = {
        "next_seq": 2,
        "jobs": [
            {
                "cache_hit": False, "error": None, "finished_at": None,
                "id": "job-000001", "resumed": False, "seq": 1, "spec": spec,
                "started_at": None, "status": "queued", "submitted_at": 0.0,
            }
        ],
    }
    (state_dir / "jobs.json").write_text(json.dumps(table), encoding="utf-8")
    _, client = daemon_factory(state_dir=state_dir)
    job = client.wait("job-000001")
    assert job["status"] == "done", job
    assert "partition" not in job["spec"]
    body = client.result("job-000001")
    assert result_fingerprint(body["campaign"]) == result_fingerprint(s27_direct)
