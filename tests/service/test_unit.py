"""Unit tests of the service building blocks: caches, specs, router, store.

These run without a daemon — they pin the digest/key semantics the e2e
suite relies on (name-independent netlist digests, seed/cap-sensitive
campaign keys), the request validation errors the API maps to 400s, the
route matching rules, and the job table's restart re-queue behaviour.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.circuit.bench import parse_bench
from repro.data import load_circuit
from repro.data.s27 import S27_BENCH
from repro.faults.model import enumerate_delay_faults
from repro.service import JobSpec, JobStore, ShutdownController, campaign_cache_key, netlist_digest
from repro.service.api import ApiError, Request, Router, read_request
from repro.service.cache import _LruCache


# --------------------------------------------------------------------- #
# digests and cache keys
# --------------------------------------------------------------------- #
def test_netlist_digest_is_name_independent():
    a = parse_bench(S27_BENCH, name="s27")
    b = parse_bench(S27_BENCH, name="renamed")
    assert netlist_digest(a) == netlist_digest(b)


def test_netlist_digest_distinguishes_netlists():
    assert netlist_digest(load_circuit("s27")) != netlist_digest(
        load_circuit("s344", scale=0.3)
    )


def test_campaign_cache_key_sensitivity():
    circuit = load_circuit("s27")
    digest = netlist_digest(circuit)
    faults = enumerate_delay_faults(circuit)

    def key(spec):
        return campaign_cache_key(
            digest,
            circuit.name,
            spec.orchestrator_config().digest_payload(),
            faults,
            spec.max_target_faults,
        )

    base = JobSpec(circuit="s27")
    assert key(base) == key(JobSpec(circuit="s27"))
    # jobs/priority do not change the merged result -> same key
    assert key(base) == key(JobSpec(circuit="s27", jobs=4, priority=9))
    # anything the campaign outcome depends on changes the key
    assert key(base) != key(JobSpec(circuit="s27", seed=1))
    assert key(base) != key(JobSpec(circuit="s27", robust=False))
    assert key(base) != key(JobSpec(circuit="s27", backtrack_limit=50))
    assert key(base) != key(JobSpec(circuit="s27", max_target_faults=5))
    # a hybrid campaign is a different result; its knobs only count when on
    assert key(base) != key(JobSpec(circuit="s27", rpg_prefix=True))
    assert key(base) == key(JobSpec(circuit="s27", rpg_budget=99, rpg_window=3))
    assert key(JobSpec(circuit="s27", rpg_prefix=True)) != key(
        JobSpec(circuit="s27", rpg_prefix=True, rpg_budget=99)
    )


def test_lru_cache_eviction_and_counters():
    cache = _LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes a
    cache.put("c", 3)  # evicts b (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    stats = cache.stats()
    assert stats == {
        "entries": 2, "max_entries": 2, "hits": 3, "misses": 1, "evictions": 1,
    }


# --------------------------------------------------------------------- #
# job specs
# --------------------------------------------------------------------- #
def test_spec_from_request_roundtrip():
    spec = JobSpec.from_request(
        {"circuit": "s27", "jobs": 3, "seed": 4, "priority": 2, "robust": False}
    )
    assert (spec.circuit, spec.jobs, spec.seed, spec.priority, spec.robust) == (
        "s27", 3, 4, 2, False,
    )
    assert JobSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([], "JSON object"),
        ({}, "exactly one of 'circuit' and 'bench'"),
        ({"circuit": "s27", "bench": "INPUT(a)"}, "exactly one of"),
        ({"circuit": "nope"}, "unknown circuit"),
        # The removed ``partition`` setting is an unknown field now.
        ({"circuit": "s27", "partition": "dynamic"}, "unknown field(s): partition"),
        ({"circuit": "s27", "backend": "nope"}, "unknown backend"),
        ({"circuit": "s27", "jobs": 0}, "'jobs' must be >= 1"),
        ({"circuit": "s27", "jobs": "two"}, "must be an integer"),
        ({"circuit": "s27", "scale": -1}, "'scale' must be > 0"),
        ({"circuit": "s27", "robust": "yes"}, "must be a boolean"),
        ({"circuit": "s27", "max_target_faults": 0}, "must be >= 1"),
        ({"circuit": "s27", "time_limit_s": 0}, "must be > 0"),
        ({"circuit": "s27", "time_limit_s": 1.0, "jobs": 2}, "requires 'jobs' == 1"),
        ({"circuit": "s27", "rpg_budget": 0}, "'rpg_budget' must be >= 1"),
        ({"circuit": "s27", "rpg_window": 0}, "'rpg_window' must be >= 1"),
        ({"circuit": "s27", "rpg_prefix": "yes"}, "must be a boolean"),
        ({"circuit": "s27", "frobnicate": 1}, "unknown field"),
    ],
)
def test_spec_validation_errors(payload, fragment):
    with pytest.raises(ValueError) as exc_info:
        JobSpec.from_request(payload)
    assert fragment in str(exc_info.value)


# --------------------------------------------------------------------- #
# router and request parsing
# --------------------------------------------------------------------- #
def _resolve(router, method, path):
    return router.resolve(method, path)


def test_router_captures_and_errors():
    router = Router()
    seen = {}

    async def handler(request, job_id):
        seen["job_id"] = job_id

    router.add("GET", "/jobs/{job_id}/result", handler)
    found, captures = _resolve(router, "GET", "/jobs/job-42/result")
    assert found is handler and captures == {"job_id": "job-42"}

    with pytest.raises(ApiError) as exc_info:
        _resolve(router, "POST", "/jobs/job-42/result")
    assert exc_info.value.status == 405
    with pytest.raises(ApiError) as exc_info:
        _resolve(router, "GET", "/jobs/job-42")
    assert exc_info.value.status == 404


def _parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


def test_read_request_parses_query_and_body():
    request = _parse(
        b"POST /jobs?x=1&y=two HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
    )
    assert request.method == "POST"
    assert request.path == "/jobs"
    assert request.query == {"x": "1", "y": "two"}
    assert request.json() == {}
    assert request.query_int("x", 0) == 1
    with pytest.raises(ApiError) as exc_info:
        request.query_int("y", 0)
    assert exc_info.value.status == 400


@pytest.mark.parametrize(
    "raw, status",
    [
        (b"NOT-HTTP\r\n\r\n", 400),
        (b"GET /status HTTP/1.1\r\nbroken-header-line\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
        (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
    ],
)
def test_read_request_malformed(raw, status):
    with pytest.raises(ApiError) as exc_info:
        _parse(raw)
    assert exc_info.value.status == status


def test_read_request_none_on_clean_close():
    assert _parse(b"") is None


def test_request_json_rejects_garbage():
    request = Request("POST", "/jobs", {}, {}, b"{not json")
    with pytest.raises(ApiError) as exc_info:
        request.json()
    assert exc_info.value.status == 400


# --------------------------------------------------------------------- #
# job store persistence
# --------------------------------------------------------------------- #
def test_store_requeues_inflight_jobs_on_load(tmp_path):
    store = JobStore(str(tmp_path))
    done = store.create(JobSpec(circuit="s27"))
    done.status = "done"
    running = store.create(JobSpec(circuit="s27", seed=1))
    running.status = "running"
    interrupted = store.create(JobSpec(circuit="s27", seed=2))
    interrupted.status = "interrupted"
    interrupted.error = "campaign interrupted (SIGTERM)"
    store.save()

    reloaded = JobStore(str(tmp_path))
    pending = reloaded.load()
    assert [job.id for job in pending] == [running.id, interrupted.id]
    assert all(job.status == "queued" and job.resumed for job in pending)
    assert all(job.error is None for job in pending)
    assert reloaded.get(done.id).status == "done"
    assert reloaded.next_seq == 4


def test_store_survives_missing_table(tmp_path):
    assert JobStore(str(tmp_path)).load() == []


# --------------------------------------------------------------------- #
# shutdown controller
# --------------------------------------------------------------------- #
def test_shutdown_request_is_idempotent():
    controller = ShutdownController()
    assert not controller.stopping

    async def run():
        controller.request("SIGTERM")
        controller.request("SIGINT")  # no escalation without hard_exit_on_repeat
        assert controller.triggered.is_set()

    asyncio.run(run())
    assert controller.stopping
    assert controller.reason == "SIGTERM"
