"""The ATPG daemon: endpoints, job runner, warm caches, graceful shutdown.

:class:`AtpgService` is the long-lived process the ROADMAP's first open item
asks for: compiled netlists stay warm in a digest-keyed cache across
requests, finished campaigns are served from a result cache, submissions
queue by priority in front of the existing
:mod:`repro.orchestrate` coordinator/worker pool, and a SIGTERM checkpoints
every in-flight campaign through the JSONL journal so the next start
``--resume``\\ s it.

Endpoints (all JSON; see ``docs/SERVICE.md`` for the full reference)::

    GET  /                   endpoint index
    GET  /status             daemon + queue state
    GET  /metrics            Prometheus text exposition; ?format=json for JSON
    POST /jobs               submit a campaign            -> 202 {"job": ...}
    GET  /jobs[?status=s]    list jobs
    GET  /jobs/{id}          one job's status
    GET  /jobs/{id}/result   finished CampaignResult JSON (409 until done)
    GET  /jobs/{id}/events   per-fault progress records; ?stream=1 for NDJSON
    POST /jobs/{id}/cancel   cancel a queued or running job
    GET  /cache              netlist/result cache + compile counters
    POST /queue/pause        hold the runner (queued jobs wait)
    POST /queue/resume       release the runner

Embedding (tests do exactly this)::

    service = AtpgService(state_dir="/tmp/atpg", port=0)
    await service.start()          # binds an ephemeral port
    ...                            # service.port is now real
    await service.stop()
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import logging
import os
import threading
import time
import traceback
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.circuit.bench import BenchParseError
from repro.circuit.levelize import combinational_order
from repro.core.flow import SequentialDelayATPG
from repro.faults.model import enumerate_delay_faults
from repro.fausim.compile import compile_count
from repro.obs.export import metrics_document, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate import CampaignInterrupted, CampaignOrchestrator
from repro.service.api import (
    ApiError,
    Request,
    Router,
    StreamResponse,
    TextResponse,
    handle_connection,
)
from repro.service.cache import NetlistCache, ResultCache, campaign_cache_key
from repro.service.jobs import JOB_STATES, TERMINAL_STATES, Job, JobSpec, JobStore
from repro.service.shutdown import ShutdownController

logger = logging.getLogger(__name__)


class AtpgService:
    """One daemon instance: HTTP server + priority queue + caches.

    Args:
        state_dir: directory for the persisted job table, per-job journals
            and finished results; created if missing.  A restarted daemon
            pointed at the same directory resumes interrupted jobs.
        host / port: listen address; ``port=0`` binds an ephemeral port
            (read :attr:`port` after :meth:`start`).
        max_netlists / max_results: LRU bounds of the two caches.
        paused: start with the job runner held (``POST /queue/resume``
            releases it) — used by tests that need deterministic queue order.
    """

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        max_netlists: int = 64,
        max_results: int = 256,
        paused: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        #: The service-scope registry: HTTP counters/latency, job-state
        #: transitions, scrape-time queue gauges, plus every finished job's
        #: absorbed campaign snapshot.
        self.metrics = MetricsRegistry()
        self.store = JobStore(state_dir)
        self.netlists = NetlistCache(max_netlists)
        self.results = ResultCache(max_results)
        self.shutdown = ShutdownController()
        self.paused = paused
        self.started_at = time.time()
        self.current_job: Optional[Job] = None
        self._queue: List[Tuple[Tuple[int, int], Job]] = []
        self._queue_cond: Optional[asyncio.Condition] = None
        self._event_signal: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._runner: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the server, reload persisted jobs and start the runner."""
        self._loop = asyncio.get_running_loop()
        self._queue_cond = asyncio.Condition()
        self._event_signal = asyncio.Event()
        self.shutdown.bind(self._loop)
        for job in self.store.load():
            heapq.heappush(self._queue, (job.sort_key(), job))
        self._server = await asyncio.start_server(
            functools.partial(handle_connection, self._build_router()),
            host=self.host,
            port=self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._runner = asyncio.create_task(self._run_jobs(), name="repro-job-runner")
        logger.info(
            "service listening on %s:%d (state dir %s, %d job(s) reloaded)",
            self.host, self.port, self.store.state_dir, len(self.store.jobs),
        )

    async def run_until_shutdown(self) -> None:
        """Serve until the shutdown controller fires, then stop gracefully."""
        await self.shutdown.triggered.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: close the listener, drain, checkpoint, persist."""
        self.shutdown.stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue_cond is not None:
            async with self._queue_cond:
                self._queue_cond.notify_all()
        if self._runner is not None:
            await self._runner
        self.store.save()
        if self._event_signal is not None:
            self._notify_events()
        logger.info("service stopped (%s)", self.shutdown.reason or "stop()")

    # ------------------------------------------------------------------ #
    # job runner
    # ------------------------------------------------------------------ #
    async def _run_jobs(self) -> None:
        """Pull jobs off the priority queue, one at a time, until shutdown."""
        while True:
            async with self._queue_cond:
                while not self.shutdown.stopping and (self.paused or not self._queue):
                    await self._queue_cond.wait()
                if self.shutdown.stopping:
                    return
                _, job = heapq.heappop(self._queue)
            if job.status != "queued":
                continue  # cancelled while waiting
            await self._execute(job)
            if self.shutdown.stopping:
                return

    async def _execute(self, job: Job) -> None:
        """Run one job: cache lookup, then orchestrated (or serial) campaign."""
        job.status = "running"
        job.started_at = time.time()
        self.current_job = job
        self.store.save()
        self._notify_events()
        spec = job.spec
        logger.info(
            "job %s started (circuit=%s jobs=%d backend=%s)",
            job.id, spec.circuit or spec.name or "submitted", spec.jobs, spec.backend,
        )
        job_registry = MetricsRegistry()
        try:
            circuit, net_digest = await self._in_executor(self._prepare_circuit, spec)
            universe = enumerate_delay_faults(circuit)
            config = spec.orchestrator_config()
            cache_key = campaign_cache_key(
                net_digest,
                circuit.name,
                config.digest_payload(),
                universe,
                spec.max_target_faults,
            )

            cached = None if spec.time_limit_s is not None else self.results.get(cache_key)
            if cached is not None:
                job.cache_hit = True
                job.result_json = cached
                job.total_faults = cached.get("total_faults")
                job.add_event({"type": "cache-hit", "key": cache_key})
            else:
                result, costs = await self._run_campaign(job, circuit, config, job_registry)
                job.result_json = result.to_json()
                job.total_faults = result.total_faults
                job.metrics_json = metrics_document(
                    job_registry.snapshot(), fault_costs=costs, context={"job_id": job.id}
                )
                if spec.time_limit_s is None:
                    # A time-limited result depends on wall time: never cached.
                    self.results.put(cache_key, job.result_json)
            job.status = "done"
            self.store.save_result(job)
        except CampaignInterrupted:
            job.status = "cancelled" if job.cancel_requested else "interrupted"
            job.error = f"campaign interrupted ({self.shutdown.reason or 'cancel'})"
        except Exception:  # noqa: BLE001 - job failure must not kill the daemon
            job.status = "failed"
            job.error = traceback.format_exc()
        finally:
            job.finished_at = time.time()
            self.current_job = None
            self.metrics.inc("repro_jobs_total", state=job.status)
            self.metrics.absorb(job_registry.snapshot())
            logger.info(
                "job %s finished: %s (%.3fs)",
                job.id, job.status, job.finished_at - job.started_at,
            )
            self.store.save()
            self._notify_events()

    def _prepare_circuit(self, spec: JobSpec):
        """Resolve and warm the submitted circuit (runs in the executor)."""
        circuit, net_digest, _ = self.netlists.warm(spec.build_circuit())
        return circuit, net_digest

    async def _run_campaign(self, job: Job, circuit, config, metrics):
        """Run one uncached campaign; returns ``(result, per-fault costs)``."""
        spec = job.spec
        if spec.incremental_from is not None:
            # Store-backed incremental re-run, bit-identical to a from-scratch
            # campaign on the submitted netlist.  Always serial: 'jobs' is
            # orchestration-only and absent from the config digest.
            outcome = await self._in_executor(
                self._run_incremental, spec, circuit, config, metrics
            )
            job.add_event({"type": "incremental", **outcome.summary()})
            return outcome.result, outcome.costs
        if spec.time_limit_s is not None:
            # Time-limited jobs run the serial flow; the partial result
            # depends on wall time, so it is not journaled for resume.
            return await self._in_executor(self._run_serial, spec, circuit, config, metrics)
        journal_path = self.store.journal_path(job)
        orchestrator = CampaignOrchestrator(
            circuit,
            config=config,
            journal_path=journal_path,
            resume=os.path.exists(journal_path),
            on_record=functools.partial(self._on_record, job),
            should_stop=lambda: self.shutdown.stopping or job.cancel_requested,
            metrics=metrics,
        )
        result = await self._in_executor(orchestrator.run, None, spec.max_target_faults)
        return result, orchestrator.fault_costs

    @staticmethod
    def _run_incremental(spec: JobSpec, circuit, config, metrics=None) -> object:
        """The store-backed incremental campaign path (runs in the executor)."""
        from repro.store import CampaignStore, run_incremental

        with CampaignStore(spec.incremental_from) as store:
            return run_incremental(
                circuit,
                store,
                config,
                max_target_faults=spec.max_target_faults,
                time_limit_s=spec.time_limit_s,
                metrics=metrics,
            )

    @staticmethod
    def _run_serial(spec: JobSpec, circuit, config, metrics=None):
        """The serial time-limited campaign path (runs in the executor)."""
        atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
        result = atpg.run(
            max_target_faults=spec.max_target_faults,
            time_limit_s=spec.time_limit_s,
            prefix=config.prefix_config(),
        )
        return result, atpg.cost_log

    async def _in_executor(self, fn, *args):
        return await self._loop.run_in_executor(None, functools.partial(fn, *args))

    def _on_record(self, job: Job, record: Dict[str, object]) -> None:
        """Coordinator progress hook (called from the campaign thread)."""
        job.add_event(record)
        self._loop.call_soon_threadsafe(self._notify_events)

    def _notify_events(self) -> None:
        """Wake every progress-stream waiter (event loop thread only)."""
        signal, self._event_signal = self._event_signal, asyncio.Event()
        signal.set()

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def _build_router(self) -> Router:
        router = Router()
        routes = (
            ("GET", "/", self._handle_index),
            ("GET", "/status", self._handle_status),
            ("GET", "/metrics", self._handle_metrics),
            ("POST", "/jobs", self._handle_submit),
            ("GET", "/jobs", self._handle_list),
            ("GET", "/jobs/{job_id}", self._handle_job),
            ("GET", "/jobs/{job_id}/result", self._handle_result),
            ("GET", "/jobs/{job_id}/events", self._handle_events),
            ("POST", "/jobs/{job_id}/cancel", self._handle_cancel),
            ("GET", "/cache", self._handle_cache),
            ("POST", "/queue/pause", self._handle_pause),
            ("POST", "/queue/resume", self._handle_resume),
        )
        for method, pattern, handler in routes:
            router.add(method, pattern, self._instrumented(method, pattern, handler))
        return router

    def _instrumented(self, method: str, route: str, handler):
        """Wrap one handler with request counting, latency and an INFO log.

        The route label is the registered *pattern* (``/jobs/{job_id}``, not
        the concrete path), keeping the label cardinality fixed.
        :class:`ApiError` is re-raised after counting so the API layer still
        renders it as the JSON error response.
        """

        @functools.wraps(handler)
        async def wrapped(request: Request, **captures: str):
            start = time.perf_counter()
            status = 500
            try:
                response = await handler(request, **captures)
                if isinstance(response, (StreamResponse, TextResponse)):
                    status = getattr(response, "status", 200)
                else:
                    status = response[0]
                return response
            except ApiError as exc:
                status = exc.status
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.metrics.inc(
                    "repro_http_requests_total",
                    method=method, route=route, status=str(status),
                )
                self.metrics.observe(
                    "repro_http_request_seconds", elapsed, route=route
                )
                logger.info(
                    "%s %s -> %d (%.1f ms)", method, request.path, status,
                    elapsed * 1000,
                )

        return wrapped

    async def _handle_metrics(self, request: Request):
        """``GET /metrics``: Prometheus text, or JSON with ``?format=json``."""
        self.metrics.set_gauge(
            "repro_uptime_seconds", round(time.time() - self.started_at, 3)
        )
        by_state = {state: 0 for state in JOB_STATES}
        for job in self.store.jobs.values():
            by_state[job.status] = by_state.get(job.status, 0) + 1
        for state, count in by_state.items():
            self.metrics.set_gauge("repro_jobs_state", count, state=state)
        self.metrics.set_gauge(
            "repro_queue_depth",
            sum(1 for _, job in self._queue if job.status == "queued"),
        )
        self.metrics.set_gauge("repro_queue_paused", int(self.paused))
        snapshot = self.metrics.snapshot()
        if request.query.get("format") == "json":
            return 200, metrics_document(snapshot, context={"service": "repro-atpg"})
        return TextResponse(render_prometheus(snapshot))

    async def _handle_index(self, request: Request):
        return 200, {
            "service": "repro-atpg",
            "endpoints": [
                "GET /status", "GET /metrics", "POST /jobs", "GET /jobs",
                "GET /jobs/{id}", "GET /jobs/{id}/result",
                "GET /jobs/{id}/events", "POST /jobs/{id}/cancel",
                "GET /cache", "POST /queue/pause", "POST /queue/resume",
            ],
        }

    async def _handle_status(self, request: Request):
        # Zero-filled over every lifecycle state, so dashboards can rely on
        # the keys being present before the first job ever reaches a state.
        by_state: Dict[str, int] = {state: 0 for state in JOB_STATES}
        for job in self.store.jobs.values():
            by_state[job.status] = by_state.get(job.status, 0) + 1
        queued = sorted(
            (job for _, job in self._queue if job.status == "queued"),
            key=lambda job: job.sort_key(),
        )
        return 200, {
            "status": "draining" if self.shutdown.stopping else "running",
            "paused": self.paused,
            "uptime_s": round(time.time() - self.started_at, 3),
            "jobs": by_state,
            "running": self.current_job.id if self.current_job else None,
            "queue": [job.id for job in queued],
            "queue_depth": len(queued),
        }

    async def _handle_submit(self, request: Request):
        if self.shutdown.stopping:
            raise ApiError(503, "daemon is shutting down; resubmit after restart")
        try:
            spec = JobSpec.from_request(request.json())
            if spec.bench is not None:
                # Surface syntax errors and combinational loops as a 400 now,
                # not as a job that fails once it runs.
                combinational_order(spec.build_circuit())
        except (ValueError, BenchParseError) as exc:
            raise ApiError(400, str(exc)) from None
        job = self.store.create(spec)
        async with self._queue_cond:
            heapq.heappush(self._queue, (job.sort_key(), job))
            self._queue_cond.notify_all()
        return 202, {"job": job.to_public_json()}

    async def _handle_list(self, request: Request):
        wanted = request.query.get("status")
        jobs = sorted(self.store.jobs.values(), key=lambda job: job.seq)
        if wanted is not None:
            jobs = [job for job in jobs if job.status == wanted]
        return 200, {"jobs": [job.to_public_json() for job in jobs]}

    def _require_job(self, job_id: str) -> Job:
        job = self.store.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job: {job_id}")
        return job

    async def _handle_job(self, request: Request, job_id: str):
        return 200, {"job": self._require_job(job_id).to_public_json()}

    async def _handle_result(self, request: Request, job_id: str):
        job = self._require_job(job_id)
        if job.status == "failed":
            raise ApiError(409, f"job {job_id} failed: {job.error}")
        if job.status != "done":
            raise ApiError(409, f"job {job_id} is {job.status}; no result yet")
        result = self.store.load_result(job)
        if result is None:
            raise ApiError(500, f"result of {job_id} is missing from the state dir")
        payload = {"job_id": job_id, "cache_hit": job.cache_hit, "campaign": result}
        if job.metrics_json is not None:
            payload["metrics"] = job.metrics_json
        return 200, payload

    async def _handle_events(self, request: Request, job_id: str):
        job = self._require_job(job_id)
        offset = request.query_int("offset", 0)
        if offset < 0:
            raise ApiError(400, "query parameter 'offset' must be >= 0")
        if request.query.get("stream") in ("1", "true"):
            return StreamResponse(self._stream_events(job, offset))
        records = job.events_since(offset)
        return 200, {
            "job_id": job_id,
            "events": records,
            "next_offset": offset + len(records),
            "done": job.status not in ("queued", "running"),
        }

    async def _stream_events(
        self, job: Job, offset: int
    ) -> AsyncIterator[Dict[str, object]]:
        """Yield progress records as they arrive until the job settles."""
        while True:
            signal = self._event_signal  # grab before snapshotting: no lost wakeups
            records = job.events_since(offset)
            offset += len(records)
            for record in records:
                yield record
            if job.status not in ("queued", "running"):
                for record in job.events_since(offset):
                    yield record
                return
            await signal.wait()

    async def _handle_cancel(self, request: Request, job_id: str):
        job = self._require_job(job_id)
        if job.status == "queued":
            job.status = "cancelled"
            job.finished_at = time.time()
            self.store.save()
            self._notify_events()
        elif job.status == "running":
            job.cancel_requested = True  # the should_stop hook picks this up
        elif job.status in TERMINAL_STATES or job.status == "interrupted":
            raise ApiError(409, f"job {job_id} is already {job.status}")
        return 200, {"job": job.to_public_json()}

    async def _handle_cache(self, request: Request):
        return 200, {
            "netlists": self.netlists.stats(),
            "results": self.results.stats(),
            "compile_count": compile_count(),
        }

    async def _handle_pause(self, request: Request):
        self.paused = True
        return 200, {"paused": True}

    async def _handle_resume(self, request: Request):
        self.paused = False
        async with self._queue_cond:
            self._queue_cond.notify_all()
        return 200, {"paused": False}


class ServiceThread:
    """Run an :class:`AtpgService` on a private event loop in a thread.

    The embedding shape used by the e2e tests (and handy for notebooks):
    construction arguments are forwarded to :class:`AtpgService`; the
    context manager starts the daemon, blocks until the port is bound, and
    requests a graceful shutdown on exit.  Signal handlers are *not*
    installed — graceful stop happens via :meth:`stop`.
    """

    def __init__(self, **kwargs: object) -> None:
        self._kwargs = kwargs
        self.service: Optional[AtpgService] = None
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServiceThread":
        """Start the daemon thread and wait for the server to bind."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        if self.port is None:
            raise RuntimeError("service did not bind within 60s")
        return self

    async def _amain(self) -> None:
        try:
            self.service = AtpgService(**self._kwargs)
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001 - startup errors surface in start()
            self._error = exc
            self._ready.set()
            return
        self.port = self.service.port
        self._ready.set()
        await self.service.run_until_shutdown()

    def stop(self, timeout: float = 60) -> None:
        """Request a graceful shutdown and join the daemon thread."""
        if self.service is not None and self._thread is not None and self._thread.is_alive():
            self.service.shutdown.request("stop()")
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
