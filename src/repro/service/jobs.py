"""Job model of the ATPG daemon: specs, lifecycle, priority queue, persistence.

A *job* is one submitted campaign: a circuit reference (registry name or
inline ``.bench`` text) plus the campaign knobs the CLI exposes
(``--jobs``, ``--partition``, ``--seed``, ``--backend``, ``--max-faults``,
``--time-limit``, robustness, backtrack limits) and a scheduling priority.
Jobs run strictly one at a time — campaign workers already saturate the
machine — in priority order (higher first), FIFO within a priority.

Lifecycle::

    queued -> running -> done
                      -> failed        (exception; error recorded)
                      -> interrupted   (graceful shutdown / cancel mid-run;
                                        journal checkpointed, resumed on
                                        the next daemon start)
    queued -> cancelled

The job table is persisted to ``<state-dir>/jobs.json`` on every transition
(atomic replace), finished results to ``<state-dir>/results/<id>.json`` and
every in-flight campaign's per-fault records to
``<state-dir>/journals/<id>.jsonl`` through the orchestrate journal — which
is what makes a SIGTERM'd (or even SIGKILL'd) daemon resumable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Dict, List, Optional

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.data import list_circuits, load_circuit
from repro.orchestrate import OrchestratorConfig
from repro.orchestrate.partition import PARTITION_MODES

#: Every state a job can be in; terminal states keep their result/error.
JOB_STATES = ("queued", "running", "done", "failed", "interrupted", "cancelled")

#: States in which the job will not run again in this daemon's lifetime.
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclasses.dataclass
class JobSpec:
    """Validated submission payload of one campaign job."""

    circuit: Optional[str] = None
    bench: Optional[str] = None
    name: Optional[str] = None
    scale: float = 1.0
    priority: int = 0
    jobs: int = 2
    partition: str = "size-aware"
    seed: int = 0
    backend: Optional[str] = None
    robust: bool = True
    backtrack_limit: int = 100
    max_target_faults: Optional[int] = None
    time_limit_s: Optional[float] = None
    rpg_prefix: bool = False
    rpg_budget: int = 256
    rpg_window: int = 16
    #: Path to a persistent campaign store (``docs/STORE.md``) holding a
    #: finished campaign for the same circuit name and settings: the job
    #: then runs incrementally, re-targeting only the faults inside the
    #: netlist edit's influence cone (mirrors ``--incremental-from``).
    incremental_from: Optional[str] = None

    _FIELDS = (
        "circuit", "bench", "name", "scale", "priority", "jobs", "partition",
        "seed", "backend", "robust", "backtrack_limit", "max_target_faults",
        "time_limit_s", "rpg_prefix", "rpg_budget", "rpg_window",
        "incremental_from",
    )

    @classmethod
    def from_request(cls, payload: object) -> "JobSpec":
        """Build a spec from a request body, raising ValueError on bad input."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(unknown)}")
        spec = cls()
        for field, caster in (
            ("circuit", str), ("bench", str), ("name", str), ("partition", str),
            ("backend", str), ("incremental_from", str),
        ):
            value = payload.get(field)
            if value is not None:
                if not isinstance(value, str):
                    raise ValueError(f"{field!r} must be a string")
                setattr(spec, field, caster(value))
        for field in ("scale", "time_limit_s"):
            value = payload.get(field)
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{field!r} must be a number")
                setattr(spec, field, float(value))
        for field in (
            "priority", "jobs", "seed", "backtrack_limit", "max_target_faults",
            "rpg_budget", "rpg_window",
        ):
            value = payload.get(field)
            if value is not None:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{field!r} must be an integer")
                setattr(spec, field, value)
        for field in ("robust", "rpg_prefix"):
            if field in payload:
                if not isinstance(payload[field], bool):
                    raise ValueError(f"{field!r} must be a boolean")
                setattr(spec, field, payload[field])
        spec.validate()
        return spec

    def validate(self) -> None:
        """Check the cross-field constraints; raises ValueError."""
        if (self.circuit is None) == (self.bench is None):
            raise ValueError("exactly one of 'circuit' and 'bench' is required")
        if self.circuit is not None and self.circuit not in list_circuits():
            raise ValueError(
                f"unknown circuit {self.circuit!r}; known: {', '.join(list_circuits())}"
            )
        if self.partition not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.partition!r}; known: {PARTITION_MODES}"
            )
        if self.jobs < 1:
            raise ValueError("'jobs' must be >= 1")
        if self.scale <= 0:
            raise ValueError("'scale' must be > 0")
        if self.backtrack_limit < 1:
            raise ValueError("'backtrack_limit' must be >= 1")
        if self.max_target_faults is not None and self.max_target_faults < 1:
            raise ValueError("'max_target_faults' must be >= 1")
        if self.rpg_budget < 1:
            raise ValueError("'rpg_budget' must be >= 1")
        if self.rpg_window < 1:
            raise ValueError("'rpg_window' must be >= 1")
        if self.time_limit_s is not None:
            if self.time_limit_s <= 0:
                raise ValueError("'time_limit_s' must be > 0")
            if self.jobs != 1 and self.incremental_from is None:
                raise ValueError(
                    "'time_limit_s' requires 'jobs' == 1 (mirrors the CLI: a "
                    "time-limited campaign runs serially and is not resumable; "
                    "incremental jobs always run serially)"
                )
        if self.backend is not None:
            from repro.fausim.backends import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; known: "
                    f"{', '.join(sorted(available_backends()))}"
                )

    def build_circuit(self) -> Circuit:
        """Materialise the submitted circuit (registry load or bench parse)."""
        if self.bench is not None:
            return parse_bench(self.bench, name=self.name or "submitted")
        return load_circuit(self.circuit, scale=self.scale)

    def orchestrator_config(self) -> OrchestratorConfig:
        """The orchestrate-layer settings this spec maps to."""
        return OrchestratorConfig(
            jobs=self.jobs,
            partition=self.partition,
            campaign_seed=self.seed,
            robust=self.robust,
            local_backtrack_limit=self.backtrack_limit,
            sequential_backtrack_limit=self.backtrack_limit,
            backend=self.backend,
            rpg_prefix=self.rpg_prefix,
            rpg_budget=self.rpg_budget,
            rpg_window=self.rpg_window,
        )

    def to_json(self) -> Dict[str, object]:
        """JSON form used by the job table and the status endpoints."""
        return {field: getattr(self, field) for field in self._FIELDS}

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a persisted spec (assumed already validated at submit)."""
        spec = cls()
        for field in cls._FIELDS:
            if field in payload:
                setattr(spec, field, payload[field])
        return spec


@dataclasses.dataclass
class Job:
    """One submitted campaign and its live state."""

    id: str
    seq: int
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cache_hit: bool = False
    resumed: bool = False
    error: Optional[str] = None
    total_faults: Optional[int] = None
    recorded: int = 0
    #: Random-prefix sequences applied so far (hybrid campaigns only).
    prefix_recorded: int = 0
    result_json: Optional[Dict[str, object]] = None
    #: Per-job metrics document (see :func:`repro.obs.export.metrics_document`)
    #: of the *current process's* run; in-memory only — a restarted daemon
    #: serves the persisted result without it.
    metrics_json: Optional[Dict[str, object]] = None
    #: Per-fault progress records of the *current process's* run (journal
    #: format); guarded by ``events_lock`` because the campaign thread
    #: appends while the event loop reads.
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    events_lock: threading.Lock = dataclasses.field(default_factory=threading.Lock)
    cancel_requested: bool = False

    @property
    def priority(self) -> int:
        """Scheduling priority (higher runs first)."""
        return self.spec.priority

    def sort_key(self):
        """Heap key: higher priority first, then submission order."""
        return (-self.spec.priority, self.seq)

    def add_event(self, record: Dict[str, object]) -> None:
        """Append one progress record (called from the campaign thread)."""
        with self.events_lock:
            self.events.append(record)
            if record.get("type") == "campaign":
                self.total_faults = record.get("total_faults")
                self.recorded += int(record.get("resumed_records", 0))
                self.prefix_recorded += int(record.get("resumed_prefix", 0))
            elif record.get("type") in ("fault", "drop"):
                self.recorded += 1
            elif record.get("type") == "prefix":
                self.prefix_recorded += 1

    def events_since(self, offset: int) -> List[Dict[str, object]]:
        """Snapshot of the progress records from ``offset`` on."""
        with self.events_lock:
            return list(self.events[offset:])

    def to_public_json(self) -> Dict[str, object]:
        """The status payload of ``GET /jobs/<id>`` (result excluded)."""
        return {
            "id": self.id,
            "status": self.status,
            "priority": self.spec.priority,
            "spec": self.spec.to_json(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "resumed": self.resumed,
            "error": self.error,
            "total_faults": self.total_faults,
            "recorded": self.recorded,
            "prefix_recorded": self.prefix_recorded,
            "events": len(self.events),
        }

    def to_state_json(self) -> Dict[str, object]:
        """The persisted form written to ``jobs.json``."""
        return {
            "id": self.id,
            "seq": self.seq,
            "spec": self.spec.to_json(),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "resumed": self.resumed,
            "error": self.error,
        }

    @classmethod
    def from_state_json(cls, payload: Dict[str, object]) -> "Job":
        """Rebuild a persisted job row."""
        job = cls(
            id=str(payload["id"]),
            seq=int(payload["seq"]),
            spec=JobSpec.from_json(payload["spec"]),
            status=str(payload["status"]),
            submitted_at=float(payload["submitted_at"]),
            cache_hit=bool(payload.get("cache_hit", False)),
            resumed=bool(payload.get("resumed", False)),
        )
        job.started_at = payload.get("started_at")
        job.finished_at = payload.get("finished_at")
        job.error = payload.get("error")
        return job


class JobStore:
    """The daemon's job table plus its on-disk persistence.

    All mutation happens on the event loop thread; persistence writes are
    atomic (temp file + ``os.replace``) so a kill can never leave a torn
    ``jobs.json``.
    """

    def __init__(self, state_dir: str) -> None:
        self.state_dir = str(state_dir)
        self.jobs: Dict[str, Job] = {}
        self.next_seq = 1
        os.makedirs(os.path.join(self.state_dir, "journals"), exist_ok=True)
        os.makedirs(os.path.join(self.state_dir, "results"), exist_ok=True)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @property
    def table_path(self) -> str:
        """Path of the persisted job table."""
        return os.path.join(self.state_dir, "jobs.json")

    def journal_path(self, job: Job) -> str:
        """Path of one job's campaign journal."""
        return os.path.join(self.state_dir, "journals", f"{job.id}.jsonl")

    def result_path(self, job: Job) -> str:
        """Path of one job's persisted result."""
        return os.path.join(self.state_dir, "results", f"{job.id}.json")

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def create(self, spec: JobSpec) -> Job:
        """Register a new queued job and persist the table."""
        seq = self.next_seq
        self.next_seq += 1
        job = Job(id=f"job-{seq:06d}", seq=seq, spec=spec, submitted_at=time.time())
        self.jobs[job.id] = job
        self.save()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or None."""
        return self.jobs.get(job_id)

    def save(self) -> None:
        """Atomically persist the job table."""
        payload = {
            "next_seq": self.next_seq,
            "jobs": [job.to_state_json() for job in sorted(self.jobs.values(), key=lambda j: j.seq)],
        }
        tmp = self.table_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(tmp, self.table_path)

    def save_result(self, job: Job) -> None:
        """Persist one finished job's CampaignResult JSON."""
        tmp = self.result_path(job) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(job.result_json, handle, sort_keys=True)
        os.replace(tmp, self.result_path(job))

    def load_result(self, job: Job) -> Optional[Dict[str, object]]:
        """Fetch a finished job's result, from memory or from disk."""
        if job.result_json is not None:
            return job.result_json
        try:
            with open(self.result_path(job), "r", encoding="utf-8") as handle:
                job.result_json = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return job.result_json

    def load(self) -> List[Job]:
        """Load the persisted table; returns the jobs needing (re-)execution.

        ``queued`` jobs re-enter the queue as they were.  ``running`` and
        ``interrupted`` jobs — in-flight when the previous daemon stopped —
        are re-queued with ``resumed=True`` so execution continues from
        their journal.  Terminal jobs are kept for status/result queries.
        """
        try:
            with open(self.table_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return []
        self.next_seq = int(payload.get("next_seq", 1))
        pending: List[Job] = []
        for row in payload.get("jobs", []):
            job = Job.from_state_json(row)
            self.jobs[job.id] = job
            if job.status in ("running", "interrupted"):
                job.status = "queued"
                job.resumed = True
                job.error = None  # the interruption note is now stale
                pending.append(job)
            elif job.status == "queued":
                pending.append(job)
        if pending:
            self.save()
        return pending
