"""Job model of the ATPG daemon: specs, lifecycle, priority queue, persistence.

A *job* is one submitted campaign: a circuit reference (registry name or
inline ``.bench`` text) plus the campaign knobs the CLI exposes
(``--jobs``, ``--seed``, ``--backend``, ``--max-faults``,
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
from repro.data import check_scale, circuit_spec, load_circuit
from repro.orchestrate import OrchestratorConfig, campaign_mode

#: Every state a job can be in; terminal states keep their result/error.
JOB_STATES = ("queued", "running", "done", "failed", "interrupted", "cancelled")

#: States in which the job will not run again in this daemon's lifetime.
TERMINAL_STATES = ("done", "failed", "cancelled")


#: Request-body type check per field annotation: accepted types and the noun
#: of the error message.
_TYPES = {
    "str": ((str,), "a string"),
    "float": ((int, float), "a number"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "a boolean"),
}


@dataclasses.dataclass
class JobSpec:
    """Validated submission payload of one campaign job."""

    circuit: Optional[str] = None
    bench: Optional[str] = None
    name: Optional[str] = None
    scale: float = 1.0
    priority: int = 0
    jobs: int = OrchestratorConfig.jobs
    seed: int = OrchestratorConfig.campaign_seed
    backend: Optional[str] = OrchestratorConfig.backend
    robust: bool = OrchestratorConfig.robust
    backtrack_limit: int = OrchestratorConfig.local_backtrack_limit
    max_target_faults: Optional[int] = None
    time_limit_s: Optional[float] = None
    rpg_prefix: bool = OrchestratorConfig.rpg_prefix
    rpg_budget: int = OrchestratorConfig.rpg_budget
    rpg_window: int = OrchestratorConfig.rpg_window
    #: Path to a persistent campaign store (``docs/STORE.md``) holding a
    #: finished campaign for the same circuit name and settings: the job
    #: then re-targets only the faults inside the netlist edit's influence
    #: cone and reuses every other stored outcome (mirrors
    #: ``--incremental-from``).
    incremental_from: Optional[str] = None

    @classmethod
    def from_request(cls, payload: object) -> "JobSpec":
        """Build a spec from a request body, raising ValueError on bad input."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        types = {field.name: field.type for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - set(types))
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(unknown)}")
        spec = cls()
        for name, value in payload.items():
            kind = types[name].replace("Optional[", "").rstrip("]")
            if value is None and kind != "bool":
                continue  # null keeps the default
            accepted, noun = _TYPES[kind]
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted):
                raise ValueError(f"{name!r} must be {noun}")
            setattr(spec, name, float(value) if kind == "float" else value)
        spec.validate()
        return spec

    @property
    def journaled(self) -> bool:
        """Whether the service journals the job (not when time-limited)."""
        return self.time_limit_s is None

    def validate(self) -> None:
        """Check the job's own fields, then its settings and their conflicts as the CLI does."""
        if (self.circuit is None) == (self.bench is None):
            raise ValueError("exactly one of 'circuit' and 'bench' is required")
        if self.circuit is not None:
            try:
                circuit_spec(self.circuit)
            except KeyError as error:
                raise ValueError(error.args[0]) from None
        check_scale(self.scale)
        campaign_mode(
            self.orchestrator_config(),
            max_target_faults=self.max_target_faults,
            time_limit_s=self.time_limit_s,
            journaled=self.journaled,
        )

    def build_circuit(self) -> Circuit:
        """Materialise the submitted circuit (registry load or bench parse)."""
        if self.bench is not None:
            return parse_bench(self.bench, name=self.name or "submitted")
        return load_circuit(self.circuit, scale=self.scale)

    def orchestrator_config(self) -> OrchestratorConfig:
        """The campaign settings this spec maps to."""
        return OrchestratorConfig(
            jobs=self.jobs,
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
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a persisted spec (assumed already validated at submit)."""
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{name: value for name, value in payload.items() if name in names})


#: The :class:`Job` fields persisted to ``jobs.json``; the rest is the
#: current process's live state.
_STATE_FIELDS = (
    "id", "seq", "spec", "status", "submitted_at", "started_at", "finished_at",
    "cache_hit", "resumed", "error",
)


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
            elif record.get("type") == "fault":
                self.recorded += 1
            elif record.get("type") == "prefix":
                self.prefix_recorded += 1

    def events_since(self, offset: int) -> List[Dict[str, object]]:
        """Snapshot of the progress records from ``offset`` on."""
        with self.events_lock:
            return list(self.events[offset:])

    def to_public_json(self) -> Dict[str, object]:
        """The status payload of ``GET /jobs/<id>`` (result excluded)."""
        payload = self.to_state_json()
        del payload["seq"]
        payload.update(
            priority=self.spec.priority,
            total_faults=self.total_faults,
            recorded=self.recorded,
            prefix_recorded=self.prefix_recorded,
            events=len(self.events),
        )
        return payload

    def to_state_json(self) -> Dict[str, object]:
        """The persisted form written to ``jobs.json``."""
        payload = {name: getattr(self, name) for name in _STATE_FIELDS}
        payload["spec"] = self.spec.to_json()
        return payload

    @classmethod
    def from_state_json(cls, payload: Dict[str, object]) -> "Job":
        """Rebuild a persisted job row."""
        fields = {name: payload[name] for name in _STATE_FIELDS if name in payload}
        fields["spec"] = JobSpec.from_json(payload["spec"])
        return cls(**fields)


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
