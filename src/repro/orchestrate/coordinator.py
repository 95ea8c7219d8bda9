"""Campaign coordinator: the one campaign runner, in-process or sharded.

Every campaign runs through :class:`CampaignOrchestrator`, whose body is one
:class:`~repro.core.flow.SequentialDelayATPG`: the random prefix, then the
serial campaign loop (:meth:`~repro.core.flow.SequentialDelayATPG.run_loop`)
with one rule per fault — read its record when one exists, else target it
in-process.  ``jobs=1`` does nothing else; journal or not, it starts no
process.  With ``jobs > 1`` the loop reads its records from a
:class:`_WorkerFeed`, which worker processes fill in ahead of the loop, and
the result stays *serially equivalent*: whatever the worker count or
scheduling order, it is bit-identical (coverage, untestable breakdown,
pattern counts) to ``SequentialDelayATPG.run`` on the same circuit and fault
universe, because

1. **workers only target.**  Per-fault targeting
   (:meth:`~repro.core.flow.SequentialDelayATPG.target_fault`) is a pure
   function of (circuit, settings, fault) — it has no campaign state — so a
   worker's record is exactly what the serial campaign would have computed;
2. **the loop is the only place that drops faults.**  It reads the records
   in enumeration order, as they arrive, and credits their TDsim detections
   exactly as a serial run does; a record the serial order never reaches is
   never read.

The feed decides only *which* faults the workers target: it applies the
serial drop rule once, when an index would be queued, and keeps the queue
short (see :class:`_WorkerFeed`).  A skip on the strength of a record the
loop never credits leaves the loop a fault with no record, which it targets
in-process (:attr:`CampaignOrchestrator.recomputed`).

Every record is journaled (JSONL, see :mod:`repro.orchestrate.journal`), so a
killed campaign resumes: already-recorded faults are read instead of
targeted, and their detections feed the same drop rule.  The records an
incremental re-run reuses from a campaign store
(:mod:`repro.store.incremental`) enter the same way, and are journaled like
any other record.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
import multiprocessing
import os
import queue as queue_module
import time
from typing import Dict, List, Optional, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.core.flow import CampaignInterrupted, SequentialDelayATPG
from repro.core.results import CampaignResult
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.fausim.backends import available_backends
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, resolve_metrics
from repro.obs.tracing import FaultCost
from repro.orchestrate.journal import (
    CampaignJournal,
    JournalSegment,
    campaign_digest,
    load_segments,
)
from repro.orchestrate.worker import worker_main

logger = logging.getLogger(__name__)


#: Settings of :class:`~repro.core.flow.SequentialDelayATPG` the config does
#: not expose: the engine's defaults always apply.  The digest still records
#: them, so journals and stores written while the config carried them keep
#: their identity.
_ENGINE_DEFAULTS = ("fill_value", "verify_sequences", "enable_fault_simulation")


@dataclasses.dataclass
class OrchestratorConfig:
    """The settings of one campaign, in-process or sharded.

    The only settings object: the CLI flags, the service's
    :class:`~repro.service.jobs.JobSpec`, the journal digest and the store's
    config payload all map onto it, and :meth:`__post_init__` owns every
    range and choice check.  The ATPG knobs are passed on to
    :class:`~repro.core.flow.SequentialDelayATPG`; the orchestration knob
    is the worker count.  The campaign seed seeds the random-pattern prefix.
    """

    jobs: int = 2
    campaign_seed: int = 0
    robust: bool = True
    local_backtrack_limit: int = 100
    sequential_backtrack_limit: int = 100
    max_local_retries: int = 3
    backend: Optional[str] = None
    #: Hybrid campaign: run the random-pattern prefix (Phase A, see
    #: :mod:`repro.core.prefilter`) before the workers start, so they only
    #: target the residue the random sequences could not detect.
    rpg_prefix: bool = False
    rpg_budget: int = 256
    rpg_window: int = 16
    #: Give every shard its own :class:`~repro.obs.metrics.MetricsRegistry`
    #: and collect per-fault cost records.  Observability only: deliberately
    #: absent from :meth:`digest_payload` (and from :meth:`atpg_kwargs` —
    #: workers receive it as a separate argument) because instrumentation
    #: never changes per-fault results.
    collect_metrics: bool = False

    #: The fields that change per-fault results: the engine's keyword
    #: arguments and, with the campaign seed, the journal digest.
    _RESULT_FIELDS = (
        "robust", "local_backtrack_limit", "sequential_backtrack_limit", "max_local_retries",
    )

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; known: {', '.join(available_backends())}"
            )
        for name in (
            "jobs", "local_backtrack_limit", "sequential_backtrack_limit",
            "max_local_retries", "rpg_budget", "rpg_window",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name!r} must be >= 1")

    def atpg_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for building a worker's ``SequentialDelayATPG``."""
        kwargs = {name: getattr(self, name) for name in self._RESULT_FIELDS}
        kwargs["backend"] = self.backend
        return kwargs

    def digest_payload(self) -> Dict[str, object]:
        """The settings that affect per-fault results, for the journal digest.

        ``jobs`` is deliberately absent: a journal may be resumed with a
        different worker count because the campaign loop makes it irrelevant
        to the outcome.  ``backend`` is absent for the same reason — every
        registered backend is differentially pinned to be bit-exact
        (``tests/fuzz``, ``tests/core``), so a campaign journaled under one
        backend may be resumed under another without invalidating the
        finished faults.
        """
        engine = inspect.signature(SequentialDelayATPG).parameters
        payload: Dict[str, object] = {name: getattr(self, name) for name in self._RESULT_FIELDS}
        payload.update({name: engine[name].default for name in _ENGINE_DEFAULTS})
        payload["campaign_seed"] = self.campaign_seed
        prefix = self.prefix_config()
        if prefix is not None:
            # The prefix settings change which faults Phase B ever targets, so
            # they are part of a hybrid campaign's identity.  Deterministic-only
            # campaigns keep their pre-hybrid digests (no new keys).
            payload.update(
                rpg_prefix=True, rpg_budget=prefix.budget, rpg_window=prefix.window,
                rpg_length=prefix.sequence_length,
            )
        return payload

    def prefix_config(self):
        """The prefix phase settings, or ``None`` for a deterministic-only run.

        The prefix seed is the campaign seed itself — each sequence then
        derives its own RNG seed via
        :func:`~repro.core.prefilter.derive_prefix_seed`.
        """
        if not self.rpg_prefix:
            return None
        from repro.core.prefilter import PrefixConfig

        return PrefixConfig(
            budget=self.rpg_budget, window=self.rpg_window, seed=self.campaign_seed
        )


def _mp_context():
    """The multiprocessing context: ``fork`` where available, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


#: Indices a worker may have in flight at once (queued, no record yet): the
#: one it targets and the next one waiting on the shared queue.
_IN_FLIGHT_PER_WORKER = 2


class _WorkerFeed:
    """The record source of a sharded campaign's loop: workers fill it in.

    :meth:`get` is what :meth:`~repro.core.flow.SequentialDelayATPG.run_loop`
    calls for each fault it reaches, in enumeration order.  A lookup of index
    ``i`` returns its record when one exists; when ``i`` is in flight it
    processes worker messages (journal, ``on_record``, liveness,
    ``should_stop``) until the record arrives; when the feed skipped ``i`` as
    detected it returns ``None`` and the loop targets ``i`` in-process; when
    the feed has not reached ``i`` yet it queues ``i`` first.

    The feed queues index ``j`` only when no record of an earlier index lists
    ``j`` among its detections (the serial drop rule), when fewer than
    :data:`_IN_FLIGHT_PER_WORKER` indices per worker are in flight, and,
    under a target cap, when fewer indices than the loop has targets left are
    queued or recorded, and not yet detected, at or after the loop's current
    index.  Resumed, reused and prefix-detected faults are never queued.  The
    workers start with the first queued index, so a campaign whose loop only
    reads records starts none.
    """

    def __init__(
        self,
        orchestrator: "CampaignOrchestrator",
        universe: List[GateDelayFault],
        records: Dict[int, Dict[str, object]],
        prefix_detected: Set[GateDelayFault],
        journal: Optional[CampaignJournal],
        max_target_faults: Optional[int],
    ) -> None:
        self.orchestrator = orchestrator
        self.universe = universe
        self.records = records
        self.journal = journal
        self.cap = max_target_faults
        self.index_of = {fault: index for index, fault in enumerate(universe)}
        #: Indices some earlier index's record lists among its detections.
        self.detected: Set[int] = set()
        for index, record in records.items():
            self._absorb(index, record)
        self.never = {self.index_of[fault] for fault in prefix_detected}
        self.cursor = 0  # the next index the feed considers
        self.in_flight: Set[int] = set()
        self.current = 0  # the index the loop is reading
        self.reached = 0  # lookups before the current one
        self.processes: list = []
        self.done: Set[int] = set()

    def _absorb(self, index: int, record: Dict[str, object]) -> None:
        """Note the later indices a record's sequence detects."""
        for payload in record.get("detections") or ():
            detected = self.index_of.get(GateDelayFault.from_json(payload))
            if detected is not None and detected > index:
                self.detected.add(detected)

    # ------------------------------------------------------------------ #
    # the loop's side
    # ------------------------------------------------------------------ #
    def get(self, index: int) -> Optional[Dict[str, object]]:
        """The record the loop reads for fault ``index``, or ``None``."""
        self.current = index
        self._feed()
        if index not in self.records and index not in self.in_flight:
            if index < self.cursor:
                self.reached += 1
                return None  # skipped as detected: the loop targets it
            self.cursor = index + 1
            self._queue(index)
        while index not in self.records:
            if self.orchestrator._stop_requested():
                raise CampaignInterrupted(self.orchestrator.circuit.name, len(self.records))
            self._receive()
        self.reached += 1
        return self.records[index]

    def _feed(self) -> None:
        """Queue indices in enumeration order while the feed rule allows."""
        limit = _IN_FLIGHT_PER_WORKER * self.orchestrator.config.jobs
        ahead = None
        if self.cap is not None:
            ahead = sum(
                1
                for index in self.in_flight | self.records.keys()
                if index >= self.current and index not in self.detected
            )
        while self.cursor < len(self.universe) and len(self.in_flight) < limit:
            if ahead is not None and ahead >= self.cap - self.reached:
                return
            index = self.cursor
            self.cursor += 1
            if index in self.records or index in self.never:
                continue
            if index in self.detected:
                self.orchestrator.dropped += 1
                continue
            self._queue(index)
            if ahead is not None:
                ahead += 1

    # ------------------------------------------------------------------ #
    # the workers' side
    # ------------------------------------------------------------------ #
    def _queue(self, index: int) -> None:
        """Hand one index to the workers, starting them first if needed."""
        if not self.processes:
            self._start()
        self.tasks.put(index)
        self.in_flight.add(index)

    def _start(self) -> None:
        """Spawn the workers on one shared task queue."""
        ctx = _mp_context()
        self.tasks = ctx.Queue()
        self.results = ctx.Queue()
        orchestrator = self.orchestrator
        logger.info("spawning %d worker(s)", orchestrator.config.jobs)
        for worker_id in range(orchestrator.config.jobs):
            process = ctx.Process(
                target=worker_main,
                name=f"repro-shard-{worker_id}",
                args=(
                    worker_id,
                    orchestrator.circuit,
                    self.universe,
                    self.tasks,
                    self.results,
                    orchestrator.config.atpg_kwargs(),
                    orchestrator.metrics.enabled,
                ),
            )
            process.start()
            self.processes.append(process)

    def _receive(self) -> None:
        """Process one worker message, or check liveness after a quiet second."""
        try:
            message = self.results.get(timeout=1.0)
        except queue_module.Empty:
            self._check_liveness()
            return
        kind = message["type"]
        if kind == "error":
            raise RuntimeError(
                f"campaign worker {message['worker']} failed:\n{message['error']}"
            )
        if kind == "done":
            self.done.add(message["worker"])
            stats = dict(message["stats"])
            snapshot = stats.pop("metrics", None)
            if snapshot is not None:
                self.orchestrator._worker_snapshots.append(MetricsSnapshot.from_json(snapshot))
            self.orchestrator.shard_stats.append(stats)
            return
        index = int(message["index"])
        self.in_flight.discard(index)
        self.records[index] = message
        self._absorb(index, message)
        self.orchestrator._emit(self.journal, message)
        self._feed()

    def _check_liveness(self) -> None:
        """Raise if any worker died without reporting a result."""
        for worker_id, process in enumerate(self.processes):
            if worker_id in self.done or process.is_alive():
                continue
            if process.exitcode not in (0, None):
                raise RuntimeError(
                    f"campaign worker {worker_id} exited with code {process.exitcode} "
                    "without reporting a result"
                )

    def finish(self) -> None:
        """After the loop: stop feeding, let every worker exit on its
        sentinel and collect the shard stats (late records are journaled)."""
        self.cursor = len(self.universe)
        for _ in self.processes:
            self.tasks.put(None)
        while len(self.done) < len(self.processes):
            self._receive()
        for process in self.processes:
            process.join()
        orchestrator = self.orchestrator
        orchestrator.shard_stats.sort(key=lambda stats: stats["worker"])
        if orchestrator._worker_snapshots:
            # Key-wise sums: the merge is commutative and associative, so any
            # arrival order (and any worker count) yields the same snapshot.
            orchestrator.shard_metrics = MetricsSnapshot.merge_all(
                orchestrator._worker_snapshots
            )

    def close(self) -> None:
        """Terminate any worker still running and release the queues.

        After :meth:`finish` every worker has exited.  On an interrupt or a
        worker failure the in-flight work is speculative and only the
        coordinator writes the journal, so the workers are not waited for.
        """
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join()
        if self.processes:
            for channel in (self.tasks, self.results):
                channel.cancel_join_thread()
                channel.close()


class CampaignOrchestrator:
    """Run one circuit's ATPG campaign, in-process or across worker processes.

    The campaign body is the coordinator's own
    :class:`~repro.core.flow.SequentialDelayATPG` (:attr:`atpg`): Phase A
    runs through its :meth:`~repro.core.flow.SequentialDelayATPG.run_prefix`
    and Phase B through its
    :meth:`~repro.core.flow.SequentialDelayATPG.run_loop`, which reads a
    fault's record when one exists and otherwise targets the fault
    in-process.  What the orchestrator adds is the journal (every record is
    checkpointed, and ``resume`` reads them back) and, with
    ``config.jobs > 1``, the worker processes that fill in the records as
    the loop reads them (:class:`_WorkerFeed`).  A ``jobs=1`` campaign
    starts no process.

    After :meth:`run` returns, :attr:`shard_stats` holds one per-worker
    summary dictionary (for :func:`repro.core.reporting.format_shard_summary`;
    empty when no worker ran), :attr:`dropped` counts the faults the feed
    never queued because an earlier record detected them, and
    :attr:`recomputed` counts the faults the coordinator targeted itself:
    every targeted fault at ``jobs=1``, and with workers the faults the feed
    dropped on the strength of a record the loop never credited.

    Args:
        circuit: circuit under test.
        config: orchestration settings; defaults to
            :class:`OrchestratorConfig`'s defaults.
        journal_path: when given, every record is checkpointed to this JSONL
            file and the final merged result is appended at the end.
        resume: continue from ``journal_path`` instead of starting over;
            requires the journal to exist and its digest to match.
        on_record: progress hook — called with every journal-format record
            (``campaign`` header, ``prefix``, ``fault``, final ``result``) as
            it is produced, for every run, whether or not a journal file is
            attached.  Called from the orchestrating thread;
            the service layer (:mod:`repro.service`) uses it to stream
            per-fault progress.
        should_stop: polled after every prefix sequence, between worker
            records and before every fault the loop reaches; returning True
            terminates the workers and raises :class:`CampaignInterrupted`,
            leaving the journal resumable.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry` the
            campaign aggregates land on.  When omitted but
            ``config.collect_metrics`` is set, a fresh registry is created
            (read it back via :attr:`metrics`).  Faults targeted in-process
            count live; a worker's or a resumed journal's record folds its
            stored cost when the loop reads it, so the deterministic counters
            are identical for any worker count, and equal to a serial
            campaign's.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[OrchestratorConfig] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        on_record=None,
        should_stop=None,
        metrics=None,
    ) -> None:
        self.circuit = circuit
        self.config = config or OrchestratorConfig()
        campaign_mode(self.config, journaled=journal_path is not None, resume=resume)
        if metrics is None and self.config.collect_metrics:
            metrics = MetricsRegistry()
        self.metrics = resolve_metrics(metrics)
        self.journal_path = journal_path
        self.resume = resume
        self.on_record = on_record
        self.should_stop = should_stop
        self.atpg = SequentialDelayATPG(
            circuit, metrics=self.metrics, **self.config.atpg_kwargs()
        )
        self.shard_stats: List[Dict[str, object]] = []
        self.recomputed = 0
        self.dropped = 0
        #: Merged raw worker snapshots (speculative work included) — a
        #: diagnostic view; the deterministic aggregates live on
        #: :attr:`metrics`.
        self.shard_metrics: Optional[MetricsSnapshot] = None
        self._worker_snapshots: List[MetricsSnapshot] = []

    @property
    def fault_costs(self) -> List[FaultCost]:
        """Credited per-fault cost records in enumeration order; empty when
        instrumentation is off."""
        return self.atpg.cost_log

    def _emit(self, journal: Optional[CampaignJournal], record: Dict[str, object]) -> None:
        """Checkpoint one record and forward it to the progress hook."""
        if journal is not None:
            journal.append(record)
        if self.on_record is not None:
            self.on_record(record)

    def _stop_requested(self) -> bool:
        """True when the ``should_stop`` hook asks for an early exit."""
        return self.should_stop is not None and bool(self.should_stop())

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        faults: Optional[Sequence[GateDelayFault]] = None,
        max_target_faults: Optional[int] = None,
        reuse: Optional[Dict[int, Dict[str, object]]] = None,
        time_limit_s: Optional[float] = None,
    ) -> CampaignResult:
        """Run (or resume) the campaign and return its result.

        Args:
            faults: explicit fault universe; defaults to
                :func:`~repro.faults.model.enumerate_delay_faults`.
            max_target_faults: cap on explicitly targeted faults, applied in
                serial enumeration order by the loop (the feed queues no more
                than the loop has targets left).
            reuse: journal-format ``fault`` records keyed by universe index
                (:func:`repro.store.incremental.plan_reuse`), merged like the
                records of a resumed journal: journaled and read by the loop
                instead of being targeted.
            time_limit_s: wall-clock budget of an unjournaled ``jobs=1``
                campaign (see :func:`campaign_mode`).
        """
        campaign_mode(
            self.config, max_target_faults=max_target_faults,
            time_limit_s=time_limit_s, journaled=self.journal_path is not None,
        )
        started = time.perf_counter()
        deadline = started + time_limit_s if time_limit_s is not None else None
        self.atpg.cost_log = []
        self.shard_stats = []
        self.recomputed = 0
        self.dropped = 0
        self._worker_snapshots = []
        self.shard_metrics = None
        universe = (
            list(faults) if faults is not None else enumerate_delay_faults(self.circuit)
        )
        digest = campaign_digest(
            self.circuit.name, self.config.digest_payload(), universe
        )

        segment: Optional[JournalSegment] = None
        if self.resume:
            segment = self._load_resume_segment(digest)
        elif self.journal_path is not None and os.path.exists(self.journal_path):
            # A fresh run must not append an incompatible header to an
            # existing journal: the digest clash would make *every* later
            # resume of the file fail.  Reject up front instead.
            existing = load_segments(self.journal_path).get(self.circuit.name)
            if existing is not None and existing.digest != digest:
                raise ValueError(
                    f"journal {self.journal_path!r} already holds circuit "
                    f"{self.circuit.name!r} records from a different campaign "
                    f"(digest {existing.digest} != {digest}); delete the file "
                    "or pass a different journal path"
                )

        journal = CampaignJournal(self.journal_path) if self.journal_path else None
        try:
            with self.metrics.timed("repro_phase_seconds", phase="campaign"):
                return self._run_campaign(
                    universe, digest, segment, journal, max_target_faults,
                    started, deadline, reuse or {},
                )
        finally:
            if journal is not None:
                journal.close()

    def _run_campaign(
        self,
        universe: List[GateDelayFault],
        digest: str,
        segment: Optional[JournalSegment],
        journal: Optional[CampaignJournal],
        max_target_faults: Optional[int],
        started: float,
        deadline: Optional[float],
        reuse: Dict[int, Dict[str, object]],
    ) -> CampaignResult:
        """The campaign body of :meth:`run` (split out for phase timing)."""
        records = dict(segment.fault_records) if segment is not None else {}
        logger.info(
            "campaign start: circuit=%s faults=%d jobs=%d resumed=%d",
            self.circuit.name, len(universe), self.config.jobs, len(records),
        )
        self._emit(
            journal,
            {
                "type": "campaign",
                "circuit": self.circuit.name,
                "digest": digest,
                "total_faults": len(universe),
                "jobs": self.config.jobs,
                "campaign_seed": self.config.campaign_seed,
                "resumed_records": len(records),
                "resumed_prefix": len(segment.prefix_records) if segment is not None else 0,
            },
        )
        # Phase A of a hybrid campaign runs once, in-process, before any
        # worker starts: the workers only target the residue the random
        # prefix could not detect, and Phase A never depends on jobs.
        prefix_cfg = self.config.prefix_config()
        prefix_outcome = None
        if prefix_cfg is not None:
            from repro.core.prefilter import PrefixOutcome

            journaled = segment.prefix_records if segment is not None else {}
            prefix_outcome = self.atpg.run_prefix(
                universe, prefix_cfg, deadline=deadline,
                replay=PrefixOutcome.from_journal(journaled, None).records,
                on_record=lambda record: self._emit(journal, record),
                should_stop=self.should_stop,
            )
        prefix_detected = (
            set(prefix_outcome.detected) if prefix_outcome is not None else set()
        )
        for index in sorted(reuse):
            # Reused records join the resumed ones; a fault the prefix
            # detected is never targeted, so its record is left out.
            if index not in records and universe[index] not in prefix_detected:
                records[index] = reuse[index]
                self._emit(journal, reuse[index])

        def targeted(record: Dict[str, object]) -> None:
            self.recomputed += 1
            self._emit(journal, record)

        feed = (
            _WorkerFeed(self, universe, records, prefix_detected, journal, max_target_faults)
            if self.config.jobs > 1
            else None
        )
        try:
            campaign = self.atpg.run_loop(
                universe,
                prefix_outcome,
                records=records if feed is None else feed,
                max_target_faults=max_target_faults,
                deadline=deadline,
                started=started,
                should_stop=self.should_stop,
                on_record=targeted,
            )
            if feed is not None:
                feed.finish()
        finally:
            if feed is not None:
                feed.close()
        logger.info(
            "campaign done: circuit=%s tested=%d untestable=%d aborted=%d recomputed=%d",
            campaign.circuit_name, campaign.tested, campaign.untestable,
            campaign.aborted, self.recomputed,
        )
        self._emit(
            journal,
            {
                "type": "result",
                "circuit": self.circuit.name,
                "digest": digest,
                "max_target_faults": max_target_faults,
                "campaign": campaign.to_json(),
            },
        )
        return campaign

    # ------------------------------------------------------------------ #
    def _load_resume_segment(self, digest: str) -> Optional[JournalSegment]:
        """Validate and fetch this circuit's journal segment for a resume."""
        if not os.path.exists(self.journal_path):
            raise FileNotFoundError(
                f"cannot resume: journal {self.journal_path!r} does not exist"
            )
        segment = load_segments(self.journal_path).get(self.circuit.name)
        if segment is None:
            return None
        if segment.digest != digest:
            raise ValueError(
                f"cannot resume circuit {self.circuit.name!r}: journal digest "
                f"{segment.digest} does not match this campaign ({digest}) — "
                "the settings or the fault universe changed"
            )
        return segment


@dataclasses.dataclass
class CampaignRun:
    """What :func:`run_campaign` returns.

    The result and its cost records, plus the shard stats, drop and
    recompute counts of :class:`CampaignOrchestrator` and an incremental
    re-run's reuse summary.
    """

    result: CampaignResult
    costs: List[FaultCost]
    shard_stats: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    recomputed: int = 0
    dropped: int = 0
    incremental: Optional[Dict[str, object]] = None


def campaign_mode(
    config: OrchestratorConfig,
    *,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    journaled: bool = False,
    resume: bool = False,
) -> None:
    """Check a campaign's run arguments against its settings.

    Raises ``ValueError`` for an out-of-range cap or time limit, for
    ``resume`` without a journal, and for a time limit with sharding or a
    journal (the result depends on wall time, so it is not resumable).
    """
    if max_target_faults is not None and max_target_faults < 1:
        raise ValueError("'max_target_faults' must be >= 1")
    if time_limit_s is not None and time_limit_s <= 0:
        raise ValueError("'time_limit_s' must be > 0")
    if resume and not journaled:
        raise ValueError("resume requires a journal path")
    if time_limit_s is not None and (config.jobs > 1 or journaled):
        raise ValueError(
            "'time_limit_s' requires 'jobs' == 1 and no journal: a time-limited "
            "campaign runs serially and is not resumable"
        )


def run_campaign(
    circuit: Circuit,
    config: OrchestratorConfig,
    *,
    faults: Optional[Sequence[GateDelayFault]] = None,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    incremental_from: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    on_record=None,
    should_stop=None,
) -> CampaignRun:
    """Run one circuit's campaign through a :class:`CampaignOrchestrator`.

    The one campaign entry point of the CLI, the service and the examples.
    Every run, ``jobs=1`` or sharded, journaled or not, streams its records
    to ``on_record``, polls ``should_stop`` and raises
    :class:`CampaignInterrupted` when it fires; pass ``metrics`` to collect
    the aggregates and cost records.  With ``incremental_from`` (a campaign
    store path) the faults :func:`~repro.store.incremental.plan_reuse` keeps
    read their stored outcome instead of being targeted.
    """
    orchestrator = CampaignOrchestrator(
        circuit, config, journal_path=journal_path, resume=resume,
        on_record=on_record, should_stop=should_stop, metrics=metrics,
    )
    plan = None
    if incremental_from is not None:
        from repro.store import CampaignStore, plan_reuse

        faults = list(faults) if faults is not None else enumerate_delay_faults(circuit)
        with CampaignStore(incremental_from) as store:
            plan = plan_reuse(circuit, store, config, faults, metrics=metrics)
    result = orchestrator.run(
        faults=faults, max_target_faults=max_target_faults,
        reuse=plan.records if plan is not None else None, time_limit_s=time_limit_s,
    )
    run = CampaignRun(
        result, list(orchestrator.fault_costs),
        orchestrator.shard_stats, orchestrator.recomputed, orchestrator.dropped,
    )
    if plan is not None:
        run.incremental = plan.outcome(run.result, run.costs).summary()
    return run
