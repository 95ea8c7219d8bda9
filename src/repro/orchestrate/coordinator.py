"""Campaign coordinator: sharded ATPG with a deterministic replay merge.

The orchestration contract is *serial equivalence*: whatever the worker
count, partitioning mode or scheduling order, the merged
:class:`~repro.core.results.CampaignResult` is bit-identical (coverage,
untestable breakdown, pattern counts) to ``SequentialDelayATPG.run`` on the
same circuit and fault universe.  Three mechanisms combine to get there:

1. **Optimistic parallel execution.**  Workers target their shard's faults in
   global enumeration order.  Per-fault targeting
   (:meth:`~repro.core.flow.SequentialDelayATPG.target_fault`) is a pure
   function of (circuit, settings, fault) — it has no campaign state — so a
   worker's record is exactly what the serial campaign would have computed.

2. **Cross-shard detection exchange.**  Every generated sequence's TDsim
   detection set is broadcast to the other shards, which drop the listed
   faults before targeting them — restoring the serial campaign's fault
   dropping *exactly*: the broadcast carries the same detection list that
   :func:`~repro.core.flow.credit_fault_result` later credits, so a worker
   never over-drops a fault the serial order would have targeted (the
   historical gross-delay re-grading pre-filter did, forcing the merge to
   recompute).  Drops obey the *earlier sequences only* rule (see
   :mod:`repro.orchestrate.worker`), keeping them inside what the serial
   order could do.

3. **Deterministic replay merge.**  After the workers finish, the
   coordinator runs the serial campaign loop itself,
   :func:`~repro.core.flow.run_campaign_loop`, with a ``target`` that reads
   the recorded results: recorded detections (from the serial TDsim
   criterion) decide fault dropping exactly as ``run()`` would, speculative
   records the serial order never reaches are never read, and the rare
   fault no worker computed (dropped on the strength of a discarded
   speculative record, or capped out) is recomputed serially on the spot.
   The merged Table 3 row is therefore independent of worker count and
   scheduling by construction.

Every record is journaled (JSONL, see :mod:`repro.orchestrate.journal`), so a
killed campaign resumes: already-recorded faults are not re-targeted, their
sequences are re-broadcast so the remaining faults still drop, and the final
replay runs over old and new records together.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import queue as queue_module
import time
from typing import Dict, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG, run_campaign_loop
from repro.core.results import CampaignResult, FaultResult
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, resolve_metrics
from repro.obs.tracing import FaultCost, fold_cost
from repro.orchestrate.journal import (
    CampaignJournal,
    JournalSegment,
    campaign_digest,
    fault_record,
    load_segments,
    record_result,
)
from repro.orchestrate.partition import PARTITION_MODES, derive_shard_seed, plan_shards
from repro.orchestrate.worker import worker_main

logger = logging.getLogger(__name__)


class CampaignInterrupted(RuntimeError):
    """An orchestrated campaign was stopped before finishing.

    Raised when the orchestrator's ``should_stop`` hook fires (graceful
    daemon shutdown, job cancellation).  Every record received before the
    stop is already journaled, so a campaign interrupted this way resumes
    from its journal with nothing lost but the faults that were in flight.
    """

    def __init__(self, circuit_name: str, recorded: int) -> None:
        super().__init__(
            f"campaign for {circuit_name!r} interrupted with {recorded} fault(s) recorded"
        )
        self.circuit_name = circuit_name
        self.recorded = recorded


@dataclasses.dataclass
class OrchestratorConfig:
    """Settings of a sharded campaign.

    The ATPG knobs mirror :class:`~repro.core.flow.SequentialDelayATPG`; the
    orchestration knobs are the worker count, the partitioning mode
    (:data:`~repro.orchestrate.partition.PARTITION_MODES`) and the campaign
    seed from which every worker derives its own RNG seed
    (:func:`~repro.orchestrate.partition.derive_shard_seed`).
    """

    jobs: int = 2
    partition: str = "size-aware"
    campaign_seed: int = 0
    robust: bool = True
    local_backtrack_limit: int = 100
    sequential_backtrack_limit: int = 100
    max_local_retries: int = 3
    fill_value: int = 0
    verify_sequences: bool = True
    enable_fault_simulation: bool = True
    backend: Optional[str] = None
    #: Hybrid campaign: run the random-pattern prefix (Phase A, see
    #: :mod:`repro.core.prefilter`) before partitioning, so the shards are
    #: cut from the residue the random sequences could not detect.
    rpg_prefix: bool = False
    rpg_budget: int = 256
    rpg_window: int = 16
    rpg_length: int = 8
    #: Give every shard its own :class:`~repro.obs.metrics.MetricsRegistry`
    #: and collect per-fault cost records.  Observability only: deliberately
    #: absent from :meth:`digest_payload` (and from :meth:`atpg_kwargs` —
    #: workers receive it as a separate argument) because instrumentation
    #: never changes per-fault results.
    collect_metrics: bool = False

    def atpg_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for building a worker's ``SequentialDelayATPG``."""
        return {
            "robust": self.robust,
            "local_backtrack_limit": self.local_backtrack_limit,
            "sequential_backtrack_limit": self.sequential_backtrack_limit,
            "max_local_retries": self.max_local_retries,
            "fill_value": self.fill_value,
            "verify_sequences": self.verify_sequences,
            "enable_fault_simulation": self.enable_fault_simulation,
            "backend": self.backend,
        }

    def digest_payload(self) -> Dict[str, object]:
        """The settings that affect per-fault results, for the journal digest.

        ``jobs`` and ``partition`` are deliberately absent: a journal may be
        resumed with a different worker count or scheduling mode because the
        replay merge makes them irrelevant to the outcome.  ``backend`` is
        absent for the same reason — every registered backend is
        differentially pinned to be bit-exact (``tests/fuzz``,
        ``tests/core``), so a campaign journaled under one backend may be
        resumed under another without invalidating the finished faults.
        """
        payload: Dict[str, object] = {
            "robust": self.robust,
            "local_backtrack_limit": self.local_backtrack_limit,
            "sequential_backtrack_limit": self.sequential_backtrack_limit,
            "max_local_retries": self.max_local_retries,
            "fill_value": self.fill_value,
            "verify_sequences": self.verify_sequences,
            "enable_fault_simulation": self.enable_fault_simulation,
            "campaign_seed": self.campaign_seed,
        }
        if self.rpg_prefix:
            # The prefix settings change which faults Phase B ever targets, so
            # they are part of a hybrid campaign's identity.  Deterministic-only
            # campaigns keep their pre-hybrid digests (no new keys).
            payload["rpg_prefix"] = True
            payload["rpg_budget"] = self.rpg_budget
            payload["rpg_window"] = self.rpg_window
            payload["rpg_length"] = self.rpg_length
        return payload

    def prefix_config(self):
        """The prefix phase settings, or ``None`` for a deterministic-only run.

        The prefix seed is the campaign seed itself — each sequence then
        derives its own RNG seed via
        :func:`~repro.core.prefilter.derive_prefix_seed`, mirroring how the
        shard seeds are derived from the same campaign seed.
        """
        if not self.rpg_prefix:
            return None
        from repro.core.prefilter import PrefixConfig

        return PrefixConfig(
            budget=self.rpg_budget,
            window=self.rpg_window,
            sequence_length=self.rpg_length,
            seed=self.campaign_seed,
        )


def _mp_context():
    """The multiprocessing context: ``fork`` where available, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class CampaignOrchestrator:
    """Run one circuit's ATPG campaign across worker processes.

    After :meth:`run` returns, :attr:`shard_stats` holds one per-worker
    summary dictionary (for :func:`repro.core.reporting.format_shard_summary`)
    and :attr:`recomputed` counts the faults the replay merge had to
    recompute serially because a worker over-dropped them.

    Args:
        circuit: circuit under test.
        config: orchestration settings; defaults to
            :class:`OrchestratorConfig`'s defaults.
        journal_path: when given, every record is checkpointed to this JSONL
            file and the final merged result is appended at the end.
        resume: continue from ``journal_path`` instead of starting over;
            requires the journal to exist and its digest to match.
        on_record: progress hook — called with every journal-format record
            (``campaign`` header, ``fault``, ``drop``, final ``result``) as it
            is produced, whether or not a journal file is attached.  Called
            from the orchestrating thread; the service layer
            (:mod:`repro.service`) uses it to stream per-fault progress.
        should_stop: polled between records (and before every replay-merge
            recompute); returning True terminates the workers and raises
            :class:`CampaignInterrupted`, leaving the journal resumable.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry` the
            merged campaign aggregates land on.  When omitted but
            ``config.collect_metrics`` is set, a fresh registry is created
            (read it back via :attr:`metrics`).  The deterministic counters
            are folded from the *credited* per-fault cost records during the
            replay merge, so the aggregates are identical for any worker
            count or partition mode — and equal to a serial campaign's.
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
        if metrics is None and self.config.collect_metrics:
            metrics = MetricsRegistry()
        self.metrics = resolve_metrics(metrics)
        if self.config.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.config.partition not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.config.partition!r}; known: {PARTITION_MODES}"
            )
        if resume and journal_path is None:
            raise ValueError("resume requires a journal path")
        self.journal_path = journal_path
        self.resume = resume
        self.on_record = on_record
        self.should_stop = should_stop
        self.shard_stats: List[Dict[str, object]] = []
        self.recomputed = 0
        self._fallback_atpg: Optional[SequentialDelayATPG] = None
        #: Credited per-fault cost records, in enumeration order (replay
        #: merge); empty when instrumentation is off.
        self.fault_costs: List[FaultCost] = []
        #: Merged raw worker snapshots (speculative work included) — a
        #: diagnostic view; the deterministic aggregates live on
        #: :attr:`metrics`.
        self.shard_metrics: Optional[MetricsSnapshot] = None
        self._worker_snapshots: List[MetricsSnapshot] = []

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
    ) -> CampaignResult:
        """Run (or resume) the sharded campaign and return the merged result.

        Args:
            faults: explicit fault universe; defaults to
                :func:`~repro.faults.model.enumerate_delay_faults`.
            max_target_faults: cap on explicitly targeted faults, applied in
                serial enumeration order during the replay merge (workers may
                speculatively compute more; the surplus is discarded).
        """
        started = time.perf_counter()
        self.fault_costs = []
        self._worker_snapshots = []
        self.shard_metrics = None
        universe = (
            list(faults) if faults is not None else enumerate_delay_faults(self.circuit)
        )
        digest = campaign_digest(
            self.circuit.name, self.config.digest_payload(), universe
        )

        records: Dict[int, Dict[str, object]] = {}
        prefix_records: Dict[int, Dict[str, object]] = {}
        prefix_done: Optional[Dict[str, object]] = None
        if self.resume:
            segment = self._load_resume_segment(digest)
            if segment is not None:
                final = segment.final
                if final is not None and final.get("max_target_faults") == max_target_faults:
                    # Finished campaign with the same cap: reuse the stored
                    # merge.  A different cap falls through to a fresh replay
                    # over the recorded per-fault results instead.
                    return CampaignResult.from_json(final["campaign"])
                records.update(segment.fault_records)
                prefix_records.update(segment.prefix_records)
                prefix_done = segment.prefix_done
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
                    universe, records, prefix_records, prefix_done, digest,
                    journal, max_target_faults, started,
                )
        finally:
            if journal is not None:
                journal.close()

    def _run_campaign(
        self,
        universe: List[GateDelayFault],
        records: Dict[int, Dict[str, object]],
        prefix_records: Dict[int, Dict[str, object]],
        prefix_done: Optional[Dict[str, object]],
        digest: str,
        journal: Optional[CampaignJournal],
        max_target_faults: Optional[int],
        started: float,
    ) -> CampaignResult:
        """The campaign body of :meth:`run` (split out for phase timing)."""
        self._emit(
            journal,
            {
                "type": "campaign",
                "circuit": self.circuit.name,
                "digest": digest,
                "total_faults": len(universe),
                "jobs": self.config.jobs,
                "partition": self.config.partition,
                "campaign_seed": self.config.campaign_seed,
                "resumed_records": len(records),
                "resumed_prefix": len(prefix_records),
            },
        )
        # Phase A of a hybrid campaign runs once, single-threaded, before
        # any partitioning: the shards are then cut from the residue the
        # random prefix could not detect, and the serial/parallel results
        # stay bit-identical because Phase A never depends on jobs.
        prefix_outcome = self._run_prefix(
            universe, prefix_records, prefix_done, journal
        )
        prefix_detected = (
            set(prefix_outcome.detected) if prefix_outcome is not None else set()
        )
        remaining = [
            index
            for index in range(len(universe))
            if index not in records and universe[index] not in prefix_detected
        ]
        if remaining:
            self._run_workers(universe, remaining, records, journal, max_target_faults)
        campaign = self._replay(
            universe, records, max_target_faults, journal, started, prefix_outcome
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
    # random-pattern prefix (Phase A of a hybrid campaign)
    # ------------------------------------------------------------------ #
    def _run_prefix(
        self,
        universe: List[GateDelayFault],
        prefix_records: Dict[int, Dict[str, object]],
        prefix_done: Optional[Dict[str, object]],
        journal: Optional[CampaignJournal],
    ):
        """Run, resume or reload Phase A; returns its outcome (or ``None``).

        Already-journaled prefix records are replayed without re-grading; a
        ``prefix-done`` record short-circuits the phase entirely.  Newly
        applied sequences are journaled one record at a time, so a campaign
        interrupted mid-prefix resumes at the exact sequence index it stopped
        at (every sequence's RNG seed depends only on its index).
        """
        prefix_cfg = self.config.prefix_config()
        if prefix_cfg is None:
            return None
        from repro.core.prefilter import (
            PrefixOutcome,
            PrefixRecord,
            RandomPrefixEngine,
            count_prefix_record,
        )

        journaled = PrefixOutcome.from_journal(prefix_records, prefix_done)
        if prefix_done is not None:
            # Phase A already finished in an earlier run: its outcome comes
            # from the journal alone.  The prefix counters are replayed too,
            # so a resumed campaign's aggregates match an uninterrupted one.
            for record in journaled.records:
                count_prefix_record(self.metrics, record)
            return journaled

        engine = RandomPrefixEngine(
            self.circuit,
            prefix_cfg,
            robust=self.config.robust,
            fill_value=self.config.fill_value,
            metrics=self.metrics,
            backend=self.config.backend,
        )

        def on_record(record: PrefixRecord) -> None:
            self._emit(journal, record.to_journal())
            if self._stop_requested():
                raise CampaignInterrupted(self.circuit.name, record.seq + 1)

        with self.metrics.timed("repro_phase_seconds", phase="prefix"):
            outcome = engine.run(universe, replay=journaled.records, on_record=on_record)
        self._emit(
            journal,
            {
                "type": "prefix-done",
                "reason": outcome.stop_reason,
                "applied": outcome.applied,
                "detected": len(outcome.detected),
            },
        )
        return outcome

    # ------------------------------------------------------------------ #
    # worker fan-out
    # ------------------------------------------------------------------ #
    def _run_workers(
        self,
        universe: List[GateDelayFault],
        remaining: List[int],
        records: Dict[int, Dict[str, object]],
        journal: Optional[CampaignJournal],
        max_target_faults: Optional[int] = None,
    ) -> None:
        """Spawn the shard workers and collect one record per remaining fault."""
        config = self.config
        jobs = max(1, min(config.jobs, len(remaining)))
        ctx = _mp_context()
        if max_target_faults is not None:
            # Bound the speculative overshoot of a capped campaign: at most
            # the cap per shard.  The replay merge recomputes any capped-out
            # fault the serial order does end up targeting.
            remaining = remaining[: max(max_target_faults, 0) * jobs]
            if not remaining:
                return
            jobs = max(1, min(jobs, len(remaining)))
        plan = plan_shards(config.partition, remaining, universe, self.circuit, jobs)
        if plan is not None and max_target_faults is not None:
            plan = dataclasses.replace(
                plan,
                shards=tuple(shard[:max_target_faults] for shard in plan.shards),
            )

        result_queue = ctx.Queue()
        broadcast_queues = [ctx.Queue() for _ in range(jobs)]
        task_queue = None
        if plan is None:  # dynamic work-queue mode
            task_queue = ctx.Queue()
            for index in remaining:
                task_queue.put(index)
            for _ in range(jobs):
                task_queue.put(None)

        # Re-broadcast the journaled detection sets of a resumed campaign so
        # the remaining faults can still be dropped by them.
        for index in sorted(records):
            detections = records[index].get("detections")
            if detections:
                for inbox in broadcast_queues:
                    inbox.put({"index": index, "detections": detections})

        logger.info(
            "spawning %d worker(s): partition=%s remaining=%d",
            jobs, config.partition, len(remaining),
        )
        processes = []
        for worker_id in range(jobs):
            # Dynamic mode: the shared task queue assigns the work, but the
            # worker still gets the remaining indices as its grading scope so
            # broadcasts are never graded against already-recorded faults.
            assigned = list(remaining) if plan is None else list(plan.shards[worker_id])
            process = ctx.Process(
                target=worker_main,
                name=f"repro-shard-{worker_id}",
                args=(
                    worker_id,
                    derive_shard_seed(config.campaign_seed, worker_id),
                    self.circuit,
                    universe,
                    assigned,
                    task_queue,
                    result_queue,
                    broadcast_queues[worker_id],
                    config.atpg_kwargs(),
                    self.metrics.enabled,
                ),
            )
            process.start()
            processes.append(process)

        self.shard_stats = []
        done: set = set()
        #: Every completed (fault or drop) index in arrival order, plus a
        #: per-worker cursor: each broadcast piggy-backs the indices completed
        #: since that worker's previous broadcast, so workers — the dynamic
        #: mode in particular, whose scope is the whole universe — stop
        #: grading sequences against faults that already have a record.
        completed_log: List[int] = []
        sent_upto = [0] * jobs
        try:
            while len(done) < jobs:
                if self._stop_requested():
                    raise CampaignInterrupted(self.circuit.name, len(records))
                try:
                    message = result_queue.get(timeout=1.0)
                except queue_module.Empty:
                    self._check_liveness(processes, done)
                    continue
                kind = message["type"]
                if kind == "error":
                    raise RuntimeError(
                        f"campaign worker {message['worker']} failed:\n{message['error']}"
                    )
                if kind == "done":
                    done.add(message["worker"])
                    stats = dict(message["stats"])
                    shard_snapshot = stats.pop("metrics", None)
                    if shard_snapshot is not None:
                        self._worker_snapshots.append(
                            MetricsSnapshot.from_json(shard_snapshot)
                        )
                    self.shard_stats.append(stats)
                    continue
                self._emit(journal, message)
                if kind in ("fault", "drop"):
                    completed_log.append(int(message["index"]))
                if kind == "fault":
                    records[int(message["index"])] = message
                    # Broadcast the TDsim detection set — the exact list the
                    # replay merge credits — so other shards drop precisely
                    # the faults the serial order would drop, no more.
                    if message["detections"]:
                        for worker_id, inbox in enumerate(broadcast_queues):
                            if worker_id == message["worker"] or worker_id in done:
                                continue
                            inbox.put(
                                {
                                    "index": message["index"],
                                    "detections": message["detections"],
                                    "completed": completed_log[sent_upto[worker_id]:],
                                }
                            )
                            sent_upto[worker_id] = len(completed_log)
        finally:
            for process in processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join()
            for inbox in broadcast_queues:
                inbox.cancel_join_thread()
                inbox.close()
            if task_queue is not None:
                task_queue.cancel_join_thread()
                task_queue.close()
            result_queue.cancel_join_thread()
            result_queue.close()
        self.shard_stats.sort(key=lambda stats: stats["worker"])
        if self._worker_snapshots:
            # Key-wise sums: the merge is commutative and associative, so any
            # arrival order (and any worker count) yields the same snapshot.
            self.shard_metrics = MetricsSnapshot.merge_all(self._worker_snapshots)

    @staticmethod
    def _check_liveness(processes, done) -> None:
        """Raise if any worker died without reporting a result."""
        for worker_id, process in enumerate(processes):
            if worker_id in done or process.is_alive():
                continue
            if process.exitcode not in (0, None):
                raise RuntimeError(
                    f"campaign worker {worker_id} exited with code {process.exitcode} "
                    "without reporting a result"
                )

    # ------------------------------------------------------------------ #
    # deterministic merge
    # ------------------------------------------------------------------ #
    def _replay(
        self,
        universe: List[GateDelayFault],
        records: Dict[int, Dict[str, object]],
        max_target_faults: Optional[int],
        journal: Optional[CampaignJournal],
        started: float,
        prefix_outcome=None,
    ) -> CampaignResult:
        """Replay the serial campaign loop over the recorded per-fault results.

        This is :func:`~repro.core.flow.run_campaign_loop` with a ``target``
        that reads the records: speculative records the serial order never
        reaches are never read, and a fault the serial order needs but no
        worker computed (over-dropped or capped out) is recomputed here.
        """
        self.recomputed = 0

        def target(index: int, fault: GateDelayFault) -> FaultResult:
            record = records.get(index)
            if record is None:
                record = self._recompute(index, fault, journal, len(records))
            result = record_result(record)
            cost_payload = record.get("cost")
            if self.metrics.enabled and cost_payload is not None:
                # Only the records the serial order actually reaches are
                # folded — speculative worker records are discarded with
                # their costs, which is what makes the aggregates (and the
                # cost log) independent of jobs and partitioning.
                cost = FaultCost.from_json(cost_payload)
                fold_cost(self.metrics, cost)
                self.fault_costs.append(cost)
            return result

        campaign = run_campaign_loop(
            self.circuit.name,
            universe,
            target,
            prefix_outcome=prefix_outcome,
            max_target_faults=max_target_faults,
            started=started,
        )
        logger.info(
            "replay merge done: circuit=%s tested=%d untestable=%d aborted=%d recomputed=%d",
            campaign.circuit_name, campaign.tested, campaign.untestable,
            campaign.aborted, self.recomputed,
        )
        return campaign

    def _recompute(
        self,
        index: int,
        fault: GateDelayFault,
        journal: Optional[CampaignJournal],
        recorded: int,
    ) -> Dict[str, object]:
        """Serially target a fault no worker computed; returns its journal record."""
        if self._stop_requested():
            raise CampaignInterrupted(self.circuit.name, recorded)
        if self._fallback_atpg is None:
            # A *private* registry: the recomputed fault's cost record is
            # folded into the campaign aggregates exactly like a worker's, so
            # counting its engine work on the shared registry too would
            # double-count it.
            self._fallback_atpg = SequentialDelayATPG(
                self.circuit,
                metrics=MetricsRegistry() if self.metrics.enabled else None,
                **self.config.atpg_kwargs(),
            )
        atpg = self._fallback_atpg
        result = atpg.target_fault(fault)
        self.recomputed += 1
        cost = atpg.cost_log.pop() if atpg.cost_log else None
        record = fault_record(index, -1, result, cost)  # worker -1: the coordinator
        self._emit(journal, record)
        return record

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


def run_parallel_campaign(
    circuit: Circuit,
    jobs: Optional[int] = None,
    faults: Optional[Sequence[GateDelayFault]] = None,
    max_target_faults: Optional[int] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    config: Optional[OrchestratorConfig] = None,
    **config_overrides: object,
) -> CampaignResult:
    """Convenience wrapper: orchestrate one campaign and return the merge.

    ``config_overrides`` are :class:`OrchestratorConfig` field values (e.g.
    ``partition="dynamic"``, ``backend="reference"``); ``jobs`` is a plain
    argument because it is the one everyone sets.  When ``config`` is given,
    an omitted ``jobs`` keeps the config's worker count.
    """
    if jobs is not None:
        config_overrides["jobs"] = jobs
    if config is None:
        config = OrchestratorConfig(**config_overrides)  # type: ignore[arg-type]
    elif config_overrides:
        config = dataclasses.replace(config, **config_overrides)  # type: ignore[arg-type]
    orchestrator = CampaignOrchestrator(
        circuit, config=config, journal_path=journal_path, resume=resume
    )
    return orchestrator.run(faults=faults, max_target_faults=max_target_faults)
