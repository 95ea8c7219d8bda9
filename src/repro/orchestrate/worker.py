"""Worker process entry for sharded ATPG campaigns.

Each worker builds its own :class:`~repro.core.flow.SequentialDelayATPG`
(compiling the packed netlist once per process) and streams one record per
fault back to the coordinator over a ``multiprocessing`` queue.  Cross-shard
fault dropping works through the detection broadcast: whenever any worker
generates a test, the coordinator fans the sequence's TDsim detection set —
the exact list :func:`~repro.core.flow.credit_fault_result` will credit
during the replay merge — out to every other worker, which drops the listed
faults before ever targeting them.  (Earlier revisions broadcast the raw
sequence and re-graded it with the gross-delay
:func:`~repro.core.verify.grade_test_sequence` pre-filter, whose detections
are a superset of TDsim's; every extra drop forced the merge to recompute
the fault serially.)

The drop rule is *earlier sequences only*: fault ``i`` may be dropped by the
detections of a sequence generated for fault ``j`` only if ``j < i`` in the
global enumeration order.  A serial campaign can only ever drop ``i`` that
way, so the rule keeps the optimistic parallel execution within what the
coordinator's replay merge can reproduce exactly (anything over-dropped is
recomputed serially during the merge; anything under-dropped is merely
wasted work that the merge discards).
"""

from __future__ import annotations

import os
import queue as queue_module
import random
import signal
import time
import traceback
from typing import Dict, List, Optional, Sequence, Set

from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG
from repro.core.results import FaultResultStatus
from repro.faults.model import GateDelayFault
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate.journal import fault_record


class _ShardState:
    """Book-keeping of one worker's view of the campaign."""

    def __init__(
        self,
        worker_id: int,
        circuit: Circuit,
        faults: Sequence[GateDelayFault],
        scope: Set[int],
        backend: Optional[str],
    ) -> None:
        self.worker_id = worker_id
        self.circuit = circuit
        self.faults = list(faults)
        self.index_of: Dict[GateDelayFault, int] = {
            fault: index for index, fault in enumerate(self.faults)
        }
        #: Indices this worker may still target (its shard in static modes,
        #: the whole universe in dynamic mode); shrinks as faults complete.
        self.scope = set(scope)
        #: fault index -> index of the earlier fault whose sequence covers it.
        self.covered: Dict[int, int] = {}
        self.backend = backend
        self.absorbed_broadcasts = 0

    def absorb_broadcast(
        self, source_index: int, detections: Sequence[Dict[str, object]]
    ) -> None:
        """Apply one broadcast TDsim detection set to this shard's faults."""
        self.absorbed_broadcasts += 1
        self.absorb_detections(
            source_index,
            [GateDelayFault.from_json(payload) for payload in detections],
        )

    def absorb_detections(
        self, source_index: int, detections: Sequence[GateDelayFault]
    ) -> None:
        """Drop shard faults covered by this worker's own new sequence."""
        for fault in detections:
            index = self.index_of.get(fault)
            if index is not None and index > source_index and index in self.scope:
                self.covered.setdefault(index, source_index)


def _drain_broadcasts(state: _ShardState, broadcast_queue) -> None:
    """Apply every pending broadcast before deciding the next fault."""
    while True:
        try:
            message = broadcast_queue.get_nowait()
        except queue_module.Empty:
            return
        for index in message.get("completed", ()):
            # Faults another worker already recorded can never be targeted
            # here, so absorbing detections for them would be wasted work.
            state.scope.discard(index)
        state.absorb_broadcast(int(message["index"]), message["detections"])


def _process_fault(
    state: _ShardState,
    atpg: SequentialDelayATPG,
    index: int,
    result_queue,
    stats: Dict[str, int],
) -> None:
    """Target one fault (or record its drop) and stream the record back."""
    state.scope.discard(index)
    if index in state.covered:
        stats["dropped"] += 1
        result_queue.put(
            {
                "type": "drop",
                "index": index,
                "worker": state.worker_id,
                "by": state.covered[index],
            }
        )
        return

    result = atpg.target_fault(state.faults[index])
    stats["targeted"] += 1
    if result.status is FaultResultStatus.TESTED:
        stats["tested"] += 1
        state.absorb_detections(index, result.additionally_detected)
    elif result.status is FaultResultStatus.UNTESTABLE:
        stats["untestable"] += 1
    else:
        stats["aborted"] += 1
    # One FaultCost per targeted fault when instrumentation is on.
    cost = atpg.cost_log.pop() if atpg.cost_log else None
    result_queue.put(fault_record(index, state.worker_id, result, cost))


def _reset_inherited_signals() -> None:
    """Detach a fork-started worker from the parent's signal machinery.

    When the coordinator lives inside an asyncio process (the ATPG daemon),
    fork-started workers inherit ``loop.add_signal_handler``'s state: a
    no-op Python handler for SIGTERM/SIGINT *and* the wakeup fd that pipes
    every received signal number back into the parent's event loop.  Left
    in place, a ``terminate()`` aimed at the worker (a) does not kill it
    (the handler is a no-op) and (b) echoes a spurious SIGTERM into the
    parent's loop — which the daemon would read as a second shutdown
    request.  Workers therefore restore the default SIGTERM disposition,
    ignore SIGINT (the coordinator drives graceful stops; a terminal
    Ctrl-C must not shred the shards mid-fault) and drop the wakeup fd.
    """
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread/platform
        pass


def worker_main(
    worker_id: int,
    seed: int,
    circuit: Circuit,
    faults: Sequence[GateDelayFault],
    assigned: Optional[Sequence[int]],
    task_queue,
    result_queue,
    broadcast_queue,
    atpg_kwargs: Dict[str, object],
    collect_metrics: bool = False,
) -> None:
    """Process entry: run one shard of an ATPG campaign.

    Args:
        worker_id: shard id, ``0 .. jobs-1``.
        seed: per-shard RNG seed (see
            :func:`repro.orchestrate.partition.derive_shard_seed`); seeds the
            :mod:`random` module so any stochastic component inside the
            worker is reproducible run-to-run.
        circuit: circuit under test (pickled into the process).
        faults: the full campaign fault universe in enumeration order.
        assigned: the fault indices this worker may end up targeting — its
            shard in the static modes, every still-untargeted index in the
            dynamic mode (where the actual assignment happens via
            ``task_queue``).
        task_queue: shared index queue for dynamic mode (``None`` selects the
            static loop over ``assigned``); a ``None`` entry is the shutdown
            sentinel.
        result_queue: stream of fault / drop / done / error records back to
            the coordinator.
        broadcast_queue: this worker's inbox of TDsim detection sets from
            sequences generated by other shards (and, on resume, of
            journaled detection sets).
        atpg_kwargs: keyword arguments for
            :class:`~repro.core.flow.SequentialDelayATPG`.
        collect_metrics: give the shard its own
            :class:`~repro.obs.metrics.MetricsRegistry`; per-fault cost
            records ride on the fault records and the shard's snapshot is
            attached to the final ``done`` stats.
    """
    _reset_inherited_signals()
    random.seed(seed)
    parent = os.getppid()
    start = time.perf_counter()
    stats: Dict[str, int] = {
        "targeted": 0,
        "tested": 0,
        "untestable": 0,
        "aborted": 0,
        "dropped": 0,
    }
    try:
        registry = MetricsRegistry() if collect_metrics else None
        atpg = SequentialDelayATPG(circuit, metrics=registry, **atpg_kwargs)
        backend = atpg.backend
        scope = set(assigned) if assigned is not None else set(range(len(faults)))
        state = _ShardState(worker_id, circuit, faults, scope, backend)

        if task_queue is None:
            for index in sorted(assigned):
                if os.getppid() != parent:
                    return  # orphaned by a killed coordinator: stop promptly
                _drain_broadcasts(state, broadcast_queue)
                _process_fault(state, atpg, index, result_queue, stats)
        else:
            while True:
                if os.getppid() != parent:
                    return  # orphaned by a killed coordinator: stop promptly
                try:
                    # A timeout (rather than a blocking get) keeps the orphan
                    # check live even when the queue's feeder died with the
                    # coordinator and no sentinel will ever arrive.
                    index = task_queue.get(timeout=1.0)
                except queue_module.Empty:
                    continue
                if index is None:
                    break
                _drain_broadcasts(state, broadcast_queue)
                _process_fault(state, atpg, index, result_queue, stats)

        shard_stats = {
            "worker": worker_id,
            "seed": seed,
            "assigned": len(assigned) if task_queue is None else None,
            "absorbed_broadcasts": state.absorbed_broadcasts,
            "seconds": round(time.perf_counter() - start, 3),
            **stats,
        }
        if registry is not None:
            shard_stats["metrics"] = registry.snapshot().to_json()
        result_queue.put(
            {
                "type": "done",
                "worker": worker_id,
                "stats": shard_stats,
            }
        )
    except BaseException:  # noqa: BLE001 - the coordinator must hear about any death
        result_queue.put(
            {
                "type": "error",
                "worker": worker_id,
                "error": traceback.format_exc(),
            }
        )
        raise
