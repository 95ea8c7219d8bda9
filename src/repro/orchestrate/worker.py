"""Worker process entry for sharded ATPG campaigns.

Each worker builds its own :class:`~repro.core.flow.SequentialDelayATPG`
(compiling the packed netlist once per process), takes fault indices from
the coordinator's shared work queue, targets each one and streams its
``fault`` record back over a ``multiprocessing`` queue.  Workers only
target: which faults are worth targeting — the serial fault dropping — is
decided by the coordinator when it queues an index
(:mod:`repro.orchestrate.coordinator`).
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import time
import traceback
from typing import Dict, Sequence

from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG
from repro.faults.model import GateDelayFault
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate.journal import fault_record

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
    circuit: Circuit,
    faults: Sequence[GateDelayFault],
    task_queue,
    result_queue,
    atpg_kwargs: Dict[str, object],
    collect_metrics: bool = False,
) -> None:
    """Process entry: run one worker of a sharded ATPG campaign.

    Args:
        worker_id: shard id, ``0 .. jobs-1``.
        circuit: circuit under test (pickled into the process).
        faults: the full campaign fault universe in enumeration order.
        task_queue: the index queue shared by all workers; a ``None`` entry
            is the shutdown sentinel.
        result_queue: stream of ``fault`` / ``done`` / ``error`` records
            back to the coordinator.
        atpg_kwargs: keyword arguments for
            :class:`~repro.core.flow.SequentialDelayATPG`.
        collect_metrics: give the shard its own
            :class:`~repro.obs.metrics.MetricsRegistry`; per-fault cost
            records ride on the fault records and the shard's snapshot is
            attached to the final ``done`` stats.
    """
    _reset_inherited_signals()
    parent = os.getppid()
    start = time.perf_counter()
    stats: Dict[str, int] = {"targeted": 0, "tested": 0, "untestable": 0, "aborted": 0}
    try:
        registry = MetricsRegistry() if collect_metrics else None
        atpg = SequentialDelayATPG(circuit, metrics=registry, **atpg_kwargs)

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
            result = atpg.target_fault(faults[index])
            stats["targeted"] += 1
            stats[result.status.value] += 1
            # One FaultCost per targeted fault when instrumentation is on.
            cost = atpg.cost_log.pop() if atpg.cost_log else None
            result_queue.put(fault_record(index, worker_id, result, cost))

        shard_stats = {
            "worker": worker_id,
            "seconds": round(time.perf_counter() - start, 3),
            **stats,
        }
        if registry is not None:
            shard_stats["metrics"] = registry.snapshot().to_json()
        result_queue.put({"type": "done", "worker": worker_id, "stats": shard_stats})
    except BaseException:  # noqa: BLE001 - the coordinator must hear about any death
        result_queue.put(
            {
                "type": "error",
                "worker": worker_id,
                "error": traceback.format_exc(),
            }
        )
        raise
