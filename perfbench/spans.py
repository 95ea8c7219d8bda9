"""Spans around the calls into each layer, recorded from outside the program.

The traced run wraps public entry points of the library -- class methods
and module functions, patched where their callers look them up -- and
records one span per call: name, start, end, parent and an optional value
read off the call's result (a success flag, a detection count, ...).  Spans
stay in memory; a campaign worker process writes its own spans to a file
when it ends, and :func:`layer_metrics` folds everything into the per-layer
metrics of ``BENCHMARK.json``.

Self time is a span's duration minus the time its direct children cover.
Inside the benchmark's own ``campaign`` span, the time no library span
covers is reported as ``obs.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

from repro.core import flow, prefilter, verify
from repro.fausim import compile as fausim_compile
from repro.obs.metrics import metric_key
from repro.orchestrate import coordinator, journal
from repro.semilet.engine import Semilet
from repro.store.store import CampaignStore
from repro.tdgen.engine import TDgen
from repro.tdgen.result import LocalTestStatus
from repro.tdsim.cpt import DelayFaultSimulator

#: (owner, attribute, span name, value read off the call) for every class
#: method the traced run wraps.
_METHODS = (
    (flow.SequentialDelayATPG, "run", "core.campaign", None),
    (flow.SequentialDelayATPG, "target_fault", "core.target_fault", None),
    (TDgen, "generate", "tdgen.generate",
     lambda result, args, kwargs: result.status is LocalTestStatus.SUCCESS),
    (Semilet, "propagate", "semilet.propagate", lambda result, args, kwargs: result.success),
    (Semilet, "synchronize", "semilet.synchronize", lambda result, args, kwargs: result.success),
    (DelayFaultSimulator, "simulate", "tdsim.simulate", lambda result, args, kwargs: len(result)),
    (prefilter.RandomPrefixEngine, "run", "core.prefix", None),
    (coordinator.CampaignOrchestrator, "run", "orchestrate.campaign", None),
    (journal.CampaignJournal, "append", "orchestrate.journal.append", None),
    (CampaignStore, "ingest_result", "store.ingest", None),
    (CampaignStore, "fault_records", "store.fault_records", None),
)

#: (original function, span name, value read off the call) for every module
#: function the traced run wraps in each module that imported it.
_FUNCTIONS = (
    (verify.verify_test_sequence, "core.verify", lambda result, args, kwargs: result.detected),
    (verify.grade_test_sequence, "core.grade",
     lambda result, args, kwargs: len(args[2] if len(args) > 2 else kwargs["faults"])),
    (fausim_compile.compile_circuit, "fausim.compile", None),
)


class Tracer:
    """In-memory span recorder with the library patches it installs."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        #: ``[name, start, end, parent index, value]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------ #
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, value=None) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter()
        record[4] = value
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, original, name: str, observe):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            value = None
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    value = observe(result, args, kwargs)
                return result
            finally:
                tracer._close(index, value)

        traced.__wrapped__ = original
        return traced

    # -- patching ------------------------------------------------------- #
    def install(self) -> "Tracer":
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        for owner, attribute, name, observe in _METHODS:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrapper(original, name, observe))
            self._undo.append(lambda o=owner, a=attribute, f=original: setattr(o, a, f))
        for original, name, observe in _FUNCTIONS:
            traced = self._wrapper(original, name, observe)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or not (module.__name__ or "").startswith("repro"):
                    continue
                for attribute, value in list(namespace.items()):
                    if value is original:
                        setattr(module, attribute, traced)
                        self._undo.append(
                            lambda m=module, a=attribute, f=original: setattr(m, a, f)
                        )
        worker_main = coordinator.worker_main
        coordinator.worker_main = self._worker_entry(worker_main)
        self._undo.append(lambda: setattr(coordinator, "worker_main", worker_main))
        return self

    def uninstall(self) -> None:
        """Undo every patch :meth:`install` made."""
        while self._undo:
            self._undo.pop()()

    def _worker_entry(self, worker_main):
        """Run a forked campaign worker under its own span list, then spool it."""
        tracer = self

        def traced_worker(*args, **kwargs):
            tracer.spans, tracer._stack = [], []
            index = tracer._open("orchestrate.worker")
            try:
                worker_main(*args, **kwargs)
            finally:
                tracer._close(index)
                path = os.path.join(tracer.spool_dir, f"spans-{os.getpid()}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(tracer.spans, handle)

        return traced_worker

    def worker_spans(self) -> List[List[list]]:
        """The spans every finished worker process spooled, one list each."""
        timelines = []
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-"):
                with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as handle:
                    timelines.append(json.load(handle))
        return timelines


# ---------------------------------------------------------------------- #
# folding spans and counters into per-layer metrics
# ---------------------------------------------------------------------- #
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail_percentile(count: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Spans counted outside the campaign window too.
_ANYWHERE = frozenset(
    ("fausim.compile", "store.ingest", "store.fault_records", "store.incremental")
)

#: Counters the orchestrator's replay merge folds from the workers' cost
#: records into the coordinator's registry (``repro.obs.tracing.fold_cost``).
_FOLDED = frozenset(
    (
        "repro_faults_total",
        "repro_fault_aborts_total",
        "repro_decisions_total",
        "repro_backtracks_total",
        "repro_wavefront_gates_skipped_total",
        "repro_sim_gate_words_total",
    )
)


def engine_counters(
    counters: Dict[str, float], worker_counters: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Counters of the work the search engines actually did.

    Serially that is the one registry.  In a sharded campaign it is the
    workers' raw snapshots (speculative work included) plus the
    coordinator's own work, leaving out the copies the replay merge folded
    into the coordinator's registry, which would count that work twice.
    """
    if worker_counters is None:
        return counters
    merged = dict(worker_counters)
    for key, value in counters.items():
        if key.partition("{")[0] in _FOLDED or key == "repro_implication_sweeps_total":
            continue
        merged[key] = merged.get(key, 0) + value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(counters: Dict[str, float], name: str, **labels: object) -> float:
    """One labelled counter, or the sum over all labels of an unlabelled name."""
    if labels:
        return counters.get(metric_key(name, labels), 0)
    return sum(
        value for key, value in counters.items() if key == name or key.startswith(name + "{")
    )


def layer_metrics(
    main: List[list],
    workers: List[List[list]],
    counters: Dict[str, float],
    worker_counters: Optional[Dict[str, float]],
    compile_calls: int,
    outcome,
) -> Dict[str, float]:
    """Per-layer metrics of one traced measurement.

    ``counters`` is the measuring process's registry; ``worker_counters``
    the merged snapshots of a sharded campaign's workers (``None`` when the
    campaign ran serially).  See :func:`engine_counters`.
    """
    engine = engine_counters(counters, worker_counters)
    # Layer spans count inside the benchmark's "campaign" spans and in the
    # workers; compile counts wherever it happens (mostly set-up) and the
    # store spans belong to the ECO leg.
    main_self = self_times(main)
    inside = [False] * len(main)
    for index, (_, _, _, parent, _) in enumerate(main):
        inside[index] = parent >= 0 and (main[parent][0] == "campaign" or inside[parent])
    counted = [
        (record, own)
        for record, own, below in zip(main, main_self, inside)
        if below or record[0] in _ANYWHERE or record[0] == "campaign"
    ]
    for timeline in workers:
        counted += zip(timeline, self_times(timeline))
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    values: Dict[str, list] = defaultdict(list)
    durations: Dict[str, list] = defaultdict(list)
    for (name, start, end, _, value), own in counted:
        calls[name] += 1
        self_s[name] += own
        durations[name].append(end - start)
        if value is not None:
            values[name].append(float(value))

    campaign_s = sum(durations["campaign"])
    # The "campaign" spans' self time is what no library span covers; the
    # self times of the spans below them account for the rest.
    unattributed = self_s["campaign"]
    attributed = sum(own for own, below in zip(main_self, inside) if below)

    faults = durations["core.target_fault"]
    tail_pct = tail_percentile(len(faults))
    sharded = [leg for leg in outcome.legs if leg.orchestrator is not None]
    shards = [stats for leg in sharded for stats in leg.orchestrator.shard_stats]
    shard_seconds = [float(stats["seconds"]) for stats in shards]
    shard_targets = sum(int(stats["targeted"]) for stats in shards)
    merged_targets = sum(leg.result.targeted for leg in sharded)
    eco = outcome.eco.outcome if outcome.eco is not None else None

    skipped = _counter(engine, "repro_wavefront_gates_skipped_total")
    evaluated = _counter(engine, "repro_wavefront_gates_evaluated_total")
    tdsim_calls = calls["tdsim.simulate"]
    return {
        "fausim.compile.calls": compile_calls,
        "fausim.compile.s": self_s["fausim.compile"],
        "fausim.gate_words": _counter(counters, "repro_sim_gate_words_total"),
        "core.campaign.self_s": self_s["core.campaign"],
        "core.target_fault.calls": calls["core.target_fault"],
        "core.target_fault.p50_s": percentile(faults, 50.0),
        "core.target_fault.tail_s": percentile(faults, tail_pct),
        "core.target_fault.tail_pct": tail_pct,
        "core.target_fault.self_s": self_s["core.target_fault"],
        "tdgen.generate.calls": calls["tdgen.generate"],
        "tdgen.generate.self_s": self_s["tdgen.generate"],
        "tdgen.generate.success_ratio": _mean(values["tdgen.generate"]),
        "tdgen.decisions": _counter(engine, "repro_decisions_total"),
        "tdgen.backtracks": _counter(engine, "repro_backtracks_total", engine="tdgen"),
        "tdgen.sweeps": _counter(engine, "repro_implication_sweeps_total", site="tdgen"),
        "tdgen.wavefront_skip_ratio": _ratio(skipped, skipped + evaluated),
        "semilet.propagate.calls": calls["semilet.propagate"],
        "semilet.propagate.self_s": self_s["semilet.propagate"],
        "semilet.propagate.success_ratio": _mean(values["semilet.propagate"]),
        "semilet.backtracks": _counter(engine, "repro_backtracks_total", engine="semilet"),
        "semilet.propagation_sweeps": _counter(
            engine, "repro_implication_sweeps_total", site="propagation"
        ),
        "semilet.synchronize.calls": calls["semilet.synchronize"],
        "semilet.synchronize.self_s": self_s["semilet.synchronize"],
        "semilet.synchronize.success_ratio": _mean(values["semilet.synchronize"]),
        "semilet.justification_sweeps": _counter(
            engine, "repro_implication_sweeps_total", site="justification"
        ),
        "core.verify.calls": calls["core.verify"],
        "core.verify.self_s": self_s["core.verify"],
        "core.verify.detect_ratio": _mean(values["core.verify"]),
        "tdsim.simulate.calls": tdsim_calls,
        "tdsim.simulate.self_s": self_s["tdsim.simulate"],
        "tdsim.detections_per_call": _ratio(sum(values["tdsim.simulate"]), tdsim_calls),
        "tdsim.stem_analyses": _counter(engine, "repro_tdsim_stem_analyses_total"),
        "core.prefix.self_s": self_s["core.prefix"],
        "core.prefix.sequences": _counter(counters, "repro_prefix_sequences_total"),
        "core.prefix.confirm_ratio": _ratio(
            _counter(counters, "repro_prefix_detections_total"),
            _counter(counters, "repro_prefix_candidates_total"),
        ),
        "core.grade.calls": calls["core.grade"],
        "core.grade.self_s": self_s["core.grade"],
        "core.grade.faults_graded": sum(values["core.grade"]),
        "orchestrate.campaign.self_s": self_s["orchestrate.campaign"],
        "orchestrate.shard_s.max": max(shard_seconds, default=0.0),
        "orchestrate.shard_skew": _ratio(max(shard_seconds, default=0.0), _mean(shard_seconds)),
        "orchestrate.useful_ratio": _ratio(merged_targets, shard_targets),
        "orchestrate.recomputed": sum(leg.orchestrator.recomputed for leg in sharded),
        "orchestrate.journal.appends": calls["orchestrate.journal.append"],
        "orchestrate.journal.append_s": self_s["orchestrate.journal.append"],
        "store.ingest.s": self_s["store.ingest"],
        "store.fault_records.s": self_s["store.fault_records"],
        "store.incremental.s": sum(durations["store.incremental"]),
        "store.incremental.reuse_ratio": _ratio(eco.reused, eco.reused + eco.retargeted) if eco else 0.0,
        "store.incremental.retargeted": eco.retargeted if eco else 0,
        "store.incremental.cone_size": eco.cone_size if eco else 0,
        "obs.campaign_s": campaign_s,
        "obs.unattributed_s": unattributed,
        "obs.accounted_ratio": _ratio(attributed + unattributed, campaign_s),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
