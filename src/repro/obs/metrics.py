"""Thread-safe metric primitives with a zero-overhead null default.

The instrumentation contract of the whole repo hangs off two classes:

* :class:`MetricsRegistry` — a thread-safe bag of counters, timers and
  histograms.  Every instrumented layer (the FOGBUSTER flow, TDgen, SEMILET,
  TDsim, the packed simulators, the orchestrator, the service) holds a
  reference and calls :meth:`~MetricsRegistry.inc` /
  :meth:`~MetricsRegistry.observe` / :meth:`~MetricsRegistry.timed`.
* :class:`NullRegistry` — the process-wide default (:data:`NULL_REGISTRY`).
  Every method is a ``pass``, so an uninstrumented campaign pays at most one
  no-op method call per *pass* (never per gate) and its results and wall
  clock stay within noise of an unpatched build.

Snapshots (:class:`MetricsSnapshot`) are plain data: JSON round-trippable
and mergeable.  The merge is a key-wise sum, which makes it **commutative
and associative** — the orchestrator relies on this so that shard snapshots
merged in any arrival order yield identical aggregates.

Metric names follow the Prometheus convention (``repro_<noun>_total`` for
counters, ``repro_<noun>_seconds`` for timers/histograms); labels are
rendered into the canonical ``name{key="value",...}`` key with the label
keys sorted, so the same (name, labels) pair always maps to the same
snapshot key on every worker.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Default latency buckets (seconds) of :meth:`MetricsRegistry.observe_value`.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Help strings of every metric the instrumented layers emit — the metric
#: name catalogue (see ``docs/OBSERVABILITY.md``); also the ``# HELP`` text
#: of the Prometheus exposition (:mod:`repro.obs.export`).
METRIC_HELP: Dict[str, str] = {
    "repro_faults_total": "Targeted faults by final status (tested/untestable/aborted).",
    "repro_fault_aborts_total": "Aborted faults by the FOGBUSTER phase that gave up.",
    "repro_decisions_total": "TDgen decision-tree nodes opened.",
    "repro_backtracks_total": "Search backtracks by engine (tdgen/semilet).",
    "repro_implication_sweeps_total": "Forward implication sweeps by call site.",
    "repro_wavefront_gates_evaluated_total": "Gates evaluated by set sweeps (TDgen implication and every TDsim test frame).",
    "repro_wavefront_gates_skipped_total": "Program gates an event-driven set sweep did not evaluate.",
    "repro_sim_gate_words_total": "Gate evaluations of the packed simulators, in 64-bit word units; event-driven passes (TDgen initial frames, SEMILET decision pair frames) count only the gates their wavefront woke; TDsim counts only its good machine's initial frame, its test frames count as wavefront gates.",
    "repro_kernel_generate_seconds": "Straight-line kernel generation time per kernel; the count is the tier-ups.",
    "repro_tdsim_passes_total": "TDsim critical-path-tracing simulation passes.",
    "repro_tdsim_stem_analyses_total": "TDsim exact stem analyses (injection re-simulations), one per stem and pattern.",
    "repro_tdsim_ppo_confirmations_total": "TDsim PPO candidate confirmations (injection + invalidation checks).",
    "repro_prefix_sequences_total": "Random-prefix sequences generated and graded (Phase A).",
    "repro_prefix_candidates_total": "Gross-delay candidates produced by prefix grading.",
    "repro_prefix_detections_total": "Faults credited to the random prefix after TDsim confirmation.",
    "repro_prefix_faults_graded_total": "Live faults graded by the random prefix, summed over its sequences.",
    "repro_phase_seconds": "Wall time per flow phase (campaign/prefix/tdgen/propagation/synchronization/tdsim/verify).",
    "repro_fault_seconds": "Wall-time distribution of per-fault targeting.",
    "repro_http_requests_total": "Service HTTP requests by route and status code.",
    "repro_http_request_seconds": "Service HTTP request latency.",
    "repro_jobs_total": "Service job transitions by final state.",
    "repro_jobs_state": "Jobs currently in each lifecycle state at scrape time.",
    "repro_uptime_seconds": "Daemon uptime at scrape time.",
    "repro_queue_depth": "Queued jobs at scrape time.",
    "repro_queue_paused": "1 when the job queue is paused, else 0.",
}


def metric_key(name: str, labels: Optional[Mapping[str, object]] = None) -> str:
    """Canonical snapshot key of a (name, labels) pair.

    Labels are sorted by key and rendered Prometheus-style, so every worker
    produces the same key for the same metric and the snapshot merge can sum
    by key.
    """
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


def split_metric_key(key: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Invert :func:`metric_key` into ``(name, ((label, value), ...))``."""
    if "{" not in key:
        return key, ()
    name, _, rest = key.partition("{")
    body = rest.rstrip("}")
    labels: List[Tuple[str, str]] = []
    for part in body.split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels.append((label, value.strip('"')))
    return name, tuple(labels)


class MetricsSnapshot:
    """A frozen, mergeable view of one registry's state.

    Attributes:
        counters: key -> monotonically accumulated amount.
        timers: key -> ``{"count": n, "sum": seconds}``.
        histograms: key -> ``{"buckets": bounds, "counts": per-bucket,
            "sum": total, "count": n}`` (counts are per-bucket, not
            cumulative; the exposition layer cumulates).
        gauges: key -> last set value.
    """

    __slots__ = ("counters", "timers", "histograms", "gauges")

    def __init__(
        self,
        counters: Optional[Dict[str, float]] = None,
        timers: Optional[Dict[str, Dict[str, float]]] = None,
        histograms: Optional[Dict[str, Dict[str, object]]] = None,
        gauges: Optional[Dict[str, float]] = None,
    ) -> None:
        self.counters = dict(counters or {})
        self.timers = dict(timers or {})
        self.histograms = dict(histograms or {})
        self.gauges = dict(gauges or {})

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Key-wise sum of two snapshots (commutative and associative).

        Counters, timer counts/sums and histogram bucket counts add; gauges
        add as well (shard gauges are not emitted, so in practice gauges
        only appear in single-source snapshots).  Histogram merges require
        identical bucket bounds — all emitters share
        :data:`DEFAULT_BUCKETS`, so this holds by construction.
        """
        merged = MetricsSnapshot(
            counters=self.counters, timers={k: dict(v) for k, v in self.timers.items()},
            histograms={k: dict(v) for k, v in self.histograms.items()},
            gauges=self.gauges,
        )
        for key, amount in other.counters.items():
            merged.counters[key] = merged.counters.get(key, 0) + amount
        for key, timer in other.timers.items():
            into = merged.timers.setdefault(key, {"count": 0, "sum": 0.0})
            into["count"] += timer["count"]
            into["sum"] += timer["sum"]
        for key, hist in other.histograms.items():
            into = merged.histograms.get(key)
            if into is None:
                merged.histograms[key] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if list(into["buckets"]) != list(hist["buckets"]):
                raise ValueError(f"histogram {key!r} has mismatched bucket bounds")
            into["counts"] = [a + b for a, b in zip(into["counts"], hist["counts"])]
            into["sum"] += hist["sum"]
            into["count"] += hist["count"]
        for key, value in other.gauges.items():
            merged.gauges[key] = merged.gauges.get(key, 0) + value
        return merged

    @staticmethod
    def merge_all(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold any number of snapshots into one (order-independent)."""
        merged = MetricsSnapshot()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable form (see :meth:`from_json`)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                key: dict(value) for key, value in sorted(self.timers.items())
            },
            "histograms": {
                key: {
                    "buckets": list(value["buckets"]),
                    "counts": list(value["counts"]),
                    "sum": value["sum"],
                    "count": value["count"],
                }
                for key, value in sorted(self.histograms.items())
            },
            "gauges": dict(sorted(self.gauges.items())),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "MetricsSnapshot":
        """Rebuild a snapshot from its :meth:`to_json` form."""
        return cls(
            counters=dict(payload.get("counters", {})),
            timers={k: dict(v) for k, v in payload.get("timers", {}).items()},
            histograms={k: dict(v) for k, v in payload.get("histograms", {}).items()},
            gauges=dict(payload.get("gauges", {})),
        )


class _Timer:
    """Context manager of :meth:`MetricsRegistry.timed` (one per call)."""

    __slots__ = ("_registry", "_name", "_labels", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, labels) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._start, **self._labels
        )


class MetricsRegistry:
    """Thread-safe counters, timers and histograms behind one lock.

    One registry instance spans one *scope*: a campaign, a worker shard, a
    service process or a single job.  Snapshots taken at any moment are
    consistent (the lock covers reads too) and merge key-wise.
    """

    #: Instrumented hot paths branch on this once per pass, never per gate.
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._timers: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Dict[str, object]] = {}
        self._gauges: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` to the counter ``name`` (with optional labels)."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, name: str, seconds: float, **labels: object) -> None:
        """Record one duration into the timer ``name``."""
        key = metric_key(name, labels)
        with self._lock:
            timer = self._timers.get(key)
            if timer is None:
                timer = self._timers[key] = {"count": 0, "sum": 0.0}
            timer["count"] += 1
            timer["sum"] += seconds

    def observe_value(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Record one observation into the histogram ``name``."""
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = {
                    "buckets": list(buckets),
                    "counts": [0] * len(buckets),
                    "sum": 0.0,
                    "count": 0,
                }
            for index, bound in enumerate(hist["buckets"]):
                if value <= bound:
                    hist["counts"][index] += 1
                    break
            hist["sum"] += value
            hist["count"] += 1

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` to ``value`` (scrape-time state)."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def timed(self, name: str, **labels: object) -> _Timer:
        """A context manager timing its ``with`` body into timer ``name``."""
        return _Timer(self, name, labels)

    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one exact (name, labels) counter (0 if unset)."""
        key = metric_key(name, labels)
        with self._lock:
            return self._counters.get(key, 0)

    def counter_sum(self, name: str) -> float:
        """Sum of a counter over all its label combinations.

        Used by the per-fault cost spans (:mod:`repro.obs.tracing`) to delta
        labelled counters like ``repro_implication_sweeps_total`` without
        enumerating the label space.
        """
        prefix = name + "{"
        with self._lock:
            return sum(
                value
                for key, value in self._counters.items()
                if key == name or key.startswith(prefix)
            )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a finished scope's snapshot into this registry.

        The service registry absorbs every finished job's campaign snapshot
        this way, so ``GET /metrics`` exposes cumulative campaign counters
        next to the HTTP/runner metrics.  Same key-wise sum as
        :meth:`MetricsSnapshot.merge` (gauges included), so absorption order
        does not matter.
        """
        with self._lock:
            for key, amount in snapshot.counters.items():
                self._counters[key] = self._counters.get(key, 0) + amount
            for key, timer in snapshot.timers.items():
                into = self._timers.setdefault(key, {"count": 0, "sum": 0.0})
                into["count"] += timer["count"]
                into["sum"] += timer["sum"]
            for key, hist in snapshot.histograms.items():
                into = self._histograms.get(key)
                if into is None:
                    self._histograms[key] = {
                        "buckets": list(hist["buckets"]),
                        "counts": list(hist["counts"]),
                        "sum": hist["sum"],
                        "count": hist["count"],
                    }
                    continue
                if list(into["buckets"]) != list(hist["buckets"]):
                    raise ValueError(
                        f"histogram {key!r} has mismatched bucket bounds"
                    )
                into["counts"] = [
                    a + b for a, b in zip(into["counts"], hist["counts"])
                ]
                into["sum"] += hist["sum"]
                into["count"] += hist["count"]
            for key, value in snapshot.gauges.items():
                self._gauges[key] = self._gauges.get(key, 0) + value

    def snapshot(self) -> MetricsSnapshot:
        """A consistent copy of the current state."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                timers={key: dict(value) for key, value in self._timers.items()},
                histograms={
                    key: {
                        "buckets": list(value["buckets"]),
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                    for key, value in self._histograms.items()
                },
                gauges=dict(self._gauges),
            )


class _NullTimer:
    """Reusable no-op context manager of :class:`NullRegistry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class NullRegistry:
    """The do-nothing registry: the process-wide default.

    Every method is a no-op; :meth:`timed` hands back one shared no-op
    context manager.  Instrumented code never needs a ``metrics is None``
    check — it calls the same API and pays one attribute lookup plus one
    no-op call per instrumentation point.
    """

    enabled = False

    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """No-op."""

    def observe(self, name: str, seconds: float, **labels: object) -> None:
        """No-op."""

    def observe_value(self, name: str, value: float, buckets=DEFAULT_BUCKETS, **labels: object) -> None:
        """No-op."""

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """No-op."""

    def timed(self, name: str, **labels: object) -> _NullTimer:
        """The shared no-op context manager."""
        return _NULL_TIMER

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """No-op."""

    def counter_value(self, name: str, **labels: object) -> float:
        """Always 0."""
        return 0

    def counter_sum(self, name: str) -> float:
        """Always 0."""
        return 0

    def snapshot(self) -> MetricsSnapshot:
        """Always an empty snapshot."""
        return MetricsSnapshot()


#: The shared no-op registry every instrumented layer defaults to.
NULL_REGISTRY = NullRegistry()


def resolve_metrics(metrics: Optional[object]) -> object:
    """Normalise an optional registry argument (``None`` -> the null registry)."""
    return metrics if metrics is not None else NULL_REGISTRY
