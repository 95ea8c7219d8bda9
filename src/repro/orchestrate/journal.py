"""JSONL checkpoint journal for (sharded) ATPG campaigns.

The coordinator is the only writer: it appends one JSON record per line
while a campaign runs, workers included (their records reach it over a
queue):

``{"type": "campaign", ...}``
    Segment header — circuit name, fault-universe digest, orchestration
    settings.  A resumed campaign appends a fresh header for the same
    circuit; the loader merges all segments whose digest matches.

``{"type": "fault", "index": i, "worker": w, "result": ..., "detections": ...}``
    One targeted fault outcome: the serialised :class:`~repro.core.results.
    FaultResult` (sequence included) plus the raw detection list of its
    sequence over the whole circuit.  These records are the campaign's
    ground truth — the campaign loop rebuilds the final
    :class:`~repro.core.results.CampaignResult` from them alone, crediting
    their detections and dropping the detected faults itself.  Journals
    written before the loop became the only place that drops faults also
    hold ``drop`` records; the reader ignores them.

``{"type": "prefix", "seq": k, "candidates": c, "detections": ..., "sequence": ...}``
    One applied random-prefix sequence of a hybrid campaign
    (:mod:`repro.core.prefilter`): the faults it was credited with under the
    TDsim rule, plus the sequence itself when it detected anything.  A
    campaign killed mid-prefix resumes from these records — the stopping-rule
    window is rebuilt from their detection counts and generation continues at
    the next sequence index.  The optional ``gate_words`` key holds the
    simulation gate words the sequence cost; a resumed campaign folds it into
    ``repro_sim_gate_words_total`` so its counters equal an uninterrupted
    run's.

``{"type": "prefix-done", "reason": ..., "applied": n, "detected": d}``
    The prefix phase finished (stop reason: ``window``/``budget``/
    ``exhausted``).  Informational for a resume: replaying the ``prefix``
    records meets the same stopping rule again, with nothing re-graded.

``{"type": "result", "campaign": ...}``
    The final merged campaign.  A resume that finds this record with the
    same target cap starts no worker and targets nothing: the campaign loop
    reads the recorded faults again, folding their costs.

A process killed mid-write leaves a truncated last line; the reader tolerates
exactly that (a malformed *final* line is ignored, a malformed interior line
is an error), which is what makes kill-and-``--resume`` safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence

from repro.core.results import FaultResult
from repro.faults.model import GateDelayFault
from repro.obs.tracing import FaultCost, fold_cost


def fault_record(
    index: int, worker: int, result: FaultResult, cost=None
) -> Dict[str, object]:
    """The ``fault`` record of one targeted result (read back by :func:`record_result`).

    The raw detection list travels as a sibling key, and so does the optional
    :class:`~repro.obs.tracing.FaultCost`, so ``FaultResult.from_json`` stays
    strict and the replayed results remain bit-identical to a serial campaign.
    """
    record: Dict[str, object] = {
        "type": "fault",
        "index": index,
        "worker": worker,
        "result": dataclasses.replace(result, additionally_detected=[]).to_json(),
        "detections": [fault.to_json() for fault in result.additionally_detected],
    }
    if cost is not None:
        record["cost"] = cost.to_json()
    return record


def record_result(record: Dict[str, object]) -> FaultResult:
    """The :class:`FaultResult` of a ``fault`` record, raw detections restored."""
    result = FaultResult.from_json(record["result"])
    result.additionally_detected = [
        GateDelayFault.from_json(payload) for payload in record["detections"]
    ]
    return result


def replay_record(record: Dict[str, object], metrics, costs: List[FaultCost]) -> FaultResult:
    """:func:`record_result` for a campaign that reads a record instead of targeting.

    With ``metrics`` enabled the record's stored cost is folded into it and
    appended to ``costs``, so the aggregates and the cost log match a campaign
    that targeted the fault itself.
    """
    cost_payload = record.get("cost")
    if metrics.enabled and cost_payload is not None:
        cost = FaultCost.from_json(cost_payload)
        fold_cost(metrics, cost)
        costs.append(cost)
    return record_result(record)


def campaign_digest(
    circuit_name: str,
    config_payload: Dict[str, object],
    faults: Sequence[GateDelayFault],
) -> str:
    """Fingerprint of a campaign: circuit, settings and fault universe.

    A journal segment may only be resumed into a campaign with the same
    digest — same circuit, same generation settings (robustness, backtrack
    limits, fill, ...) and the same fault universe in the same enumeration
    order, since the records are keyed by universe index.  The simulation
    backend is deliberately *not* part of the digest: backends are pinned
    bit-exact against each other, so a campaign journaled under one backend
    resumes cleanly under another (``tests/orchestrate/test_journal.py``).
    """
    payload = {
        "circuit": circuit_name,
        "config": dict(sorted(config_payload.items())),
        "faults": [str(fault) for fault in faults],
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclasses.dataclass
class JournalSegment:
    """All journal records of one circuit's campaign, merged across resumes."""

    circuit: str
    digest: str
    header: Dict[str, object]
    fault_records: Dict[int, Dict[str, object]] = dataclasses.field(default_factory=dict)
    final: Optional[Dict[str, object]] = None
    #: Random-prefix records of a hybrid campaign, keyed by sequence index.
    prefix_records: Dict[int, Dict[str, object]] = dataclasses.field(default_factory=dict)
    #: The ``prefix-done`` record once Phase A finished, else ``None``.
    prefix_done: Optional[Dict[str, object]] = None


class CampaignJournal:
    """Append-only JSONL writer used by the coordinator.

    Every record is flushed straight to disk, so an interrupted campaign
    loses at most the record being written (and the reader tolerates that
    truncated line).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._truncate_torn_tail()
        self._handle: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")

    def _truncate_torn_tail(self) -> None:
        """Drop a torn final record before appending to an existing journal.

        A campaign killed mid-write leaves a last line without a trailing
        newline.  Appending after it would concatenate the next record onto
        the torn fragment and turn it into *interior* corruption that every
        later read rejects — so the fragment is cut here, at open time.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line exists
        with open(self.path, "rb+") as handle:
            handle.truncate(keep)

    def append(self, record: Dict[str, object]) -> None:
        """Write one record as a single JSONL line and flush it."""
        if self._handle is None:
            raise ValueError("journal is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file; further appends raise."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the file."""
        self.close()


def read_journal(path: str) -> List[Dict[str, object]]:
    """Read all records of a journal file, tolerating a truncated last line."""
    records: List[Dict[str, object]] = []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # interrupted mid-write; the record never completed
            raise ValueError(f"{path}:{lineno + 1}: corrupt journal record") from None
    return records


def load_segments(path: str) -> Dict[str, JournalSegment]:
    """Parse a journal into one merged :class:`JournalSegment` per circuit.

    Records of resumed runs (same circuit, same digest) merge into the same
    segment; a digest change for a circuit is an error because the existing
    records would be keyed against a different fault universe.
    """
    segments: Dict[str, JournalSegment] = {}
    current: Optional[JournalSegment] = None
    for record in read_journal(path):
        kind = record.get("type")
        if kind == "campaign":
            circuit = str(record["circuit"])
            digest = str(record["digest"])
            existing = segments.get(circuit)
            if existing is None:
                current = JournalSegment(circuit=circuit, digest=digest, header=record)
                segments[circuit] = current
            else:
                if existing.digest != digest:
                    raise ValueError(
                        f"journal {path!r} holds circuit {circuit!r} records for a "
                        f"different campaign (digest {existing.digest} != {digest})"
                    )
                current = existing
        elif kind in ("fault", "result", "prefix", "prefix-done"):
            if current is None:
                raise ValueError(f"journal {path!r} has a {kind!r} record before any header")
            if kind == "fault":
                current.fault_records[int(record["index"])] = record
            elif kind == "prefix":
                current.prefix_records[int(record["seq"])] = record
            elif kind == "prefix-done":
                current.prefix_done = record
            else:
                current.final = record
        # Unknown record types (and the retired ``drop``) are ignored so the
        # format can grow.
    return segments
