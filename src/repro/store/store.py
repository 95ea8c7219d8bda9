"""The persistent campaign store: ingest, lossless reload, analytics.

:class:`CampaignStore` wraps one sqlite3 database file (schema in
:mod:`repro.store.schema`) and offers three things:

* **Ingest** — :meth:`CampaignStore.ingest_result` folds a finished
  :class:`~repro.core.results.CampaignResult` (plus its netlist, config and
  optional :mod:`repro.obs` cost records) into the normalized tables, and
  :meth:`CampaignStore.ingest_journal` imports existing JSONL checkpoint
  journals — finished segments losslessly, torn/unfinished segments as
  ``partial`` rows reconstructed from their per-fault records.
* **Lossless reload** — :meth:`CampaignStore.load_result` rebuilds the exact
  ``CampaignResult`` (fingerprint-identical to the ingested one), and
  :meth:`CampaignStore.fault_records` returns the per-fault outcomes as
  journal-format ``fault`` records keyed by fault name — the raw material of
  incremental re-runs (:mod:`repro.store.incremental`).
* **Analytics** — :meth:`CampaignStore.coverage_trend`,
  :meth:`CampaignStore.cost_outliers` and
  :meth:`CampaignStore.backend_ablation` answer the cross-campaign questions
  the ROADMAP names, all as plain SQL over the columnar tables (surfaced on
  the CLI as ``python -m repro store query``).

Staleness safety: every campaign row stores the journal-layer
:func:`~repro.orchestrate.journal.campaign_digest` (settings + fault
universe) and the canonical ``.bench`` text of its netlist.
:meth:`CampaignStore.find_base` re-derives the digest from the stored rows
before handing a campaign to the incremental engine, so an edited/corrupted
store or one written under different settings (for example robust vs
non-robust) can never cross-resume.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.circuit.bench import netlist_digest, parse_bench, write_bench
from repro.circuit.netlist import Circuit
from repro.core.flow import run_campaign_loop
from repro.core.results import CampaignResult, FaultResult, FaultResultStatus, TestSequence
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.obs.tracing import FaultCost
from repro.orchestrate.journal import (
    JournalSegment,
    campaign_digest,
    fault_record,
    load_segments,
    record_result,
)
from repro.store.schema import connect


def config_payload_json(payload: Dict[str, object]) -> str:
    """Canonical JSON form of a config digest payload (sorted, stable)."""
    return json.dumps(dict(sorted(payload.items())), sort_keys=True)


@dataclasses.dataclass(frozen=True)
class BaseCampaign:
    """A stored campaign validated as an incremental-re-run base."""

    campaign_id: int
    circuit: Circuit
    config_digest: str
    net_digest: str
    partial: bool
    fault_names: Sequence[str]


class CampaignStore:
    """One sqlite3-backed campaign store file (see module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = connect(self.path)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CampaignStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def ingest_result(
        self,
        result: CampaignResult,
        *,
        circuit: Optional[Circuit] = None,
        config=None,
        faults: Optional[Sequence[GateDelayFault]] = None,
        costs: Sequence[FaultCost] = (),
        source: str = "api",
        partial: bool = False,
        config_digest: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> int:
        """Ingest one finished campaign; returns the new campaign row id.

        ``circuit`` and ``config`` (an
        :class:`~repro.orchestrate.coordinator.OrchestratorConfig`) are
        optional but required for the row to serve as an incremental base:
        with both present the canonical ``.bench`` text, the full fault
        universe and the re-derivable config digest are stored.  ``costs``
        are the campaign's :mod:`repro.obs` per-fault cost records (empty
        when metrics were off).
        """
        if circuit is not None and circuit.name != result.circuit_name:
            raise ValueError(
                f"circuit {circuit.name!r} does not match campaign result "
                f"{result.circuit_name!r}"
            )
        payload = config.digest_payload() if config is not None else None
        if circuit is not None and faults is None:
            faults = enumerate_delay_faults(circuit)
        if config_digest is None:
            if payload is not None and faults is not None:
                config_digest = campaign_digest(result.circuit_name, payload, faults)
            else:
                config_digest = ""
        row = {
            "circuit": result.circuit_name,
            "net_digest": netlist_digest(circuit) if circuit is not None else None,
            "config_digest": config_digest,
            "config_json": config_payload_json(payload) if payload is not None else None,
            "bench": write_bench(circuit) if circuit is not None else None,
            "backend": getattr(config, "backend", None),
            "robust": int(config.robust) if config is not None else None,
            "campaign_seed": getattr(config, "campaign_seed", None),
            "rpg_prefix": int(bool(getattr(config, "rpg_prefix", False))),
            "rpg_budget": getattr(config, "rpg_budget", None),
            "rpg_window": getattr(config, "rpg_window", None),
            "total_faults": result.total_faults,
            "tested": result.tested,
            "untestable": result.untestable,
            "aborted": result.aborted,
            "pattern_count": result.pattern_count,
            "cpu_seconds": result.cpu_seconds,
            "untestable_local": result.untestable_local,
            "untestable_sequential": result.untestable_sequential,
            "aborted_local": result.aborted_local,
            "aborted_sequential": result.aborted_sequential,
            "targeted": result.targeted,
            "detected_by_simulation": result.detected_by_simulation,
            "prefix_applied": result.prefix_applied,
            "prefix_detected": result.prefix_detected,
            "prefix_stop_reason": result.prefix_stop_reason,
            "source": source,
            "partial": int(bool(partial)),
            "created_at": time.time(),
        }
        with self._lock, self._conn as conn:
            columns = ", ".join(row)
            holes = ", ".join("?" for _ in row)
            cursor = conn.execute(
                f"INSERT INTO campaigns ({columns}) VALUES ({holes})",
                tuple(row.values()),
            )
            campaign_id = cursor.lastrowid
            if faults is not None:
                conn.executemany(
                    "INSERT INTO faults (campaign_id, idx, fault, fault_json)"
                    " VALUES (?, ?, ?, ?)",
                    [
                        (campaign_id, idx, str(fault), json.dumps(fault.to_json(), sort_keys=True))
                        for idx, fault in enumerate(faults)
                    ],
                )
            for ordinal, fault_result in enumerate(result.fault_results):
                sequence_id = None
                if fault_result.sequence is not None:
                    sequence_id = conn.execute(
                        "INSERT INTO sequences (campaign_id, kind, ordinal, fault,"
                        " pattern_count, sequence_json) VALUES (?, 'fault', ?, ?, ?, ?)",
                        (
                            campaign_id,
                            ordinal,
                            str(fault_result.fault),
                            fault_result.sequence.pattern_count,
                            json.dumps(fault_result.sequence.to_json(), sort_keys=True),
                        ),
                    ).lastrowid
                result_payload = fault_result.to_json()
                result_payload.pop("sequence", None)
                result_payload.pop("additionally_detected", None)
                conn.execute(
                    "INSERT INTO results (campaign_id, ordinal, fault, fault_json,"
                    " status, phase, sequence_id, attempts, local_backtracks,"
                    " sequential_backtracks, detections_json)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        ordinal,
                        str(fault_result.fault),
                        json.dumps(fault_result.fault.to_json(), sort_keys=True),
                        fault_result.status.value,
                        fault_result.phase.name,
                        sequence_id,
                        fault_result.attempts,
                        fault_result.local_backtracks,
                        fault_result.sequential_backtracks,
                        json.dumps(
                            [f.to_json() for f in fault_result.additionally_detected],
                            sort_keys=True,
                        ),
                    ),
                )
            conn.executemany(
                "INSERT INTO sequences (campaign_id, kind, ordinal, fault,"
                " pattern_count, sequence_json) VALUES (?, 'prefix', ?, ?, ?, ?)",
                [
                    (
                        campaign_id,
                        ordinal,
                        str(sequence.fault),
                        sequence.pattern_count,
                        json.dumps(sequence.to_json(), sort_keys=True),
                    )
                    for ordinal, sequence in enumerate(result.prefix_sequences)
                ],
            )
            conn.executemany(
                "INSERT INTO costs (campaign_id, ordinal, fault, status, phase,"
                " seconds, attempts, local_backtracks, sequential_backtracks,"
                " decisions, implication_sweeps, wavefront_skipped,"
                " words_simulated, engine)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        campaign_id,
                        ordinal,
                        str(cost.fault),
                        cost.status,
                        cost.phase,
                        cost.seconds,
                        cost.attempts,
                        cost.local_backtracks,
                        cost.sequential_backtracks,
                        cost.decisions,
                        cost.implication_sweeps,
                        cost.wavefront_skipped,
                        cost.words_simulated,
                        cost.engine,
                    )
                    for ordinal, cost in enumerate(costs)
                ],
            )
            all_timings = {"cpu_seconds": result.cpu_seconds}
            all_timings.update(timings or {})
            conn.executemany(
                "INSERT INTO timings (campaign_id, name, seconds) VALUES (?, ?, ?)",
                [(campaign_id, name, seconds) for name, seconds in all_timings.items()],
            )
        return campaign_id

    def ingest_journal(
        self,
        path: str,
        *,
        circuit: Optional[Circuit] = None,
        config=None,
        source: str = "journal",
    ) -> List[int]:
        """Import a JSONL checkpoint journal; returns the new campaign ids.

        Finished segments (with a ``result`` record) import losslessly.  A
        torn or interrupted segment still imports: its campaign is
        reconstructed from the per-fault records and flagged ``partial`` (its
        Table-3 counters are lower bounds).  When ``circuit`` and ``config``
        are given for a segment, the journal's digest is re-derived and a
        mismatch — wrong settings (for example robust vs non-robust), wrong
        netlist or wrong fault universe — is rejected with ``ValueError``.
        """
        segments = load_segments(path)
        if not segments:
            raise ValueError(f"journal {path!r} holds no campaign segments")
        if circuit is not None and circuit.name not in segments:
            raise ValueError(
                f"journal {path!r} has no segment for circuit {circuit.name!r} "
                f"(found: {sorted(segments)})"
            )
        ids = []
        for name in sorted(segments):
            segment = segments[name]
            segment_circuit = circuit if circuit is not None and circuit.name == name else None
            segment_config = config if segment_circuit is not None else None
            if segment_circuit is not None and segment_config is not None:
                expected = campaign_digest(
                    name,
                    segment_config.digest_payload(),
                    enumerate_delay_faults(segment_circuit),
                )
                if expected != segment.digest:
                    raise ValueError(
                        f"journal digest mismatch for circuit {name!r}: journal has "
                        f"{segment.digest}, circuit + settings give {expected} — "
                        "the netlist, the fault universe or the campaign settings "
                        "(robust, backtrack limits, seed, ...) changed"
                    )
            result, partial = _segment_result(segment)
            # Cost rows of the credited faults only, in campaign order, as
            # ingest_result stores them for a live campaign: a speculative
            # worker record the serial order never reached keeps its cost out.
            records: Dict[GateDelayFault, Dict[str, object]] = {}
            for index in sorted(segment.fault_records):
                record = segment.fault_records[index]
                records.setdefault(GateDelayFault.from_json(record["result"]["fault"]), record)
            costs = [
                FaultCost.from_json(records[r.fault]["cost"])
                for r in result.fault_results
                if "cost" in records.get(r.fault, {})
            ]
            ids.append(
                self.ingest_result(
                    result,
                    circuit=segment_circuit,
                    config=segment_config,
                    costs=costs,
                    source=source,
                    partial=partial,
                    config_digest=segment.digest,
                )
            )
        return ids

    # ------------------------------------------------------------------ #
    # lossless reload
    # ------------------------------------------------------------------ #
    def load_result(self, campaign_id: int) -> CampaignResult:
        """Rebuild the exact :class:`CampaignResult` of one stored campaign."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
            if row is None:
                raise LookupError(f"store has no campaign with id {campaign_id}")
            prefix_rows = self._conn.execute(
                "SELECT sequence_json FROM sequences"
                " WHERE campaign_id = ? AND kind = 'prefix' ORDER BY ordinal",
                (campaign_id,),
            ).fetchall()
        fault_results = [
            record_result(record) for record in self.fault_records(campaign_id).values()
        ]
        campaign = CampaignResult(
            circuit_name=row["circuit"],
            total_faults=row["total_faults"],
            tested=row["tested"],
            untestable=row["untestable"],
            aborted=row["aborted"],
            pattern_count=row["pattern_count"],
            cpu_seconds=row["cpu_seconds"],
            fault_results=fault_results,
            untestable_local=row["untestable_local"],
            untestable_sequential=row["untestable_sequential"],
            aborted_local=row["aborted_local"],
            aborted_sequential=row["aborted_sequential"],
            targeted=row["targeted"],
            detected_by_simulation=row["detected_by_simulation"],
            prefix_applied=row["prefix_applied"],
            prefix_detected=row["prefix_detected"],
            prefix_stop_reason=row["prefix_stop_reason"],
            prefix_sequences=[
                TestSequence.from_json(json.loads(r["sequence_json"])) for r in prefix_rows
            ],
        )
        campaign.sequences = [
            result.sequence for result in fault_results if result.sequence is not None
        ]
        return campaign

    def load_costs(self, campaign_id: int) -> List[FaultCost]:
        """The stored :mod:`repro.obs` cost records of one campaign, in order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM costs WHERE campaign_id = ? ORDER BY ordinal",
                (campaign_id,),
            ).fetchall()
        return [
            FaultCost(
                fault=r["fault"],
                status=r["status"],
                phase=r["phase"],
                seconds=r["seconds"],
                attempts=r["attempts"],
                local_backtracks=r["local_backtracks"],
                sequential_backtracks=r["sequential_backtracks"],
                decisions=r["decisions"],
                implication_sweeps=r["implication_sweeps"],
                wavefront_skipped=r["wavefront_skipped"],
                words_simulated=r["words_simulated"],
                engine=r["engine"],
            )
            for r in rows
        ]

    def fault_records(self, campaign_id: int) -> Dict[str, Dict[str, object]]:
        """The per-fault outcomes of one campaign, keyed by fault name.

        Each value is the journal-format ``fault`` record
        (:func:`~repro.orchestrate.journal.fault_record`, read back by
        :func:`~repro.orchestrate.journal.record_result`) with the stored
        detection list and, when stored, the cost record.  Its ``index`` and
        ``worker`` are ``-1``: a re-run keys each record by its own universe
        index (:func:`~repro.store.incremental.plan_reuse`).
        """
        with self._lock:
            result_rows = self._conn.execute(
                "SELECT * FROM results WHERE campaign_id = ? ORDER BY ordinal",
                (campaign_id,),
            ).fetchall()
            sequence_rows = self._conn.execute(
                "SELECT id, sequence_json FROM sequences"
                " WHERE campaign_id = ? AND kind = 'fault'",
                (campaign_id,),
            ).fetchall()
        sequences = {r["id"]: json.loads(r["sequence_json"]) for r in sequence_rows}
        costs = {cost.fault: cost for cost in self.load_costs(campaign_id)}
        records: Dict[str, Dict[str, object]] = {}
        for r in result_rows:
            result = FaultResult.from_json(
                {
                    "fault": json.loads(r["fault_json"]),
                    "status": r["status"],
                    "phase": r["phase"],
                    "sequence": sequences.get(r["sequence_id"]),
                    "additionally_detected": json.loads(r["detections_json"]),
                    "local_backtracks": r["local_backtracks"],
                    "sequential_backtracks": r["sequential_backtracks"],
                    "attempts": r["attempts"],
                }
            )
            records[r["fault"]] = fault_record(-1, -1, result, costs.get(r["fault"]))
        return records

    # ------------------------------------------------------------------ #
    # incremental base lookup
    # ------------------------------------------------------------------ #
    def find_base(self, circuit_name: str, config) -> BaseCampaign:
        """Find and validate the latest incremental base for a campaign.

        Matches on circuit name *and* the full config digest payload, so a
        store written under different settings (robust vs non-robust,
        different backtrack limits, seed, ...) is never picked up.  Before
        returning, the stored config digest is re-derived from the stored
        netlist and fault rows; any mismatch means the store is stale or
        corrupt and raises ``ValueError`` instead of silently cross-resuming.
        """
        payload = config.digest_payload()
        config_json = config_payload_json(payload)
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, circuit, config_digest, net_digest, partial FROM campaigns"
                " WHERE circuit = ? AND config_json = ? AND bench IS NOT NULL"
                " ORDER BY id DESC",
                (circuit_name, config_json),
            ).fetchall()
        if not rows:
            raise LookupError(
                f"store {self.path!r} has no campaign for circuit {circuit_name!r} "
                "with matching settings (circuit + config payload); run and ingest "
                "a full campaign first"
            )
        row = rows[0]
        campaign_id = row["id"]
        with self._lock:
            bench_row = self._conn.execute(
                "SELECT bench FROM campaigns WHERE id = ?", (campaign_id,)
            ).fetchone()
            fault_rows = self._conn.execute(
                "SELECT fault FROM faults WHERE campaign_id = ? ORDER BY idx",
                (campaign_id,),
            ).fetchall()
        fault_names = [r["fault"] for r in fault_rows]
        derived = campaign_digest(circuit_name, payload, fault_names)
        if derived != row["config_digest"]:
            raise ValueError(
                f"campaign store {self.path!r} is stale or corrupt: stored digest "
                f"{row['config_digest']} of campaign {campaign_id} does not match "
                f"the digest {derived} derived from its stored fault universe"
            )
        old_circuit = parse_bench(bench_row["bench"], name=circuit_name)
        expected = [str(fault) for fault in enumerate_delay_faults(old_circuit)]
        if expected != fault_names:
            raise ValueError(
                f"campaign store {self.path!r} is stale or corrupt: the fault "
                f"universe of campaign {campaign_id} does not match its stored "
                "netlist"
            )
        stored_net_digest = row["net_digest"]
        if stored_net_digest != netlist_digest(old_circuit):
            raise ValueError(
                f"campaign store {self.path!r} is stale or corrupt: the netlist "
                f"digest of campaign {campaign_id} does not match its stored "
                ".bench text"
            )
        return BaseCampaign(
            campaign_id=campaign_id,
            circuit=old_circuit,
            config_digest=row["config_digest"],
            net_digest=stored_net_digest,
            partial=bool(row["partial"]),
            fault_names=tuple(fault_names),
        )

    # ------------------------------------------------------------------ #
    # analytics
    # ------------------------------------------------------------------ #
    def campaigns(self, circuit: Optional[str] = None) -> List[Dict[str, object]]:
        """Summary rows of every stored campaign, oldest first."""
        query = (
            "SELECT id, circuit, net_digest, config_digest, backend, robust,"
            " rpg_prefix, total_faults, tested, untestable, aborted,"
            " pattern_count, cpu_seconds, targeted, source, partial, created_at"
            " FROM campaigns"
        )
        args: tuple = ()
        if circuit is not None:
            query += " WHERE circuit = ?"
            args = (circuit,)
        query += " ORDER BY id"
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        return [dict(row) for row in rows]

    def coverage_trend(self, circuit: Optional[str] = None) -> List[Dict[str, object]]:
        """Fault coverage per campaign over ingest order, per circuit."""
        rows = self.campaigns(circuit)
        trend = []
        for row in rows:
            total = row["total_faults"]
            trend.append(
                {
                    "campaign_id": row["id"],
                    "circuit": row["circuit"],
                    "backend": row["backend"],
                    "total_faults": total,
                    "tested": row["tested"],
                    "coverage": (row["tested"] / total) if total else 0.0,
                    "cpu_seconds": row["cpu_seconds"],
                    "partial": bool(row["partial"]),
                    "source": row["source"],
                }
            )
        return trend

    def cost_outliers(
        self, campaign_id: Optional[int] = None, limit: int = 10
    ) -> List[Dict[str, object]]:
        """The most expensive faults by recorded wall-clock seconds."""
        query = (
            "SELECT c.campaign_id, k.circuit, c.fault, c.status, c.phase,"
            " c.seconds, c.decisions, c.local_backtracks, c.sequential_backtracks,"
            " c.implication_sweeps, c.words_simulated, c.engine"
            " FROM costs c JOIN campaigns k ON k.id = c.campaign_id"
        )
        args: List[object] = []
        if campaign_id is not None:
            query += " WHERE c.campaign_id = ?"
            args.append(campaign_id)
        query += " ORDER BY c.seconds DESC, c.campaign_id, c.ordinal LIMIT ?"
        args.append(limit)
        with self._lock:
            rows = self._conn.execute(query, tuple(args)).fetchall()
        return [dict(row) for row in rows]

    def backend_ablation(self, circuit: Optional[str] = None) -> List[Dict[str, object]]:
        """Per-backend campaign statistics (count, mean time, mean coverage)."""
        query = (
            "SELECT COALESCE(backend, 'default') AS backend, COUNT(*) AS campaigns,"
            " AVG(cpu_seconds) AS mean_cpu_seconds,"
            " AVG(CASE WHEN total_faults > 0 THEN tested * 1.0 / total_faults END)"
            "   AS mean_coverage,"
            " SUM(targeted) AS targeted FROM campaigns"
        )
        args: tuple = ()
        if circuit is not None:
            query += " WHERE circuit = ?"
            args = (circuit,)
        query += " GROUP BY COALESCE(backend, 'default') ORDER BY backend"
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        return [dict(row) for row in rows]


def _segment_result(segment: JournalSegment) -> "tuple[CampaignResult, bool]":
    """Materialise a journal segment as ``(CampaignResult, partial)``.

    A finished segment returns its recorded final campaign verbatim.  An
    unfinished one (interrupted or torn before the ``result`` record) is
    rebuilt by the campaign loop itself
    (:func:`~repro.core.flow.run_campaign_loop`) over the recorded outcomes,
    in enumeration order: a speculative record for a fault an earlier
    sequence already detected is skipped, so every fault lands in exactly one
    column.  Faults without a record stay out of every column, so the
    ``tested``/``untestable``/``aborted`` counters are lower bounds, which is
    why the row is flagged partial.
    """
    if segment.final is not None:
        return CampaignResult.from_json(segment.final["campaign"]), False
    from repro.core.prefilter import PrefixOutcome

    total = int(segment.header.get("total_faults", 0))
    prefix = PrefixOutcome.from_journal(segment.prefix_records, segment.prefix_done)
    recorded: Dict[GateDelayFault, Dict[str, object]] = {}
    for index in sorted(segment.fault_records):
        record = segment.fault_records[index]
        recorded.setdefault(GateDelayFault.from_json(record["result"]["fault"]), record)
    detections = [f for r in recorded.values() for f in record_result(r).additionally_detected]
    # Recorded faults keep their enumeration order; a fault known only as a
    # detection is never targeted here, so where it sits does not matter.
    universe = list(dict.fromkeys([*recorded, *prefix.detected, *detections]))
    if not universe:  # torn before any detection or outcome was recorded
        campaign = CampaignResult(circuit_name=segment.circuit, total_faults=total)
        campaign.prefix_applied, campaign.prefix_stop_reason = prefix.applied, prefix.stop_reason
        return campaign, True

    def target(_index: int, fault: GateDelayFault) -> Optional[FaultResult]:
        record = recorded.get(fault)
        return None if record is None else record_result(record)

    campaign = run_campaign_loop(segment.circuit, universe, target, prefix_outcome=prefix)
    # The loop counts untargeted faults as aborted; here only recorded aborts
    # count (a reached abort may still have been detected by a later record).
    results = campaign.fault_results
    tested = {f for r in results if r.tested for f in (r.fault, *r.additionally_detected)}
    campaign.aborted = sum(
        r.status is FaultResultStatus.ABORTED and r.fault not in tested for r in results
    )
    campaign.total_faults = total
    campaign.cpu_seconds = 0.0
    return campaign, True
