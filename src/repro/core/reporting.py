"""Rendering of campaign results in the style of the paper's Table 3.

Besides the Table 3 row itself this module renders the satellite reports the
CLI prints next to it: the untestable breakdown, the random-prefix summary,
the per-shard summary of an orchestrated campaign and — when ``--profile``
is on — the instrumentation cost breakdown (:func:`format_profile`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.results import CampaignResult
from repro.obs.metrics import MetricsSnapshot, split_metric_key

_TABLE3_COLUMNS = ("circuit", "tested", "untstbl", "aborted", "#pat", "time[s]")


def campaign_row(result: CampaignResult) -> Dict[str, object]:
    """One Table 3 row as a dictionary."""
    row = result.as_table3_row()
    return {
        "circuit": row["circuit"],
        "tested": row["tested"],
        "untstbl": row["untestable"],
        "aborted": row["aborted"],
        "#pat": row["patterns"],
        "time[s]": row["time_s"],
    }


def _render_table(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, object]],
    title: Optional[str] = None,
) -> List[str]:
    """Render rows as a right-aligned fixed-width text table (as lines)."""
    widths = {column: len(column) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row[column])))
    lines: List[str] = [title, ""] if title else []
    lines.append("  ".join(f"{column:>{widths[column]}}" for column in columns))
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append("  ".join(f"{str(row[column]):>{widths[column]}}" for column in columns))
    return lines


def format_campaign_table(results: Sequence[CampaignResult], title: str = "Benchmark results") -> str:
    """Format several campaign results as a fixed-width text table.

    The column layout mirrors Table 3 of the paper: circuit, tested,
    untestable, aborted, number of patterns (initialisation and propagation
    vectors included) and CPU time in seconds.
    """
    rows = [campaign_row(result) for result in results]
    return "\n".join(_render_table(_TABLE3_COLUMNS, rows, title=title))


_SHARD_COLUMNS = (
    "shard", "assigned", "targeted", "dropped", "tested", "untstbl", "aborted",
    "absorbed", "time[s]",
)


def format_shard_summary(
    shard_stats: Sequence[Mapping[str, object]],
    recomputed: int = 0,
    title: Optional[str] = None,
) -> str:
    """Per-shard progress summary of one orchestrated campaign.

    ``shard_stats`` is what :class:`repro.orchestrate.coordinator.
    CampaignOrchestrator` collects from its workers: per shard the number of
    assigned faults (``-`` in the dynamic work-queue mode), how many were
    explicitly targeted vs. dropped by a broadcast detection set, the verdict
    split, how many foreign detection broadcasts the shard absorbed and its
    wall time.  ``recomputed`` is the coordinator's count of faults the
    replay merge had to recompute serially.
    """
    rows: List[Dict[str, object]] = []
    for stats in shard_stats:
        assigned = stats.get("assigned")
        rows.append(
            {
                "shard": stats.get("worker", "?"),
                "assigned": "-" if assigned is None else assigned,
                "targeted": stats.get("targeted", 0),
                "dropped": stats.get("dropped", 0),
                "tested": stats.get("tested", 0),
                "untstbl": stats.get("untestable", 0),
                "aborted": stats.get("aborted", 0),
                "absorbed": stats.get("absorbed_broadcasts", 0),
                "time[s]": stats.get("seconds", 0),
            }
        )
    lines = _render_table(_SHARD_COLUMNS, rows, title=title)
    lines.append(f"replay merge recomputed {recomputed} over-dropped fault(s)")
    return "\n".join(lines)


_PHASE_COLUMNS = ("phase", "calls", "time[s]")
_FAULT_COST_COLUMNS = (
    "fault", "status", "engine", "time[s]", "decisions", "backtracks",
    "sweeps", "words",
)
_ABORT_COLUMNS = ("abort phase", "faults")


def format_profile(
    snapshot: MetricsSnapshot,
    fault_costs: Sequence[object] = (),
    top_n: int = 10,
    title: str = "Cost breakdown",
) -> str:
    """The ``--profile`` report: phase times, priciest faults, abort reasons.

    Args:
        snapshot: a campaign registry snapshot
            (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`).
        fault_costs: per-fault :class:`~repro.obs.tracing.FaultCost` records
            (the flow's ``cost_log`` or the coordinator's ``fault_costs``);
            the ``top_n`` most expensive by wall time are tabulated.
        top_n: how many faults to show.
        title: heading of the report.

    Three tables: wall time per flow phase (from the
    ``repro_phase_seconds`` timers), the top-N most expensive faults with
    their search-effort attribution, and the abort-reason histogram (from
    ``repro_fault_aborts_total``).  A line between the first two gives the
    time spent generating straight-line kernels
    (``repro_kernel_generate_seconds``), when any kernel tiered up.
    """
    lines: List[str] = [title, ""]

    phase_rows: List[Dict[str, object]] = []
    for key in sorted(snapshot.timers):
        name, labels = split_metric_key(key)
        if name != "repro_phase_seconds":
            continue
        timer = snapshot.timers[key]
        phase = dict(labels).get("phase", "-")
        phase_rows.append(
            {
                "phase": phase,
                "calls": int(timer["count"]),
                "time[s]": f"{timer['sum']:.3f}",
            }
        )
    if phase_rows:
        lines.extend(_render_table(_PHASE_COLUMNS, phase_rows, title="Time per phase"))
        lines.append("")

    generated = []
    for key in sorted(snapshot.timers):
        name, labels = split_metric_key(key)
        if name == "repro_kernel_generate_seconds":
            timer = snapshot.timers[key]
            generated.append(
                f"{dict(labels).get('kernel', '-')} {timer['sum']:.3f} s"
                f" (tier-ups {int(timer['count'])})"
            )
    if generated:
        lines.extend([f"Kernel generation: {', '.join(generated)}", ""])

    costs = sorted(fault_costs, key=lambda cost: cost.seconds, reverse=True)
    if costs and top_n > 0:
        rows = [
            {
                "fault": cost.fault,
                "status": cost.status,
                "engine": cost.engine,
                "time[s]": f"{cost.seconds:.4f}",
                "decisions": cost.decisions,
                "backtracks": cost.local_backtracks + cost.sequential_backtracks,
                "sweeps": cost.implication_sweeps,
                "words": cost.words_simulated,
            }
            for cost in costs[: max(top_n, 0)]
        ]
        lines.extend(
            _render_table(
                _FAULT_COST_COLUMNS,
                rows,
                title=f"Top {len(rows)} most expensive faults (of {len(costs)})",
            )
        )
        lines.append("")

    abort_rows: List[Dict[str, object]] = []
    for key in sorted(snapshot.counters):
        name, labels = split_metric_key(key)
        if name != "repro_fault_aborts_total":
            continue
        abort_rows.append(
            {
                "abort phase": dict(labels).get("phase", "-"),
                "faults": int(snapshot.counters[key]),
            }
        )
    if abort_rows:
        lines.extend(_render_table(_ABORT_COLUMNS, abort_rows, title="Aborts by phase"))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def format_untestable_breakdown(results: Sequence[CampaignResult]) -> str:
    """Per-circuit breakdown of untestable faults (experiment E7).

    Shows how many untestable faults were proven untestable combinationally
    (by TDgen alone) and how many are only *sequentially* untestable (the
    propagation or initialisation phase fails), mirroring the discussion in
    section 6 of the paper.
    """
    lines = ["circuit      comb.untestable   seq.untestable   aborted"]
    for result in results:
        breakdown = result.untestable_breakdown()
        lines.append(
            f"{result.circuit_name:<12} {breakdown['combinationally_untestable']:>15} "
            f"{breakdown['sequentially_untestable']:>16} {result.aborted:>9}"
        )
    return "\n".join(lines)


def format_prefix_summary(results: Sequence[CampaignResult]) -> str:
    """Per-circuit summary of the random-pattern prefix of a hybrid campaign.

    Shows how many random sequences Phase A applied, how many faults they
    stripped from the deterministic residue, and why the adaptive stopping
    rule handed over to Phase B (see :mod:`repro.core.prefilter`).
    """
    lines = ["circuit      prefix.seqs   prefix.detected   stop"]
    for result in results:
        reason = result.prefix_stop_reason or "-"
        lines.append(
            f"{result.circuit_name:<12} {result.prefix_applied:>11} "
            f"{result.prefix_detected:>17}   {reason}"
        )
    return "\n".join(lines)
