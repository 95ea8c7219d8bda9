"""Command line interface: ``python -m repro``.

Subcommands:

``campaign``
    Run the full FOGBUSTER ATPG campaign on one or more benchmark circuits or
    on a user supplied ``.bench`` file and print the Table 3 style summary.
``tables``
    Print the truth tables of the eight-valued robust delay algebra
    (paper Tables 1 and 2).
``circuits``
    List the available benchmark circuits and their statistics.
``serve``
    Run the ATPG daemon: an HTTP/JSON API with a priority job queue, warm
    compiled-netlist and result caches, and graceful checkpoint/resume
    shutdown (see ``docs/SERVICE.md``).
``store``
    Manage the persistent campaign store (``docs/STORE.md``): ``ingest``
    imports JSONL checkpoint journals, ``query`` answers cross-campaign
    questions (coverage trends, cost outliers, backend ablations) as JSON,
    ``report`` prints a human-readable summary.  ``campaign --store`` feeds
    finished runs into a store and ``campaign --incremental-from`` re-runs
    only the faults a netlist edit can affect.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.circuit.bench import BenchParseError, parse_bench_file
from repro.circuit.gates import GateType
from repro.circuit.levelize import CombinationalLoopError, combinational_order
from repro.algebra.tables import format_truth_table
from repro.core.reporting import (
    format_campaign_table,
    format_prefix_summary,
    format_profile,
    format_shard_summary,
    format_untestable_breakdown,
)
from repro.data import circuit_spec, list_circuits, load_circuit
from repro.fausim.backends import available_backends
from repro.obs.export import metrics_document
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.orchestrate import OrchestratorConfig, run_campaign

#: Exit code of a campaign whose netlist is malformed (a ``.bench`` syntax
#: error or a combinational loop); 2 stays the usage/configuration error.
EXIT_BAD_NETLIST = 3


def _logging_parser() -> argparse.ArgumentParser:
    """The shared ``--verbose``/``--quiet`` flags, attached to every subcommand.

    A single parent parser instance keeps the flags (and their help text)
    identical across subcommands; it is attached to the subparsers only —
    never to the root parser too, which would clobber the parsed values.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "-v", "--verbose", action="store_true",
        help="log progress at INFO/DEBUG level to stderr",
    )
    group.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )
    return parent


def _configure_logging(args: argparse.Namespace, default_level: int = logging.WARNING) -> None:
    """Wire ``logging.basicConfig`` from the ``--verbose``/``--quiet`` flags."""
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = default_level
    # force=True rebinds the handler to the *current* sys.stderr on every
    # call: repeated in-process invocations (tests, embedding) keep working.
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )


def _add_settings_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign settings shared by ``campaign`` and ``store ingest``.

    Both commands map them through :func:`_orchestrator_config`, so a
    journal written by ``campaign`` validates under ``store ingest`` with
    the same flags: the settings that change per-fault results are exactly
    the journal digest's (:meth:`OrchestratorConfig.digest_payload`).
    """
    group = parser.add_argument_group(
        "campaign settings",
        "settings recorded with every journal and stored campaign; store "
        "ingest must be given the ones the journaled campaign ran under",
    )
    group.add_argument(
        "--backtrack-limit", type=int, default=OrchestratorConfig.local_backtrack_limit,
        help="abort limit (paper: 100)",
    )
    group.add_argument("--non-robust", action="store_true", help="use the non-robust model")
    group.add_argument(
        "--seed",
        type=int,
        default=OrchestratorConfig.campaign_seed,
        help=(
            "campaign seed from which the random prefix sequences derive "
            "their RNG seeds"
        ),
    )
    group.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default=None,
        help=(
            "simulation and implication backend (default: packed, the "
            "compiled bit-parallel evaluators on unbounded-width integer "
            "planes, used for fault simulation AND the search-side forward "
            "implication of TDgen/SEMILET; pass 'reference' for the per-gate "
            "interpreter oracles)"
        ),
    )
    group.add_argument(
        "--rpg-prefix",
        action="store_true",
        help=(
            "hybrid campaign: run a random-pattern prefix phase first — "
            "seeded random sequences are graded fault-parallel against the "
            "whole remaining universe and TDsim-confirmed detections are "
            "dropped before the deterministic flow targets the residue; "
            "the result stays bit-identical across --jobs and "
            "across --resume for a fixed --seed"
        ),
    )
    group.add_argument(
        "--rpg-budget",
        type=int,
        default=OrchestratorConfig.rpg_budget,
        metavar="N",
        help="max random sequences of the prefix phase (default: %(default)s)",
    )
    group.add_argument(
        "--rpg-window",
        type=int,
        default=OrchestratorConfig.rpg_window,
        metavar="W",
        help=(
            "adaptive stopping window: hand over to the deterministic flow "
            "once the last W random sequences credited no new detection "
            "(default: %(default)s)"
        ),
    )


def _orchestrator_config(args: argparse.Namespace, jobs: int) -> OrchestratorConfig:
    """The :class:`OrchestratorConfig` of :func:`_add_settings_arguments`' flags.

    ``jobs`` is the one field only ``campaign`` has.
    """
    return OrchestratorConfig(
        campaign_seed=args.seed,
        robust=not args.non_robust,
        local_backtrack_limit=args.backtrack_limit,
        sequential_backtrack_limit=args.backtrack_limit,
        backend=args.backend,
        rpg_prefix=args.rpg_prefix,
        rpg_budget=args.rpg_budget,
        rpg_window=args.rpg_window,
        jobs=jobs,
    )


def _load_circuit(name: str, scale: float):
    """A ``.bench`` file path or a registry circuit name, loaded."""
    if name.endswith(".bench"):
        return parse_bench_file(name)
    return load_circuit(name, scale=scale)


def _add_campaign_parser(subparsers, parents) -> None:
    parser = subparsers.add_parser(
        "campaign",
        help="run the ATPG campaign and print Table 3 style rows",
        parents=parents,
    )
    parser.add_argument(
        "--circuits",
        default="s27",
        help=(
            "comma separated benchmark names, or a path to a .bench file; "
            "'<name>-surrogate' (e.g. s838-surrogate) is accepted as an "
            "alias for the registry entry"
        ),
    )
    parser.add_argument("--scale", type=float, default=1.0, help="surrogate size scale")
    parser.add_argument(
        "--max-faults", type=int, default=0, help="cap on targeted faults (0 = no cap)"
    )
    parser.add_argument("--time-limit", type=float, default=None, help="seconds per circuit")
    _add_settings_arguments(parser)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes per circuit (default: 1 = serial). The merged "
            "result is bit-identical to the serial campaign for any value."
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint every fault outcome to this JSONL journal",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume an interrupted campaign from its journal (implies "
            "--journal PATH; already-recorded faults are not re-targeted)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "write the campaign metrics (counters, phase timers, per-fault "
            "cost records) to this JSON file; enables instrumentation — the "
            "campaign result stays bit-identical either way"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print a cost-breakdown report next to the Table 3 summary: "
            "wall time per flow phase, the most expensive faults with their "
            "search-effort attribution, and the abort-reason histogram"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "ingest every finished campaign into this persistent campaign "
            "store (a sqlite3 file, created on first use; see docs/STORE.md) "
            "so later runs can query it or resume from it incrementally"
        ),
    )
    parser.add_argument(
        "--incremental-from",
        default=None,
        metavar="PATH",
        help=(
            "incremental re-run: locate the latest stored campaign for the "
            "same circuit name and settings in this store, re-target only "
            "the faults inside the netlist edit's influence cone and reuse "
            "every other stored outcome — the result is bit-identical to a "
            "from-scratch run on the edited netlist, with any --jobs, "
            "--journal/--resume or --rpg-prefix (the prefix reruns; only the "
            "deterministic phase is reused)"
        ),
    )


def _usage_error(error: Exception) -> int:
    """Print one ``error:`` line for a bad setting or input; exit code 2."""
    message = error.args[0] if isinstance(error, KeyError) and error.args else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_campaign(args: argparse.Namespace) -> int:
    journal_path = args.resume or args.journal
    if args.resume and args.journal and args.resume != args.journal:
        print("error: --journal and --resume point at different files", file=sys.stderr)
        return 2

    collect = args.profile or args.metrics_out is not None
    campaigns = []
    shard_reports = []
    #: One ``(circuit, summary dict)`` pair per incremental re-run.
    incremental_reports = []
    store_notes = []
    #: One ``(circuit, snapshot, cost records)`` triple per campaign when
    #: instrumentation is on.
    profiles = []
    names = [name.strip() for name in args.circuits.split(",") if name.strip()]
    # Check the settings and load and levelize every netlist before any
    # campaign runs, so a bad setting or a malformed netlist fails the
    # command up front with a one-line error.
    try:
        config = _orchestrator_config(args, jobs=args.jobs)
    except ValueError as error:
        return _usage_error(error)
    circuits = []
    for name in names:
        try:
            circuit = _load_circuit(name, args.scale)
            combinational_order(circuit)
        except (BenchParseError, CombinationalLoopError) as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return EXIT_BAD_NETLIST
        except (LookupError, ValueError, OSError) as error:
            return _usage_error(error)
        circuits.append(circuit)
    for circuit in circuits:
        registry = MetricsRegistry() if collect else None
        try:
            run = run_campaign(
                circuit,
                config,
                max_target_faults=args.max_faults or None,
                time_limit_s=args.time_limit,
                journal_path=journal_path,
                resume=args.resume is not None,
                incremental_from=args.incremental_from,
                metrics=registry,
            )
        except (LookupError, ValueError, OSError) as error:
            return _usage_error(error)
        campaign = run.result
        if run.incremental is not None:
            incremental_reports.append((campaign.circuit_name, run.incremental))
        if run.shard_stats:
            shard_reports.append(
                format_shard_summary(
                    run.shard_stats,
                    recomputed=run.recomputed,
                    dropped=run.dropped,
                    title=f"Shard summary — {campaign.circuit_name}",
                )
            )
        if args.store is not None:
            from repro.store import CampaignStore

            with CampaignStore(args.store) as store:
                campaign_id = store.ingest_result(
                    campaign,
                    circuit=circuit,
                    config=config,
                    costs=run.costs,
                    source="cli",
                )
            store_notes.append(
                f"stored {campaign.circuit_name} as campaign #{campaign_id} in {args.store}"
            )
        campaigns.append(campaign)
        if registry is not None:
            profiles.append((campaign.circuit_name, registry.snapshot(), run.costs))
    print(format_campaign_table(campaigns, title="Gate delay fault ATPG results"))
    print()
    print(format_untestable_breakdown(campaigns))
    for name, summary in incremental_reports:
        print()
        print(
            f"Incremental re-run — {name}: base campaign #{summary['base_campaign_id']}, "
            f"delta {summary['changed_signals']} changed "
            f"+ {summary['observability_signals']} observability "
            f"+ {summary['removed_signals']} removed, "
            f"cone {summary['cone_size']} signal(s); "
            f"kept {summary['kept']}, invalidated {summary['invalidated']}, "
            f"reused {summary['reused']}, retargeted {summary['retargeted']} "
            f"(stored sequences gross-cover {summary['residue_gross_covered']} "
            "residue fault(s))"
        )
    for note in store_notes:
        print(note)
    if any(campaign.prefix_applied for campaign in campaigns):
        print()
        print(format_prefix_summary(campaigns))
    for report in shard_reports:
        print()
        print(report)
    if args.profile:
        for name, snapshot, costs in profiles:
            print()
            print(format_profile(snapshot, costs, title=f"Cost breakdown — {name}"))
    if args.metrics_out is not None:
        merged = MetricsSnapshot.merge_all(snapshot for _, snapshot, _ in profiles)
        all_costs = [cost for _, _, costs in profiles for cost in costs]
        document = metrics_document(
            merged,
            all_costs,
            context={
                "command": "campaign",
                "circuits": [name for name, _, _ in profiles],
                "jobs": args.jobs,
                "backend": args.backend,
                "robust": not args.non_robust,
            },
        )
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"\nmetrics written to {args.metrics_out}")
    return 0


def _add_serve_parser(subparsers, parents) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the ATPG daemon (HTTP/JSON API, see docs/SERVICE.md)",
        parents=parents,
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port", type=int, default=8352, help="listen port (0 = ephemeral)"
    )
    parser.add_argument(
        "--state-dir",
        default="repro-serve-state",
        metavar="DIR",
        help=(
            "directory for the job table, per-job journals and results; a "
            "restarted daemon pointed at the same directory resumes "
            "interrupted campaigns"
        ),
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port to this file once listening (for scripts)",
    )
    parser.add_argument(
        "--paused", action="store_true", help="start with the job queue held"
    )


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AtpgService

    async def main() -> None:
        service = AtpgService(
            state_dir=args.state_dir, host=args.host, port=args.port, paused=args.paused
        )
        service.shutdown.hard_exit_on_repeat = True
        await service.start()
        service.shutdown.install(asyncio.get_running_loop())
        print(f"repro serve: listening on http://{args.host}:{service.port}", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(str(service.port))
        try:
            await service.run_until_shutdown()
        finally:
            service.shutdown.uninstall()
        print(f"repro serve: stopped ({service.shutdown.reason})", flush=True)

    asyncio.run(main())
    return 0


def _add_store_parser(subparsers, parents) -> None:
    parser = subparsers.add_parser(
        "store",
        help="manage the persistent campaign store (see docs/STORE.md)",
    )
    store_sub = parser.add_subparsers(dest="store_command", required=True)

    ingest = store_sub.add_parser(
        "ingest",
        help="import a JSONL checkpoint journal into a store",
        parents=parents,
    )
    ingest.add_argument("--store", required=True, metavar="PATH", help="store file")
    ingest.add_argument(
        "--journal", required=True, metavar="PATH", help="JSONL journal to import"
    )
    ingest.add_argument(
        "--circuits",
        default=None,
        help=(
            "optional circuit (benchmark name or .bench path) to validate "
            "the journal digest against and to store as the incremental "
            "base netlist; without it the journal imports for analytics "
            "only and cannot seed --incremental-from"
        ),
    )
    ingest.add_argument("--scale", type=float, default=1.0, help="surrogate size scale")
    _add_settings_arguments(ingest)

    query = store_sub.add_parser(
        "query",
        help="answer a cross-campaign question as JSON",
        parents=parents,
    )
    query.add_argument("--store", required=True, metavar="PATH", help="store file")
    query.add_argument(
        "what",
        choices=("campaigns", "coverage", "outliers", "ablation"),
        help=(
            "campaigns: one summary row per stored campaign; coverage: fault "
            "coverage per campaign over ingest order; outliers: the most "
            "expensive faults by recorded seconds; ablation: per-backend "
            "campaign statistics"
        ),
    )
    query.add_argument("--circuit", default=None, help="restrict to one circuit")
    query.add_argument(
        "--campaign-id", type=int, default=None, help="restrict outliers to one campaign"
    )
    query.add_argument(
        "--limit", type=int, default=10, help="row cap for outliers (default: 10)"
    )

    report = store_sub.add_parser(
        "report",
        help="print a human-readable store summary",
        parents=parents,
    )
    report.add_argument("--store", required=True, metavar="PATH", help="store file")
    report.add_argument("--circuit", default=None, help="restrict to one circuit")


def _run_store(args: argparse.Namespace) -> int:
    from repro.store import CampaignStore

    if args.store_command == "ingest":
        circuit = None
        config = None
        try:
            if args.circuits:
                circuit = _load_circuit(args.circuits, args.scale)
                config = _orchestrator_config(args, jobs=1)
            with CampaignStore(args.store) as store:
                ids = store.ingest_journal(args.journal, circuit=circuit, config=config)
        except (LookupError, ValueError, OSError) as error:
            return _usage_error(error)
        listed = ", ".join(f"#{campaign_id}" for campaign_id in ids)
        print(f"ingested {len(ids)} campaign(s) from {args.journal} into {args.store}: {listed}")
        return 0

    if args.store_command == "query":
        with CampaignStore(args.store) as store:
            if args.what == "campaigns":
                rows = store.campaigns(args.circuit)
            elif args.what == "coverage":
                rows = store.coverage_trend(args.circuit)
            elif args.what == "outliers":
                rows = store.cost_outliers(args.campaign_id, limit=args.limit)
            else:
                rows = store.backend_ablation(args.circuit)
        print(json.dumps(rows, indent=1, sort_keys=True))
        return 0

    with CampaignStore(args.store) as store:
        trend = store.coverage_trend(args.circuit)
        outliers = store.cost_outliers(limit=5)
        ablation = store.backend_ablation(args.circuit)
    print(f"Campaign store — {args.store}")
    print()
    header = (
        f"{'id':>4} {'circuit':>8} {'backend':>9} {'faults':>7} {'tested':>7} "
        f"{'coverage':>9} {'cpu[s]':>8} {'source':>8} {'partial':>8}"
    )
    print(header)
    for row in trend:
        print(
            f"{row['campaign_id']:>4} {row['circuit']:>8} "
            f"{row['backend'] or 'default':>9} {row['total_faults']:>7} "
            f"{row['tested']:>7} {row['coverage']:>9.3f} "
            f"{row['cpu_seconds']:>8.2f} {row['source']:>8} "
            f"{'yes' if row['partial'] else 'no':>8}"
        )
    if ablation:
        print()
        print("Backend ablation (mean over stored campaigns):")
        for row in ablation:
            coverage = row["mean_coverage"]
            coverage_text = (
                f", mean coverage {coverage:.3f}" if coverage is not None else ""
            )
            print(
                f"  {row['backend']:>9}: {row['campaigns']} campaign(s), "
                f"mean cpu {row['mean_cpu_seconds']:.2f}s{coverage_text}"
            )
    if outliers:
        print()
        print("Most expensive faults on record:")
        for row in outliers:
            print(
                f"  #{row['campaign_id']} {row['circuit']} {row['fault']}: "
                f"{row['seconds']:.4f}s ({row['status']}, {row['decisions']} "
                f"decision(s), {row['engine']})"
            )
    return 0


def _run_tables(_: argparse.Namespace) -> int:
    print("Table 1 — AND gate")
    print(format_truth_table(GateType.AND))
    print()
    print("Table 2 — inverter")
    print(format_truth_table(GateType.NOT))
    return 0


def _run_circuits(_: argparse.Namespace) -> int:
    print(f"{'circuit':>8} {'PIs':>5} {'POs':>5} {'FFs':>5} {'gates':>6} {'source':>10}")
    for name in list_circuits():
        spec = circuit_spec(name)
        source = "embedded" if not spec.surrogate else "surrogate"
        print(
            f"{name:>8} {spec.inputs:>5} {spec.outputs:>5} {spec.flip_flops:>5} "
            f"{spec.gates:>6} {source:>10}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro``; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Gate delay fault ATPG for non-scan sequential circuits"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    logging_parent = [_logging_parser()]
    _add_campaign_parser(subparsers, logging_parent)
    _add_serve_parser(subparsers, logging_parent)
    _add_store_parser(subparsers, logging_parent)
    subparsers.add_parser(
        "tables",
        help="print the algebra truth tables (Tables 1 and 2)",
        parents=logging_parent,
    )
    subparsers.add_parser(
        "circuits",
        help="list the available benchmark circuits",
        parents=logging_parent,
    )

    args = parser.parse_args(argv)
    if args.command == "campaign":
        _configure_logging(args)
        return _run_campaign(args)
    if args.command == "serve":
        # A daemon logs its request/lifecycle lines at INFO by default.
        _configure_logging(args, default_level=logging.INFO)
        return _run_serve(args)
    if args.command == "store":
        _configure_logging(args)
        return _run_store(args)
    _configure_logging(args)
    if args.command == "tables":
        return _run_tables(args)
    return _run_circuits(args)


if __name__ == "__main__":
    sys.exit(main())
