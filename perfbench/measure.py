"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this script once per measurement, so no module-level memo
cache (set-algebra images, backward-implication tables, ``lru_cache``s) is
warm when the timed regions start.  The script prints one JSON object.

    PYTHONPATH=src python3 perfbench/measure.py --workload s838_search \\
        --scratch-dir DIR [--surrogate-seed N] [--campaign-seed N] [--trace]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--surrogate-seed", type=int, default=None)
    parser.add_argument("--campaign-seed", type=int, default=None)
    parser.add_argument("--scratch-dir", required=True)
    parser.add_argument("--trace", action="store_true", help="record spans and registry counters")
    parser.add_argument("--verify", action="store_true", help="re-check sequences on the reference backend")
    parser.add_argument("--check", action="store_true", help="also run the equivalence checks")
    parser.add_argument("--tiny", action="store_true", help="the workload's shape on s27")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up alone")
    args = parser.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, Run, run_workload, set_up, tiny
    from repro.fausim.backends import resolve_backend

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    run = Run(
        workload,
        workload.surrogate_seed if args.surrogate_seed is None else args.surrogate_seed,
        workload.campaign_seed if args.campaign_seed is None else args.campaign_seed,
        args.scratch_dir,
    )
    if args.setup_only:
        set_up(run, workload.config(run.campaign_seed))
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        return 0
    if args.trace:
        from repro.fausim.compile import compile_count
        from repro.obs.metrics import MetricsRegistry
        from spans import Tracer

        compiles_before = compile_count()
        run.metrics = MetricsRegistry()
        run.tracer = Tracer(args.scratch_dir).install()
    try:
        outcome = run_workload(run, STARTED)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    from checks import campaign_rows, fingerprint_digest, run_checks

    report = {
        "setup_s": outcome.setup_s,
        "campaign_s": outcome.campaign_s,
        "peak_rss_mb": peak_rss_mb,
        "backend": resolve_backend(None),
        "surrogate_seed": run.surrogate_seed,
        "campaign_seed": run.campaign_seed,
        "campaigns": campaign_rows(outcome),
        "checks": run_checks(run, outcome, verify=args.verify, check=args.check),
    }
    if outcome.eco is not None:
        report["eco_rerun_s"] = outcome.eco.seconds
        report["eco_fingerprint"] = fingerprint_digest(outcome.eco.outcome.result)
    if args.trace:
        from spans import layer_metrics

        from repro.obs.metrics import MetricsSnapshot

        sharded = [leg.orchestrator for leg in outcome.legs if leg.orchestrator is not None]
        worker_counters = None
        if sharded:
            snapshots = [o.shard_metrics for o in sharded if o.shard_metrics is not None]
            worker_counters = MetricsSnapshot.merge_all(snapshots).counters
        report["layers"] = layer_metrics(
            run.tracer.spans,
            run.tracer.worker_spans(),
            run.metrics.snapshot().counters,
            worker_counters,
            compile_count() - compiles_before,
            outcome,
        )
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
