#!/usr/bin/env python3
"""Reproduce the paper's Table 3 on the ISCAS'89 benchmark suite.

Runs the full TDgen + SEMILET (FOGBUSTER) campaign on the selected circuits
and prints a table with the paper's columns: tested, untestable, aborted,
number of patterns and CPU seconds.

Examples::

    # quick run: three circuits, down-scaled surrogates, 30 targeted faults each
    python examples/iscas89_campaign.py --circuits s27,s298,s386 --scale 0.25 --max-faults 30

    # the real s27 netlist, every fault, no caps (takes about a second)
    python examples/iscas89_campaign.py --circuits s27 --scale 1.0 --max-faults 0

    # the complete suite at published sizes (hours of CPU time)
    python examples/iscas89_campaign.py --scale 1.0 --max-faults 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import format_campaign_table, list_circuits, load_circuit
from repro.core.reporting import format_untestable_breakdown
from repro.faults import enumerate_delay_faults, sample_faults
from repro.orchestrate import OrchestratorConfig, run_campaign


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--circuits",
        default=",".join(list_circuits()),
        help="comma separated circuit names (default: all twelve Table 3 circuits)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="surrogate size scale; 1.0 = published circuit sizes (default: 0.25)",
    )
    parser.add_argument(
        "--max-faults",
        type=int,
        default=40,
        help="cap on explicitly targeted faults per circuit; 0 = no cap (default: 40)",
    )
    parser.add_argument(
        "--backtrack-limit",
        type=int,
        default=100,
        help="abort limit for both generators (paper: 100)",
    )
    parser.add_argument(
        "--non-robust",
        action="store_true",
        help="use the relaxed non-robust fault model instead of the robust one",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="optional wall-clock limit per circuit in seconds (serial runs only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per circuit (default: 1 = serial); the merged "
             "result is bit-identical to the serial campaign",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    try:
        config = OrchestratorConfig(
            jobs=args.jobs,
            robust=not args.non_robust,
            local_backtrack_limit=args.backtrack_limit,
            sequential_backtrack_limit=args.backtrack_limit,
        )
    except ValueError as error:
        sys.exit(f"error: {error}")
    names = [name.strip() for name in args.circuits.split(",") if name.strip()]
    max_faults = args.max_faults if args.max_faults > 0 else None

    campaigns = []
    for name in names:
        circuit = load_circuit(name, scale=args.scale)
        print(f"[{name}] {circuit.stats()['gates']} gates, "
              f"{circuit.stats()['flip_flops']} flip-flops, "
              f"{2 * circuit.line_count()} delay faults", flush=True)
        # A capped run targets a uniform-stride sample of the fault universe so
        # the reported shape stays representative of the whole circuit.
        faults = sample_faults(enumerate_delay_faults(circuit), max_faults)
        try:
            campaign = run_campaign(
                circuit, config, faults=faults, time_limit_s=args.time_limit
            ).result
        except ValueError as error:  # e.g. --time-limit with --jobs > 1
            sys.exit(f"error: {error}")
        campaign.circuit_name = name
        campaigns.append(campaign)
        row = campaign.as_table3_row()
        print(f"[{name}] tested={row['tested']} untestable={row['untestable']} "
              f"aborted={row['aborted']} patterns={row['patterns']} time={row['time_s']}s",
              flush=True)

    print()
    model = "non-robust" if args.non_robust else "robust"
    print(format_campaign_table(
        campaigns,
        title=f"Table 3 reproduction ({model} model, scale={args.scale:g}, "
              f"max targeted faults={max_faults or 'all'})",
    ))
    print()
    print(format_untestable_breakdown(campaigns))


if __name__ == "__main__":
    main()
