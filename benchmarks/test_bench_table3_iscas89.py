"""Experiment E3 — regenerate Table 3 (ISCAS'89 benchmark results).

For every circuit of the paper's Table 3 the benchmark runs the full
FOGBUSTER campaign (TDgen + SEMILET + fault simulation, 100-backtrack limits)
and prints a row with the same columns the paper reports: tested faults,
untestable faults, aborted faults, number of generated patterns
(initialisation and propagation vectors included) and CPU time in seconds.

Absolute numbers differ from the paper because (a) every circuit except s27
is a surrogate netlist (see DESIGN.md section 5) and (b) by default the
harness runs down-scaled circuits with a cap on the number of targeted faults
(see ``benchmarks/conftest.py`` for the knobs).  The s27 row uses the real
netlist and is directly comparable.
"""

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.core.reporting import campaign_row, format_campaign_table
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults, sample_faults

from benchconfig import bench_circuits, bench_max_faults, bench_scale

#: Table 3 of the paper (tested, untestable, aborted, #patterns, time [s] on a
#: Sun SPARC 10).  Column values for the aborted column follow the row sums.
PAPER_TABLE3 = {
    "s27": (39, 11, 2, 40, 1),
    "s208": (112, 242, 163, 16, 452),
    "s298": (164, 260, 1148, 110, 403),
    "s344": (313, 199, 494, 100, 394),
    "s349": (312, 211, 500, 101, 80),
    "s386": (332, 335, 390, 77, 169),
    "s420": (124, 584, 166, 32, 310),
    "s641": (807, 136, 560, 211, 795),
    "s713": (427, 395, 292, 432, 522),
    "s838": (113, 1277, 152, 84, 243),
    "s1196": (2114, 69, 1533, 13, 301),
    "s1238": (2181, 136, 1524, 13, 90),
}

_RESULTS = []


def _run_campaign(name):
    circuit = load_circuit(name, scale=bench_scale())
    atpg = SequentialDelayATPG(circuit)
    # When the harness caps the fault count, a uniform-stride sample over the
    # whole fault universe keeps the tested/untestable/aborted shape
    # representative (the first-N faults would all sit at the primary inputs).
    # The real s27 netlist is always run on its complete fault universe so the
    # row stays directly comparable with the paper.
    faults = enumerate_delay_faults(circuit)
    if name != "s27":
        faults = sample_faults(faults, bench_max_faults())
    campaign = atpg.run(faults=faults)
    # Report under the paper's circuit name regardless of the scale suffix.
    campaign.circuit_name = name
    return campaign


@pytest.mark.parametrize("name", bench_circuits())
def test_bench_table3_row(benchmark, name, campaign_cache):
    campaign = benchmark.pedantic(_run_campaign, args=(name,), rounds=1, iterations=1)
    campaign_cache[name] = campaign
    _RESULTS.append(campaign)

    row = campaign_row(campaign)
    paper = PAPER_TABLE3[name]
    print()
    print(f"--- Table 3 row: {name} ---")
    print(f"{'':10} {'tested':>8} {'untstbl':>8} {'aborted':>8} {'#pat':>6} {'time[s]':>8}")
    print(
        f"{'paper':10} {paper[0]:>8} {paper[1]:>8} {paper[2]:>8} {paper[3]:>6} {paper[4]:>8}"
    )
    print(
        f"{'measured':10} {row['tested']:>8} {row['untstbl']:>8} {row['aborted']:>8} "
        f"{row['#pat']:>6} {row['time[s]']:>8}"
    )

    # Shape checks (not absolute-number checks): every fault got a verdict and
    # the generator finds tests on every circuit it targets enough faults on.
    assert campaign.tested + campaign.untestable + campaign.aborted == campaign.total_faults
    if name == "s27":
        # The real netlist: the tested count reproduces the paper (39) — the
        # extra inter-phase backtracking may add one more — and the
        # untestable+aborted total is at most the paper's 13 (the split
        # depends on the search order).
        assert campaign.tested >= PAPER_TABLE3["s27"][0]
        assert campaign.untestable + campaign.aborted <= (
            PAPER_TABLE3["s27"][1] + PAPER_TABLE3["s27"][2]
        )


def test_bench_table3_summary(campaign_cache):
    """Print the assembled table after all per-circuit rows have run."""
    results = [campaign_cache[name] for name in bench_circuits() if name in campaign_cache]
    if not results:
        pytest.skip("no Table 3 rows were produced in this session")
    print()
    print(
        format_campaign_table(
            results,
            title=(
                "Table 3 — benchmark results "
                f"(scale={bench_scale():g}, max targeted faults={bench_max_faults()})"
            ),
        )
    )
    print()
    print("Paper reference (Sun SPARC 10 seconds):")
    print(f"{'circuit':>8} {'tested':>8} {'untstbl':>8} {'aborted':>8} {'#pat':>6} {'time[s]':>8}")
    for name, row in PAPER_TABLE3.items():
        print(f"{name:>8} {row[0]:>8} {row[1]:>8} {row[2]:>8} {row[3]:>6} {row[4]:>8}")
