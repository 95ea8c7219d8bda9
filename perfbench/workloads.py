"""The four benchmark workloads and the code that runs one of them.

A workload is a fixed set of campaigns on the default backend.  Running it
has two timed parts, each reported as an end-to-end metric:

* ``setup_s`` -- import, netlist load or surrogate generation, compile and
  engine construction for every circuit of the workload;
* ``campaign_s`` -- the campaign calls, until their ``CampaignResult`` rows
  are returned.

``table3_small`` also ingests its last campaign into a fresh store, adds a
one-gate ECO edit (a new ``AND(pi0, pi1)`` observed at a new primary output)
and times ``run_incremental`` on the edited circuit (``eco_rerun_s``).

Everything here runs inside one fresh interpreter (``measure.py``); the
caller passes a :class:`Run` describing the seeds, the size and whether the
calls are traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG
from repro.core.prefilter import RandomPrefixEngine
from repro.core.results import CampaignResult
from repro.data import generate_surrogate, load_circuit
from repro.fausim.compile import compile_circuit
from repro.orchestrate import CampaignOrchestrator, OrchestratorConfig
from repro.store import CampaignStore, run_incremental


def _registry(name: str, scale: float = 1.0) -> Callable[[int], Circuit]:
    return lambda seed: load_circuit(name, scale=scale, seed=seed)


def _s5378(seed: int) -> Circuit:
    # Published ISCAS'89 interface statistics of s5378: no netlist download.
    return generate_surrogate("s5378", 35, 49, 179, 2779, seed=seed)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: its circuits, campaign settings and default seeds.

    ``BENCHMARK.json`` gives the reason each workload is in the benchmark.
    """

    circuits: Tuple[Callable[[int], Circuit], ...]
    surrogate_seed: int = 0
    campaign_seed: int = 0
    robust: bool = True
    #: TDgen and SEMILET backtrack limit (the paper's is 100).
    backtrack_limit: int = 100
    #: Explicit targets per campaign (``None``: the full fault universe).
    max_targets: Optional[int] = None
    jobs: int = 1
    #: ``(budget, window)`` of the random-pattern prefix, or ``None``.
    rpg: Optional[Tuple[int, int]] = None
    #: Store the last campaign and re-run it incrementally after an ECO edit.
    eco: bool = False

    def config(self, campaign_seed: int, collect_metrics: bool = False) -> OrchestratorConfig:
        """The campaign settings shared by the campaign, store and ECO legs."""
        budget, window = self.rpg or (256, 16)
        return OrchestratorConfig(
            jobs=self.jobs,
            campaign_seed=campaign_seed,
            robust=self.robust,
            local_backtrack_limit=self.backtrack_limit,
            sequential_backtrack_limit=self.backtrack_limit,
            rpg_prefix=self.rpg is not None,
            rpg_budget=budget,
            rpg_window=window,
            collect_metrics=collect_metrics,
        )


WORKLOADS: Dict[str, Workload] = {
    "table3_small": Workload(
        circuits=(_registry("s27"), _registry("s208")),
        eco=True,
    ),
    "s838_search": Workload(
        circuits=(_registry("s838", 0.5),),
        # Surrogate seed 0 tests nothing in its first 150 targets; seed 3
        # tests 10 faults, so coverage and test length are not zero, and
        # SEMILET propagation still takes most of the time.
        surrogate_seed=3,
        max_targets=40,
    ),
    "s838_hybrid_jobs2": Workload(
        circuits=(_registry("s838", 0.5),),
        surrogate_seed=53,
        robust=False,
        # The limit of the repository's hybrid benchmarks: with 100, single
        # residue faults spend ~10 s each in SEMILET.
        backtrack_limit=20,
        max_targets=40,
        jobs=2,
        rpg=(256, 16),
    ),
    "s5378_scale": Workload(
        circuits=(_s5378,),
        max_targets=1,
        # No deterministic target is tested at this size in the first 25; one
        # random sequence (whole-universe grading plus TDsim) credits 26.
        rpg=(1, 1),
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload shape on s27, for the benchmark's self-test."""
    return dataclasses.replace(
        workload,
        circuits=(_registry("s27"),),
        max_targets=None if workload.max_targets is None else 5,
        rpg=None if workload.rpg is None else (4, 4),
    )


@dataclasses.dataclass
class Run:
    """How to run one measurement of a workload."""

    workload: Workload
    surrogate_seed: int
    campaign_seed: int
    scratch_dir: str
    tracer: Optional[object] = None
    metrics: Optional[object] = None


@dataclasses.dataclass
class Leg:
    """One campaign of a measurement and what the checks need from it."""

    circuit: Circuit
    result: CampaignResult
    prefix_records: List[object]
    orchestrator: Optional[CampaignOrchestrator] = None


@dataclasses.dataclass
class Outcome:
    """The timings and results of one measurement."""

    setup_s: float
    campaign_s: float
    legs: List[Leg]
    #: The ECO leg of an ``eco`` workload, else ``None``.
    eco: Optional["EcoLeg"] = None


@dataclasses.dataclass
class EcoLeg:
    """The incremental re-run after the ECO edit and what the checks need."""

    seconds: float
    outcome: object
    circuit: Circuit
    config: OrchestratorConfig


def _span(run: Run, name: str):
    return contextlib.nullcontext() if run.tracer is None else run.tracer.span(name)


def _eco_edit(circuit: Circuit) -> Circuit:
    """Add the ECO observer: ``AND(pi0, pi1)`` at a new primary output."""
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    return circuit


@contextlib.contextmanager
def _prefix_records():
    """Collect every prefix outcome's records so the checks can re-grade them."""
    records: List[object] = []
    original = RandomPrefixEngine.run

    def run(self, *args, **kwargs):
        outcome = original(self, *args, **kwargs)
        records.extend(outcome.records)
        return outcome

    RandomPrefixEngine.run = run
    try:
        yield records
    finally:
        RandomPrefixEngine.run = original


def set_up(run: Run, config: OrchestratorConfig) -> List[Tuple[Circuit, object]]:
    """Load or generate every circuit, compile it and build its campaign engine."""
    journal = os.path.join(run.scratch_dir, "campaign.jsonl")
    engines = []
    for factory in run.workload.circuits:
        circuit = factory(run.surrogate_seed)
        compile_circuit(circuit)
        if run.workload.jobs > 1:
            engine = CampaignOrchestrator(
                circuit, config=config, journal_path=journal, metrics=run.metrics
            )
        else:
            engine = SequentialDelayATPG(circuit, metrics=run.metrics, **config.atpg_kwargs())
        engines.append((circuit, engine))
    return engines


def run_workload(run: Run, started: float) -> Outcome:
    """Run one measurement; ``started`` is the clock before ``repro`` was imported."""
    workload = run.workload
    seed = run.surrogate_seed
    config = workload.config(run.campaign_seed, collect_metrics=run.metrics is not None)
    engines = set_up(run, config)
    setup_s = time.perf_counter() - started

    legs = []
    campaign_s = 0.0
    with _prefix_records() as records:
        for circuit, engine in engines:
            seen = len(records)
            start = time.perf_counter()
            with _span(run, "campaign"):
                if workload.jobs > 1:
                    result = engine.run(max_target_faults=workload.max_targets)
                else:
                    result = engine.run(
                        max_target_faults=workload.max_targets, prefix=config.prefix_config()
                    )
            campaign_s += time.perf_counter() - start
            orchestrator = engine if workload.jobs > 1 else None
            legs.append(Leg(circuit, result, records[seen:], orchestrator))

    eco = _eco_leg(run, config, legs[-1].result) if workload.eco else None
    return Outcome(setup_s=setup_s, campaign_s=campaign_s, legs=legs, eco=eco)


def _eco_leg(run: Run, config: OrchestratorConfig, base: CampaignResult) -> EcoLeg:
    """Ingest ``base`` into a fresh store, edit its circuit, time the re-run."""
    config = dataclasses.replace(config, collect_metrics=False)
    last = run.workload.circuits[-1]
    with CampaignStore(os.path.join(run.scratch_dir, "store.sqlite")) as store:
        store.ingest_result(base, circuit=last(run.surrogate_seed), config=config)
        edited = _eco_edit(last(run.surrogate_seed))
        start = time.perf_counter()
        with _span(run, "store.incremental"):
            outcome = run_incremental(
                edited, store, config,
                max_target_faults=run.workload.max_targets, metrics=run.metrics,
            )
        seconds = time.perf_counter() - start
    return EcoLeg(seconds, outcome, edited, config)
