"""Incremental ATPG on a netlist delta, memoised by the campaign store.

After an edit to a netlist whose campaign is already in the store, only the
faults the edit can affect are re-targeted — everything else reuses its
stored outcome.

An incremental re-run is not a campaign mode of its own.  :func:`plan_reuse`
turns the stored base campaign into a *reuse map*, ``{universe index:
journal-format fault record}`` for the kept faults, and the one campaign
loop, :meth:`~repro.core.flow.SequentialDelayATPG.run_loop`, reads a mapped
record instead of calling
:meth:`~repro.core.flow.SequentialDelayATPG.target_fault`;
:meth:`~repro.orchestrate.coordinator.CampaignOrchestrator.run` merges the
map like a resumed journal.  Per-fault targeting is a pure function of
(circuit, settings, fault), and every mapped record is exactly what
``target_fault`` returns on the edited circuit, so the re-run's
:meth:`~repro.core.results.CampaignResult.fingerprint` is **bit-identical to
a from-scratch serial campaign on the new circuit** — with any worker count,
journal, resume, fault subset, random prefix or time limit a campaign
supports (``tests/fuzz/test_incremental_fuzz.py`` pins this for random
perturbations).  A hybrid campaign's random prefix is not memoised: it
grades the whole universe, so it runs afresh on the edited circuit.

Invalidation rule (the correctness argument lives in ``docs/STORE.md``):
:func:`influence_cone` closes the value-changing and observability-only
differences of :func:`~repro.fausim.compile.diff_compiled` over the
sequential netlist, and :func:`invalidate` re-targets exactly the faults on
the cone (the residue).  An edit of the primary-input or flip-flop list
cones every signal: searches that range over every input or every state
bit differ for every fault.

A reused *tested* fault's TDsim detection list is always recomputed on the
new circuit under the config's ``backend`` (bit-exact across backends):
detections range over the whole circuit, and recomputing reproduces the
from-scratch list, order included.  The stored sequences are
also re-graded word-parallel against the residue as a *diagnostic*
(``residue_gross_covered``); gross grading over-approximates the
eight-valued TDsim rule, so it never drops a residue fault.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.core.flow import SequentialDelayATPG, simulate_sequence_detections
from repro.core.results import CampaignResult
from repro.core.verify import create_grader
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.fausim.backends import create_simulator, resolve_backend
from repro.fausim.compile import NetlistDelta, compile_circuit, diff_compiled
from repro.obs.metrics import resolve_metrics
from repro.orchestrate.journal import record_result
from repro.store.store import CampaignStore
from repro.tdsim.cpt import DelayFaultSimulator


def influence_cone(circuit: Circuit, delta: NetlistDelta) -> FrozenSet[str]:
    """The sequential influence cone of a netlist delta.

    ``B = seqTFI*( seqTFO*(changed) ∪ observability )``: value-changing
    edits propagate forward first (any signal whose simulated value can
    differ lies in that forward closure), then one backward closure collects
    every fault site whose activation cone, observation paths or propagation
    side inputs can see a difference.  Observability-only edits (a gained or
    lost fanout sink, a primary-output change) skip the forward step — they
    change no value, only who observes it, which is a fanin-cone effect.

    Both closures are reflexive and cross flip-flops (a flip-flop is a
    fanout sink like any gate, and its data input is its fanin), so the cone
    covers multi-frame effects of the change in both directions.  An edit
    of the primary-input or flip-flop list cones every signal.
    """
    if delta.interface_changed:
        return frozenset(circuit.gates)
    forward: Set[str] = {name for name in delta.changed if name in circuit.gates}
    work = list(forward)
    while work:
        signal = work.pop()
        for sink, _pin in circuit.fanout(signal):
            if sink not in forward:
                forward.add(sink)
                work.append(sink)
    cone: Set[str] = set(forward)
    cone.update(name for name in delta.observability if name in circuit.gates)
    work = list(cone)
    while work:
        signal = work.pop()
        for source in circuit.gates[signal].fanin:
            if source not in cone:
                cone.add(source)
                work.append(source)
    return frozenset(cone)


def invalidate(
    faults: Sequence[GateDelayFault], cone: FrozenSet[str]
) -> Tuple[List[GateDelayFault], List[GateDelayFault]]:
    """Partition a fault universe into ``(kept, invalidated)`` by the cone.

    A fault is invalidated exactly when its signal lies in the influence
    cone.  Branch faults need no separate check: a branch's sink gate is in
    the cone only if the branch's stem signal is too (the cone is closed
    backward over fanin edges).
    """
    kept: List[GateDelayFault] = []
    invalidated: List[GateDelayFault] = []
    for fault in faults:
        if fault.line.signal in cone:
            invalidated.append(fault)
        else:
            kept.append(fault)
    return kept, invalidated


@dataclasses.dataclass
class ReusePlan:
    """What an incremental re-run takes over from its stored base campaign."""

    base_campaign_id: int
    delta: NetlistDelta
    cone_size: int
    kept: int
    invalidated: int
    #: Diagnostic: residue faults gross-covered by re-grading the stored
    #: sequences word-parallel (an upper bound on surviving coverage — never
    #: used to drop a fault).
    residue_gross_covered: int
    #: The reuse map: ``{universe index: journal-format fault record}`` for
    #: every kept fault the base recorded, detections recomputed on the
    #: edited circuit.
    records: Dict[int, Dict[str, object]]
    #: The faults of :attr:`records`.
    reusable: FrozenSet[GateDelayFault]

    def outcome(self, result: CampaignResult, costs: Sequence) -> "IncrementalOutcome":
        """The bookkeeping of the campaign a runner ran with :attr:`records`."""
        reused = sum(fault_result.fault in self.reusable for fault_result in result.fault_results)
        plan = {field.name: getattr(self, field.name) for field in dataclasses.fields(ReusePlan)}
        return IncrementalOutcome(
            **plan, result=result, reused=reused,
            retargeted=result.targeted - reused, costs=list(costs),
        )


@dataclasses.dataclass
class IncrementalOutcome(ReusePlan):
    """Result and bookkeeping of one incremental re-run."""

    result: CampaignResult
    #: Memo hits: faults whose stored outcome was reused.
    reused: int
    #: Faults re-targeted through the full FOGBUSTER flow (residue plus any
    #: kept fault the base campaign never recorded, e.g. under a cap).
    retargeted: int
    #: Per-fault :mod:`repro.obs` cost records when metrics were collected —
    #: stored costs folded back in for reused faults, fresh ones for the
    #: residue (empty with metrics off).
    costs: List = dataclasses.field(default_factory=list)

    def summary(self) -> Dict[str, object]:
        """Compact JSON-friendly view for CLI/service reporting."""
        return {
            "base_campaign_id": self.base_campaign_id,
            "changed_signals": len(self.delta.changed),
            "observability_signals": len(self.delta.observability),
            "removed_signals": len(self.delta.removed),
            "cone_size": self.cone_size,
            "kept": self.kept,
            "invalidated": self.invalidated,
            "reused": self.reused,
            "retargeted": self.retargeted,
            "residue_gross_covered": self.residue_gross_covered,
        }


def regrade_residue(
    circuit: Circuit,
    records: Dict[str, Dict[str, object]],
    kept_order: Sequence[str],
    residue: Sequence[GateDelayFault],
    backend: Optional[str],
) -> int:
    """Word-parallel gross re-grade of stored sequences against the residue.

    Walks the stored sequences (in stored order) and grades each against the
    still-uncovered residue faults through one
    :func:`~repro.core.verify.create_grader` over the residue (a covered fault
    clears its lane of the live mask), early-exiting once every residue fault
    is covered.  Returns the number of residue faults at least
    one stored sequence gross-detects — a coverage *upper bound* (gross
    grading over-approximates TDsim crediting), reported as a diagnostic.
    A sequence that no longer applies to the edited circuit (for example a
    vanished primary input) is skipped.
    """
    grader = create_grader(create_simulator(circuit, backend), residue)
    uncovered = grader.all_lanes
    for fault_name in kept_order:
        if not uncovered:
            break
        sequence = record_result(records[fault_name]).sequence
        if sequence is None:
            continue
        try:
            events = grader.grade(sequence, uncovered)
        except (KeyError, ValueError):
            continue
        for _, _, lanes in events:
            uncovered &= ~lanes
    return len(grader.faults) - uncovered.bit_count()


def plan_reuse(
    circuit: Circuit,
    store: CampaignStore,
    config,
    universe: Sequence[GateDelayFault],
    *,
    metrics=None,
) -> ReusePlan:
    """Build the reuse map of a re-run of ``universe`` on the edited ``circuit``.

    ``config`` is an :class:`~repro.orchestrate.coordinator.OrchestratorConfig`;
    the base campaign is located (and digest-validated) in the store by
    circuit name and config payload.  A kept tested fault's detection list is
    recomputed on ``circuit`` (TDsim time and counters land on ``metrics``),
    so every record is exactly what ``target_fault`` returns there.
    """
    base = store.find_base(circuit.name, config)
    delta = diff_compiled(compile_circuit(base.circuit), compile_circuit(circuit))
    cone = influence_cone(circuit, delta)
    kept, residue = invalidate(universe, cone)
    kept_names = {str(fault) for fault in kept}
    stored = store.fault_records(base.campaign_id)
    kept_order = [name for name in stored if name in kept_names]
    backend = resolve_backend(config.backend)
    residue_gross_covered = regrade_residue(circuit, stored, kept_order, residue, backend)

    registry = resolve_metrics(metrics)
    fault_simulator = DelayFaultSimulator(
        circuit, robust=config.robust, metrics=registry, backend=backend
    )
    records: Dict[int, Dict[str, object]] = {}
    for index, fault in enumerate(universe):
        name = str(fault)
        if name not in kept_names or name not in stored:
            continue
        record = dict(stored[name], index=index)
        result = record_result(record)
        if result.tested and result.sequence is not None:
            # Detections range over the whole circuit, so the stored list is
            # recomputed on the edited netlist — content *and* order then
            # match the from-scratch run by construction.
            with registry.timed("repro_phase_seconds", phase="tdsim"):
                detections = simulate_sequence_detections(
                    circuit, fault_simulator, result.sequence, backend
                )
            record["detections"] = [detection.to_json() for detection in detections]
        records[index] = record
    return ReusePlan(
        base_campaign_id=base.campaign_id,
        delta=delta,
        cone_size=len(cone),
        kept=len(kept),
        invalidated=len(residue),
        residue_gross_covered=residue_gross_covered,
        records=records,
        reusable=frozenset(universe[index] for index in records),
    )


def run_incremental(
    circuit: Circuit,
    store: CampaignStore,
    config,
    *,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    metrics=None,
) -> IncrementalOutcome:
    """Re-run a campaign serially against a stored base.

    :func:`plan_reuse` over the full fault universe, then
    ``SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(prefix=
    config.prefix_config(), time_limit_s=..., reuse=...)`` — fingerprint-
    identical to the same run without ``reuse`` (a time-limited run only up
    to where the wall clock cuts it).
    """
    universe = enumerate_delay_faults(circuit)
    plan = plan_reuse(circuit, store, config, universe, metrics=metrics)
    atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
    result = atpg.run(
        universe,
        max_target_faults=max_target_faults,
        time_limit_s=time_limit_s,
        prefix=config.prefix_config(),
        reuse=plan.records,
    )
    return plan.outcome(result, atpg.cost_log)
