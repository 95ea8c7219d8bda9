"""Incremental ATPG on a netlist delta, memoised by the campaign store.

The genuinely new capability the ROADMAP names: after an edit to a netlist
whose campaign is already in the store, only the faults the edit can affect
are re-targeted — everything else reuses its stored outcome.

The contract is deliberately stronger than "the unchanged cone matches": the
incremental campaign's :meth:`~repro.core.results.CampaignResult.fingerprint`
must be **bit-identical to a from-scratch serial campaign on the new
circuit**.  That works because the incremental run *is* the serial campaign
loop, :func:`~repro.core.flow.run_campaign_loop` — same enumeration order,
same skip rule, same crediting — with a ``target`` that reads the store for
the kept faults and calls
:meth:`~repro.core.flow.SequentialDelayATPG.target_fault` for the rest (the
property-based harness in ``tests/fuzz/test_incremental_fuzz.py`` pins this
for random perturbations).  A hybrid campaign's random prefix is not
memoised: it grades the whole universe, so it runs afresh on the edited
circuit before the loop, exactly as in a from-scratch run.  A time limit
cuts the loop like it cuts ``run(time_limit_s=...)``.

Invalidation rule (the correctness argument lives in ``docs/STORE.md``):

1. :func:`~repro.fausim.compile.diff_compiled` splits the changed-gate set
   into value-changing differences ``C`` (type, fanin, existence) and
   observability-only differences ``O`` (fanout sink set, primary-output
   membership — the driving function is identical).
2. ``A = seqTFO*(C)``: the sequential forward closure over fanout edges
   (flip-flops are ordinary sinks, so the closure crosses registers).  Every
   signal whose *value* can differ between the two circuits under any input
   sequence is in ``A``; signals in ``O`` keep their values, so they add
   nothing forward.
3. ``B = seqTFI*(A ∪ O)``: the sequential backward closure over fanin
   edges.  A fault whose signal is outside ``B`` has activation cone,
   observation cone and every side input of its propagation paths untouched
   — its targeting search and its sequence's behaviour are identical on
   both circuits.
4. :func:`invalidate` re-targets exactly the faults on signals in ``B`` (the
   residue); the rest reuse their stored outcome.

For reused *tested* faults the stored sequence's TDsim detection list is
always recomputed on the new circuit (``backend``-dispatched, bit-exact
across backends) instead of patched from the store: detections range over
the whole circuit, and recomputing reproduces the from-scratch list — order
included — by construction.  The stored sequences are additionally re-graded
word-parallel (:func:`~repro.core.verify.grade_test_sequence`) against the
residue as a *diagnostic*: the gross-delay coverage bound tells how much of
the residue existing patterns may still cover, but it never drops a residue
fault (gross grading over-approximates the eight-valued TDsim rule, the
standing PR-4 lesson).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit
from repro.core.flow import (
    SequentialDelayATPG,
    run_campaign_loop,
    simulate_sequence_detections,
)
from repro.core.results import CampaignResult, FaultResult
from repro.core.verify import grade_test_sequence
from repro.faults.model import GateDelayFault, enumerate_delay_faults
from repro.fausim.compile import NetlistDelta, compile_circuit, diff_compiled
from repro.obs.tracing import fold_cost
from repro.store.store import CampaignStore


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
    covers multi-frame effects of the change in both directions.
    """
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
class IncrementalOutcome:
    """Result and bookkeeping of one incremental re-run."""

    result: CampaignResult
    base_campaign_id: int
    delta: NetlistDelta
    cone_size: int
    kept: int
    invalidated: int
    #: Memo hits: faults whose stored outcome was reused.
    reused: int
    #: Faults re-targeted through the full FOGBUSTER flow (residue plus any
    #: kept fault the base campaign never recorded, e.g. under a cap).
    retargeted: int
    #: Diagnostic: residue faults gross-covered by re-grading the stored
    #: sequences word-parallel (an upper bound on surviving coverage — never
    #: used to drop a fault).
    residue_gross_covered: int
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
    records,
    kept_order: Sequence[str],
    residue: Sequence[GateDelayFault],
    backend: Optional[str],
) -> int:
    """Word-parallel gross re-grade of stored sequences against the residue.

    Walks the stored sequences (in stored order) and grades each against the
    still-uncovered residue faults with
    :func:`~repro.core.verify.grade_test_sequence`, early-exiting once every
    residue fault is covered.  Returns the number of residue faults at least
    one stored sequence gross-detects — a coverage *upper bound* (gross
    grading over-approximates TDsim crediting), reported as a diagnostic.
    A sequence that no longer applies to the edited circuit (for example a
    vanished primary input) is skipped.
    """
    uncovered = list(residue)
    covered = 0
    for fault_name in kept_order:
        if not uncovered:
            break
        record = records.get(fault_name)
        if record is None or record.sequence_json is None:
            continue
        sequence = record.build_result().sequence
        try:
            grades = grade_test_sequence(circuit, sequence, uncovered, backend=backend)
        except (KeyError, ValueError):
            continue
        uncovered = [fault for fault, grade in zip(uncovered, grades) if not grade.detected]
        covered = len(residue) - len(uncovered)
    return covered


def run_incremental(
    circuit: Circuit,
    store: CampaignStore,
    config,
    *,
    max_target_faults: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    metrics=None,
) -> IncrementalOutcome:
    """Re-run a campaign incrementally against a stored base.

    ``config`` is an :class:`~repro.orchestrate.coordinator.OrchestratorConfig`
    carrying the generation settings and the simulation ``backend``; the
    base campaign is located (and digest-validated) in the store by circuit
    name and config payload.  The returned campaign is fingerprint-identical
    to ``SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(
    prefix=config.prefix_config(), time_limit_s=...)`` on the new circuit
    (a time-limited run only up to where the wall clock cuts it).
    """
    started = time.perf_counter()
    deadline = started + time_limit_s if time_limit_s is not None else None
    base = store.find_base(circuit.name, config)
    delta = diff_compiled(compile_circuit(base.circuit), compile_circuit(circuit))
    cone = influence_cone(circuit, delta)
    universe = enumerate_delay_faults(circuit)
    kept, residue = invalidate(universe, cone)
    kept_names = {str(fault) for fault in kept}
    records = store.fault_records(base.campaign_id)
    kept_order = [name for name in records if name in kept_names]

    atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
    registry = atpg.metrics
    residue_gross_covered = regrade_residue(
        circuit, records, kept_order, residue, atpg.backend
    )
    prefix = config.prefix_config()
    prefix_outcome = (
        atpg.run_prefix(universe, prefix, deadline=deadline) if prefix is not None else None
    )

    reused = retargeted = 0

    def target(_index: int, fault: GateDelayFault) -> FaultResult:
        nonlocal reused, retargeted
        name = str(fault)
        record = records.get(name) if name in kept_names else None
        if record is None:
            retargeted += 1
            return atpg.target_fault(fault, deadline=deadline)
        result = record.build_result()
        if result.tested and result.sequence is not None and atpg.enable_fault_simulation:
            # Detections range over the whole circuit, so the stored list is
            # recomputed on the edited netlist — content *and* order then
            # match the from-scratch run by construction.
            _refit_sequence(result.sequence, circuit, atpg.fill_value)
            with registry.timed("repro_phase_seconds", phase="tdsim"):
                result.additionally_detected = simulate_sequence_detections(
                    circuit, atpg.context, atpg.fault_simulator,
                    result.sequence, atpg.backend,
                )
        reused += 1
        if registry.enabled:
            cost = record.build_cost()
            if cost is not None:
                fold_cost(registry, cost)
                atpg.cost_log.append(cost)
        return result

    campaign = run_campaign_loop(
        circuit.name,
        universe,
        target,
        prefix_outcome=prefix_outcome,
        max_target_faults=max_target_faults,
        deadline=deadline,
        started=started,
    )
    return IncrementalOutcome(
        result=campaign,
        base_campaign_id=base.campaign_id,
        delta=delta,
        cone_size=len(cone),
        kept=len(kept),
        invalidated=len(residue),
        reused=reused,
        retargeted=retargeted,
        residue_gross_covered=residue_gross_covered,
        costs=list(atpg.cost_log),
    )


def _refit_sequence(sequence, circuit: Circuit, fill_value: int) -> None:
    """Align a stored sequence's PPI map with the edited circuit's state.

    Flip-flops added by the edit have no entry in the stored
    ``ppi_initial_values`` (and removed ones leave stale entries behind).
    For a *kept* fault the search never constrains those registers — they
    live inside the influence cone — so the from-scratch flow would leave
    them at the fill value; mirroring that keeps the reused sequence
    identical to the regenerated one.  A no-op when the state set is
    unchanged.
    """
    current = set(sequence.ppi_initial_values)
    expected = circuit.pseudo_primary_inputs
    if current != set(expected):
        sequence.ppi_initial_values = {
            ppi: sequence.ppi_initial_values.get(ppi, fill_value) for ppi in expected
        }
