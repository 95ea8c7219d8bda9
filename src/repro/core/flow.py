"""The extended FOGBUSTER flow (paper Figure 4).

For every targeted fault the flow runs:

1. **local test generation** (TDgen) — provoke the fault and propagate its
   effect to a PO or PPO within the two local time frames;
2. **forward propagation** (SEMILET, forward time processing) — only if the
   effect was captured in the state register;
3. **propagation justification** — PPI values the propagation needed are
   turned into PPO constraints and handed back to TDgen;
4. **justification of the test frames / initialisation** (SEMILET, reverse
   time processing) — a synchronising sequence for the state the local test
   requires;
5. **fault simulation** (FAUSIM + TDsim) — credit every additional fault the
   assembled sequence detects.

Backtracking between the steps is possible: if propagation or initialisation
fails, the local test generator is re-invoked with the previously used
pseudo primary output observation points blocked.

The flow resolves its ``backend`` parameter once
(:mod:`repro.fausim.backends`; ``packed`` by default) and threads the same
name into every step — TDgen and SEMILET (implication engines and search
kernels), the propagation fault simulator, TDsim and the gross-delay
verification — so one choice governs the entire campaign.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.values import DelayValue, V0, V1
from repro.circuit.netlist import Circuit
from repro.core.clocking import ClockSchedule
from repro.core.results import (
    CampaignResult,
    FaultResult,
    FaultResultStatus,
    FlowPhase,
    TestSequence,
)
from repro.core.verify import verify_test_sequence
from repro.faults.model import (
    FaultList,
    FaultStatus,
    GateDelayFault,
    enumerate_delay_faults,
)
from repro.fausim.backends import create_simulator, resolve_backend
from repro.fausim.fault_sim import PropagationFaultSimulator
from repro.fausim.logic_sim import SignalValues
from repro.obs.metrics import resolve_metrics
from repro.obs.tracing import FaultCost, FaultSpan
from repro.semilet.engine import Semilet
from repro.tdgen.context import TDgenContext
from repro.tdgen.engine import TDgen
from repro.tdgen.result import LocalTest, LocalTestStatus
from repro.tdsim.cpt import DelayFaultSimulator

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class _AttemptFailure:
    """Internal record of why one FOGBUSTER attempt failed."""

    status: FaultResultStatus
    phase: FlowPhase
    local_backtracks: int = 0
    sequential_backtracks: int = 0
    unsynchronizable_state: Optional[Dict[str, int]] = None


class CampaignInterrupted(RuntimeError):
    """A campaign was stopped before finishing.

    Raised when a campaign's ``should_stop`` hook fires (graceful daemon
    shutdown, job cancellation): the flow polls it after every applied
    prefix sequence and before every fault its loop reaches, the
    orchestrator also between worker records.  A journaled campaign has
    checkpointed every record produced before the stop, so it resumes from
    its journal with nothing lost but the faults in flight.
    """

    def __init__(self, circuit_name: str, recorded: int) -> None:
        super().__init__(
            f"campaign for {circuit_name!r} interrupted with {recorded} fault(s) recorded"
        )
        self.circuit_name = circuit_name
        self.recorded = recorded


class SequentialDelayATPG:
    """Robust gate delay fault ATPG for non-scan synchronous sequential circuits.

    Args:
        circuit: circuit under test.
        robust: use the robust fault model (paper) or the relaxed non-robust
            variant (paper's conclusion / ablation E8).
        local_backtrack_limit: backtrack limit of TDgen (paper: 100).
        sequential_backtrack_limit: backtrack limit of SEMILET (paper: 100).
        max_local_retries: how many times the flow may re-enter local test
            generation with blocked observation points (inter-phase
            backtracking).
        fill_value: deterministic fill for don't-care bits when assembling
            concrete vectors.
        verify_sequences: re-check every generated sequence with the
            independent gross-delay verification before crediting it.
        metrics: an optional :class:`~repro.obs.metrics.MetricsRegistry`;
            defaults to the shared no-op null registry.  With a live
            registry the flow additionally keeps per-fault
            :class:`~repro.obs.tracing.FaultCost` records in
            :attr:`cost_log`.  Instrumentation never changes results:
            campaigns are bit-identical with metrics on or off.
        backend: simulation *and* implication backend (``"packed"`` — the
            default — or ``"reference"``, see :mod:`repro.fausim.backends`
            and :mod:`repro.tdgen.implication`); used for the logic
            simulation, the propagation-phase fault simulation, the TDsim
            injection checks, the sequence verification, and the search-side
            forward implication of TDgen and SEMILET.
    """

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        local_backtrack_limit: int = 100,
        sequential_backtrack_limit: int = 100,
        max_propagation_frames: Optional[int] = None,
        max_synchronization_frames: Optional[int] = None,
        max_local_retries: int = 3,
        fill_value: int = 0,
        verify_sequences: bool = True,
        enable_fault_simulation: bool = True,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.robust = robust
        self.fill_value = fill_value
        self.max_local_retries = max_local_retries
        self.verify_sequences = verify_sequences
        self.enable_fault_simulation = enable_fault_simulation
        self.metrics = resolve_metrics(metrics)
        self.cost_log: List[FaultCost] = []
        self.backend = resolve_backend(backend)

        self.context = TDgenContext(circuit)
        self.tdgen = TDgen(
            circuit,
            robust=robust,
            backtrack_limit=local_backtrack_limit,
            context=self.context,
            metrics=self.metrics,
            backend=self.backend,
        )
        self.semilet = Semilet(
            circuit,
            backtrack_limit=sequential_backtrack_limit,
            max_propagation_frames=max_propagation_frames,
            max_synchronization_frames=max_synchronization_frames,
            metrics=self.metrics,
            backend=self.backend,
        )
        self.fault_simulator = DelayFaultSimulator(
            circuit,
            robust=robust,
            context=self.context,
            metrics=self.metrics,
            backend=self.backend,
        )
        self._logic_simulator = create_simulator(circuit, self.backend)
        self._logic_simulator.metrics = self.metrics

    # ------------------------------------------------------------------ #
    # campaign driver
    # ------------------------------------------------------------------ #
    def run(
        self,
        faults: Optional[Sequence[GateDelayFault]] = None,
        max_target_faults: Optional[int] = None,
        time_limit_s: Optional[float] = None,
        prefix: Optional["PrefixConfig"] = None,
        reuse: Optional[Dict[int, Dict[str, object]]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> CampaignResult:
        """Run a full ATPG campaign: :meth:`run_prefix`, then :meth:`run_loop`.

        Args:
            faults: explicit fault universe; defaults to every StR/StF fault on
                every stem and branch of the circuit.
            max_target_faults: stop targeting new faults after this many
                explicit targets (faults already covered by fault simulation do
                not count); remaining untargeted faults are reported in the
                aborted column.
            time_limit_s: wall-clock budget for the campaign.
            prefix: when given, run the hybrid campaign: a random-pattern
                prefix phase (:class:`~repro.core.prefilter.PrefixConfig` /
                :class:`~repro.core.prefilter.RandomPrefixEngine`) first strips
                the cheaply detectable faults from the universe, then the
                deterministic flow targets only the residue.  ``max_target_faults``
                counts residue targets only.
            reuse: journal-format ``fault`` records keyed by universe index
                (:func:`repro.store.incremental.plan_reuse`): a mapped fault
                reads its record instead of being targeted.  Each record must
                be exactly what :meth:`target_fault` would return.
            should_stop: polled after every applied prefix sequence and before
                every fault the loop reaches; returning True raises
                :class:`CampaignInterrupted`.
        """
        fault_universe = list(faults) if faults is not None else enumerate_delay_faults(self.circuit)
        logger.info(
            "campaign start: circuit=%s faults=%d backend=%s robust=%s",
            self.circuit.name, len(fault_universe), self.backend, self.robust,
        )
        start = time.perf_counter()
        deadline = start + time_limit_s if time_limit_s is not None else None
        with self.metrics.timed("repro_phase_seconds", phase="campaign"):
            outcome = (
                self.run_prefix(
                    fault_universe, prefix, deadline=deadline, should_stop=should_stop
                )
                if prefix is not None
                else None
            )
            campaign = self.run_loop(
                fault_universe,
                outcome,
                records=reuse,
                max_target_faults=max_target_faults,
                deadline=deadline,
                started=start,
                should_stop=should_stop,
            )
        logger.info(
            "campaign done: circuit=%s tested=%d untestable=%d aborted=%d time=%.3fs",
            campaign.circuit_name, campaign.tested, campaign.untestable,
            campaign.aborted, campaign.cpu_seconds,
        )
        return campaign

    def run_prefix(
        self,
        faults: Sequence[GateDelayFault],
        prefix: "PrefixConfig",
        deadline: Optional[float] = None,
        replay: Sequence["PrefixRecord"] = (),
        on_record: Optional[Callable[[Dict[str, object]], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> "PrefixOutcome":
        """Phase A of the hybrid campaign under this flow's settings.

        Args:
            replay: the phase's journaled sequence records, applied (and
                counted) without re-grading; generation goes on at the next
                sequence index, since every sequence's RNG seed depends only
                on its index.  A finished phase stops again at once.
            on_record: called with the journal record of every newly applied
                sequence and with the closing ``prefix-done`` record.
            should_stop: polled after every newly applied sequence; returning
                True raises :class:`CampaignInterrupted`.
        """
        from repro.core.prefilter import RandomPrefixEngine

        def applied(record: "PrefixRecord") -> None:
            if on_record is not None:
                on_record(record.to_journal())
            if should_stop is not None and should_stop():
                raise CampaignInterrupted(self.circuit.name, record.seq + 1)

        engine = RandomPrefixEngine(
            self.circuit,
            prefix,
            robust=self.robust,
            fill_value=self.fill_value,
            metrics=self.metrics,
            backend=self.backend,
            context=self.context,
        )
        with self.metrics.timed("repro_phase_seconds", phase="prefix"):
            outcome = engine.run(
                faults,
                deadline=deadline,
                replay=replay,
                on_record=applied,
            )
        if on_record is not None:
            on_record(
                {
                    "type": "prefix-done",
                    "reason": outcome.stop_reason,
                    "applied": outcome.applied,
                    "detected": len(outcome.detected),
                }
            )
        return outcome

    def run_loop(
        self,
        universe: Sequence[GateDelayFault],
        prefix_outcome: Optional["PrefixOutcome"] = None,
        *,
        records: Optional[Dict[int, Dict[str, object]]] = None,
        max_target_faults: Optional[int] = None,
        deadline: Optional[float] = None,
        started: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        on_record: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> CampaignResult:
        """Phase B: :func:`run_campaign_loop` with the one per-fault rule.

        A fault with a journal-format ``fault`` record in ``records`` reads
        it, and its stored cost folds into :attr:`metrics` and
        :attr:`cost_log`.  ``records`` is any source with a ``get(index)``:
        a dictionary, or a sharded campaign's worker feed, which waits for
        the record of a fault in flight.  Any other fault is targeted here by
        :meth:`target_fault`, its engine work counted live, and its record
        (worker ``-1``: in-process) goes to ``on_record`` before the loop
        credits it.  No record is built without a hook.  ``should_stop`` is
        polled before every fault the loop reaches.
        """
        from repro.orchestrate.journal import fault_record, replay_record

        records = records or {}
        reached = 0

        def target(index: int, fault: GateDelayFault) -> FaultResult:
            nonlocal reached
            if should_stop is not None and should_stop():
                raise CampaignInterrupted(self.circuit.name, reached)
            reached += 1
            record = records.get(index)
            if record is not None:
                return replay_record(record, self.metrics, self.cost_log)
            # Looked up per call, so a patched ``target_fault`` is honoured.
            result = self.target_fault(fault, deadline=deadline)
            if on_record is not None:
                cost = self.cost_log[-1] if self.metrics.enabled else None
                on_record(fault_record(index, -1, result, cost))
            return result

        return run_campaign_loop(
            self.circuit.name,
            universe,
            target,
            prefix_outcome=prefix_outcome,
            max_target_faults=max_target_faults,
            deadline=deadline,
            started=started,
        )

    # ------------------------------------------------------------------ #
    # single-fault campaign step
    # ------------------------------------------------------------------ #
    def target_fault(
        self, fault: GateDelayFault, deadline: Optional[float] = None
    ) -> FaultResult:
        """One reusable campaign step: FOGBUSTER targeting plus fault simulation.

        Runs :meth:`generate_for_fault` and, when a test was produced,
        fault-simulates the assembled sequence (FAUSIM + TDsim).  The returned
        result's ``additionally_detected`` holds the *raw* detection list over
        the whole circuit — :func:`credit_fault_result` later filters it
        against the campaign's fault universe.  This per-fault step is
        independent of any campaign state, which is what lets the
        orchestration layer (:mod:`repro.orchestrate`) ship it to worker
        processes and still merge a deterministic, serially-identical
        campaign.

        With a live metrics registry the call is wrapped in a
        :class:`~repro.obs.tracing.FaultSpan` and its
        :class:`~repro.obs.tracing.FaultCost` record is appended to
        :attr:`cost_log`; the targeting itself is byte-for-byte the same.
        """
        if not self.metrics.enabled:
            return self._target_fault_impl(fault, deadline)
        span = FaultSpan(self.metrics, fault, engine=self.backend)
        result = self._target_fault_impl(fault, deadline)
        self.cost_log.append(span.finish(result))
        return result

    def _target_fault_impl(
        self, fault: GateDelayFault, deadline: Optional[float]
    ) -> FaultResult:
        """The uninstrumented body of :meth:`target_fault`."""
        result = self.generate_for_fault(fault, deadline=deadline)
        if (
            result.status is FaultResultStatus.TESTED
            and self.enable_fault_simulation
            and result.sequence is not None
        ):
            with self.metrics.timed("repro_phase_seconds", phase="tdsim"):
                result.additionally_detected = self._simulate_sequence(result.sequence)
        return result

    # ------------------------------------------------------------------ #
    # single-fault FOGBUSTER
    # ------------------------------------------------------------------ #
    def generate_for_fault(
        self, fault: GateDelayFault, deadline: Optional[float] = None
    ) -> FaultResult:
        """Run the extended FOGBUSTER algorithm for one fault (Figure 4).

        ``deadline`` is an optional :func:`time.perf_counter` timestamp; it is
        passed down into every search phase (TDgen and SEMILET), so a campaign
        time budget bounds even a single slow fault instead of only being
        checked between faults.  An expired search reports the fault aborted.
        """
        blocked_ppos: Set[str] = set()
        blocked_states: List[Dict[str, int]] = []
        last_failure = _AttemptFailure(
            status=FaultResultStatus.UNTESTABLE, phase=FlowPhase.LOCAL
        )
        attempts = 0

        for attempt in range(self.max_local_retries):
            attempts += 1
            outcome = self._attempt(fault, blocked_ppos, blocked_states, deadline=deadline)
            if isinstance(outcome, FaultResult):
                outcome.attempts = attempts
                return outcome
            failure, newly_blocked = outcome
            last_failure = failure
            if failure.phase is FlowPhase.LOCAL:
                # Local generation itself failed: retrying with the same blocks
                # cannot help.
                break
            made_progress = False
            if newly_blocked and not newly_blocked <= blocked_ppos:
                blocked_ppos |= newly_blocked
                made_progress = True
            if failure.unsynchronizable_state and failure.unsynchronizable_state not in blocked_states:
                # Inter-phase backtracking: ask TDgen for a local test that does
                # not require the state the initialisation phase failed on.
                blocked_states.append(dict(failure.unsynchronizable_state))
                made_progress = True
            if not made_progress:
                break

        if blocked_states and last_failure.phase is FlowPhase.LOCAL:
            # Every remaining local test requires an unsynchronisable state:
            # report the failure as a sequential (initialisation) one.
            last_failure.phase = FlowPhase.INITIALIZATION

        return FaultResult(
            fault=fault,
            status=last_failure.status,
            phase=last_failure.phase,
            local_backtracks=last_failure.local_backtracks,
            sequential_backtracks=last_failure.sequential_backtracks,
            attempts=attempts,
        )

    # ------------------------------------------------------------------ #
    def _attempt(
        self,
        fault: GateDelayFault,
        blocked_ppos: Set[str],
        blocked_states: Optional[List[Dict[str, int]]] = None,
        deadline: Optional[float] = None,
    ):
        """One pass through the FOGBUSTER phases.

        Returns either a successful :class:`FaultResult` or a tuple
        ``(_AttemptFailure, newly_blocked_ppos)``.
        """
        blocked_states = blocked_states or []
        with self.metrics.timed("repro_phase_seconds", phase="tdgen"):
            local = self.tdgen.generate(
                fault,
                blocked_observation=sorted(blocked_ppos),
                blocked_states=blocked_states,
                deadline=deadline,
            )
        if local.status is LocalTestStatus.UNTESTABLE:
            return (
                _AttemptFailure(
                    FaultResultStatus.UNTESTABLE, FlowPhase.LOCAL, local.backtracks
                ),
                set(),
            )
        if local.status is LocalTestStatus.ABORTED:
            return (
                _AttemptFailure(
                    FaultResultStatus.ABORTED, FlowPhase.LOCAL, local.backtracks
                ),
                set(),
            )

        propagation_vectors: List[Dict[str, int]] = []
        required_propagation_ppos: Dict[str, int] = {}
        sequential_backtracks = 0
        observation_point = local.observation_points[0] if local.observation_points else ""

        if not local.observed_at_po:
            # --- forward propagation phase --------------------------------- #
            good_state, faulty_state = self._post_test_states(local)
            assignable = [
                ppi
                for ppi in self.circuit.pseudo_primary_inputs
                if ppi not in good_state
            ]
            with self.metrics.timed("repro_phase_seconds", phase="propagation"):
                propagation = self.semilet.propagate(
                    good_state, faulty_state, assignable, deadline=deadline
                )
            sequential_backtracks += propagation.backtracks
            if not propagation.success:
                status = (
                    FaultResultStatus.ABORTED
                    if propagation.aborted
                    else FaultResultStatus.UNTESTABLE
                )
                return (
                    _AttemptFailure(
                        status,
                        FlowPhase.PROPAGATION,
                        local.backtracks,
                        sequential_backtracks,
                    ),
                    self._observed_ppos(local),
                )

            # --- propagation justification --------------------------------- #
            if propagation.required_first_frame_ppis:
                constraints = {
                    self.circuit.ppo_of_ppi(ppi): value
                    for ppi, value in propagation.required_first_frame_ppis.items()
                }
                required_propagation_ppos.update(constraints)
                with self.metrics.timed("repro_phase_seconds", phase="tdgen"):
                    revised = self.tdgen.generate(
                        fault,
                        required_ppo_values=constraints,
                        blocked_observation=sorted(blocked_ppos),
                        blocked_states=blocked_states,
                        deadline=deadline,
                    )
                if revised.status is not LocalTestStatus.SUCCESS:
                    status = (
                        FaultResultStatus.ABORTED
                        if revised.status is LocalTestStatus.ABORTED
                        else FaultResultStatus.UNTESTABLE
                    )
                    return (
                        _AttemptFailure(
                            status,
                            FlowPhase.PROPAGATION_JUSTIFICATION,
                            local.backtracks + revised.backtracks,
                            sequential_backtracks,
                        ),
                        self._observed_ppos(local),
                    )
                local = revised
                if not self._propagation_still_valid(local, propagation.vectors):
                    return (
                        _AttemptFailure(
                            FaultResultStatus.UNTESTABLE,
                            FlowPhase.PROPAGATION_JUSTIFICATION,
                            local.backtracks,
                            sequential_backtracks,
                        ),
                        self._observed_ppos(local),
                    )
            propagation_vectors = [dict(vector) for vector in propagation.vectors]
            observation_point = propagation.observed_po or observation_point

        # --- justification of test frames / initialisation ----------------- #
        required_state = local.required_state()
        with self.metrics.timed("repro_phase_seconds", phase="synchronization"):
            synchronization = self.semilet.synchronize(required_state, deadline=deadline)
        sequential_backtracks += synchronization.backtracks
        if not synchronization.success:
            status = (
                FaultResultStatus.ABORTED
                if synchronization.aborted
                else FaultResultStatus.UNTESTABLE
            )
            return (
                _AttemptFailure(
                    status,
                    FlowPhase.INITIALIZATION,
                    local.backtracks,
                    sequential_backtracks,
                    unsynchronizable_state=dict(required_state) if required_state else None,
                ),
                self._observed_ppos(local),
            )

        # --- assemble and (optionally) verify the sequence ------------------ #
        sequence = self._assemble_sequence(
            fault, local, synchronization.vectors, propagation_vectors, observation_point
        )
        if self.verify_sequences:
            with self.metrics.timed("repro_phase_seconds", phase="verify"):
                report = verify_test_sequence(self.circuit, sequence, backend=self.backend)
            if not report.detected:
                return (
                    _AttemptFailure(
                        FaultResultStatus.ABORTED,
                        FlowPhase.COMPLETE,
                        local.backtracks,
                        sequential_backtracks,
                    ),
                    self._observed_ppos(local),
                )

        return FaultResult(
            fault=fault,
            status=FaultResultStatus.TESTED,
            phase=FlowPhase.COMPLETE,
            sequence=sequence,
            local_backtracks=local.backtracks,
            sequential_backtracks=sequential_backtracks,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _post_test_states(
        self, local: LocalTest
    ) -> Tuple[SignalValues, SignalValues]:
        """Good and faulty machine states right after the fast clock frame.

        Only PPO values that TDgen may specify (clean steady) enter the good
        state; PPOs carrying the fault effect differ between the machines; all
        other state bits stay unknown-but-equal (the unjustifiable don't care
        of the paper).
        """
        good_state: SignalValues = {}
        faulty_state: SignalValues = {}
        for ppo, value in local.ppo_final_values.items():
            if value is None:
                continue
            ppi = self.circuit.ppi_of_ppo(ppo)
            good_state[ppi] = value
            faulty_state[ppi] = value
        for ppo, effect in local.ppo_fault_effects.items():
            ppi = self.circuit.ppi_of_ppo(ppo)
            good_state[ppi] = effect.final
            faulty_state[ppi] = effect.initial
        return good_state, faulty_state

    def _observed_ppos(self, local: LocalTest) -> Set[str]:
        """The pseudo primary outputs a local test observes its effect at."""
        return {
            signal
            for signal in local.observation_points
            if not self.circuit.is_primary_output(signal)
        }

    def _propagation_still_valid(
        self, local: LocalTest, propagation_vectors: Sequence[Dict[str, int]]
    ) -> bool:
        """Re-check the propagation after the local test was revised.

        The revised local test must still capture a fault effect in the state
        register and the previously computed propagation vectors must still
        drive it to a primary output.
        """
        if local.observed_at_po:
            return True
        if not local.ppo_fault_effects:
            return False
        good_state, faulty_state = self._post_test_states(local)
        simulator = PropagationFaultSimulator(
            self.circuit, propagation_vectors, backend=self.backend
        )
        for ppo in local.ppo_fault_effects:
            ppi = self.circuit.ppi_of_ppo(ppo)
            observability = simulator.observability(
                good_state, ppi, faulty_value=faulty_state.get(ppi)
            )
            if observability.observable:
                return True
        return False

    def _assemble_sequence(
        self,
        fault: GateDelayFault,
        local: LocalTest,
        initialization_vectors: Sequence[Dict[str, int]],
        propagation_vectors: Sequence[Dict[str, int]],
        observation_point: str,
    ) -> TestSequence:
        """Fill don't cares and put all phases together into one sequence."""
        pi_pairs: Dict[str, DelayValue] = {}
        fill = V0 if self.fill_value == 0 else V1
        for pi in self.circuit.primary_inputs:
            value = local.pi_values.get(pi)
            pi_pairs[pi] = value if value is not None else fill

        # State at the start of the initial frame: whatever the initialisation
        # sequence provably establishes, the local requirements, and the fill
        # value for the remaining don't cares.
        init_state: SignalValues = {}
        state: SignalValues = {}
        for vector in initialization_vectors:
            frame = self._logic_simulator.clock(vector, state)
            state = frame.next_state
        init_state = state
        ppi_initial: Dict[str, int] = {}
        for ppi in self.circuit.pseudo_primary_inputs:
            if ppi in local.ppi_initial:
                ppi_initial[ppi] = local.ppi_initial[ppi]
            elif init_state.get(ppi) is not None:
                ppi_initial[ppi] = init_state[ppi]
            else:
                ppi_initial[ppi] = self.fill_value

        v1 = {pi: pi_pairs[pi].initial for pi in self.circuit.primary_inputs}
        v2 = {pi: pi_pairs[pi].final for pi in self.circuit.primary_inputs}
        filled_propagation = [
            {pi: vector.get(pi, self.fill_value) for pi in self.circuit.primary_inputs}
            for vector in propagation_vectors
        ]
        filled_initialization = [
            {pi: vector.get(pi, self.fill_value) for pi in self.circuit.primary_inputs}
            for vector in initialization_vectors
        ]
        schedule = ClockSchedule.for_sequence(
            initialization_frames=len(filled_initialization),
            propagation_frames=len(filled_propagation),
        )
        return TestSequence(
            fault=fault,
            initialization_vectors=filled_initialization,
            v1=v1,
            v2=v2,
            propagation_vectors=filled_propagation,
            clock_schedule=schedule,
            observation_point=observation_point,
            observed_at_po=local.observed_at_po,
            pi_pair_values=pi_pairs,
            ppi_initial_values=ppi_initial,
        )

    def _simulate_sequence(self, sequence: TestSequence) -> List[GateDelayFault]:
        """FAUSIM + TDsim: every additional fault the sequence detects."""
        return simulate_sequence_detections(
            self.circuit, self.fault_simulator, sequence, self.backend
        )


def simulate_sequence_detections(
    circuit: Circuit,
    fault_simulator: DelayFaultSimulator,
    sequence: TestSequence,
    backend: Optional[str] = None,
) -> List[GateDelayFault]:
    """FAUSIM + TDsim detection pass for one fully specified test sequence.

    The exact eight-valued crediting rule of the deterministic flow: the
    good-machine state after the fast frame (from TDsim's own good-machine
    pass, computed once per call) feeds the propagation-phase
    observability analysis (FAUSIM), and the delay fault simulator (TDsim,
    critical path tracing) returns every fault the sequence robustly detects
    at a primary output or through an observable pseudo primary output.  The
    sequence must carry its algebra-level view (``pi_pair_values`` and
    ``ppi_initial_values``).  Shared by the flow's per-fault fault simulation
    and the hybrid campaign's random-pattern prefix
    (:mod:`repro.core.prefilter`), so both phases credit detections under the
    same rule.
    """
    good = fault_simulator.good_machine(
        sequence.pi_pair_values, sequence.ppi_initial_values
    )
    state = good.latched_state(circuit)
    observability = {}
    if sequence.propagation_vectors:
        fausim = PropagationFaultSimulator(
            circuit, sequence.propagation_vectors, backend=backend
        )
        observability = fausim.observability_map(state, circuit.pseudo_primary_inputs)
    observable_ppos = [
        circuit.ppo_of_ppi(ppi)
        for ppi, result in observability.items()
        if result.observable
    ]
    required_ppo_values = {
        ppo: value
        for ppo, value in (
            (circuit.ppo_of_ppi(ppi), state.get(ppi))
            for ppi in circuit.pseudo_primary_inputs
        )
        if value is not None
    }
    detections = fault_simulator.simulate(
        sequence.pi_pair_values,
        sequence.ppi_initial_values,
        observable_ppos=observable_ppos,
        required_ppo_values=required_ppo_values,
        good=good,
    )
    return [detection.fault for detection in detections]


def credit_fault_result(result: FaultResult, fault_list: FaultList) -> int:
    """Fold one per-fault result into a campaign's fault-list bookkeeping.

    This is the crediting step of :func:`run_campaign_loop`: the targeted
    fault is marked with its verdict, ``result.additionally_detected`` (the
    raw detection list produced by :meth:`SequentialDelayATPG.target_fault`)
    is filtered in place down to faults of this campaign's universe, and
    every detection is credited.  Returns how many faults were *newly* marked
    tested.
    """
    if result.status is FaultResultStatus.TESTED:
        newly = fault_list.mark_tested([result.fault])
        result.additionally_detected = [
            detection for detection in result.additionally_detected if detection in fault_list
        ]
        newly += fault_list.mark_tested(result.additionally_detected)
        return newly
    if result.status is FaultResultStatus.UNTESTABLE:
        fault_list.mark(result.fault, FaultStatus.UNTESTABLE)
    else:
        fault_list.mark(result.fault, FaultStatus.ABORTED)
    return 0


def run_campaign_loop(
    circuit_name: str,
    universe: Sequence[GateDelayFault],
    target: Callable[[int, GateDelayFault], Optional[FaultResult]],
    *,
    prefix_outcome: Optional["PrefixOutcome"] = None,
    max_target_faults: Optional[int] = None,
    deadline: Optional[float] = None,
    started: Optional[float] = None,
) -> CampaignResult:
    """The one serial campaign loop (paper Figure 4): target, credit, drop.

    A finished random prefix is credited first.  Then, in enumeration order,
    a fault an earlier sequence already detected is skipped, the loop stops
    at ``max_target_faults`` targets or at the ``deadline`` (a
    :func:`time.perf_counter` timestamp), and every other fault gets
    ``target(index, fault)``, credited via :func:`credit_fault_result`.  A
    ``None`` outcome (unknown, e.g. a torn journal) leaves it untargeted.
    Every campaign runs it through :meth:`SequentialDelayATPG.run_loop`,
    whose ``target`` reads a stored record or targets the fault in-process;
    the store's partial-journal import passes a ``target`` that only reads.
    ``cpu_seconds`` counts from ``started`` (default: the call).
    """
    if started is None:
        started = time.perf_counter()
    fault_list = FaultList(universe)
    campaign = CampaignResult(circuit_name=circuit_name, total_faults=len(fault_list))
    if prefix_outcome is not None:
        fault_list.mark_tested(prefix_outcome.detected)
        campaign.prefix_applied = prefix_outcome.applied
        campaign.prefix_detected = len(prefix_outcome.detected)
        campaign.prefix_stop_reason = prefix_outcome.stop_reason
        campaign.prefix_sequences = prefix_outcome.kept_sequences
        campaign.pattern_count = sum(seq.pattern_count for seq in campaign.prefix_sequences)
    for index, fault in enumerate(universe):
        if fault_list.status(fault) is not FaultStatus.UNTARGETED:
            continue
        if max_target_faults is not None and campaign.targeted >= max_target_faults:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
        result = target(index, fault)
        if result is not None:
            campaign.record(result, credit_fault_result(result, fault_list))
    campaign.finalize(fault_list.counts(), time.perf_counter() - started)
    return campaign
