"""Random-pattern prefix of the hybrid campaign (Phase A).

The deterministic TDgen/SEMILET search is the expensive half of every
campaign, yet a large share of the fault universe is detectable by the first
few random sequences.  This module implements the classic two-phase ATPG
split on top of the repo's fault-parallel machinery:

1. **Generate** seeded random test sequences through the shared generator
   (:mod:`repro.core.randseq` — the same draw order as the random baseline).
   Every sequence's seed is derived from the campaign seed and the sequence
   index alone (:func:`derive_prefix_seed`), so a resumed prefix regenerates
   sequence ``k`` without replaying the RNG history of sequences ``0..k-1``.
2. **Grade** each sequence against the *remaining* fault universe
   word-parallel through one grader planned once for the whole phase
   (:func:`repro.core.verify.create_grader`: the good machine in slot 0, one
   gross-delay faulty machine per universe lane, and a live-lane mask that
   loses a fault's lane once it is credited).  The gross-delay grade is the
   cheap necessary condition — a superset of what the eight-valued rule
   credits.
3. **Confirm** the candidates through the exact eight-valued TDsim/CPT pass
   (:func:`repro.core.flow.simulate_sequence_detections`), so a fault is
   credited to a random sequence under precisely the same robust-detection
   rule the deterministic flow applies to its own sequences.  Only confirmed
   faults are dropped from the universe.
4. **Stop adaptively**: when a full sliding window of recent sequences
   credits fewer than the threshold of new detections, when the sequence
   budget (or the campaign deadline) is exhausted, or when nothing remains —
   and hand the residue to Phase B, the deterministic flow.

Everything here is a pure function of (circuit, universe, config): Phase A
runs single-threaded before any sharding, which is what lets the orchestrator
keep the hybrid campaign bit-identical across worker counts and
interrupt/resume cycles.  :class:`RandomPrefixEngine` accepts the usual
``backend`` parameter for its grading/confirmation simulators (``reference``
or ``packed``); both are bit-identical by contract, so the choice is purely a
wall-clock knob — ``packed`` grades every live fault in one bit-parallel
sweep per frame.
"""

from __future__ import annotations

import collections
import dataclasses
import logging
import random
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.values import pi_value
from repro.circuit.netlist import Circuit
from repro.core.flow import simulate_sequence_detections
from repro.core.randseq import random_test_sequence
from repro.core.results import TestSequence
from repro.core.verify import create_grader, iter_lanes
from repro.faults.model import GateDelayFault
from repro.fausim.backends import create_simulator, resolve_backend
from repro.obs.metrics import resolve_metrics
from repro.tdgen.context import TDgenContext
from repro.tdsim.cpt import DelayFaultSimulator

logger = logging.getLogger(__name__)

#: Stop reasons reported by :meth:`RandomPrefixEngine.run`.
STOP_WINDOW = "window"
STOP_BUDGET = "budget"
STOP_EXHAUSTED = "exhausted"
STOP_DEADLINE = "deadline"


def derive_prefix_seed(campaign_seed: int, sequence_index: int) -> int:
    """Deterministic seed of prefix sequence ``sequence_index``.

    A :func:`zlib.crc32` over an explicit token (never :func:`hash`, which is
    randomised per process) mixed with the campaign seed, so the prefix is
    reproducible run-to-run, across machines, and — because each sequence's
    seed depends only on its index — resumable mid-prefix without replaying
    the generator history.
    """
    token = f"repro-prefix:{campaign_seed}:{sequence_index}".encode("utf-8")
    return (zlib.crc32(token) ^ ((campaign_seed * 0x9E3779B1) & 0xFFFFFFFF)) & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True)
class PrefixConfig:
    """Settings of the random-pattern prefix phase.

    Args:
        budget: hard cap on the number of random sequences applied.
        window: size of the sliding window of the adaptive stopping rule.
        min_window_detections: keep generating while the last ``window``
            sequences credited at least this many new faults; a full window
            below the threshold hands the residue to Phase B.
        sequence_length: frames per random sequence (initialisation frames +
            the two-pattern test + propagation frames).
        seed: the campaign seed; every sequence derives its own RNG seed from
            it via :func:`derive_prefix_seed`.
    """

    budget: int = 256
    window: int = 16
    min_window_detections: int = 1
    sequence_length: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("prefix budget must be >= 1")
        if self.window < 1:
            raise ValueError("prefix window must be >= 1")
        if self.sequence_length < 2:
            raise ValueError("a delay test needs at least two frames")


@dataclasses.dataclass
class PrefixRecord:
    """Outcome of one applied prefix sequence (one journal record).

    ``detections`` holds the faults *credited* to this sequence — gross-grade
    candidates confirmed by the TDsim pass, in universe enumeration order.
    ``sequence`` is kept (and journaled) only when it credited at least one
    fault; sequences that detect nothing are recorded as bare counters so a
    resumed prefix can rebuild the stopping-rule window exactly.
    ``gate_words`` is the simulation cost of generating and grading the
    sequence, kept when metrics are on so a replay can count it.
    """

    seq: int
    candidates: int
    detections: List[GateDelayFault]
    sequence: Optional[TestSequence] = None
    gate_words: Optional[int] = None

    def to_journal(self) -> Dict[str, object]:
        """The JSONL journal form of this record (``type: "prefix"``)."""
        record = {
            "type": "prefix",
            "seq": self.seq,
            "candidates": self.candidates,
            "detections": [fault.to_json() for fault in self.detections],
            "sequence": self.sequence.to_json() if self.sequence is not None else None,
        }
        if self.gate_words is not None:
            record["gate_words"] = self.gate_words
        return record

    @classmethod
    def from_journal(cls, payload: Dict[str, object]) -> "PrefixRecord":
        """Rebuild a record from its :meth:`to_journal` form."""
        sequence = payload.get("sequence")
        return cls(
            seq=int(payload["seq"]),
            candidates=int(payload.get("candidates", 0)),
            detections=[
                GateDelayFault.from_json(fault) for fault in payload["detections"]
            ],
            sequence=TestSequence.from_json(sequence) if sequence is not None else None,
            gate_words=payload.get("gate_words"),
        )


@dataclasses.dataclass
class PrefixOutcome:
    """Everything Phase A hands to Phase B and to the campaign bookkeeping."""

    records: List[PrefixRecord]
    detected: List[GateDelayFault]
    stop_reason: str

    @classmethod
    def from_journal(
        cls,
        prefix_records: Dict[int, Dict[str, object]],
        prefix_done: Optional[Dict[str, object]],
    ) -> "PrefixOutcome":
        """Rebuild the phase from its journal records, in sequence order.

        ``prefix_done`` is the phase's closing record; without it (an
        interrupted phase) the stop reason is ``None``.
        """
        records = [
            PrefixRecord.from_journal(prefix_records[seq]) for seq in sorted(prefix_records)
        ]
        detected = [fault for record in records for fault in record.detections]
        return cls(records, detected, (prefix_done or {}).get("reason"))

    @property
    def applied(self) -> int:
        """Number of random sequences generated and graded."""
        return len(self.records)

    @property
    def kept_sequences(self) -> List[TestSequence]:
        """The sequences that credited at least one fault, in order."""
        return [
            record.sequence for record in self.records if record.sequence is not None
        ]


class RandomPrefixEngine:
    """Phase A of the hybrid campaign: grade random sequences, strip faults.

    Args:
        circuit: circuit under test.
        config: prefix settings (:class:`PrefixConfig`).
        robust: the campaign's fault model — threads into the confirming
            TDsim pass so prefix crediting follows the same rule as the
            deterministic sequences.
        fill_value: deterministic fill for state bits the initialisation
            frames leave unknown, mirroring the flow's sequence assembly.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`; the
            prefix phase counts sequences graded, candidate detections and
            credited detections on it.
        backend: simulation backend (see :mod:`repro.fausim.backends`) used
            for the word-parallel grading, the initialisation-state replay
            and the TDsim confirmation.
        context: shared precomputed circuit data (built on demand); a
            campaign passes its own, so the circuit is analysed once.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: PrefixConfig,
        robust: bool = True,
        fill_value: int = 0,
        metrics: Optional[object] = None,
        backend: Optional[str] = None,
        context: Optional[TDgenContext] = None,
    ) -> None:
        self.circuit = circuit
        self.config = config
        self.robust = robust
        self.fill_value = fill_value
        self.metrics = resolve_metrics(metrics)
        self.backend = resolve_backend(backend)
        self.context = context or TDgenContext(circuit)
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
    # sequence construction
    # ------------------------------------------------------------------ #
    def generate_sequence(
        self, sequence_index: int, template_fault: GateDelayFault
    ) -> TestSequence:
        """Draw prefix sequence ``sequence_index`` and attach its algebra view.

        The sequence is a pure function of (circuit, config, index): its RNG
        is seeded by :func:`derive_prefix_seed` alone, so any resume or
        re-run regenerates the identical sequence.
        """
        rng = random.Random(derive_prefix_seed(self.config.seed, sequence_index))
        sequence = random_test_sequence(
            rng, self.circuit, self.config.sequence_length, template_fault
        )
        self._attach_pair_view(sequence)
        return sequence

    def _attach_pair_view(self, sequence: TestSequence) -> None:
        """Fill ``pi_pair_values`` / ``ppi_initial_values`` for the TDsim pass.

        The initial state at ``v1`` is whatever the initialisation frames
        provably establish from the all-unknown power-up state; remaining
        don't-care bits take the campaign's fill value — exactly the
        assumption :meth:`~repro.core.flow.SequentialDelayATPG._assemble_sequence`
        makes for deterministic sequences.
        """
        state: Dict[str, Optional[int]] = {}
        for vector in sequence.initialization_vectors:
            state = self._logic_simulator.clock(vector, state).next_state
        sequence.ppi_initial_values = {
            ppi: state[ppi] if state.get(ppi) is not None else self.fill_value
            for ppi in self.circuit.pseudo_primary_inputs
        }
        sequence.pi_pair_values = {
            pi: pi_value(sequence.v1[pi], sequence.v2[pi])
            for pi in self.circuit.primary_inputs
        }

    # ------------------------------------------------------------------ #
    # grading + confirmation
    # ------------------------------------------------------------------ #
    def evaluate(self, grader, sequence: TestSequence, live: int) -> Tuple[int, int]:
        """Credit one sequence: word-parallel grade, then TDsim confirmation.

        ``grader`` is the phase's :func:`~repro.core.verify.create_grader`
        over the universe and ``live`` the lane mask of its remaining faults.
        Returns ``(credited, candidates)``: the lane mask of the live faults
        the sequence detects under the eight-valued rule and the number of
        gross-delay candidates the cheap grade produced.  The expensive TDsim
        pass runs only when the grade found candidates.
        """
        candidates = 0
        for _, _, lanes in grader.grade(sequence, live):
            candidates |= lanes
        if not candidates:
            return 0, 0
        confirmed = set(
            simulate_sequence_detections(
                self.circuit, self.fault_simulator, sequence, self.backend
            )
        )
        credited = 0
        for lane in iter_lanes(candidates):
            if grader.faults[lane - 1] in confirmed:
                credited |= 1 << lane
        return credited, candidates.bit_count()

    # ------------------------------------------------------------------ #
    # the phase-A loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        faults: Sequence[GateDelayFault],
        deadline: Optional[float] = None,
        replay: Sequence[PrefixRecord] = (),
        on_record: Optional[Callable[[PrefixRecord], None]] = None,
    ) -> PrefixOutcome:
        """Run (or resume) the prefix phase over ``faults``.

        Args:
            faults: the campaign fault universe in enumeration order.
            deadline: optional :func:`time.perf_counter` timestamp; reaching
                it stops the phase with reason ``"deadline"`` (serial
                time-limited campaigns only — a deadline stop is wall-clock
                dependent and therefore not bit-reproducible).
            replay: journaled records of an interrupted prefix, in sequence
                order; their detections are applied without re-grading, their
                gate words are counted, and the stopping-rule window is
                rebuilt from their counters, so generation continues exactly
                where the interrupted run left off.
            on_record: called with every *newly applied* sequence's record
                (replayed records are not re-emitted); the orchestrator
                journals and streams them from here.
        """
        grader = create_grader(self._logic_simulator, faults)
        live = grader.all_lanes
        records: List[PrefixRecord] = []
        detected: List[GateDelayFault] = []
        window: collections.deque = collections.deque(maxlen=self.config.window)

        def apply(record: PrefixRecord, credited: int) -> None:
            nonlocal live
            if self.metrics.enabled:
                self.metrics.inc("repro_prefix_faults_graded_total", live.bit_count())
            live &= ~credited
            window.append(len(record.detections))
            records.append(record)
            count_prefix_record(self.metrics, record)
            detected.extend(record.detections)

        if replay:
            lanes_of: Dict[GateDelayFault, int] = {}
            for lane, fault in enumerate(grader.faults, start=1):
                lanes_of[fault] = lanes_of.get(fault, 0) | (1 << lane)
        for record in replay:
            if record.seq != len(records):
                raise ValueError(
                    f"prefix records out of order: expected seq {len(records)}, "
                    f"got {record.seq}"
                )
            if record.gate_words and self.metrics.enabled:
                self.metrics.inc("repro_sim_gate_words_total", record.gate_words)
            credited = 0
            for fault in record.detections:
                credited |= lanes_of.get(fault, 0)
            apply(record, credited)

        def _finish(reason: str) -> PrefixOutcome:
            logger.info(
                "prefix phase done: sequences=%d detected=%d stop=%s",
                len(records), len(detected), reason,
            )
            return PrefixOutcome(records, detected, reason)

        while True:
            if not live:
                return _finish(STOP_EXHAUSTED)
            if len(records) >= self.config.budget:
                return _finish(STOP_BUDGET)
            if (
                len(window) == self.config.window
                and sum(window) < self.config.min_window_detections
            ):
                return _finish(STOP_WINDOW)
            if deadline is not None and time.perf_counter() > deadline:
                return _finish(STOP_DEADLINE)

            words = self.metrics.counter_value("repro_sim_gate_words_total")
            template = grader.faults[(live & -live).bit_length() - 2]
            sequence = self.generate_sequence(len(records), template)
            credited, candidates = self.evaluate(grader, sequence, live)
            words = self.metrics.counter_value("repro_sim_gate_words_total") - words
            record = PrefixRecord(
                seq=len(records),
                candidates=candidates,
                detections=grader.faults_of(credited),
                sequence=sequence if credited else None,
                gate_words=int(words) if self.metrics.enabled else None,
            )
            apply(record, credited)
            if on_record is not None:
                on_record(record)


def count_prefix_record(metrics, record: PrefixRecord) -> None:
    """Count one applied prefix sequence on a metrics registry."""
    if metrics.enabled:
        metrics.inc("repro_prefix_sequences_total")
        metrics.inc("repro_prefix_candidates_total", record.candidates)
        metrics.inc("repro_prefix_detections_total", len(record.detections))
