"""Property-based differential fuzz harness for the backend registry.

A :class:`FuzzCase` is a fully serialisable bundle of everything one
differential check needs: a random circuit (as a :class:`CircuitSpec` that
rebuilds it through the public :class:`~repro.circuit.builder.CircuitBuilder`
API), a random fault site, a batch of random three-valued vector sequences,
and random partial assignments for the search-side layers.

:func:`check_case` replays the case through **all six layers** —
simulation (scalar clocking *and* the batched plane path), implication,
search kernels, grading, TDsim fault simulation and SEMILET pair frames —
once per registered backend, and returns every disagreement with the
reference oracle.  Both engines feed the one search-kernels class, so the
kernel layer compares what the kernels read — each state's slot column
(``column_sets``), each pair candidate's pair codes and D-frontier
(``columns``), the justification frame planes (``packed_planes``) — before
the objectives, backtraces, classifications and decisions the kernels make
from them; a failure names the column that diverged.  :func:`shrink_case` greedily
minimises a failing case (drop sequences/frames/outputs/dead gates, X out
assignments) while it keeps failing, and :func:`persist_case` writes the
minimised case to ``tests/fuzz/corpus/`` so the regression replays forever.

Everything is seeded: ``generate_case(seed)`` is deterministic, and a corpus
file round-trips through :meth:`FuzzCase.to_json` / :meth:`FuzzCase.from_json`
bit-exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.sets import single_value
from repro.algebra.values import PI_VALUES, DelayValue
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.core.clocking import ClockSchedule
from repro.core.results import TestSequence
from repro.core.verify import create_grader, grade_test_sequence, iter_lanes
from repro.faults.model import GateDelayFault, enumerate_delay_faults, sample_faults
from repro.fausim.backends import available_backends, create_simulator
from repro.fausim.logic_sim import simulate_sequence
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine
from repro.tdgen.simulation import FAULT_MASK, _inject, simulate_two_frame
from repro.tdsim.cpt import DelayFaultSimulator

#: Where minimised failing cases are persisted; every file in here is
#: replayed as a deterministic tier-1 regression by ``test_corpus.py``.
CORPUS_DIR = Path(__file__).parent / "corpus"

#: Delay-value lookup for serialising PI assignments ('0', '1', 'R', 'F').
_VALUE_OF_NAME: Dict[str, DelayValue] = {value.name: value for value in PI_VALUES}

_MULTI_INPUT = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)
_SINGLE_INPUT = (GateType.NOT, GateType.BUF)

#: Implication-state fields the engines must agree on.
_STATE_FIELDS = (
    "signal_sets",
    "frame1",
    "fault_line_set",
    "ppi_pair_sets",
    "conflict_signal",
)


# --------------------------------------------------------------------------- #
# circuit specification
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class CircuitSpec:
    """A serialisable netlist recipe built through the public builder API.

    Attributes:
        name: circuit name.
        inputs: primary input names.
        gates: ``(gate_type_name, output, fanins)`` in creation order.
        dffs: ``(q, data_source)`` flip-flop bindings.
        outputs: primary output names.
    """

    name: str
    inputs: List[str]
    gates: List[Tuple[str, str, List[str]]]
    dffs: List[Tuple[str, str]]
    outputs: List[str]

    def build(self) -> Circuit:
        """Materialise the spec into a :class:`~repro.circuit.netlist.Circuit`."""
        builder = CircuitBuilder(self.name)
        builder.inputs(self.inputs)
        for gate_type, output, fanins in self.gates:
            builder.gate(GateType[gate_type], output, list(fanins))
        for q, data in self.dffs:
            builder.dff(q, data)
        builder.outputs(self.outputs)
        return builder.build()

    def to_json(self) -> Dict[str, object]:
        """JSON representation (see :meth:`from_json`)."""
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "gates": [[t, o, list(f)] for t, o, f in self.gates],
            "dffs": [[q, d] for q, d in self.dffs],
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CircuitSpec":
        """Rebuild a spec from its :meth:`to_json` representation."""
        return cls(
            name=payload["name"],
            inputs=list(payload["inputs"]),
            gates=[(t, o, list(f)) for t, o, f in payload["gates"]],
            dffs=[(q, d) for q, d in payload["dffs"]],
            outputs=list(payload["outputs"]),
        )

    @classmethod
    def generate(cls, rng: random.Random, name: str) -> "CircuitSpec":
        """A seeded random synchronous circuit (all eight gate types)."""
        n_inputs = rng.randint(2, 6)
        n_ffs = rng.randint(0, 4)
        n_gates = rng.randint(4, 35)
        inputs = [f"i{index}" for index in range(n_inputs)]
        ffs = [f"q{index}" for index in range(n_ffs)]
        pool: List[str] = inputs + ffs
        gates: List[Tuple[str, str, List[str]]] = []
        gate_names: List[str] = []
        for index in range(n_gates):
            gate_name = f"g{index}"
            if rng.random() < 0.2:
                gates.append(
                    (rng.choice(_SINGLE_INPUT).name, gate_name, [rng.choice(pool)])
                )
            else:
                arity = rng.randint(2, min(4, len(pool)))
                gates.append(
                    (rng.choice(_MULTI_INPUT).name, gate_name, rng.sample(pool, arity))
                )
            gate_names.append(gate_name)
            pool.append(gate_name)
        dffs = [(ff, rng.choice(gate_names)) for ff in ffs]
        outputs = rng.sample(gate_names, rng.randint(1, min(3, len(gate_names))))
        return cls(name=name, inputs=inputs, gates=gates, dffs=dffs, outputs=outputs)


# --------------------------------------------------------------------------- #
# fuzz cases
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class FuzzCase:
    """One serialisable differential check across all six layers.

    Attributes:
        seed: generation seed (kept for reproduction messages).
        circuit: the netlist recipe.
        sequences: a batch of equally long three-valued PI vector sequences;
            ``sequences[0]`` doubles as the grading sequence.
        initial_state: three-valued PPI state for the scalar replay and the
            justification-layer frame.
        pi_assignment: partial eight-valued PI assignment ('0'/'1'/'R'/'F'
            by name, ``None`` = unassigned) for the implication layer.
        ppi_initial: partial binary PPI assignment for the implication layer.
        fault: a fault site (``GateDelayFault.to_json``), or ``None`` for the
            fault-free implication pass.
        robust: robustness mode of the implication layer.
        max_faults: grading-layer cap on the enumerated fault universe.
    """

    seed: int
    circuit: CircuitSpec
    sequences: List[List[Dict[str, Optional[int]]]]
    initial_state: Dict[str, Optional[int]]
    pi_assignment: Dict[str, Optional[str]]
    ppi_initial: Dict[str, Optional[int]]
    fault: Optional[Dict[str, object]]
    robust: bool = True
    max_faults: int = 12

    def to_json(self) -> Dict[str, object]:
        """JSON representation (see :meth:`from_json`)."""
        return {
            "seed": self.seed,
            "circuit": self.circuit.to_json(),
            "sequences": self.sequences,
            "initial_state": self.initial_state,
            "pi_assignment": self.pi_assignment,
            "ppi_initial": self.ppi_initial,
            "fault": self.fault,
            "robust": self.robust,
            "max_faults": self.max_faults,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FuzzCase":
        """Rebuild a case from its :meth:`to_json` representation."""
        return cls(
            seed=payload["seed"],
            circuit=CircuitSpec.from_json(payload["circuit"]),
            sequences=[
                [dict(vector) for vector in sequence]
                for sequence in payload["sequences"]
            ],
            initial_state=dict(payload["initial_state"]),
            pi_assignment=dict(payload["pi_assignment"]),
            ppi_initial=dict(payload["ppi_initial"]),
            fault=payload["fault"],
            robust=payload.get("robust", True),
            max_faults=payload.get("max_faults", 12),
        )


def generate_case(seed: int) -> FuzzCase:
    """The deterministic fuzz case of one seed."""
    rng = random.Random(0xF022 ^ (seed * 0x9E3779B1))
    spec = CircuitSpec.generate(rng, f"fuzz{seed}")
    circuit = spec.build()

    n_sequences = rng.randint(1, 6)
    n_frames = rng.randint(2, 8)
    sequences = [
        [
            {pi: rng.choice([0, 1, None]) for pi in circuit.primary_inputs}
            for _ in range(n_frames)
        ]
        for _ in range(n_sequences)
    ]
    initial_state = {
        ppi: rng.choice([0, 1, None]) for ppi in circuit.pseudo_primary_inputs
    }
    pi_assignment = {
        pi: (rng.choice(PI_VALUES).name if rng.random() < 0.6 else None)
        for pi in circuit.primary_inputs
    }
    ppi_initial = {
        ppi: (rng.randint(0, 1) if rng.random() < 0.6 else None)
        for ppi in circuit.pseudo_primary_inputs
    }
    faults = enumerate_delay_faults(circuit)
    fault = rng.choice(faults).to_json() if rng.random() < 0.85 else None
    return FuzzCase(
        seed=seed,
        circuit=spec,
        sequences=sequences,
        initial_state=initial_state,
        pi_assignment=pi_assignment,
        ppi_initial=ppi_initial,
        fault=fault,
        robust=rng.random() < 0.7,
    )


# --------------------------------------------------------------------------- #
# the differential check
# --------------------------------------------------------------------------- #
def _decode_pi_assignment(
    case: FuzzCase, circuit: Circuit
) -> Dict[str, Optional[DelayValue]]:
    """The implication-layer PI assignment as delay values."""
    return {
        pi: (_VALUE_OF_NAME[name] if name is not None else None)
        for pi, name in case.pi_assignment.items()
        if pi in circuit.signals
    }


def _decode_fault(case: FuzzCase, circuit: Circuit) -> Optional[GateDelayFault]:
    """The case's fault, or ``None`` when absent or shrunk away."""
    if case.fault is None:
        return None
    fault = GateDelayFault.from_json(case.fault)
    if fault not in set(enumerate_delay_faults(circuit)):
        return None
    return fault


def _check_simulation(case: FuzzCase, circuit: Circuit, failures: List[str]) -> None:
    """Layer 1: scalar clocking and the batched plane path, per backend."""
    reference = [
        simulate_sequence(circuit, sequence, initial_state=case.initial_state)
        for sequence in case.sequences
    ]
    for backend in available_backends():
        if backend == "reference":
            continue
        simulator = create_simulator(circuit, backend)
        # scalar clocking, frame by frame, against the reference frames
        state = dict(case.initial_state)
        for index, vector in enumerate(case.sequences[0]):
            frame = simulator.clock(vector, state)
            want = reference[0].frames[index]
            if frame.values != want.values or frame.next_state != want.next_state:
                failures.append(f"simulation[{backend}]: scalar frame {index} differs")
                break
            state = frame.next_state
        # the batched plane path (the packed fast pass)
        batch = simulator.sequence_batch(
            case.sequences,
            initial_states=[dict(case.initial_state) for _ in case.sequences],
        )
        for pattern, want in enumerate(reference):
            got = batch[pattern]
            if [frame.values for frame in got.frames] != [
                frame.values for frame in want.frames
            ]:
                failures.append(f"simulation[{backend}]: batch pattern {pattern} differs")
                break
            if got.final_state != want.final_state:
                failures.append(
                    f"simulation[{backend}]: batch final state {pattern} differs"
                )
                break


def _state_mismatch(got, want) -> Optional[str]:
    """The first state field, or the slot column the kernels read, that differs."""
    for field in _STATE_FIELDS:
        if getattr(got, field) != getattr(want, field):
            return field
    got_batch, got_index = got.packed_handle
    want_batch, want_index = want.packed_handle
    if got_batch.column_sets(got_index) != want_batch.column_sets(want_index):
        return "column_sets"
    return None


def _check_implication_and_kernels(
    case: FuzzCase, circuit: Circuit, failures: List[str]
) -> None:
    """Layers 2+3: states and slot columns, frame planes, kernel choices."""
    context = TDgenContext(circuit)
    fault = _decode_fault(case, circuit)
    pi_values = _decode_pi_assignment(case, circuit)
    ppi_initial = {
        ppi: value
        for ppi, value in case.ppi_initial.items()
        if ppi in circuit.signals
    }
    engines = {
        name: create_implication_engine(
            circuit, name, robust=case.robust, context=context
        )
        for name in available_backends()
    }
    oracle = engines.pop("reference")
    oracle_kernels = oracle.search_kernels()

    want_state = oracle.implicate(pi_values, ppi_initial, fault)
    free = [pi for pi, value in pi_values.items() if value is None][:2]
    candidates = [
        ("pi", name, value) for name in free for value in PI_VALUES
    ] + [None]
    want_batch = oracle.implicate_candidates(pi_values, ppi_initial, fault, candidates)

    just_pi = {
        pi: case.sequences[0][0].get(pi) for pi in circuit.primary_inputs
    }
    just_ppi = {
        ppi: case.initial_state.get(ppi) for ppi in circuit.pseudo_primary_inputs
    }
    want_just_frames = oracle.frame_candidates(just_pi, just_ppi, (None,))
    just_targets = [
        name
        for name in circuit.signals
        if not circuit.gates[name].is_input and not circuit.gates[name].is_dff
    ][:3]

    for name, engine in engines.items():
        got_state = engine.implicate(pi_values, ppi_initial, fault)
        field = _state_mismatch(got_state, want_state)
        if field is not None:
            failures.append(f"implication[{name}]: {field} differs")
        got_batch = engine.implicate_candidates(
            pi_values, ppi_initial, fault, candidates
        )
        # the incremental path, chained off the previous state like the
        # TDgen search chains it (base= takes a different code path)
        want_chained = oracle.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=want_state
        )
        got_chained = engine.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=got_state
        )
        for label, got_states, want_states in (
            ("candidate", got_batch, want_batch),
            ("chained candidate", got_chained, want_chained),
        ):
            for index in range(len(candidates)):
                field = _state_mismatch(got_states.state(index), want_states.state(index))
                if field is not None:
                    failures.append(f"implication[{name}]: {label} {index} {field} differs")
                    break

        # layer 3: the one kernels class over each engine's columns
        kernels = engine.search_kernels()
        if fault is not None:
            for index in range(len(candidates)):
                chained = got_chained.state(index)
                if not chained.has_conflict() and kernels.propagation_objective(
                    chained, fault
                ) != full_scan_objective(kernels, chained, fault):
                    failures.append(
                        f"kernels[{name}]: cone objective {index} differs from the full scan"
                    )
                    break
        if fault is not None and not want_state.has_conflict():
            want = oracle_kernels.propagation_objective(want_state, fault)
            got = kernels.propagation_objective(got_state, fault)
            if got != want:
                failures.append(f"kernels[{name}]: objective differs")
            elif want != full_scan_objective(oracle_kernels, want_state, fault):
                failures.append("kernels[reference]: cone objective differs from the full scan")
            elif want is not None and kernels.backtrace(
                got_state, fault, want, pi_values, ppi_initial
            ) != oracle_kernels.backtrace(
                want_state, fault, want, pi_values, ppi_initial
            ):
                failures.append(f"kernels[{name}]: backtrace differs")
        got_just_frames = engine.frame_candidates(just_pi, just_ppi, (None,))
        want_planes = want_just_frames.packed_planes()
        got_planes = got_just_frames.packed_planes()
        for plane in ("zero", "one"):
            if list(getattr(got_planes, plane)) != list(getattr(want_planes, plane)):
                failures.append(f"kernels[{name}]: justification {plane} plane differs")
        for signal in just_targets:
            for target in (0, 1):
                want = oracle_kernels.justification_backtrace(
                    want_just_frames, 0, signal, target, just_pi, just_ppi, True
                )
                got = kernels.justification_backtrace(
                    got_just_frames, 0, signal, target, just_pi, just_ppi, True
                )
                if got != want:
                    failures.append(
                        f"kernels[{name}]: justification {signal}->{target} differs"
                    )


def full_scan_objective(kernels, state, fault: GateDelayFault):
    """The D-frontier objective of ``state``, scanning every gate.

    The oracle of :meth:`~repro.tdgen.search.SearchKernels.propagation_objective`,
    which scans only the fault's cone: it finds the injected branch pin
    without the cone, tests every gate of the program for a definite fault
    value on an input under an undetermined output, and ranks them the same
    way.
    """
    compiled = kernels.compiled
    column = kernels.state_column(state)
    offsets = compiled.fanin_offsets
    branch_position = None
    if fault.line.is_branch:
        sink = compiled.gate_index_of.get(compiled.slot_of.get(fault.line.sink))
        if sink is not None and fault.line.pin is not None and fault.line.pin >= 0:
            position = offsets[sink] + fault.line.pin
            if (
                position < offsets[sink + 1]
                and compiled.fanin_flat[position] == compiled.slot_of[fault.line.signal]
            ):
                branch_position = position
    ranks = kernels._ranks()
    frontier = []
    for gate_index, out in enumerate(compiled.outputs):
        output_set = column[out]
        if not output_set & FAULT_MASK or output_set & (output_set - 1) == 0:
            continue
        for position in range(offsets[gate_index], offsets[gate_index + 1]):
            value_set = column[compiled.fanin_flat[position]]
            if position == branch_position:
                value_set = _inject(value_set, fault.fault_type)
            if value_set & (value_set - 1) == 0 and value_set & FAULT_MASK:
                frontier.append((ranks[out], compiled.signal_names[out], gate_index))
                break
    fault_type = fault.fault_type if branch_position is not None else None
    for _, _, gate_index in sorted(frontier):
        objective = kernels._off_path_objective(
            column, gate_index, branch_position, fault_type
        )
        if objective is not None:
            return objective
    return None


def _grading_sequence(case: FuzzCase, faults: Sequence[GateDelayFault]) -> TestSequence:
    """The grading-layer test sequence built from the case's first sequence."""
    frames = case.sequences[0]
    fast_index = max(1, len(frames) // 2)
    schedule = ClockSchedule.for_sequence(
        initialization_frames=fast_index - 1,
        propagation_frames=len(frames) - fast_index - 1,
    )
    fault = _decode_fault(case, case.circuit.build()) or faults[0]
    return TestSequence(
        fault=fault,
        initialization_vectors=frames[: fast_index - 1],
        v1=frames[fast_index - 1],
        v2=frames[fast_index],
        propagation_vectors=frames[fast_index + 1 :],
        clock_schedule=schedule,
        observation_point="",
        observed_at_po=True,
    )


def _check_grading(case: FuzzCase, circuit: Circuit, failures: List[str]) -> None:
    """Layer 4: fault grading verdicts, per backend, with and without a live mask."""
    faults = sample_faults(enumerate_delay_faults(circuit), case.max_faults)
    if not faults or len(case.sequences[0]) < 2:
        return
    sequence = _grading_sequence(case, faults)
    want = [
        (grade.detected, grade.detection_frame, grade.primary_output)
        for grade in grade_test_sequence(circuit, sequence, faults, backend="reference")
    ]
    for backend in available_backends():
        if backend == "reference":
            continue
        got = [
            (grade.detected, grade.detection_frame, grade.primary_output)
            for grade in grade_test_sequence(circuit, sequence, faults, backend=backend)
        ]
        if got != want:
            first = next(index for index in range(len(want)) if got[index] != want[index])
            failures.append(
                f"grading[{backend}]: fault {faults[first]} verdict differs "
                f"({got[first]} != {want[first]})"
            )
    # Once more through a universe-resident grader and a live-lane mask of
    # its own RNG (the other layers' inputs and every corpus file stay as
    # they were): a live lane gets its reference verdict, a dead one none.
    rng = random.Random(f"grade:{case.seed}")
    live = 0
    for lane in range(1, len(faults) + 1):
        if rng.random() < 0.5:
            live |= 1 << lane
    for backend in available_backends():
        grader = create_grader(create_simulator(circuit, backend), faults)
        got = [(False, None, None)] * len(faults)
        for frame, po, lanes in grader.grade(sequence, live):
            for lane in iter_lanes(lanes):
                got[lane - 1] = (True, frame, po)
        expected = [
            verdict if live >> lane & 1 else (False, None, None)
            for lane, verdict in enumerate(want, start=1)
        ]
        if got != expected:
            first = next(index for index in range(len(want)) if got[index] != expected[index])
            failures.append(
                f"grading[{backend}, live mask]: fault {faults[first]} verdict differs "
                f"({got[first]} != {expected[first]})"
            )


def _check_tdsim(case: FuzzCase, circuit: Circuit, failures: List[str]) -> None:
    """Layer 5: TDsim detections and their order, and its injection batches.

    The pattern is the case's implication-layer assignment with every
    unassigned PI and PPI filled in.  The fill-ins, the observable PPOs and
    the required PPO values (the good machine's captured value, sometimes
    flipped so the invalidation check rejects) come from an RNG of their
    own, so the other layers' inputs, every seed and every corpus file stay
    as they were.  Every injection batch the reference simulation drives
    (stem analyses, PPO confirmations) and one batch of faults from a
    further RNG are then compared slot column by slot column between the
    engines; a failure names the signal that diverged.
    """
    rng = random.Random(f"tdsim:{case.seed}")
    pi_values: Dict[str, DelayValue] = {}
    for pi in circuit.primary_inputs:
        drawn = rng.choice(PI_VALUES)
        name = case.pi_assignment.get(pi)
        pi_values[pi] = _VALUE_OF_NAME[name] if name is not None else drawn
    ppi_initial: Dict[str, int] = {}
    for ppi in circuit.pseudo_primary_inputs:
        drawn = rng.randint(0, 1)
        value = case.ppi_initial.get(ppi)
        ppi_initial[ppi] = value if value is not None else drawn
    good = simulate_two_frame(
        TDgenContext(circuit), pi_values, ppi_initial, robust=case.robust
    )
    observable_ppos: List[str] = []
    required_ppo_values: Dict[str, int] = {}
    for ppo in circuit.pseudo_primary_outputs:
        observable = rng.random() < 0.7
        required = rng.random() < 0.6
        flip = rng.random() < 0.15
        if observable:
            observable_ppos.append(ppo)
        if required:
            final = single_value(good.signal_sets[ppo]).final
            required_ppo_values[ppo] = final ^ flip

    def detections(backend: str, driven: Optional[List[list]] = None):
        simulator = DelayFaultSimulator(circuit, robust=case.robust, backend=backend)
        if driven is not None:
            # Record every injection batch the simulation drives.
            implicate_faults = simulator._implication.implicate_faults

            def recording(pi, ppi, faults, base=None):
                driven.append(list(faults))
                return implicate_faults(pi, ppi, faults, base=base)

            simulator._implication.implicate_faults = recording
        return [
            (detection.fault, detection.observation_point, detection.through_ppo)
            for detection in simulator.simulate(
                pi_values,
                ppi_initial,
                observable_ppos=observable_ppos,
                required_ppo_values=required_ppo_values,
            )
        ]

    driven: List[list] = []
    want = detections("reference", driven)
    for backend in available_backends():
        if backend == "reference":
            continue
        got = detections(backend)
        if got != want:
            failures.append(
                f"tdsim[{backend}]: detections differ "
                f"({len(got)} vs {len(want)} reference)"
            )

    # The injection batches themselves, column by column: every stem and
    # candidate batch the simulation drove, plus one batch of faults drawn
    # from an RNG of its own (every seed and corpus file replays the rest
    # unchanged).  The packed batches run event-driven on the good machine.
    batch_rng = random.Random(f"tdsim-batch:{case.seed}")
    universe = enumerate_delay_faults(circuit)
    driven.append([None] + batch_rng.sample(universe, min(len(universe), 8)))
    oracle = create_implication_engine(circuit, "reference", robust=case.robust)
    for backend in available_backends():
        if backend == "reference":
            continue
        engine = create_implication_engine(circuit, backend, robust=case.robust)
        good = engine.implicate(pi_values, ppi_initial)
        for faults in driven:
            want_batch = oracle.implicate_faults(pi_values, ppi_initial, faults)
            got_batch = engine.implicate_faults(pi_values, ppi_initial, faults, base=good)
            for index, fault in enumerate(faults):
                want_column = want_batch.column_sets(index)
                got_column = got_batch.column_sets(index)
                if got_column != want_column:
                    slot = next(
                        slot
                        for slot, value_set in enumerate(want_column)
                        if got_column[slot] != value_set
                    )
                    failures.append(
                        f"tdsim[{backend}]: injection batch slot {index} ({fault}) "
                        f"differs at {engine.compiled.signal_names[slot]}"
                    )
                    return


def _check_pair_frames(case: FuzzCase, circuit: Circuit, failures: List[str]) -> None:
    """Layer 6: SEMILET pair frames along a chained decision sequence.

    Captured good/faulty states, the free PPIs, the goal and the decision
    variables come from an RNG of their own (as in :func:`_check_tdsim`), so
    every seed and corpus file replays the other layers unchanged.  Each
    decision's batch is built from the previous view (``base=``), the way
    the propagation PODEM chains them: event-driven on the packed backend,
    from scratch on the reference one.  Every candidate's pairs, pair codes,
    D-frontier gates, frame class and D-frontier decision must agree.
    """
    rng = random.Random(f"pair:{case.seed}")
    good: Dict[str, Optional[int]] = {}
    faulty: Dict[str, Optional[int]] = {}
    for ppi in circuit.pseudo_primary_inputs:
        value = rng.choice([0, 1, None])
        flip = rng.random() < 0.5
        good[ppi] = value
        faulty[ppi] = 1 - value if value is not None and flip else value
    free = {ppi: None for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.7}
    goal = rng.choice(["po", "ppo"])
    blocked = {ppi for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.3}
    variables = [(pi, True) for pi in circuit.primary_inputs]
    variables += [(ppi, False) for ppi in free]
    rng.shuffle(variables)
    steps = []
    for name, is_pi in variables[:8]:
        # The search sets binary values; ``None`` (a free PPI falling back
        # to the captured states) is part of the engine contract too.
        values = rng.choice([[0, 1], [1, 0]] if is_pi else [[0, 1], [1, 0], [1, None, 0]])
        steps.append((name, is_pi, values, rng.randrange(len(values))))

    for backend in available_backends():
        if backend == "reference":
            continue
        engines = [
            create_implication_engine(circuit, name, robust=case.robust)
            for name in ("reference", backend)
        ]
        kernels = [engine.search_kernels() for engine in engines]
        targets = [kernel.pair_frame_targets(goal, blocked) for kernel in kernels]
        pi_values = {pi: None for pi in circuit.primary_inputs}
        free_values = dict(free)
        views = [
            (engine.pair_frame_candidates(pi_values, good, faulty, free_values, (None,)), 0)
            for engine in engines
        ]
        for step, (name, is_pi, values, cursor) in enumerate(steps):
            candidates = [(name, is_pi, value) for value in values]
            batches = [
                engine.pair_frame_candidates(
                    pi_values, good, faulty, free_values, candidates, base=view
                )
                for engine, view in zip(engines, views)
            ]
            assignment = pi_values if is_pi else free_values
            for index, value in enumerate(values):
                assignment[name] = value
                want, got = [
                    (
                        dict(batch.pairs(index).items()),
                        batch.columns(index).codes,
                        batch.columns(index).frontier,
                        kernel.classify_pair_frame(batch, index, target),
                        kernel.pair_frame_decision(batch, index, pi_values, free_values),
                    )
                    for batch, kernel, target in zip(batches, kernels, targets)
                ]
                for label, want_part, got_part in zip(
                    ("pairs", "pair codes", "D-frontier", "classification", "decision"),
                    want,
                    got,
                ):
                    if got_part != want_part:
                        failures.append(
                            f"pair frames[{backend}]: step {step} candidate {index} "
                            f"{label} differs"
                        )
                        return
            assignment[name] = values[cursor]
            views = [(batch, cursor) for batch in batches]


def check_case(case: FuzzCase) -> List[str]:
    """Replay ``case`` through all six layers; returns every disagreement."""
    failures: List[str] = []
    circuit = case.circuit.build()
    _check_simulation(case, circuit, failures)
    _check_implication_and_kernels(case, circuit, failures)
    _check_grading(case, circuit, failures)
    _check_tdsim(case, circuit, failures)
    _check_pair_frames(case, circuit, failures)
    return failures


# --------------------------------------------------------------------------- #
# shrinking
# --------------------------------------------------------------------------- #
def _shrink_candidates(case: FuzzCase) -> List[FuzzCase]:
    """Every one-step-smaller variant of ``case``, most aggressive first."""
    variants: List[FuzzCase] = []

    def clone() -> FuzzCase:
        return FuzzCase.from_json(json.loads(json.dumps(case.to_json())))

    if len(case.sequences) > 1:
        for index in range(len(case.sequences)):
            variant = clone()
            del variant.sequences[index]
            variants.append(variant)
    if len(case.sequences[0]) > 2:
        for index in range(len(case.sequences[0])):
            variant = clone()
            for sequence in variant.sequences:
                del sequence[index]
            variants.append(variant)
    spec = case.circuit
    if len(spec.outputs) > 1:
        for index in range(len(spec.outputs)):
            variant = clone()
            del variant.circuit.outputs[index]
            variants.append(variant)
    # gates (or flip-flops) that feed nothing can be dropped outright
    referenced = set(spec.outputs)
    for _, _, fanins in spec.gates:
        referenced.update(fanins)
    for _, data in spec.dffs:
        referenced.add(data)
    for index, (_, output, _) in enumerate(spec.gates):
        if output not in referenced:
            variant = clone()
            del variant.circuit.gates[index]
            variants.append(variant)
    for index, (q, _) in enumerate(spec.dffs):
        if q not in referenced:
            variant = clone()
            del variant.circuit.dffs[index]
            variant.initial_state.pop(q, None)
            variant.ppi_initial.pop(q, None)
            variants.append(variant)
    if case.fault is not None:
        variant = clone()
        variant.fault = None
        variants.append(variant)
    # X out individual assignments last (cheapest simplification)
    for pattern, sequence in enumerate(case.sequences):
        for frame, vector in enumerate(sequence):
            for name, value in vector.items():
                if value is not None:
                    variant = clone()
                    variant.sequences[pattern][frame][name] = None
                    variants.append(variant)
    for mapping in ("pi_assignment", "ppi_initial", "initial_state"):
        for name, value in getattr(case, mapping).items():
            if value is not None:
                variant = clone()
                getattr(variant, mapping)[name] = None
                variants.append(variant)
    return variants


def _is_valid(case: FuzzCase) -> bool:
    """True when the (possibly shrunk) case still builds a legal circuit."""
    try:
        circuit = case.circuit.build()
    except Exception:
        return False
    return bool(circuit.primary_outputs)


def shrink_case(case: FuzzCase, predicate=None, max_checks: int = 250) -> FuzzCase:
    """Greedily minimise ``case`` while ``predicate`` stays true.

    The default predicate is "the differential check still fails", which is
    the fuzzing loop's shrink; corpus curation passes structural predicates
    instead (e.g. "the grading layer still detects a fault").
    """
    if predicate is None:
        predicate = lambda candidate: bool(check_case(candidate))  # noqa: E731
    if not predicate(case):
        return case
    checks = 0
    shrunk = True
    while shrunk and checks < max_checks:
        shrunk = False
        for variant in _shrink_candidates(case):
            if checks >= max_checks:
                break
            if not _is_valid(variant):
                continue
            checks += 1
            if predicate(variant):
                case = variant
                shrunk = True
                break
    return case


# --------------------------------------------------------------------------- #
# corpus persistence
# --------------------------------------------------------------------------- #
def persist_case(case: FuzzCase, failures: Sequence[str], note: str = "") -> Path:
    """Write a (minimised) failing case into the regression corpus."""
    payload = {
        "note": note or "persisted by the differential fuzz harness",
        "failures_at_discovery": list(failures),
        "case": case.to_json(),
    }
    blob = json.dumps(payload, indent=2, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    CORPUS_DIR.mkdir(exist_ok=True)
    path = CORPUS_DIR / f"fuzz_{digest}.json"
    path.write_text(blob + "\n", encoding="utf-8")
    return path


def load_corpus() -> List[Tuple[Path, FuzzCase]]:
    """Every checked-in differential corpus case, sorted by file name.

    Incremental-equivalence cases (``"kind": "incremental"``) live in the
    same directory but replay through :func:`check_incremental_case`; see
    :func:`load_incremental_corpus`.
    """
    if not CORPUS_DIR.is_dir():
        return []
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("kind") == "incremental":
            continue
        cases.append((path, FuzzCase.from_json(payload["case"])))
    return cases


# --------------------------------------------------------------------------- #
# incremental-equivalence fuzzing
# --------------------------------------------------------------------------- #
#: Perturbation kinds :class:`PerturbSpec` can describe.  ``add_input`` and
#: ``add_dff`` change the primary-input or flip-flop list, which invalidates
#: the whole fault universe.
PERTURB_KINDS = ("type_flip", "rewire", "add_gate", "remove_gate", "add_input", "add_dff")


@dataclasses.dataclass
class PerturbSpec:
    """One serialisable single-edit netlist perturbation.

    Applied to a :class:`CircuitSpec` (never a built circuit) so a perturbed
    case round-trips through JSON exactly like the base spec.

    Attributes:
        kind: one of :data:`PERTURB_KINDS`.
        gate: the edited gate's output name (the *new* gate's, primary
            input's or flip-flop's name for ``add_gate``/``add_input``/
            ``add_dff``).
        gate_type: replacement/new gate type name (``type_flip``/``add_gate``;
            for ``add_input`` the type of the gate observing the new input).
        pin: fanin pin index being rewired (``rewire``).
        source: replacement fanin source (``rewire``); the new flip-flop's
            data input (``add_dff``).
        fanins: the new gate's fanin list (``add_gate``); the observing
            gate's other fanins (``add_input``).
        attach: how an added gate is observed — ``"po"`` (new primary
            output), ``"dff:<q>"`` (repoint that flip-flop's data input) or
            ``None`` (left dangling; still a structural delta).
    """

    kind: str
    gate: str
    gate_type: Optional[str] = None
    pin: Optional[int] = None
    source: Optional[str] = None
    fanins: List[str] = dataclasses.field(default_factory=list)
    attach: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        """JSON representation (see :meth:`from_json`)."""
        return {
            "kind": self.kind,
            "gate": self.gate,
            "gate_type": self.gate_type,
            "pin": self.pin,
            "source": self.source,
            "fanins": list(self.fanins),
            "attach": self.attach,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "PerturbSpec":
        """Rebuild a perturbation from its :meth:`to_json` representation."""
        return cls(
            kind=payload["kind"],
            gate=payload["gate"],
            gate_type=payload.get("gate_type"),
            pin=payload.get("pin"),
            source=payload.get("source"),
            fanins=list(payload.get("fanins", [])),
            attach=payload.get("attach"),
        )

    def apply(self, spec: CircuitSpec) -> CircuitSpec:
        """The perturbed copy of ``spec`` (raises ``ValueError`` if stale).

        A shrink step may have removed the edited gate; raising keeps the
        shrinker honest (such variants are rejected as invalid).
        """
        out = CircuitSpec.from_json(json.loads(json.dumps(spec.to_json())))
        index = next(
            (i for i, (_, o, _) in enumerate(out.gates) if o == self.gate), None
        )
        if self.kind == "type_flip":
            if index is None:
                raise ValueError(f"no gate {self.gate!r} to flip")
            _, output, fanins = out.gates[index]
            out.gates[index] = (self.gate_type, output, fanins)
        elif self.kind == "rewire":
            if index is None:
                raise ValueError(f"no gate {self.gate!r} to rewire")
            gate_type, output, fanins = out.gates[index]
            if self.pin >= len(fanins) or not _defined_before(out, index, self.source):
                raise ValueError("stale rewire")
            fanins = list(fanins)
            fanins[self.pin] = self.source
            out.gates[index] = (gate_type, output, fanins)
        elif self.kind == "add_gate":
            if index is not None:
                raise ValueError(f"gate {self.gate!r} already exists")
            pool = set(out.inputs) | {q for q, _ in out.dffs}
            pool.update(o for _, o, _ in out.gates)
            if not set(self.fanins) <= pool:
                raise ValueError("stale add_gate fanins")
            out.gates.append((self.gate_type, self.gate, list(self.fanins)))
            if self.attach == "po":
                out.outputs.append(self.gate)
            elif self.attach is not None and self.attach.startswith("dff:"):
                q = self.attach[4:]
                slot = next((i for i, (ff, _) in enumerate(out.dffs) if ff == q), None)
                if slot is None:
                    raise ValueError(f"no flip-flop {q!r} to repoint")
                out.dffs[slot] = (q, self.gate)
        elif self.kind == "remove_gate":
            if index is None:
                raise ValueError(f"no gate {self.gate!r} to remove")
            replacement = out.gates[index][2][0]
            del out.gates[index]
            out.gates = [
                (t, o, [replacement if s == self.gate else s for s in f])
                for t, o, f in out.gates
            ]
            out.dffs = [
                (q, replacement if d == self.gate else d) for q, d in out.dffs
            ]
            out.outputs = [o for o in out.outputs if o != self.gate]
            if not out.outputs:
                raise ValueError("removal would leave no primary outputs")
        elif self.kind in ("add_input", "add_dff"):
            pool = set(out.inputs) | {q for q, _ in out.dffs}
            pool.update(o for _, o, _ in out.gates)
            if self.gate in pool:
                raise ValueError(f"signal {self.gate!r} already exists")
            if self.kind == "add_input":
                # The new input is observed through a new gate at a new PO.
                if not set(self.fanins) <= pool:
                    raise ValueError("stale add_input fanins")
                out.inputs.append(self.gate)
                observer = f"{self.gate}_obs"
                out.gates.append((self.gate_type, observer, [self.gate, *self.fanins]))
                out.outputs.append(observer)
            else:
                # The new flip-flop registers an existing signal; a new PO reads it.
                if self.source not in pool:
                    raise ValueError("stale add_dff source")
                out.dffs.append((self.gate, self.source))
                out.outputs.append(self.gate)
        else:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        return out

    @classmethod
    def generate(cls, rng: random.Random, spec: CircuitSpec) -> "PerturbSpec":
        """A seeded random perturbation that is valid for ``spec``."""
        for _ in range(32):
            kind = rng.choice(PERTURB_KINDS)
            candidate = cls._generate_one(rng, spec, kind)
            if candidate is None:
                continue
            try:
                candidate.apply(spec).build()
            except Exception:
                continue
            return candidate
        # Always-valid fallback: flip the first gate's type.
        gate_type, output, fanins = spec.gates[0]
        family = _SINGLE_INPUT if len(fanins) == 1 else _MULTI_INPUT
        flipped = rng.choice([t for t in family if t.name != gate_type])
        return cls(kind="type_flip", gate=output, gate_type=flipped.name)

    @classmethod
    def _generate_one(
        cls, rng: random.Random, spec: CircuitSpec, kind: str
    ) -> Optional["PerturbSpec"]:
        """One random attempt at a ``kind`` perturbation, or ``None``."""
        if kind == "type_flip":
            gate_type, output, fanins = rng.choice(spec.gates)
            family = _SINGLE_INPUT if len(fanins) == 1 else _MULTI_INPUT
            choices = [t for t in family if t.name != gate_type]
            if not choices:
                return None
            return cls(kind="type_flip", gate=output, gate_type=rng.choice(choices).name)
        if kind == "rewire":
            index = rng.randrange(len(spec.gates))
            _, output, fanins = spec.gates[index]
            pool = list(spec.inputs) + [q for q, _ in spec.dffs]
            pool += [o for _, o, _ in spec.gates[:index]]
            pin = rng.randrange(len(fanins))
            choices = [s for s in pool if s != fanins[pin]]
            if not choices:
                return None
            return cls(kind="rewire", gate=output, pin=pin, source=rng.choice(choices))
        pool = list(spec.inputs) + [q for q, _ in spec.dffs]
        pool += [o for _, o, _ in spec.gates]
        if kind == "add_gate":
            if rng.random() < 0.25:
                gate_type, fanins = rng.choice(_SINGLE_INPUT), [rng.choice(pool)]
            else:
                arity = rng.randint(2, min(3, len(pool)))
                gate_type, fanins = rng.choice(_MULTI_INPUT), rng.sample(pool, arity)
            roll = rng.random()
            if roll < 0.45:
                attach: Optional[str] = "po"
            elif roll < 0.75 and spec.dffs:
                attach = f"dff:{rng.choice(spec.dffs)[0]}"
            else:
                attach = None
            return cls(
                kind="add_gate",
                gate="p0",
                gate_type=gate_type.name,
                fanins=fanins,
                attach=attach,
            )
        if kind == "add_input":
            return cls(
                kind="add_input",
                gate="x0",
                gate_type=rng.choice(_MULTI_INPUT).name,
                fanins=[rng.choice(pool)],
            )
        if kind == "add_dff":
            return cls(kind="add_dff", gate="r0", source=rng.choice(pool))
        # remove_gate
        removable = [o for _, o, _ in spec.gates if o not in spec.outputs or len(spec.outputs) > 1]
        if not removable:
            return None
        return cls(kind="remove_gate", gate=rng.choice(removable))


def _defined_before(spec: CircuitSpec, index: int, source: str) -> bool:
    """True when ``source`` is legal as a fanin of gate ``index`` (acyclic)."""
    if source in spec.inputs or any(q == source for q, _ in spec.dffs):
        return True
    return any(o == source for _, o, _ in spec.gates[:index])


@dataclasses.dataclass
class IncrementalFuzzCase:
    """One serialisable incremental-equivalence check.

    A base circuit, a single-edit perturbation and the campaign settings
    (robustness mode, simulation ``backend``, optional base-campaign cap,
    optional random prefix).  :func:`check_incremental_case` runs the base
    campaign, ingests it into a throwaway store, and asserts the incremental
    re-run on the perturbed circuit is fingerprint-identical to a
    from-scratch campaign.
    """

    seed: int
    circuit: CircuitSpec
    perturb: PerturbSpec
    robust: bool = True
    backend: Optional[str] = None
    #: Optional ``max_target_faults`` cap on the *base* campaign, so the
    #: incremental loop's retarget-on-missing-record path is fuzzed too.
    base_cap: Optional[int] = None
    #: Hybrid campaigns: a small random prefix runs before the deterministic
    #: phase of all three campaigns.  Off by default, so corpus cases written
    #: before the field existed replay unchanged.
    rpg: bool = False
    #: Worker count of the re-run: 1 runs :func:`run_incremental`, 2 runs
    #: ``run_campaign(..., incremental_from=...)`` on two workers.  1 by
    #: default, so older corpus cases replay unchanged.
    jobs: int = 1

    def to_json(self) -> Dict[str, object]:
        """JSON representation (see :meth:`from_json`)."""
        return {
            "kind": "incremental",
            "seed": self.seed,
            "circuit": self.circuit.to_json(),
            "perturb": self.perturb.to_json(),
            "robust": self.robust,
            "backend": self.backend,
            "base_cap": self.base_cap,
            "rpg": self.rpg,
            "jobs": self.jobs,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "IncrementalFuzzCase":
        """Rebuild a case from its :meth:`to_json` representation."""
        return cls(
            seed=payload["seed"],
            circuit=CircuitSpec.from_json(payload["circuit"]),
            perturb=PerturbSpec.from_json(payload["perturb"]),
            robust=payload.get("robust", True),
            backend=payload.get("backend"),
            base_cap=payload.get("base_cap"),
            rpg=payload.get("rpg", False),
            jobs=payload.get("jobs", 1),
        )


def generate_incremental_case(seed: int) -> IncrementalFuzzCase:
    """The deterministic incremental-equivalence case of one seed."""
    rng = random.Random(0x1CC0 ^ (seed * 0x9E3779B1))
    spec = CircuitSpec.generate(rng, f"incr{seed}")
    perturb = PerturbSpec.generate(rng, spec)
    return IncrementalFuzzCase(
        seed=seed,
        circuit=spec,
        perturb=perturb,
        robust=rng.random() < 0.6,
        backend=rng.choice(list(available_backends())),
        base_cap=rng.randint(3, 12) if rng.random() < 0.25 else None,
        rpg=rng.random() < 0.3,
        # Drawn last, so every earlier field of a seed's case is unchanged.
        jobs=2 if rng.random() < 0.25 else 1,
    )


def _incremental_config(case: IncrementalFuzzCase):
    """The serial campaign settings an incremental case runs under.

    Tight backtrack limits keep each of the three campaigns per check cheap;
    they are part of the config digest, so base and re-run agree on them.
    A hybrid case adds a short random prefix (budget 16, window 4).
    """
    from repro.orchestrate.coordinator import OrchestratorConfig

    return OrchestratorConfig(
        jobs=1,
        robust=case.robust,
        backend=case.backend,
        local_backtrack_limit=8,
        sequential_backtrack_limit=8,
        max_local_retries=2,
        rpg_prefix=case.rpg,
        rpg_budget=16,
        rpg_window=4,
    )


def check_incremental_case(case: IncrementalFuzzCase) -> List[str]:
    """Replay an incremental-equivalence case; returns every violation.

    Three properties are checked:

    1. **Equivalence** — the incremental campaign's fingerprint is
       bit-identical to a from-scratch serial campaign on the perturbed
       circuit (per-fault statuses, sequences, detection lists, Table-3
       counters; only ``cpu_seconds`` is exempt).
    2. **Partition** — kept plus invalidated is exactly the perturbed
       circuit's fault universe, and the residue is exactly the set of
       faults whose signal lies in the influence cone.
    3. **Accounting** — every recorded fault was either reused from the
       store or freshly re-targeted.

    A ``jobs == 2`` case re-runs through the orchestrator on two workers.
    """
    import os
    import tempfile

    from repro.core.flow import SequentialDelayATPG
    from repro.fausim.compile import compile_circuit, diff_compiled
    from repro.orchestrate import run_campaign
    from repro.store.incremental import influence_cone, invalidate, run_incremental
    from repro.store.store import CampaignStore

    failures: List[str] = []
    config = _incremental_config(case)
    old = case.circuit.build()
    new = case.perturb.apply(case.circuit).build()

    prefix = config.prefix_config()
    base_result = SequentialDelayATPG(old, **config.atpg_kwargs()).run(
        max_target_faults=case.base_cap, prefix=prefix
    )
    scratch = SequentialDelayATPG(new, **config.atpg_kwargs()).run(prefix=prefix)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.sqlite")
        with CampaignStore(path) as store:
            store.ingest_result(base_result, circuit=old, config=config)
            if case.jobs == 1:
                outcome = run_incremental(new, store, config)
                result, summary = outcome.result, outcome.summary()
        if case.jobs > 1:
            run = run_campaign(
                new, dataclasses.replace(config, jobs=case.jobs), incremental_from=path
            )
            result, summary = run.result, run.incremental

    want = scratch.fingerprint()
    got = result.fingerprint()
    if got != want:
        keys = [key for key in want if got.get(key) != want.get(key)]
        failures.append(f"equivalence: fingerprint differs in {keys}")

    universe = enumerate_delay_faults(new)
    delta = diff_compiled(compile_circuit(old), compile_circuit(new))
    cone = influence_cone(new, delta)
    kept, residue = invalidate(universe, cone)
    if summary["kept"] != len(kept) or summary["invalidated"] != len(residue):
        failures.append(
            f"partition: outcome kept/invalidated {summary['kept']}/{summary['invalidated']} "
            f"!= recomputed {len(kept)}/{len(residue)}"
        )
    if len(kept) + len(residue) != len(universe):
        failures.append("partition: kept + residue != fault universe")
    misplaced = [f for f in residue if f.line.signal not in cone]
    misplaced += [f for f in kept if f.line.signal in cone]
    if misplaced:
        failures.append(f"partition: {misplaced[0]} on the wrong side of the cone")

    if summary["reused"] + summary["retargeted"] != result.targeted:
        failures.append(
            f"accounting: reused {summary['reused']} + retargeted {summary['retargeted']} "
            f"!= targeted {result.targeted}"
        )
    if delta.interface_changed and summary["reused"]:
        failures.append("partition: an interface edit reused stored records")
    return failures


def _is_valid_incremental(case: IncrementalFuzzCase) -> bool:
    """True when base and perturbed circuits both still build."""
    try:
        old = case.circuit.build()
        new = case.perturb.apply(case.circuit).build()
    except Exception:
        return False
    return bool(old.primary_outputs) and bool(new.primary_outputs)


def _shrink_incremental_candidates(
    case: IncrementalFuzzCase,
) -> List[IncrementalFuzzCase]:
    """Every one-step-smaller variant of an incremental case."""
    variants: List[IncrementalFuzzCase] = []

    def clone() -> IncrementalFuzzCase:
        return IncrementalFuzzCase.from_json(json.loads(json.dumps(case.to_json())))

    spec = case.circuit
    if len(spec.outputs) > 1:
        for index in range(len(spec.outputs)):
            variant = clone()
            del variant.circuit.outputs[index]
            variants.append(variant)
    referenced = set(spec.outputs) | {case.perturb.gate, case.perturb.source or ""}
    referenced.update(case.perturb.fanins)
    for _, _, fanins in spec.gates:
        referenced.update(fanins)
    for _, data in spec.dffs:
        referenced.add(data)
    for index, (_, output, _) in enumerate(spec.gates):
        if output not in referenced:
            variant = clone()
            del variant.circuit.gates[index]
            variants.append(variant)
    for index, (q, _) in enumerate(spec.dffs):
        if q not in referenced:
            variant = clone()
            del variant.circuit.dffs[index]
            variants.append(variant)
    if case.base_cap is not None:
        variant = clone()
        variant.base_cap = None
        variants.append(variant)
    if case.rpg:
        variant = clone()
        variant.rpg = False
        variants.append(variant)
    if case.jobs > 1:
        variant = clone()
        variant.jobs = 1
        variants.append(variant)
    return variants


def shrink_incremental_case(
    case: IncrementalFuzzCase, predicate=None, max_checks: int = 60
) -> IncrementalFuzzCase:
    """Greedily minimise a failing incremental case while it keeps failing."""
    if predicate is None:
        predicate = lambda candidate: bool(check_incremental_case(candidate))  # noqa: E731
    if not predicate(case):
        return case
    checks = 0
    shrunk = True
    while shrunk and checks < max_checks:
        shrunk = False
        for variant in _shrink_incremental_candidates(case):
            if checks >= max_checks:
                break
            if not _is_valid_incremental(variant):
                continue
            checks += 1
            if predicate(variant):
                case = variant
                shrunk = True
                break
    return case


def persist_incremental_case(
    case: IncrementalFuzzCase, failures: Sequence[str], note: str = ""
) -> Path:
    """Write a (minimised) incremental case into the regression corpus."""
    payload = {
        "kind": "incremental",
        "note": note or "persisted by the incremental-equivalence fuzz harness",
        "failures_at_discovery": list(failures),
        "case": case.to_json(),
    }
    blob = json.dumps(payload, indent=2, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    CORPUS_DIR.mkdir(exist_ok=True)
    path = CORPUS_DIR / f"fuzz_incr_{digest}.json"
    path.write_text(blob + "\n", encoding="utf-8")
    return path


def load_incremental_corpus() -> List[Tuple[Path, IncrementalFuzzCase]]:
    """Every checked-in incremental-equivalence corpus case."""
    if not CORPUS_DIR.is_dir():
        return []
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("kind") != "incremental":
            continue
        cases.append((path, IncrementalFuzzCase.from_json(payload["case"])))
    return cases
