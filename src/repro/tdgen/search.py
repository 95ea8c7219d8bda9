"""Search kernels: objective selection, backtrace and the pair-frame queries.

Every *forward implication* of the searching phases goes through the
backend-dispatched engine of :mod:`repro.tdgen.implication`; this module
holds the per-decision *search residue* — the walks the callbacks of the
shared decision loop (:mod:`repro.tdgen.decide`) run between two
implications:

* **objective selection** — TDgen's D-frontier scan plus the off-path
  objective choice (:meth:`SearchKernels.propagation_objective`),
* **multiple backtrace** — mapping an objective back to an unassigned
  decision variable, in TDgen's eight-valued form
  (:meth:`SearchKernels.backtrace`) and in the three-valued form of
  SEMILET's frame justification
  (:meth:`SearchKernels.justification_backtrace`),
* **the pair-frame queries** — the frame classification against the goal's
  observation points (:meth:`SearchKernels.pair_frame_targets`,
  :meth:`SearchKernels.classify_pair_frame`) over SEMILET propagation's
  X-path over-approximation of which signals could still differ between
  the good and the faulty machine, and the pair-frame D-frontier decision
  (:meth:`SearchKernels.pair_frame_decision`).

One :class:`SearchKernels` class serves both implication engines.  Its
walks run over the flat arrays of :mod:`repro.fausim.compile` and read what
an engine's candidate batches expose: a state's slot column of possibility
sets (``column_sets``, reached through ``state.packed_handle``), one
pair-frame candidate's pair codes
(:class:`repro.fausim.kernels.PairColumns`: both machines' planes plus the
potential- and provable-difference bits per slot, and the candidate's
D-frontier gates) and a justification batch's three-valued planes
(``packed_planes``).  The ``packed`` engine computes those bit-parallel; the
``reference`` engine computes them with its interpreted oracles and packs
the result.

The heuristics have no ground truth — any objective or backtrace choice is
valid, and TDsim and the verdict checks judge the result — so they exist
once.  What the backends differ in is the implication underneath, and that
is what the differential suites compare: ``tests/tdgen/test_search_backends.py``
checks the reference columns against the packed ones, and the
campaign-equivalence harness re-checks whole campaigns end to end.

Kernels are obtained from an engine via
:meth:`repro.tdgen.implication.ImplicationEngine.search_kernels`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from repro.algebra.sets import ValueSet, backward_input_sets, members
from repro.algebra.values import (
    DelayValue,
    F,
    H0,
    H1,
    PI_VALUES,
    R,
    RC,
    V0,
    V1,
)
from repro.circuit.gates import GateType, controlling_value, inversion_parity
from repro.circuit.netlist import LineKind
from repro.faults.model import GateDelayFault
from repro.fausim.compile import _OPCODES, OP_BUF, OP_NOT
from repro.fausim.kernels import PAIR_PLANES, PAIR_POTENTIAL, PAIR_PROVABLE
from repro.tdgen.simulation import FAULT_MASK, TwoFrameState, _inject

#: A TDgen objective: drive ``signal`` towards ``value``.
Objective = Tuple[str, DelayValue]

#: A TDgen decision variable: ``("pi" | "ppi", name)``.
DecisionKey = Tuple[str, str]

#: Opcode -> gate type, the inverse of the compiler's opcode map.
_TYPE_OF_OP: Dict[int, GateType] = {op: gate_type for gate_type, op in _OPCODES.items()}


class FaultCone(NamedTuple):
    """The part of the test frame a fault value can reach.

    A fault value (``Rc``/``Fc``) is created only by the injection move and
    no gate table maps fault-free inputs to one, so outside the transitive
    fanout of the injection site every possibility set is fault free.
    Scans for fault values may be restricted to the cone exactly.

    Attributes:
        gates: gate-program indices in program order: the fanout of a stem
            fault's slot, or a branch fault's sink gate, and everything
            downstream of them.
        slots: the signal slots that may hold a fault value: a stem fault's
            own slot plus the outputs of ``gates``.
        branch_position: the flat fanin position a branch fault injects at,
            or ``None`` (a stem fault, or a branch into a flip-flop data pin,
            which owns no injection and leaves the cone empty).
    """

    gates: Tuple[int, ...]
    slots: FrozenSet[int]
    branch_position: Optional[int]


# --------------------------------------------------------------------------- #
# value-preference rules
# --------------------------------------------------------------------------- #
def preferred_objective_value(allowed: ValueSet) -> Optional[DelayValue]:
    """Pick a value from a set, preferring clean steady values."""
    candidates = members(allowed)
    if not candidates:
        return None
    for value in (V1, V0):
        if value in candidates:
            return value
    for value in candidates:
        if not value.fault:
            return value
    return candidates[0]


def preferred_backtrace_value(
    allowed: ValueSet, desired: DelayValue
) -> Optional[DelayValue]:
    """Pick the backtrace value closest to the desired one."""
    candidates = members(allowed)
    if not candidates:
        return None
    if desired in candidates:
        return desired
    # Prefer values that share the desired final value, then steady values.
    for value in candidates:
        if value.final == desired.final and not value.fault:
            return value
    for value in candidates:
        if not value.fault:
            return value
    return candidates[0]


def clamp_to_pi(value: DelayValue) -> DelayValue:
    """Project an algebra value onto the primary-input domain."""
    if value in PI_VALUES:
        return value
    if value is H0:
        return V0
    if value is H1:
        return V1
    if value is RC:
        return R
    return F


# --------------------------------------------------------------------------- #
# the kernels — compiled walks over flat arrays, slot columns and planes
# --------------------------------------------------------------------------- #
class SearchKernels:
    """Per-decision search queries of one implication engine.

    One instance is bound to one implication engine (and therefore one
    circuit and one robustness mode); the searching phases obtain it via
    :meth:`repro.tdgen.implication.ImplicationEngine.search_kernels`.  The
    queries run on integer slots instead of name-keyed dictionaries: the
    objective scan and the eight-valued backtrace read a state's slot column
    (``column_sets`` of the batch behind ``state.packed_handle``, cached on
    the batch), the backtraces walk ``fanin_flat`` with memoised
    observability-distance ranks, the pair-frame queries read one
    candidate's pair codes (``columns`` of a pair-frame batch) and the
    justification backtrace reads a frame batch's planes
    (``packed_planes``).  Both engines' batches expose all three, so the
    kernels never dispatch on the backend.

    Attributes:
        engine: the implication engine the kernels are bound to.
        compiled: the engine's compiled netlist.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.circuit = engine.circuit
        self.robust = engine.robust
        self.compiled = engine.compiled
        compiled = self.compiled
        self._n_pi = len(compiled.pi_slots)
        self._n_ppi = len(compiled.ppi_slots)
        #: GateType per gate-program index (for the backward implication).
        self._gate_types: List[GateType] = [_TYPE_OF_OP[op] for op in compiled.ops]
        #: Controlling value and inversion parity per gate-program index.
        self._controlling = [controlling_value(kind) for kind in self._gate_types]
        self._parity = [inversion_parity(kind) for kind in self._gate_types]
        self._rank_cache: Optional[List[int]] = None
        #: ``(fault, cone)`` of the last :meth:`fault_cone` call.
        self._cone_memo: Optional[Tuple[GateDelayFault, FaultCone]] = None
        #: (PPI name, PPO data slot) per flip-flop: the ``"ppo"`` goal targets.
        self._ppo_targets: Tuple[Tuple[str, int], ...] = tuple(
            (compiled.signal_names[ppi_slot], data_slot)
            for ppi_slot, data_slot in zip(compiled.ppi_slots, compiled.dff_data_slots)
        )

    # -- shared helpers -------------------------------------------------- #
    def _ranks(self) -> List[int]:
        """Memoised observability-distance rank per signal slot."""
        if self._rank_cache is not None:
            return self._rank_cache
        compiled = self.compiled
        context = self.engine.context
        ranks = [0] * compiled.num_signals
        for out in compiled.outputs:
            name = compiled.signal_names[out]
            distance = context.observation_distance(name, pos_only=True)
            if distance is None:
                distance = 500_000 + (
                    context.observation_distance(name, pos_only=False) or 500_000
                )
            ranks[out] = distance
        self._rank_cache = ranks
        return ranks

    def _branch_info(self, fault: Optional[GateDelayFault]) -> Optional[int]:
        """Flat fanin position a branch fault injects at, or ``None``."""
        if fault is None or fault.line.kind is not LineKind.BRANCH:
            return None
        return self.fault_cone(fault).branch_position

    def fault_cone(self, fault: GateDelayFault) -> FaultCone:
        """The :class:`FaultCone` of ``fault``.

        The last fault's cone is memoised: one ``generate`` call asks for it
        once per decision.  It is not kept per fault universe, whose memory
        would grow as universe times cone.
        """
        memo = self._cone_memo
        if memo is not None and (memo[0] is fault or memo[0] == fault):
            return memo[1]
        compiled = self.compiled
        fanout = compiled.fanout
        outputs = compiled.outputs
        pending = bytearray(compiled.num_gates)
        slots: Set[int] = set()
        branch_position = None
        slot = compiled.slot_of.get(fault.line.signal)
        if fault.line.kind is not LineKind.BRANCH:
            if slot is not None:
                slots.add(slot)
                for gate in fanout[slot]:
                    pending[gate] = 1
        elif fault.line.pin is not None and fault.line.pin >= 0:
            sink = compiled.gate_index_of.get(compiled.slot_of.get(fault.line.sink))
            if sink is not None:
                position = compiled.fanin_offsets[sink] + fault.line.pin
                if (
                    position < compiled.fanin_offsets[sink + 1]
                    and compiled.fanin_flat[position] == slot
                ):
                    branch_position = position
                    pending[sink] = 1
        gates: List[int] = []
        find = pending.find
        index = find(1)
        while index >= 0:
            gates.append(index)
            out = outputs[index]
            slots.add(out)
            for gate in fanout[out]:
                pending[gate] = 1
            index = find(1, index + 1)
        cone = FaultCone(tuple(gates), frozenset(slots), branch_position)
        self._cone_memo = (fault, cone)
        return cone

    @staticmethod
    def state_column(state: TwoFrameState) -> List[ValueSet]:
        """The slot column of possibility sets behind a state."""
        states, index = state.packed_handle
        return states.column_sets(index)

    # -- TDgen ----------------------------------------------------------- #
    def propagation_objective(
        self, state: TwoFrameState, fault: GateDelayFault
    ) -> Optional[Objective]:
        """Pick a D-frontier propagation objective (step 3 of TDgen).

        Scans the state's slot column for gates with a definite fault value
        on an input but an undetermined output, ranks them by observability
        distance (primary outputs first, then pseudo primary outputs, ties
        by name), and returns the first satisfiable off-path input
        objective.  Only the gates of the fault's cone
        (:meth:`fault_cone`) can read a fault value, so only they are
        scanned.
        """
        column = self.state_column(state)
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        outputs = compiled.outputs
        signal_names = compiled.signal_names
        ranks = self._ranks()
        cone = self.fault_cone(fault)
        branch_position = cone.branch_position
        fault_type = fault.fault_type if branch_position is not None else None
        fault_set = FAULT_MASK

        frontier: List[Tuple[int, str, int]] = []
        for gate_index in cone.gates:
            out = outputs[gate_index]
            output_set = column[out]
            if not (output_set & fault_set):
                continue
            if output_set & (output_set - 1) == 0:
                continue
            start = offsets[gate_index]
            end = offsets[gate_index + 1]
            for position in range(start, end):
                value_set = column[fanin_flat[position]]
                if position == branch_position:
                    value_set = _inject(value_set, fault_type)
                if (
                    value_set
                    and value_set & (value_set - 1) == 0
                    and value_set & fault_set
                ):
                    frontier.append((ranks[out], signal_names[out], gate_index))
                    break
        frontier.sort()
        for _, _, gate_index in frontier:
            objective = self._off_path_objective(
                column, gate_index, branch_position, fault_type
            )
            if objective is not None:
                return objective
        return None

    def _off_path_objective(
        self,
        column: List[ValueSet],
        gate_index: int,
        branch_position: Optional[int],
        fault_type,
    ) -> Optional[Objective]:
        compiled = self.compiled
        start = compiled.fanin_offsets[gate_index]
        end = compiled.fanin_offsets[gate_index + 1]
        ordered_sets: List[ValueSet] = []
        for position in range(start, end):
            value_set = column[compiled.fanin_flat[position]]
            if position == branch_position:
                value_set = _inject(value_set, fault_type)
            ordered_sets.append(value_set)
        pruned = backward_input_sets(
            self._gate_types[gate_index], ordered_sets, FAULT_MASK, self.robust
        )
        for pin in range(end - start):
            current = ordered_sets[pin]
            if current and current & (current - 1) == 0:
                continue
            allowed = pruned[pin] & current
            if allowed == 0:
                continue
            value = preferred_objective_value(allowed)
            if value is not None:
                return (compiled.signal_names[compiled.fanin_flat[start + pin]], value)
        return None

    def backtrace(
        self,
        state: TwoFrameState,
        fault: Optional[GateDelayFault],
        objective: Objective,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
    ) -> Tuple[Optional[DecisionKey], Optional[object]]:
        """Map a TDgen objective back to an unassigned decision variable.

        An eight-valued multiple backtrace over the flat fanin arrays: at
        each gate it descends into the first undetermined input whose
        backward-implied set still allows the desired value.
        """
        column = self.state_column(state)
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        signal_names = compiled.signal_names
        n_pi = self._n_pi
        n_sources = n_pi + self._n_ppi
        branch_position = self._branch_info(fault)
        fault_type = fault.fault_type if branch_position is not None else None

        signal, desired = objective
        slot = compiled.slot_of[signal]
        for _ in range(len(self.circuit.gates) + 1):
            if slot < n_pi:
                name = signal_names[slot]
                if pi_values[name] is not None:
                    return None, None
                return ("pi", name), clamp_to_pi(desired)
            if slot < n_sources:
                name = signal_names[slot]
                if ppi_initial[name] is not None:
                    return None, None
                return ("ppi", name), desired.initial
            gate_index = compiled.gate_index_of[slot]
            start = offsets[gate_index]
            end = offsets[gate_index + 1]
            ordered_sets: List[ValueSet] = []
            for position in range(start, end):
                value_set = column[fanin_flat[position]]
                if position == branch_position:
                    value_set = _inject(value_set, fault_type)
                ordered_sets.append(value_set)
            pruned = backward_input_sets(
                self._gate_types[gate_index], ordered_sets, desired.mask, self.robust
            )
            descended = False
            for pin in range(end - start):
                current = ordered_sets[pin]
                if current and current & (current - 1) == 0:
                    continue
                allowed = pruned[pin] & current
                if allowed == 0:
                    continue
                value = preferred_backtrace_value(allowed, desired)
                if value is None:
                    continue
                slot = fanin_flat[start + pin]
                desired = value
                descended = True
                break
            if not descended:
                return None, None
        return None, None

    # -- SEMILET propagation --------------------------------------------- #
    def pair_frame_targets(self, goal: str, blocked_targets: Set[str]) -> Sequence[int]:
        """The observation slots of one frame goal, for :meth:`classify_pair_frame`.

        ``goal`` is ``"po"`` (the primary output slots) or ``"ppo"`` (the
        data-input slot of every flip-flop whose PPI is not in
        ``blocked_targets``).  It is computed once per frame search and
        handed back to every classification of that search.
        """
        if goal == "po":
            return self.compiled.po_slots
        return tuple(
            slot for ppi, slot in self._ppo_targets if ppi not in blocked_targets
        )

    def classify_pair_frame(self, frames, index: int, targets: Sequence[int]) -> str:
        """Classify one pair frame against its targets.

        ``frames`` is a pair-frame batch of the engine
        (:meth:`~repro.tdgen.implication.ImplicationEngine.pair_frame_candidates`),
        ``index`` the candidate.  Returns ``"success"`` when the machines
        provably differ at a target, ``"continue"`` when they could still
        come to differ at one (the potential bit: the X-path check), else
        ``"conflict"``.
        """
        codes = frames.columns(index).codes
        for slot in targets:
            if codes[slot] & PAIR_PROVABLE:
                return "success"
        for slot in targets:
            if codes[slot] & PAIR_POTENTIAL:
                return "continue"
        return "conflict"

    def pair_frame_decision(
        self,
        frames,
        index: int,
        pi_values: Mapping[str, Optional[int]],
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Optional[Tuple[str, bool, int]]:
        """Choose the next pair-frame input assignment (D-frontier backtrace).

        Backtraces from the X/X inputs of the candidate's D-frontier gates
        towards their non-controlling value; falls back to any free primary,
        then pseudo primary input.
        """
        columns = frames.columns(index)
        codes = columns.codes
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat

        for gate_index in columns.frontier:
            ctrl = self._controlling[gate_index]
            non_ctrl = 1 - ctrl if ctrl is not None else 1
            for position in range(offsets[gate_index], offsets[gate_index + 1]):
                slot = fanin_flat[position]
                if codes[slot] & PAIR_PLANES:
                    continue  # not an X/X pair
                traced = self._pair_backtrace(
                    slot, non_ctrl, codes, pi_values, free_ppi_values
                )
                if traced is not None:
                    return traced
        # Fallback: assign any free variable.
        for pi, value in pi_values.items():
            if value is None:
                return (pi, True, 0)
        for ppi, value in free_ppi_values.items():
            if value is None:
                return (ppi, False, 0)
        return None

    def _pair_backtrace(
        self,
        slot: int,
        target: int,
        codes: Sequence[int],
        pi_values: Mapping[str, Optional[int]],
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Optional[Tuple[str, bool, int]]:
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        signal_names = compiled.signal_names
        ops = compiled.ops
        controlling = self._controlling
        parity = self._parity
        n_pi = self._n_pi
        n_sources = n_pi + self._n_ppi
        desired = target
        for _ in range(len(self.circuit.gates) + 1):
            if slot < n_pi:
                name = signal_names[slot]
                if pi_values[name] is not None:
                    return None
                return (name, True, desired)
            if slot < n_sources:
                name = signal_names[slot]
                if name in free_ppi_values and free_ppi_values[name] is None:
                    return (name, False, desired)
                return None
            gate_index = compiled.gate_index_of[slot]
            start = offsets[gate_index]
            if ops[gate_index] in (OP_NOT, OP_BUF):
                desired ^= parity[gate_index]
                slot = fanin_flat[start]
                continue
            end = offsets[gate_index + 1]
            first_x = -1
            for position in range(start, end):
                source = fanin_flat[position]
                if not codes[source] & PAIR_PLANES:
                    first_x = source
                    break
            if first_x < 0:
                return None
            ctrl = controlling[gate_index]
            desired_core = desired ^ parity[gate_index]
            slot = first_x
            if ctrl is None:
                desired = desired_core
            elif desired_core == ctrl:
                desired = ctrl
            else:
                desired = 1 - ctrl
        return None

    # -- SEMILET frame justification -------------------------------------- #
    def justification_backtrace(
        self,
        frames,
        index: int,
        signal: str,
        target: int,
        pi_values: Mapping[str, Optional[int]],
        ppi_values: Mapping[str, Optional[int]],
        decide_ppis: bool,
    ) -> Optional[Tuple[str, bool, int]]:
        """Controlling-value backtrace of a justification objective.

        ``frames`` is a three-valued frame batch of the engine
        (:meth:`~repro.tdgen.implication.ImplicationEngine.frame_candidates`),
        ``index`` the candidate whose frame is walked.  A depth-first
        worklist that prefers landing on an unassigned primary input; an
        unassigned pseudo primary input is only returned when no primary
        input is reachable.
        """
        planes = frames.packed_planes()
        zero = planes.zero
        one = planes.one
        bit = 1 << index
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        signal_names = compiled.signal_names
        ops = compiled.ops
        controlling = self._controlling
        parity = self._parity
        n_pi = self._n_pi
        n_sources = n_pi + self._n_ppi
        depth_bound = len(self.circuit.gates) + 1

        best_ppi: Optional[Tuple[str, bool, int]] = None
        visited: Set[Tuple[int, int]] = set()
        # Explicit DFS worklist; children are pushed in reverse so they pop
        # in fanin order.
        stack: List[Tuple[int, int, int]] = [(compiled.slot_of[signal], target, 0)]
        while stack:
            slot, desired, depth = stack.pop()
            if depth > depth_bound:
                continue
            if (slot, desired) in visited:
                continue
            visited.add((slot, desired))
            if slot < n_pi:
                name = signal_names[slot]
                if pi_values[name] is None:
                    return (name, True, desired)
                continue
            if slot < n_sources:
                name = signal_names[slot]
                if decide_ppis and ppi_values[name] is None and best_ppi is None:
                    best_ppi = (name, False, desired)
                continue
            gate_index = compiled.gate_index_of[slot]
            start = offsets[gate_index]
            end = offsets[gate_index + 1]
            if ops[gate_index] in (OP_NOT, OP_BUF):
                stack.append((fanin_flat[start], desired ^ parity[gate_index], depth + 1))
                continue
            x_slots = [
                fanin_flat[position]
                for position in range(start, end)
                if not ((zero[fanin_flat[position]] | one[fanin_flat[position]]) & bit)
            ]
            if not x_slots:
                continue
            desired_core = desired ^ parity[gate_index]
            ctrl = controlling[gate_index]
            if ctrl is None:  # XOR / XNOR
                known_parity = 0
                for position in range(start, end):
                    source = fanin_flat[position]
                    if one[source] & bit:
                        known_parity ^= 1
                branch_target = desired_core ^ known_parity
            else:
                branch_target = ctrl if desired_core == ctrl else 1 - ctrl
            for source in reversed(x_slots):
                stack.append((source, branch_target, depth + 1))
        return best_ppi
