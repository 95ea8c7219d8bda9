"""Backend-dispatched search kernels: objective selection, backtrace, scans.

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
* **the pair-frame queries** — SEMILET propagation's X-path
  over-approximation of which signals could still differ between the good
  and the faulty machine (:meth:`SearchKernels.potential_difference`), the
  frame classification against the goal's observation points
  (:meth:`SearchKernels.pair_frame_targets`,
  :meth:`SearchKernels.classify_pair_frame`) and the pair-frame D-frontier
  decision (:meth:`SearchKernels.pair_frame_decision`).

A :class:`SearchKernels` object bundles those queries for one
implication engine, and each engine builds its own kernels class: the
``reference`` engine's :class:`ReferenceSearchKernels` keep the interpreted
walks over name-keyed states and frames as the differential-testing
oracle; the ``packed`` engine's
:class:`PackedSearchKernels` rerun them as compiled kernels over
the flat arrays of :mod:`repro.fausim.compile`, the set words of
:mod:`repro.algebra.packed_sets` and the planes of
:mod:`repro.fausim.packed_sim` — the
objective scan works on a state's extracted slot column, the backtraces are
iterative worklists over the flat fanin arrays with memoised
observability-distance weights (frontier ranking) and the memoised backward
implication of :mod:`repro.algebra.sets` as the controllability store, and
the pair-frame queries read one candidate's pair codes
(:class:`repro.fausim.kernels.PairColumns`: both machines' planes plus the
potential- and provable-difference bits per slot, and the candidate's
D-frontier gates).

Both implementations are **bit-identical by contract** — same frontier
order, same pin order, same value preferences — so one ``--backend`` choice
still governs simulation, implication *and* the search heuristics without
changing any campaign outcome (``tests/tdgen/test_search_backends.py``
enforces this, and the campaign-equivalence harness re-checks end to end).

Kernels are obtained from an engine via
:meth:`repro.tdgen.implication.ImplicationEngine.search_kernels`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.algebra.sets import (
    ValueSet,
    backward_input_sets,
    contains,
    has_fault_value,
    is_singleton,
    members,
)
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
from repro.circuit.levelize import combinational_order
from repro.circuit.netlist import LineKind
from repro.faults.model import GateDelayFault
from repro.fausim.compile import _OPCODES, OP_BUF, OP_NOT
from repro.fausim.kernels import PAIR_PLANES, PAIR_POTENTIAL, PAIR_PROVABLE
from repro.tdgen.simulation import (
    FAULT_MASK,
    TwoFrameState,
    _inject,
    gate_input_sets,
)

#: ``(good, faulty)`` machine value of one signal (``None`` encodes X).
PairValue = Tuple[Optional[int], Optional[int]]

#: A TDgen objective: drive ``signal`` towards ``value``.
Objective = Tuple[str, DelayValue]

#: A TDgen decision variable: ``("pi" | "ppi", name)``.
DecisionKey = Tuple[str, str]

#: Opcode -> gate type, the inverse of the compiler's opcode map.
_TYPE_OF_OP: Dict[int, GateType] = {op: gate_type for gate_type, op in _OPCODES.items()}


# --------------------------------------------------------------------------- #
# shared value-preference rules (identical for every backend by construction)
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


def _differs(good_value: Optional[int], faulty_value: Optional[int]) -> bool:
    """True when both machines have binary values that provably differ."""
    return good_value is not None and faulty_value is not None and good_value != faulty_value


# --------------------------------------------------------------------------- #
# historical backward implication — the reference kernels' oracle
# --------------------------------------------------------------------------- #
_EXHAUSTIVE_BACKWARD_CACHE: Dict[Tuple, Tuple[ValueSet, ...]] = {}


def exhaustive_backward_input_sets(
    gate_type: GateType,
    input_sets: Sequence[ValueSet],
    output_set: ValueSet,
    robust: bool = True,
) -> List[ValueSet]:
    """The historical combination-enumerating backward implication.

    Bit-identical to :func:`repro.algebra.sets.backward_input_sets` (the
    differential suite enforces it), but computed by enumerating input
    combinations the way the pre-kernel search did.  The reference kernels
    keep it so their cost profile stays the historical one — it is both the
    correctness oracle for the fold-image implementation and the baseline
    the search-kernel ablation benchmark times against.
    """
    from repro.algebra.tables import evaluate_delay_gate

    arity = len(input_sets)
    if arity > 4:
        # Sound no-pruning fallback, exactly as the shared implementation.
        return list(input_sets)
    key = (gate_type, robust, output_set, tuple(input_sets))
    cached = _EXHAUSTIVE_BACKWARD_CACHE.get(key)
    if cached is not None:
        return list(cached)

    if arity == 1:
        allowed = 0
        for value in members(input_sets[0]):
            if contains(output_set, evaluate_delay_gate(gate_type, (value,), robust)):
                allowed |= value.mask
        result = [allowed]
    else:
        expanded = [members(value_set) for value_set in input_sets]

        def exists_combination(position: int, candidate: DelayValue) -> bool:
            def recurse(index: int, chosen: List[DelayValue]) -> bool:
                if index == len(expanded):
                    return contains(
                        output_set, evaluate_delay_gate(gate_type, chosen, robust)
                    )
                if index == position:
                    chosen.append(candidate)
                    found = recurse(index + 1, chosen)
                    chosen.pop()
                    return found
                for value in expanded[index]:
                    chosen.append(value)
                    if recurse(index + 1, chosen):
                        chosen.pop()
                        return True
                    chosen.pop()
                return False

            return recurse(0, [])

        result = []
        for position in range(arity):
            allowed = 0
            for candidate in expanded[position]:
                if exists_combination(position, candidate):
                    allowed |= candidate.mask
            result.append(allowed)
    _EXHAUSTIVE_BACKWARD_CACHE[key] = tuple(result)
    return result


# --------------------------------------------------------------------------- #
# kernel interface
# --------------------------------------------------------------------------- #
class SearchKernels:
    """Per-decision search queries behind one backend choice.

    One instance is bound to one implication engine (and therefore one
    circuit and one robustness mode); the searching phases obtain it via
    :meth:`repro.tdgen.implication.ImplicationEngine.search_kernels` and
    never dispatch on the backend themselves.

    Attributes:
        engine: the implication engine the kernels are bound to.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.circuit = engine.circuit
        self.robust = engine.robust

    # -- TDgen two-frame search ---------------------------------------- #
    def propagation_objective(
        self, state: TwoFrameState, fault: GateDelayFault
    ) -> Optional[Objective]:
        """Pick a D-frontier propagation objective (step 3 of TDgen).

        Scans for gates with a definite fault value on an input but an
        undetermined output, ranks them by observability distance, and
        returns the first satisfiable off-path input objective.
        """
        raise NotImplementedError

    def backtrace(
        self,
        state: TwoFrameState,
        fault: Optional[GateDelayFault],
        objective: Objective,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
    ) -> Tuple[Optional[DecisionKey], Optional[object]]:
        """Map a TDgen objective back to an unassigned decision variable."""
        raise NotImplementedError

    # -- SEMILET propagation (pair frames) ------------------------------ #
    def potential_difference(self, frames, index: int) -> Mapping[str, bool]:
        """Over-approximate which signals could still differ between machines.

        ``frames`` is the :class:`~repro.tdgen.implication.CandidatePairFrames`
        batch holding the frame, ``index`` the candidate.  The result maps a
        signal name to ``True`` when the good and the faulty machine could
        still disagree on it (the propagation PODEM's X-path check).
        """
        raise NotImplementedError

    def pair_frame_decision(
        self,
        frames,
        index: int,
        pi_values: Mapping[str, Optional[int]],
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Optional[Tuple[str, bool, int]]:
        """Choose the next pair-frame input assignment (D-frontier backtrace)."""
        raise NotImplementedError

    def pair_frame_targets(self, goal: str, blocked_targets: Set[str]) -> Sequence:
        """The observation points of one frame goal, for :meth:`classify_pair_frame`.

        ``goal`` is ``"po"`` (the primary outputs) or ``"ppo"`` (the data
        input of every flip-flop whose PPI is not in ``blocked_targets``).
        The result is opaque to the caller: it is computed once per frame
        search and handed back to every classification of that search.
        """
        raise NotImplementedError

    def classify_pair_frame(self, frames, index: int, targets: Sequence) -> str:
        """Classify one pair frame against its targets.

        Returns ``"success"`` when the machines provably differ at a target,
        ``"continue"`` when they could still come to differ at one (the
        X-path check over :meth:`potential_difference`), else ``"conflict"``.
        """
        raise NotImplementedError

    # -- SEMILET frame justification (three-valued frames) -------------- #
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

        ``frames`` is the :class:`~repro.tdgen.implication.CandidateFrames`
        batch, ``index`` the candidate whose three-valued frame is walked.
        Prefers landing on an unassigned primary input; an unassigned pseudo
        primary input is only returned when no primary input is reachable.
        """
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# reference kernels — the historical interpreted walks, moved verbatim
# --------------------------------------------------------------------------- #
class ReferenceSearchKernels(SearchKernels):
    """The interpreted search walks, kept bit-exact with the historical code.

    Every method is the pre-kernel implementation of its caller — TDgen's
    ``_d_frontier`` / ``_off_path_objective`` / ``_backtrace``, SEMILET
    propagation's ``_potential_difference`` / ``_frame_decision`` and the
    frame justifier's recursive backtrace — operating on the same per-name
    dictionaries those loops used.  It is the oracle the packed kernels are
    differential-tested against, and the `backend="reference"` search path.
    """

    def __init__(self, engine) -> None:
        super().__init__(engine)
        #: Pre-resolved (name, fanin) rows in evaluation order, built on
        #: first pair-frame use (the TDgen-side queries use the context's
        #: order instead and must not force this).
        self._gate_rows: Optional[List[Tuple[str, Tuple[str, ...]]]] = None

    def _rows(self) -> List[Tuple[str, Tuple[str, ...]]]:
        if self._gate_rows is None:
            self._gate_rows = [
                (name, tuple(self.circuit.gate(name).fanin))
                for name in combinational_order(self.circuit)
            ]
        return self._gate_rows

    # -- TDgen ----------------------------------------------------------- #
    def propagation_objective(self, state, fault):
        """Interpreted D-frontier scan and off-path objective choice."""
        frontier = self._d_frontier(state, fault)
        if not frontier:
            return None
        frontier.sort(key=self._frontier_rank)
        for gate_name in frontier:
            objective = self._off_path_objective(state, fault, gate_name)
            if objective is not None:
                return objective
        return None

    def _frontier_rank(self, gate_name: str) -> Tuple[int, str]:
        """Primary outputs first, then pseudo primary outputs, by distance."""
        context = self.engine.context
        distance = context.observation_distance(gate_name, pos_only=True)
        if distance is None:
            distance = 500_000 + (
                context.observation_distance(gate_name, pos_only=False) or 500_000
            )
        return (distance, gate_name)

    def _d_frontier(self, state: TwoFrameState, fault: GateDelayFault) -> List[str]:
        """Gates with a definite fault value on an input but not on the output."""
        context = self.engine.context
        frontier: List[str] = []
        for name in context.order:
            output_set = state.signal_sets[name]
            if not has_fault_value(output_set):
                continue
            if is_singleton(output_set):
                continue
            input_sets = gate_input_sets(state, context, name, fault)
            if any(
                is_singleton(value_set) and has_fault_value(value_set)
                for value_set in input_sets.values()
            ):
                frontier.append(name)
        return frontier

    def _off_path_objective(
        self, state: TwoFrameState, fault: GateDelayFault, gate_name: str
    ) -> Optional[Objective]:
        gate = self.circuit.gate(gate_name)
        input_sets = gate_input_sets(state, self.engine.context, gate_name, fault)
        ordered_sets = [input_sets[pin] for pin in range(len(gate.fanin))]
        pruned = exhaustive_backward_input_sets(
            gate.gate_type, ordered_sets, FAULT_MASK, self.robust
        )
        for pin, source in enumerate(gate.fanin):
            current = ordered_sets[pin]
            if is_singleton(current):
                continue
            allowed = pruned[pin] & current
            if allowed == 0:
                continue
            value = preferred_objective_value(allowed)
            if value is not None:
                return (source, value)
        return None

    def backtrace(self, state, fault, objective, pi_values, ppi_initial):
        """Interpreted eight-valued multiple backtrace."""
        signal, desired = objective
        context = self.engine.context
        for _ in range(len(self.circuit.gates) + 1):
            gate = self.circuit.gate(signal)
            if gate.is_input:
                if pi_values[signal] is not None:
                    return None, None
                return ("pi", signal), clamp_to_pi(desired)
            if gate.is_dff:
                if ppi_initial[signal] is not None:
                    return None, None
                return ("ppi", signal), desired.initial
            input_sets = gate_input_sets(state, context, signal, fault)
            ordered_sets = [input_sets[pin] for pin in range(len(gate.fanin))]
            pruned = exhaustive_backward_input_sets(
                gate.gate_type, ordered_sets, desired.mask, self.robust
            )
            descended = False
            for pin, source in enumerate(gate.fanin):
                if is_singleton(ordered_sets[pin]):
                    continue
                allowed = pruned[pin] & ordered_sets[pin]
                if allowed == 0:
                    continue
                value = preferred_backtrace_value(allowed, desired)
                if value is None:
                    continue
                signal, desired = source, value
                descended = True
                break
            if not descended:
                return None, None
        return None, None

    # -- SEMILET propagation --------------------------------------------- #
    def potential_difference(self, frames, index):
        """Interpreted per-signal scan over the pair values of one frame."""
        pairs = frames.pairs(index)
        potential: Dict[str, bool] = {}
        for pi in self.circuit.primary_inputs:
            potential[pi] = False
        for ppi in self.circuit.pseudo_primary_inputs:
            good_value, faulty_value = pairs[ppi]
            if good_value is None or faulty_value is None:
                potential[ppi] = good_value is not faulty_value and not (
                    good_value is None and faulty_value is None
                )
                # An X/X pair is the *same* unknown in both machines, never a
                # difference source; a binary/X mix could be.
                if good_value is None and faulty_value is None:
                    potential[ppi] = False
            else:
                potential[ppi] = good_value != faulty_value
        for name, fanin in self._rows():
            good_value, faulty_value = pairs[name]
            if good_value is not None and faulty_value is not None:
                potential[name] = good_value != faulty_value
            else:
                potential[name] = any(potential[s] for s in fanin)
        return potential

    def pair_frame_decision(self, frames, index, pi_values, free_ppi_values):
        """Interpreted pair-frame D-frontier scan plus backtrace."""
        pairs = frames.pairs(index)
        frontier = self._pair_d_frontier(pairs)
        for gate_name in frontier:
            gate = self.circuit.gate(gate_name)
            ctrl = controlling_value(gate.gate_type)
            non_ctrl = 1 - ctrl if ctrl is not None else 1
            for source in gate.fanin:
                good_value, faulty_value = pairs[source]
                if good_value is None and faulty_value is None:
                    traced = self._pair_backtrace(
                        source, non_ctrl, pairs, pi_values, free_ppi_values
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

    def pair_frame_targets(self, goal, blocked_targets):
        """Target signal names, mapped through ``ppo_of_ppi`` for PPO goals."""
        circuit = self.circuit
        if goal == "po":
            return list(circuit.primary_outputs)
        return [
            circuit.ppo_of_ppi(ppi)
            for ppi in circuit.pseudo_primary_inputs
            if ppi not in blocked_targets
        ]

    def classify_pair_frame(self, frames, index, targets):
        """Per-name check of the pair values, then of the potential scan."""
        pairs = frames.pairs(index)
        if any(_differs(*pairs[signal]) for signal in targets):
            return "success"
        potential = self.potential_difference(frames, index)
        if any(potential.get(signal) for signal in targets):
            return "continue"
        return "conflict"

    def _pair_d_frontier(self, pairs: Mapping[str, PairValue]) -> List[str]:
        frontier = []
        for name, fanin in self._rows():
            good_value, faulty_value = pairs[name]
            if good_value is not None and faulty_value is not None:
                continue
            if any(_differs(*pairs[s]) for s in fanin):
                frontier.append(name)
        return frontier

    def _pair_backtrace(
        self,
        signal: str,
        target: int,
        pairs: Mapping[str, PairValue],
        pi_values: Mapping[str, Optional[int]],
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Optional[Tuple[str, bool, int]]:
        current, desired = signal, target
        for _ in range(len(self.circuit.gates) + 1):
            gate = self.circuit.gate(current)
            if gate.is_input:
                if pi_values[current] is not None:
                    return None
                return (current, True, desired)
            if gate.is_dff:
                if current in free_ppi_values and free_ppi_values[current] is None:
                    return (current, False, desired)
                return None
            gate_type = gate.gate_type
            if gate_type in (GateType.NOT, GateType.BUF):
                desired ^= inversion_parity(gate_type)
                current = gate.fanin[0]
                continue
            x_inputs = [s for s in gate.fanin if pairs[s][0] is None and pairs[s][1] is None]
            if not x_inputs:
                return None
            ctrl = controlling_value(gate_type)
            desired_core = desired ^ inversion_parity(gate_type)
            current = x_inputs[0]
            if ctrl is None:
                desired = desired_core
            elif desired_core == ctrl:
                desired = ctrl
            else:
                desired = 1 - ctrl
        return None

    # -- SEMILET frame justification -------------------------------------- #
    def justification_backtrace(
        self, frames, index, signal, target, pi_values, ppi_values, decide_ppis
    ):
        """Interpreted recursive controlling-value backtrace."""
        frame = frames.frame(index)
        best_ppi: List[Tuple[str, bool, int]] = []
        visited: Set[Tuple[str, int]] = set()
        circuit = self.circuit

        def descend(current: str, desired: int, depth: int) -> Optional[Tuple[str, bool, int]]:
            if depth > len(circuit.gates) + 1:
                return None
            if (current, desired) in visited:
                return None
            visited.add((current, desired))
            gate = circuit.gate(current)
            if gate.is_input:
                if pi_values[current] is not None:
                    return None
                return (current, True, desired)
            if gate.is_dff:
                if decide_ppis and ppi_values[current] is None:
                    best_ppi.append((current, False, desired))
                return None

            gate_type = gate.gate_type
            if gate_type in (GateType.NOT, GateType.BUF):
                return descend(gate.fanin[0], desired ^ inversion_parity(gate_type), depth + 1)

            x_inputs = [s for s in gate.fanin if frame[s] is None]
            if not x_inputs:
                return None
            desired_core = desired ^ inversion_parity(gate_type)

            if gate_type in (GateType.XOR, GateType.XNOR):
                known_parity = 0
                for source in gate.fanin:
                    if frame[source] is not None:
                        known_parity ^= frame[source]
                for source in x_inputs:
                    found = descend(source, desired_core ^ known_parity, depth + 1)
                    if found is not None:
                        return found
                return None

            ctrl = controlling_value(gate_type)
            branch_target = ctrl if desired_core == ctrl else 1 - ctrl
            for source in x_inputs:
                found = descend(source, branch_target, depth + 1)
                if found is not None:
                    return found
            return None

        found = descend(signal, target, 0)
        if found is not None:
            return found
        if best_ppi:
            return best_ppi[0]
        return None


# --------------------------------------------------------------------------- #
# packed kernels — compiled walks over flat arrays and packed planes
# --------------------------------------------------------------------------- #
class _PotentialView:
    """Read-only name-keyed view of one candidate's potential-difference bits.

    ``codes[slot]`` is the candidate's pair code for the signal in that slot
    (:class:`repro.fausim.kernels.PairColumns`); the view reads its
    potential bit.
    """

    __slots__ = ("_codes", "_slot_of")

    def __init__(self, codes: Sequence[int], slot_of: Mapping[str, int]) -> None:
        self._codes = codes
        self._slot_of = slot_of

    def __getitem__(self, name: str) -> bool:
        return bool(self._codes[self._slot_of[name]] & PAIR_POTENTIAL)

    def get(self, name: str, default: Optional[bool] = None) -> Optional[bool]:
        """Mapping-style read; ``default`` for signals outside the circuit."""
        slot = self._slot_of.get(name)
        if slot is None:
            return default
        return bool(self._codes[slot] & PAIR_POTENTIAL)

    def __contains__(self, name: str) -> bool:
        return name in self._slot_of


class PackedSearchKernels(SearchKernels):
    """Compiled search walks over the flat gate program and packed planes.

    The queries run on integer slots instead of name-keyed dictionaries: the
    objective scan reads a packed state's extracted slot column (cached on
    the state, shared with the incremental implication sweeps), the
    backtraces walk ``fanin_flat`` with memoised observability-distance
    ranks, and the pair-frame queries read one candidate's pair codes
    (:meth:`~repro.tdgen.implication._PackedPairFrames.columns`, O(1) per
    slot on full and event-driven batches alike).  Every
    result is bit-identical to :class:`ReferenceSearchKernels` — same
    frontier order, same pin preferences — which the differential suite
    enforces.  The kernels read only the states and frames of their own
    :class:`~repro.tdgen.implication.PackedImplicationEngine`.
    """

    def __init__(self, engine) -> None:
        super().__init__(engine)
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

    def _branch_info(self, fault: Optional[GateDelayFault]):
        """Flat fanin position a branch fault injects at, or ``None``."""
        if fault is None or fault.line.kind is not LineKind.BRANCH:
            return None
        compiled = self.compiled
        slot = compiled.slot_of.get(fault.line.signal)
        sink_slot = compiled.slot_of.get(fault.line.sink)
        gate_index = compiled.gate_index_of.get(sink_slot)
        if gate_index is None or fault.line.pin is None or fault.line.pin < 0:
            return None
        position = compiled.fanin_offsets[gate_index] + fault.line.pin
        if (
            position < compiled.fanin_offsets[gate_index + 1]
            and compiled.fanin_flat[position] == slot
        ):
            return position
        return None

    @staticmethod
    def _state_column(state: TwoFrameState) -> List[ValueSet]:
        """The packed slot column behind a state."""
        states, index = state.packed_handle
        return states.column_sets(index)

    # -- TDgen ----------------------------------------------------------- #
    def propagation_objective(self, state, fault):
        """Compiled D-frontier scan over the state's slot column."""
        column = self._state_column(state)
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        outputs = compiled.outputs
        signal_names = compiled.signal_names
        ranks = self._ranks()
        branch_position = self._branch_info(fault)
        fault_type = fault.fault_type if branch_position is not None else None
        fault_set = FAULT_MASK

        frontier: List[Tuple[int, str, int]] = []
        for gate_index in range(len(outputs)):
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

    def backtrace(self, state, fault, objective, pi_values, ppi_initial):
        """Compiled eight-valued backtrace over the flat fanin arrays."""
        column = self._state_column(state)
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
    def potential_difference(self, frames, index):
        """The candidate's potential column of the batch's pair analysis."""
        return _PotentialView(frames.columns(index).codes, self.compiled.slot_of)

    def pair_frame_targets(self, goal, blocked_targets):
        """Target slots: the PO slots, or the PPO data slots left unblocked."""
        if goal == "po":
            return self.compiled.po_slots
        return tuple(
            slot for ppi, slot in self._ppo_targets if ppi not in blocked_targets
        )

    def classify_pair_frame(self, frames, index, targets):
        """The provable, then the potential bit of the target slots."""
        codes = frames.columns(index).codes
        for slot in targets:
            if codes[slot] & PAIR_PROVABLE:
                return "success"
        for slot in targets:
            if codes[slot] & PAIR_POTENTIAL:
                return "continue"
        return "conflict"

    def pair_frame_decision(self, frames, index, pi_values, free_ppi_values):
        """Backtrace from the candidate's D-frontier gates of the pair analysis."""
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
        self, frames, index, signal, target, pi_values, ppi_values, decide_ppis
    ):
        """Iterative worklist form of the controlling-value backtrace."""
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
        # Explicit DFS worklist; children are pushed in reverse so the pop
        # order reproduces the reference recursion's visit order exactly.
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
