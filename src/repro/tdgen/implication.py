"""Backend-dispatched forward-implication engine shared by the search side.

PRs 1–2 made the *simulation* side of the flow bit-parallel; this module does
the same for the *search* side.  An :class:`ImplicationEngine` bundles the
three forward evaluations the searching phases replay once per decision
alternative:

* **two-frame eight-valued set implication** — TDgen's
  :func:`~repro.tdgen.simulation.simulate_two_frame` (also the reference
  fallback of TDsim's exact injection checks),
* **single-frame good/faulty pair simulation** — SEMILET's propagation
  PODEM (:mod:`repro.semilet.propagation`),
* **single-frame three-valued simulation** — SEMILET's frame justification
  (:mod:`repro.semilet.justification`).

Every evaluation comes in a scalar form and a *candidate batch* form: the
batch takes the current partial assignment plus one override per candidate
(a decision alternative, a candidate frame) and yields one result per
candidate.  The ``reference`` engine computes batch entries lazily with the
interpreted oracles, so its cost profile is exactly the historical
one-call-per-alternative behaviour; the ``packed`` engine evaluates the whole
batch in one bit-parallel pass over the compiled netlist
(:mod:`repro.algebra.packed_sets` for the eight-valued set planes,
:mod:`repro.fausim.packed_sim` for the three-valued planes), one candidate
per pattern slot of the unbounded-width planes, and unpacks only the
candidates that are actually consumed.

:func:`create_implication_engine` resolves its ``backend`` through the one
registry of :mod:`repro.fausim.backends`, and ``backend=None`` resolves to
the same process-wide default, so one ``--backend`` choice governs fault
simulation, search-side implication and (through
:meth:`ImplicationEngine.search_kernels`) the search heuristics::

    engine = create_implication_engine(circuit, backend="packed")
    state = engine.implicate(pi_values, ppi_initial, fault)
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.algebra.packed import NUM_PLANES
from repro.algebra.packed_sets import Move, PackedSetSimulator, apply_move
from repro.algebra.sets import ValueSet
from repro.algebra.values import DelayValue, PI_VALUES
from repro.circuit.gates import evaluate_gate
from repro.circuit.netlist import Circuit, LineKind
from repro.faults.model import GateDelayFault
from repro.fausim.backends import PACKED_BACKEND, resolve_backend
from repro.fausim.compile import CompiledCircuit, compile_circuit
from repro.fausim.kernels import PairAnalysis, pair_analysis
from repro.fausim.logic_sim import LogicSimulator, SignalValues
from repro.fausim.packed_sim import PackedLogicSimulator, PackedPlanes
from repro.obs.metrics import NULL_REGISTRY
from repro.tdgen.context import TDgenContext
from repro.tdgen.search import PackedSearchKernels, ReferenceSearchKernels, SearchKernels
from repro.tdgen.simulation import (
    TwoFrameState,
    _inject,
    _ppi_pair_set,
    simulate_two_frame,
)

#: One two-frame candidate: ``(kind, name, value)`` — ``kind`` is ``"pi"``
#: (``value`` is a :class:`DelayValue` pair or ``None``) or ``"ppi"``
#: (``value`` is the initial-frame bit or ``None``).  ``None`` candidates
#: apply no override (the base assignment itself).
TwoFrameCandidate = Optional[Tuple[str, str, object]]

#: One single-frame candidate: ``(name, is_pi, value)`` — the decision tuple
#: shape SEMILET's PODEMs use.
FrameCandidate = Optional[Tuple[str, bool, Optional[int]]]

#: ``(good, faulty)`` machine value of one signal (``None`` encodes X).
PairValue = Tuple[Optional[int], Optional[int]]

#: Memoised :func:`repro.tdgen.simulation._ppi_pair_set` over all nine
#: (initial, final) combinations, for the packed state-register coupling.
_PAIR_SET_TABLE: Dict[Tuple[Optional[int], Optional[int]], ValueSet] = {
    (initial, final): _ppi_pair_set(initial, final)
    for initial in (None, 0, 1)
    for final in (None, 0, 1)
}


class CandidateStates:
    """One two-frame implication result per candidate, possibly lazy."""

    def __len__(self) -> int:
        raise NotImplementedError

    def state(self, index: int) -> TwoFrameState:
        """The :class:`TwoFrameState` of candidate ``index``."""
        raise NotImplementedError


class CandidatePairFrames:
    """One good/faulty pair frame per candidate, possibly lazy."""

    def __len__(self) -> int:
        raise NotImplementedError

    def pairs(self, index: int) -> Dict[str, PairValue]:
        """The per-signal ``(good, faulty)`` values of candidate ``index``."""
        raise NotImplementedError


class CandidateFrames:
    """One three-valued frame per candidate, possibly lazy."""

    def __len__(self) -> int:
        raise NotImplementedError

    def frame(self, index: int) -> SignalValues:
        """The per-signal three-valued frame of candidate ``index``."""
        raise NotImplementedError


class ImplicationEngine:
    """Forward implication services behind one backend choice.

    Subclasses implement the three evaluation kinds; consumers hold exactly
    one engine per circuit and never dispatch on the backend themselves.

    Attributes:
        name: registry name of the backend (``"reference"`` / ``"packed"``).
        circuit: the circuit the engine is bound to.
        robust: whether the robust (paper Table 1) tables are used for the
            eight-valued implication.
        context: shared per-circuit static analysis.
    """

    name = "abstract"
    #: The search kernels class matching this engine's planes.
    kernels_class: Type[SearchKernels] = SearchKernels
    #: Metrics registry of the owning search engine (no-op by default).
    metrics = NULL_REGISTRY
    #: Sweep-counter label of the owning search engine ("" = unowned).
    metrics_site = ""

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        context: Optional[TDgenContext] = None,
    ) -> None:
        self.circuit = circuit
        self.robust = robust
        self._context = context
        self._search_kernels = None

    def set_metrics(self, metrics: object, site: str) -> None:
        """Attach a metrics registry on behalf of the owning search engine.

        ``site`` names the owner (``tdgen``/``propagation``/``justification``/
        ``tdsim``) and labels the owner's sweep counters.  The engine itself
        only forwards the registry to its internal simulators, when the
        backend has them: the event-driven set simulator (wavefront
        evaluated/skipped gate counts) and the three-valued logic simulator
        (gate words of the initial-frame, pair-frame and justification
        passes).  Attaching a registry never changes implication results.
        """
        self.metrics = metrics
        self.metrics_site = site

    def search_kernels(self) -> SearchKernels:
        """The search kernels matching this engine's backend (cached).

        Objective selection, multiple backtrace and the potential-difference
        scan read this engine's own states and frames, so the ``--backend``
        choice governs the search heuristics too.
        """
        if self._search_kernels is None:
            self._search_kernels = self.kernels_class(self)
        return self._search_kernels

    @property
    def context(self) -> TDgenContext:
        """Shared static analysis, built on first use.

        Lazy because the packed engine works entirely on the compiled
        netlist: constructing the observability-distance tables for every
        SEMILET-owned engine would be wasted whole-circuit work.
        """
        if self._context is None:
            self._context = TDgenContext(self.circuit)
        return self._context

    # -- two-frame eight-valued set implication ------------------------- #
    def implicate(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
        fault: Optional[GateDelayFault] = None,
    ) -> TwoFrameState:
        """Forward implication of the two local time frames (one assignment)."""
        return self.implicate_candidates(pi_values, ppi_initial, fault, (None,)).state(0)

    def implicate_candidates(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
        fault: Optional[GateDelayFault],
        candidates: Sequence[TwoFrameCandidate],
        base: Optional[TwoFrameState] = None,
    ) -> CandidateStates:
        """Implication of the base assignment under one override per candidate.

        Args:
            pi_values: base primary-input pair assignment.
            ppi_initial: base initial-frame PPI assignment.
            fault: the targeted fault shared by every candidate.
            candidates: one ``(kind, name, value)`` override per pattern slot
                (``None`` entries evaluate the base assignment itself).
            base: the implication of the *base assignment*, if the caller
                already holds it (the parent decision's state).  Engines may
                use it to evaluate the batch incrementally — the packed
                engine re-propagates only the decision variable's influence
                cone — and must produce bit-identical results either way.
        """
        raise NotImplementedError

    # -- single-frame good/faulty pair simulation ------------------------ #
    def pair_frame(
        self,
        pi_values: Mapping[str, Optional[int]],
        good_state: SignalValues,
        faulty_state: SignalValues,
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Dict[str, PairValue]:
        """Good and faulty machine of one frame in lock step (one assignment)."""
        return self.pair_frame_candidates(
            pi_values, good_state, faulty_state, free_ppi_values, (None,)
        ).pairs(0)

    def pair_frame_candidates(
        self,
        pi_values: Mapping[str, Optional[int]],
        good_state: SignalValues,
        faulty_state: SignalValues,
        free_ppi_values: Mapping[str, Optional[int]],
        candidates: Sequence[FrameCandidate],
    ) -> CandidatePairFrames:
        """Pair simulation of the base frame under one override per candidate."""
        raise NotImplementedError

    # -- single-frame three-valued simulation ---------------------------- #
    def frame(
        self,
        pi_values: Mapping[str, Optional[int]],
        ppi_values: Mapping[str, Optional[int]],
    ) -> SignalValues:
        """Three-valued evaluation of one combinational frame (one assignment)."""
        return self.frame_candidates(pi_values, ppi_values, (None,)).frame(0)

    def frame_candidates(
        self,
        pi_values: Mapping[str, Optional[int]],
        ppi_values: Mapping[str, Optional[int]],
        candidates: Sequence[FrameCandidate],
    ) -> CandidateFrames:
        """Frame evaluation of the base assignment under one override each."""
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# reference engine — the interpreted oracles, computed lazily per candidate
# --------------------------------------------------------------------------- #
class _LazyStates(CandidateStates):
    """Reference candidate states: one interpreter run per consumed index."""

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, ppi_initial, fault, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._ppi_initial = dict(ppi_initial)
        self._fault = fault
        self._candidates = list(candidates)
        self._cache: Dict[int, TwoFrameState] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def state(self, index: int) -> TwoFrameState:
        """Simulate candidate ``index`` with the reference interpreter."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        pi_values = dict(self._pi_values)
        ppi_initial = dict(self._ppi_initial)
        candidate = self._candidates[index]
        if candidate is not None:
            kind, name, value = candidate
            if kind == "pi":
                pi_values[name] = value
            else:
                ppi_initial[name] = value
        state = simulate_two_frame(
            self._engine.context, pi_values, ppi_initial, self._fault,
            robust=self._engine.robust,
        )
        self._cache[index] = state
        return state


class _LazyPairFrames(CandidatePairFrames):
    """Reference pair frames: one interpreted lock-step run per index."""

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, good_state, faulty_state, free_ppi_values, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._good_state = dict(good_state)
        self._faulty_state = dict(faulty_state)
        self._free_ppi_values = dict(free_ppi_values)
        self._candidates = list(candidates)
        self._cache: Dict[int, Dict[str, PairValue]] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def pairs(self, index: int) -> Dict[str, PairValue]:
        """Simulate candidate ``index`` with the interpreted pair loop."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        pi_values = dict(self._pi_values)
        free_ppi_values = dict(self._free_ppi_values)
        candidate = self._candidates[index]
        if candidate is not None:
            name, is_pi, value = candidate
            if is_pi:
                pi_values[name] = value
            else:
                free_ppi_values[name] = value
        pairs = self._engine._pair_frame_interpreted(
            pi_values, self._good_state, self._faulty_state, free_ppi_values
        )
        self._cache[index] = pairs
        return pairs


class _LazyFrames(CandidateFrames):
    """Reference frames: one interpreted combinational run per index."""

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, ppi_values, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._ppi_values = dict(ppi_values)
        self._candidates = list(candidates)
        self._cache: Dict[int, SignalValues] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def frame(self, index: int) -> SignalValues:
        """Simulate candidate ``index`` with the reference logic simulator."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        pi_values = dict(self._pi_values)
        ppi_values = dict(self._ppi_values)
        candidate = self._candidates[index]
        if candidate is not None:
            name, is_pi, value = candidate
            if is_pi:
                pi_values[name] = value
            else:
                ppi_values[name] = value
        pis = {pi: value for pi, value in pi_values.items() if value is not None}
        state = {ppi: value for ppi, value in ppi_values.items() if value is not None}
        frame = self._engine._simulator.combinational(pis, state)
        self._cache[index] = frame
        return frame


class ReferenceImplicationEngine(ImplicationEngine):
    """The interpreted oracles, kept bit-exact with the historical code paths.

    Candidate batches are lazy: a candidate that is never consumed (its
    decision alternative was never flipped to) costs nothing, preserving the
    cost profile of the one-call-per-alternative search loops this engine
    replaces.
    """

    name = "reference"
    kernels_class = ReferenceSearchKernels

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        context: Optional[TDgenContext] = None,
    ) -> None:
        super().__init__(circuit, robust=robust, context=context)
        self._simulator = LogicSimulator(circuit)

    def implicate_candidates(
        self, pi_values, ppi_initial, fault, candidates, base=None
    ) -> CandidateStates:
        """Lazy batch of :func:`~repro.tdgen.simulation.simulate_two_frame` runs.

        ``base`` is ignored: the reference engine always re-interprets a
        candidate from scratch, which is exactly the historical cost model.
        """
        return _LazyStates(self, pi_values, ppi_initial, fault, candidates)

    def pair_frame_candidates(
        self, pi_values, good_state, faulty_state, free_ppi_values, candidates
    ) -> CandidatePairFrames:
        """Lazy batch of interpreted good/faulty lock-step frame runs."""
        return _LazyPairFrames(
            self, pi_values, good_state, faulty_state, free_ppi_values, candidates
        )

    def frame_candidates(self, pi_values, ppi_values, candidates) -> CandidateFrames:
        """Lazy batch of reference three-valued combinational runs."""
        return _LazyFrames(self, pi_values, ppi_values, candidates)

    # ------------------------------------------------------------------ #
    def _pair_frame_interpreted(
        self,
        pi_values: Mapping[str, Optional[int]],
        good_state: SignalValues,
        faulty_state: SignalValues,
        free_ppi_values: Mapping[str, Optional[int]],
    ) -> Dict[str, PairValue]:
        """Simulate good and faulty machines of one frame in lock step."""
        circuit = self.circuit
        pairs: Dict[str, PairValue] = {}
        for pi in circuit.primary_inputs:
            value = pi_values.get(pi)
            pairs[pi] = (value, value)
        for ppi in circuit.pseudo_primary_inputs:
            good_value = good_state.get(ppi)
            faulty_value = faulty_state.get(ppi)
            free = free_ppi_values.get(ppi)
            if free is not None:
                # A value required from the fast frame: identical in both
                # machines (the fault effect is only in the explicitly faulty
                # bits).
                good_value = free
                faulty_value = free
            pairs[ppi] = (good_value, faulty_value)
        for name in self.context.order:
            gate = circuit.gate(name)
            good_inputs = [pairs[s][0] for s in gate.fanin]
            faulty_inputs = [pairs[s][1] for s in gate.fanin]
            pairs[name] = (
                evaluate_gate(gate.gate_type, good_inputs),
                evaluate_gate(gate.gate_type, faulty_inputs),
            )
        return pairs


# --------------------------------------------------------------------------- #
# packed engine — one candidate per pattern slot on the compiled netlist
# --------------------------------------------------------------------------- #
class _LazyColumn(dict):
    """Per-signal dict view of one pattern slot, unpacked on first access.

    A conflict-classified decision alternative only ever reads a handful of
    signals (the fault line, the observation points), so unpacking all of a
    state's columns eagerly would waste most of the packed engine's win.
    This dict subclass unpacks a signal's column the first time it is
    indexed; bulk views (iteration, ``items``, ``copy``, equality,
    pickling) materialise every signal first so those behave like the eager
    dict.  One caveat: ``dict(lazy_column)`` bypasses every subclass hook
    (CPython copies the underlying storage directly) and must not be used —
    call :meth:`copy` instead for a plain-dict snapshot.
    """

    def __init__(self, slot_of: Mapping[str, int], unpack: Callable[[int], object]) -> None:
        super().__init__()
        self._slot_of = slot_of
        self._unpack = unpack

    def __missing__(self, name: str):
        value = self._unpack(self._slot_of[name])
        self[name] = value
        return value

    def get(self, name, default=None):
        """Mapping ``get`` that unpacks missing-but-known signals."""
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name) -> bool:
        return name in self._slot_of

    def _materialize(self) -> None:
        missing = len(self._slot_of) - super().__len__()
        if missing:
            unpack = self._unpack
            for name, slot in self._slot_of.items():
                if not super().__contains__(name):
                    self[name] = unpack(slot)

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self):
        self._materialize()
        return super().__iter__()

    def keys(self):
        """All signal names (materialises the remaining columns)."""
        self._materialize()
        return super().keys()

    def values(self):
        """All signal values (materialises the remaining columns)."""
        self._materialize()
        return super().values()

    def items(self):
        """All (signal, value) pairs (materialises the remaining columns)."""
        self._materialize()
        return super().items()

    def __eq__(self, other) -> bool:
        self._materialize()
        return dict(self) == other

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def copy(self):
        """A plain, fully materialised dict copy."""
        self._materialize()
        return dict(self)

    def __reduce__(self):
        # Pickling (and copy.copy) must see the materialised mapping, not
        # the unpicklable unpack closure.
        return (dict, (self.copy(),))

    __hash__ = None


class _PackedStates(CandidateStates):
    """Packed candidate states: one set-propagation pass, lazy unpacking.

    A *full* sweep fills every signal's planes.  An *incremental* sweep (one
    started from a parent state) fills only the decision variable's influence
    cone and keeps ``None`` plane entries elsewhere; reads outside the cone
    fall back to the parent's per-slot column (``base_sets`` /
    ``base_frame1``).
    """

    def __init__(
        self,
        owner: "PackedImplicationEngine",
        set_planes: List[Optional[List[int]]],
        frame1_planes: PackedPlanes,
        ppi_pair_sets: List[Dict[str, ValueSet]],
        conflict_signals: Dict[int, str],
        fault: Optional[GateDelayFault],
        width: int,
        base_sets: Optional[List[ValueSet]] = None,
        base_frame1: Optional[List[Optional[int]]] = None,
        frame1_slots: Optional[frozenset] = None,
    ) -> None:
        self._owner = owner
        self._compiled = owner.compiled
        self._set_planes = set_planes
        self._frame1_planes = frame1_planes
        self._ppi_pair_sets = ppi_pair_sets
        self._conflict_signals = conflict_signals
        self._fault = fault
        self._width = width
        self._base_sets = base_sets
        self._base_frame1 = base_frame1
        self._frame1_slots = frame1_slots
        self._cache: Dict[int, TwoFrameState] = {}
        self._set_columns: Dict[int, List[ValueSet]] = {}
        self._frame1_columns: Dict[int, List[Optional[int]]] = {}

    def __len__(self) -> int:
        return self._width

    # -- per-slot column extraction (base of incremental child sweeps) ---- #
    def column_sets(self, index: int) -> List[ValueSet]:
        """Per-signal-slot possibility sets of one pattern slot."""
        cached = self._set_columns.get(index)
        if cached is not None:
            return cached
        bit = 1 << index
        planes = self._set_planes
        base = self._base_sets
        if base is not None:
            # Incremental state: only the influence cone carries planes; the
            # remaining slots are the parent's column, copied wholesale.
            column = list(base)
            for slot, signal_planes in enumerate(planes):
                if signal_planes is None:
                    continue
                mask = 0
                for value_index in range(NUM_PLANES):
                    if signal_planes[value_index] & bit:
                        mask |= 1 << value_index
                column[slot] = mask
        else:
            column = [0] * len(planes)
            for slot, signal_planes in enumerate(planes):
                mask = 0
                for value_index in range(NUM_PLANES):
                    if signal_planes[value_index] & bit:
                        mask |= 1 << value_index
                column[slot] = mask
        self._set_columns[index] = column
        return column

    def column_frame1(self, index: int) -> List[Optional[int]]:
        """Per-signal-slot initial-frame values of one pattern slot."""
        cached = self._frame1_columns.get(index)
        if cached is not None:
            return cached
        bit = 1 << index
        zero = self._frame1_planes.zero
        one = self._frame1_planes.one
        if self._frame1_slots is None:
            column: List[Optional[int]] = [None] * len(zero)
            slots = range(len(zero))
        else:
            column = list(self._base_frame1)
            slots = self._frame1_slots
        for slot in slots:
            if one[slot] & bit:
                column[slot] = 1
            elif zero[slot] & bit:
                column[slot] = 0
            elif self._frame1_slots is not None:
                column[slot] = None
        self._frame1_columns[index] = column
        return column

    def state(self, index: int) -> TwoFrameState:
        """View pattern slot ``index`` as a (lazily unpacked) state."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        compiled = self._compiled
        planes = self._set_planes
        zero = self._frame1_planes.zero
        one = self._frame1_planes.one
        base_sets = self._base_sets
        base_frame1 = self._base_frame1
        frame1_slots = self._frame1_slots
        bit = 1 << index

        def unpack_set(slot: int) -> ValueSet:
            signal_planes = planes[slot]
            if signal_planes is None:
                return base_sets[slot]
            mask = 0
            for value_index in range(NUM_PLANES):
                if signal_planes[value_index] & bit:
                    mask |= 1 << value_index
            return mask

        def unpack_frame1(slot: int) -> Optional[int]:
            if frame1_slots is not None and slot not in frame1_slots:
                return base_frame1[slot]
            if one[slot] & bit:
                return 1
            if zero[slot] & bit:
                return 0
            return None

        signal_sets = _LazyColumn(compiled.slot_of, unpack_set)
        frame1 = _LazyColumn(compiled.slot_of, unpack_frame1)

        fault = self._fault
        if fault is None:
            fault_line_set = 0
        elif fault.line.kind is LineKind.STEM:
            fault_line_set = signal_sets[fault.line.signal]
        else:
            fault_line_set = _inject(signal_sets[fault.line.signal], fault.fault_type)

        state = TwoFrameState(
            signal_sets=signal_sets,
            frame1=frame1,
            fault_line_set=fault_line_set,
            ppi_pair_sets=self._ppi_pair_sets[index],
            conflict_signal=self._conflict_signals.get(index),
            packed_handle=(self, index),
        )
        self._cache[index] = state
        return state


class _PackedPairFrames(CandidatePairFrames):
    """Packed pair frames: good/faulty machines in adjacent pattern slots.

    ``pairs`` unpacks lazily (most consumers read a handful of signals — the
    targets, the state register) and :meth:`pair_analysis` runs the one
    analysis pass of the batch (:func:`repro.fausim.kernels.pair_analysis`):
    the potential-difference, provable-difference and D-frontier columns of
    every candidate at once, which the packed search kernels read.
    """

    def __init__(
        self, compiled: CompiledCircuit, planes: PackedPlanes, width: int, metrics
    ) -> None:
        self._compiled = compiled
        self._planes = planes
        self._width = width
        self._metrics = metrics
        self._cache: Dict[int, Dict[str, PairValue]] = {}
        self._analysis: Optional[PairAnalysis] = None

    def __len__(self) -> int:
        return self._width

    def packed_planes(self) -> PackedPlanes:
        """The underlying planes (read by the packed search kernels)."""
        return self._planes

    def pairs(self, index: int) -> Dict[str, PairValue]:
        """View candidate ``index`` (slots ``2i`` / ``2i + 1``) as lazy pairs."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        zero = self._planes.zero
        one = self._planes.one
        good_bit = 1 << (2 * index)
        faulty_bit = good_bit << 1

        def unpack_pair(slot: int) -> PairValue:
            if one[slot] & good_bit:
                good_value: Optional[int] = 1
            elif zero[slot] & good_bit:
                good_value = 0
            else:
                good_value = None
            if one[slot] & faulty_bit:
                faulty_value: Optional[int] = 1
            elif zero[slot] & faulty_bit:
                faulty_value = 0
            else:
                faulty_value = None
            return (good_value, faulty_value)

        pairs = _LazyColumn(self._compiled.slot_of, unpack_pair)
        self._cache[index] = pairs
        return pairs

    def pair_analysis(self) -> PairAnalysis:
        """The batch's analysis columns, computed on first use and cached.

        Bit ``2i`` of each column belongs to candidate ``i``; the potential
        column is exactly the reference scan of
        :meth:`repro.tdgen.search.ReferenceSearchKernels.potential_difference`,
        evaluated bit-parallel for the whole batch.
        """
        if self._analysis is None:
            self._analysis = pair_analysis(
                self._compiled, self._planes.zero, self._planes.one,
                self._planes.width, self._metrics,
            )
        return self._analysis


class _PackedFrames(CandidateFrames):
    """Packed three-valued frames: one candidate per pattern slot."""

    def __init__(self, compiled: CompiledCircuit, planes: PackedPlanes, width: int) -> None:
        self._compiled = compiled
        self._planes = planes
        self._width = width
        self._cache: Dict[int, SignalValues] = {}

    def __len__(self) -> int:
        return self._width

    def packed_planes(self) -> PackedPlanes:
        """The underlying planes (read by the packed search kernels)."""
        return self._planes

    def frame(self, index: int) -> SignalValues:
        """View pattern slot ``index`` as a lazily unpacked per-signal dict."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        zero = self._planes.zero
        one = self._planes.one
        bit = 1 << index

        def unpack_value(slot: int) -> Optional[int]:
            if one[slot] & bit:
                return 1
            if zero[slot] & bit:
                return 0
            return None

        values = _LazyColumn(self._compiled.slot_of, unpack_value)
        self._cache[index] = values
        return values


@dataclasses.dataclass(frozen=True)
class _InfluenceCone(object):
    """Static influence cone of one decision variable.

    Assigning a PI pair or a PPI initial value can change the initial frame
    only in the variable's combinational fanout (``frame1_gates``); through
    the state-register coupling that can change the pair sets of
    ``affected_dffs``, and the test frame then changes only in the fanout of
    the variable plus those PPIs (``pass2_gates``).  ``*_frontier`` are the
    out-of-cone slots a cone gate reads — the only base columns an
    incremental sweep has to broadcast into planes.
    """

    frame1_gates: Tuple[int, ...]
    frame1_frontier: Tuple[int, ...]
    frame1_slots: frozenset
    affected_dffs: Tuple[int, ...]
    pass2_gates: Tuple[int, ...]
    pass2_frontier: Tuple[int, ...]


class PackedImplicationEngine(ImplicationEngine):
    """Bit-parallel implication on the compiled netlist.

    Each pattern slot carries one independent candidate assignment; one pass
    over the compiled gate program implies the whole batch.  The initial
    (slow clock) frame runs in the two-plane three-valued encoding of
    :mod:`repro.fausim.packed_sim`; the test frame runs in the eight-plane
    *set* encoding of :mod:`repro.algebra.packed_sets` with the targeted
    fault injected per the reference rules (stem output or single branch
    pin).  Results unpack lazily, so unexplored alternatives only ever cost
    their share of the shared pass.

    When the caller provides the base assignment's own implication (the
    parent decision's state), a candidate sweep over a single decision
    variable runs *incrementally*: only the variable's statically computed
    influence cone (:class:`_InfluenceCone`) is re-evaluated, and every
    other signal resolves to the parent's column.
    """

    name = PACKED_BACKEND
    kernels_class = PackedSearchKernels

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        context: Optional[TDgenContext] = None,
    ) -> None:
        super().__init__(circuit, robust=robust, context=context)
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        self._sets = PackedSetSimulator(self.compiled, robust=robust)
        self._logic = PackedLogicSimulator(circuit)
        compiled = self.compiled
        self._pi_items: List[Tuple[int, str]] = list(
            zip(compiled.pi_slots, circuit.primary_inputs)
        )
        #: Per flip-flop: (PPI slot, PPO data slot, PPI name).
        self._dff_items: List[Tuple[int, int, str]] = [
            (compiled.slot_of[dff.name], compiled.slot_of[dff.fanin[0]], dff.name)
            for dff in circuit.flip_flops
        ]
        self._cones: Dict[str, _InfluenceCone] = {}

    def set_metrics(self, metrics: object, site: str) -> None:
        """Attach a metrics registry and forward it to the internal simulators."""
        super().set_metrics(metrics, site)
        self._sets.metrics = metrics
        self._logic.metrics = metrics

    # ------------------------------------------------------------------ #
    def implicate_candidates(
        self, pi_values, ppi_initial, fault, candidates, base=None
    ) -> CandidateStates:
        """One packed set-propagation sweep, one candidate per pattern slot."""
        if not candidates:
            raise ValueError("need at least one candidate")
        incremental = self._try_incremental(
            pi_values, ppi_initial, fault, candidates, base
        )
        if incremental is not None:
            return incremental
        return self._implicate_full(pi_values, ppi_initial, fault, candidates)

    def _try_incremental(
        self, pi_values, ppi_initial, fault, candidates, base
    ) -> Optional["_PackedStates"]:
        """Run the sweep incrementally off ``base`` when it is eligible.

        Eligible means: the base state was produced by *this* engine for the
        *same* fault, it is conflict free, and every override targets one
        single decision variable (the shape the search loops produce).
        Returns ``None`` to fall back to a full sweep.
        """
        if base is None or base.conflict_signal is not None:
            return None
        handle = base.packed_handle
        if handle is None:
            return None
        parent, parent_index = handle
        if parent._owner is not self or parent._fault != fault:
            return None
        variables = {
            (candidate[0], candidate[1])
            for candidate in candidates
            if candidate is not None
        }
        if len(variables) != 1:
            return None
        kind, name = next(iter(variables))
        if name not in self.compiled.slot_of:
            return None
        return self._implicate_incremental(
            pi_values, ppi_initial, fault, candidates,
            parent, parent_index, kind, name,
        )

    # ------------------------------------------------------------------ #
    def _cone(self, name: str) -> _InfluenceCone:
        """The (cached) static influence cone of one decision variable."""
        cached = self._cones.get(name)
        if cached is not None:
            return cached
        compiled = self.compiled
        offsets = compiled.fanin_offsets
        fanin_flat = compiled.fanin_flat
        outputs = compiled.outputs
        var_slot = compiled.slot_of[name]

        def closure(source_slots: set) -> Tuple[List[int], set]:
            """Gate indices (in program order) reachable from the sources."""
            reached = set(source_slots)
            gates: List[int] = []
            for index in range(len(compiled.ops)):
                for position in range(offsets[index], offsets[index + 1]):
                    if fanin_flat[position] in reached:
                        gates.append(index)
                        reached.add(outputs[index])
                        break
            return gates, reached

        def frontier(gates: List[int], reached: set) -> Tuple[int, ...]:
            """Out-of-cone slots the cone gates read."""
            outside = set()
            for index in gates:
                for position in range(offsets[index], offsets[index + 1]):
                    slot = fanin_flat[position]
                    if slot not in reached:
                        outside.add(slot)
            return tuple(sorted(outside))

        frame1_gates, frame1_reached = closure({var_slot})
        affected_dffs = tuple(
            position
            for position, (ppi_slot, data_slot, _) in enumerate(self._dff_items)
            if data_slot in frame1_reached or ppi_slot == var_slot
        )
        pass2_sources = {var_slot}
        pass2_sources.update(self._dff_items[position][0] for position in affected_dffs)
        pass2_gates, pass2_reached = closure(pass2_sources)

        cone = _InfluenceCone(
            frame1_gates=tuple(frame1_gates),
            frame1_frontier=frontier(frame1_gates, frame1_reached),
            frame1_slots=frozenset(frame1_reached),
            affected_dffs=affected_dffs,
            pass2_gates=tuple(pass2_gates),
            pass2_frontier=frontier(pass2_gates, pass2_reached),
        )
        self._cones[name] = cone
        return cone

    # ------------------------------------------------------------------ #
    def _fault_moves(
        self, fault: Optional[GateDelayFault], full: int
    ) -> Tuple[Optional[Tuple[int, Move]], Dict[int, List[Move]], Dict[int, List[Move]]]:
        """Injection bookkeeping of one sweep.

        Returns the source-stem injection (slot + move) if the fault stem is
        a PI/PPI, the gate-stem move table and the branch-position move
        table — the packed mirror of the reference injection rules.
        """
        stem_moves: Dict[int, List[Move]] = {}
        branch_moves: Dict[int, List[Move]] = {}
        source_stem: Optional[Tuple[int, Move]] = None
        if fault is None:
            return source_stem, stem_moves, branch_moves
        compiled = self.compiled
        move: Move = (
            fault.fault_type.activation_value.index,
            fault.fault_type.fault_value.index,
            full,
        )
        slot = compiled.slot_of.get(fault.line.signal)
        if fault.line.kind is LineKind.STEM:
            if slot is not None:
                if slot < len(compiled.pi_slots) + len(compiled.ppi_slots):
                    source_stem = (slot, move)
                else:
                    stem_moves[slot] = [move]
        else:
            sink_slot = compiled.slot_of.get(fault.line.sink)
            sink_index = compiled.gate_index_of.get(sink_slot)
            if (
                sink_index is not None
                and fault.line.pin is not None
                and fault.line.pin >= 0
            ):
                position = compiled.fanin_offsets[sink_index] + fault.line.pin
                if (
                    position < compiled.fanin_offsets[sink_index + 1]
                    and compiled.fanin_flat[position] == slot
                ):
                    branch_moves[position] = [move]
        return source_stem, stem_moves, branch_moves

    # ------------------------------------------------------------------ #
    def _implicate_incremental(
        self, pi_values, ppi_initial, fault, candidates,
        parent: "_PackedStates", parent_index: int, kind: str, name: str,
    ) -> "_PackedStates":
        """Candidate sweep restricted to one variable's influence cone."""
        compiled = self.compiled
        width = len(candidates)
        full = (1 << width) - 1
        cone = self._cone(name)
        base_sets = parent.column_sets(parent_index)
        base_frame1 = parent.column_frame1(parent_index)
        var_slot = compiled.slot_of[name]
        num_signals = compiled.num_signals

        # ---- initial frame: cone-only three-valued pass ----------------- #
        zero = [0] * num_signals
        one = [0] * num_signals
        for slot in cone.frame1_frontier:
            value = base_frame1[slot]
            if value == 1:
                one[slot] = full
            elif value == 0:
                zero[slot] = full
        base_pi_value = pi_values.get(name) if kind == "pi" else ppi_initial.get(name)
        for slot_index, candidate in enumerate(candidates):
            value = base_pi_value if candidate is None else candidate[2]
            initial = (
                value.initial if kind == "pi" and value is not None else value
            )
            if initial == 1:
                one[var_slot] |= 1 << slot_index
            elif initial == 0:
                zero[var_slot] |= 1 << slot_index
        frame1_planes = PackedPlanes(zero=zero, one=one, width=width)
        self._logic.evaluate_planes(frame1_planes, cone.frame1_gates)

        # ---- test frame: cone-only set propagation ---------------------- #
        source_stem, stem_moves, branch_moves = self._fault_moves(fault, full)
        planes: List[Optional[List[int]]] = [None] * num_signals
        for slot in cone.pass2_frontier:
            broadcast = [0] * NUM_PLANES
            remaining = base_sets[slot]
            while remaining:
                low = remaining & -remaining
                broadcast[low.bit_length() - 1] = full
                remaining ^= low
            planes[slot] = broadcast

        if kind == "pi":
            var_planes = [0] * NUM_PLANES
            for slot_index, candidate in enumerate(candidates):
                value = base_pi_value if candidate is None else candidate[2]
                bit = 1 << slot_index
                if value is not None:
                    var_planes[value.index] |= bit
                else:
                    for pi_value in PI_VALUES:
                        var_planes[pi_value.index] |= bit
            planes[var_slot] = var_planes

        # State-register coupling for the affected flip-flops only; the
        # remaining pair sets are inherited from the parent column.
        base_pairs = parent._ppi_pair_sets[parent_index]
        ppi_pair_sets: List[Dict[str, ValueSet]] = [
            dict(base_pairs) for _ in range(width)
        ]
        frame1_slots = cone.frame1_slots
        frame1_zero = frame1_planes.zero
        frame1_one = frame1_planes.one
        for position in cone.affected_dffs:
            ppi_slot, data_slot, dff_name = self._dff_items[position]
            dff_planes = [0] * NUM_PLANES
            in_cone = data_slot in frame1_slots
            base_initial = ppi_initial.get(dff_name)
            for slot_index in range(width):
                bit = 1 << slot_index
                if kind == "ppi" and dff_name == name:
                    candidate = candidates[slot_index]
                    initial = base_initial if candidate is None else candidate[2]
                else:
                    initial = base_initial
                if in_cone:
                    if frame1_one[data_slot] & bit:
                        final: Optional[int] = 1
                    elif frame1_zero[data_slot] & bit:
                        final = 0
                    else:
                        final = None
                else:
                    final = base_frame1[data_slot]
                pair_set = _PAIR_SET_TABLE[(initial, final)]
                ppi_pair_sets[slot_index][dff_name] = pair_set
                remaining = pair_set
                while remaining:
                    low = remaining & -remaining
                    dff_planes[low.bit_length() - 1] |= bit
                    remaining ^= low
            planes[ppi_slot] = dff_planes

        # Source-stem injection: only needed on planes this sweep reloads
        # (the parent's columns already carry the injection elsewhere).
        if source_stem is not None:
            stem_slot, move = source_stem
            reloaded = planes[stem_slot]
            if reloaded is not None:
                apply_move(reloaded, move)

        # Event-driven sweep: only the decision variable and the re-coupled
        # state registers can differ from the parent column; gates whose
        # inputs stay off that wavefront are skipped and resolve to the
        # parent via their ``None`` planes entry.
        changed_slots = [var_slot]
        changed_slots.extend(
            self._dff_items[position][0] for position in cone.affected_dffs
        )
        result = self._sets.propagate(
            planes, width, stem_moves, branch_moves, cone.pass2_gates,
            base_sets=base_sets, changed_slots=changed_slots,
        )
        return _PackedStates(
            owner=self,
            set_planes=result.planes,
            frame1_planes=frame1_planes,
            ppi_pair_sets=ppi_pair_sets,
            conflict_signals=result.conflict_signals,
            fault=fault,
            width=width,
            base_sets=base_sets,
            base_frame1=base_frame1,
            frame1_slots=frame1_slots,
        )

    def _implicate_full(self, pi_values, ppi_initial, fault, candidates) -> _PackedStates:
        """Evaluate a batch of two-frame candidates over the whole netlist."""
        compiled = self.compiled
        width = len(candidates)
        full = (1 << width) - 1

        pi_overrides: Dict[str, List[Tuple[int, object]]] = {}
        ppi_overrides: Dict[str, List[Tuple[int, object]]] = {}
        for slot_index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            kind, name, value = candidate
            target = pi_overrides if kind == "pi" else ppi_overrides
            target.setdefault(name, []).append((slot_index, value))

        # ---- pass 1: three-valued initial frame, all candidates at once --- #
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals
        for slot, name in self._pi_items:
            base = pi_values.get(name)
            overrides = pi_overrides.get(name)
            if overrides is None:
                if base is not None:
                    if base.initial:
                        one[slot] = full
                    else:
                        zero[slot] = full
                continue
            override_mask = 0
            for slot_index, value in overrides:
                bit = 1 << slot_index
                override_mask |= bit
                if value is not None:
                    if value.initial:
                        one[slot] |= bit
                    else:
                        zero[slot] |= bit
            if base is not None:
                rest = full & ~override_mask
                if base.initial:
                    one[slot] |= rest
                else:
                    zero[slot] |= rest
        for ppi_slot, _, name in self._dff_items:
            base = ppi_initial.get(name)
            overrides = ppi_overrides.get(name)
            if overrides is None:
                if base is not None:
                    if base:
                        one[ppi_slot] = full
                    else:
                        zero[ppi_slot] = full
                continue
            override_mask = 0
            for slot_index, value in overrides:
                bit = 1 << slot_index
                override_mask |= bit
                if value is not None:
                    if value:
                        one[ppi_slot] |= bit
                    else:
                        zero[ppi_slot] |= bit
            if base is not None:
                rest = full & ~override_mask
                if base:
                    one[ppi_slot] |= rest
                else:
                    zero[ppi_slot] |= rest
        frame1_planes = PackedPlanes(zero=zero, one=one, width=width)
        self._logic.evaluate_planes(frame1_planes)

        # ---- source set planes ------------------------------------------- #
        set_planes: List[List[int]] = [[0] * NUM_PLANES for _ in range(compiled.num_signals)]
        for slot, name in self._pi_items:
            base = pi_values.get(name)
            overrides = pi_overrides.get(name)
            planes = set_planes[slot]
            if overrides is None:
                if base is not None:
                    planes[base.index] = full
                else:
                    for value in PI_VALUES:
                        planes[value.index] = full
                continue
            override_mask = 0
            for slot_index, value in overrides:
                bit = 1 << slot_index
                override_mask |= bit
                if value is not None:
                    planes[value.index] |= bit
                else:
                    for pi_value in PI_VALUES:
                        planes[pi_value.index] |= bit
            rest = full & ~override_mask
            if rest:
                if base is not None:
                    planes[base.index] |= rest
                else:
                    for pi_value in PI_VALUES:
                        planes[pi_value.index] |= rest

        # State-register coupling: the PPI pair set of every candidate is
        # derived from its own initial value and its own frame-1 PPO value.
        ppi_pair_sets: List[Dict[str, ValueSet]] = [{} for _ in range(width)]
        for ppi_slot, data_slot, name in self._dff_items:
            base = ppi_initial.get(name)
            overrides = dict(
                (slot_index, value) for slot_index, value in ppi_overrides.get(name, ())
            )
            data_zero = frame1_planes.zero[data_slot]
            data_one = frame1_planes.one[data_slot]
            planes = set_planes[ppi_slot]
            for slot_index in range(width):
                initial = overrides.get(slot_index, base) if overrides else base
                bit = 1 << slot_index
                if data_one & bit:
                    final: Optional[int] = 1
                elif data_zero & bit:
                    final = 0
                else:
                    final = None
                pair_set = _PAIR_SET_TABLE[(initial, final)]
                ppi_pair_sets[slot_index][name] = pair_set
                remaining = pair_set
                while remaining:
                    low = remaining & -remaining
                    planes[low.bit_length() - 1] |= bit
                    remaining ^= low

        # ---- fault injection moves ---------------------------------------- #
        source_stem, stem_moves, branch_moves = self._fault_moves(fault, full)
        if source_stem is not None:
            # PI / PPI stem: inject right at the loaded planes.
            stem_slot, move = source_stem
            apply_move(set_planes[stem_slot], move)

        result = self._sets.propagate(set_planes, width, stem_moves, branch_moves)
        return _PackedStates(
            owner=self,
            set_planes=result.planes,
            frame1_planes=frame1_planes,
            ppi_pair_sets=ppi_pair_sets,
            conflict_signals=result.conflict_signals,
            fault=fault,
            width=width,
        )

    # ------------------------------------------------------------------ #
    def pair_frame_candidates(
        self, pi_values, good_state, faulty_state, free_ppi_values, candidates
    ) -> CandidatePairFrames:
        """One packed pass; candidate ``i`` occupies slots ``2i`` / ``2i + 1``."""
        if not candidates:
            raise ValueError("need at least one candidate")
        compiled = self.compiled
        width = 2 * len(candidates)
        full = (1 << width) - 1
        #: Alternating good/faulty slot-selection masks.
        good_mask = full // 3  # bits 0, 2, 4, ...  (0b01 repeated)
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals

        pi_overrides: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        ppi_overrides: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        for slot_index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            name, is_pi, value = candidate
            target = pi_overrides if is_pi else ppi_overrides
            target.setdefault(name, []).append((slot_index, value))

        for slot, name in self._pi_items:
            base = pi_values.get(name)
            overrides = pi_overrides.get(name)
            if overrides is None:
                if base is not None:
                    if base:
                        one[slot] = full
                    else:
                        zero[slot] = full
                continue
            override_mask = 0
            for slot_index, value in overrides:
                bits = 0b11 << (2 * slot_index)
                override_mask |= bits
                if value is not None:
                    if value:
                        one[slot] |= bits
                    else:
                        zero[slot] |= bits
            if base is not None:
                rest = full & ~override_mask
                if base:
                    one[slot] |= rest
                else:
                    zero[slot] |= rest

        for ppi_slot, _, name in self._dff_items:
            free = free_ppi_values.get(name)
            overrides = ppi_overrides.get(name)
            base_good = good_state.get(name)
            base_faulty = faulty_state.get(name)
            if free is not None:
                # A value required from the fast frame: identical in both
                # machines, exactly as the reference pair loop applies it.
                base_good = free
                base_faulty = free
            if overrides is None:
                if base_good == 1:
                    one[ppi_slot] |= good_mask & full
                elif base_good == 0:
                    zero[ppi_slot] |= good_mask & full
                if base_faulty == 1:
                    one[ppi_slot] |= (good_mask << 1) & full
                elif base_faulty == 0:
                    zero[ppi_slot] |= (good_mask << 1) & full
                continue
            override_mask = 0
            for slot_index, value in overrides:
                bits = 0b11 << (2 * slot_index)
                override_mask |= bits
                # The override *replaces* the free-PPI value for this
                # candidate; ``None`` means unassigned, not "fall back".
                effective = value
                if effective is None:
                    # Unassigned free PPI: fall back to the captured states.
                    good_bit = 1 << (2 * slot_index)
                    faulty_bit = good_bit << 1
                    captured_good = good_state.get(name)
                    captured_faulty = faulty_state.get(name)
                    if captured_good == 1:
                        one[ppi_slot] |= good_bit
                    elif captured_good == 0:
                        zero[ppi_slot] |= good_bit
                    if captured_faulty == 1:
                        one[ppi_slot] |= faulty_bit
                    elif captured_faulty == 0:
                        zero[ppi_slot] |= faulty_bit
                elif effective:
                    one[ppi_slot] |= bits
                else:
                    zero[ppi_slot] |= bits
            rest = full & ~override_mask
            if rest:
                if base_good == 1:
                    one[ppi_slot] |= good_mask & rest
                elif base_good == 0:
                    zero[ppi_slot] |= good_mask & rest
                if base_faulty == 1:
                    one[ppi_slot] |= (good_mask << 1) & rest
                elif base_faulty == 0:
                    zero[ppi_slot] |= (good_mask << 1) & rest

        planes = PackedPlanes(zero=zero, one=one, width=width)
        self._logic.evaluate_planes(planes)
        return _PackedPairFrames(compiled, planes, len(candidates), self.metrics)

    # ------------------------------------------------------------------ #
    def frame_candidates(self, pi_values, ppi_values, candidates) -> CandidateFrames:
        """One packed three-valued pass, one candidate per pattern slot."""
        if not candidates:
            raise ValueError("need at least one candidate")
        compiled = self.compiled
        width = len(candidates)
        full = (1 << width) - 1
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals

        pi_overrides: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        ppi_overrides: Dict[str, List[Tuple[int, Optional[int]]]] = {}
        for slot_index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            name, is_pi, value = candidate
            target = pi_overrides if is_pi else ppi_overrides
            target.setdefault(name, []).append((slot_index, value))

        for base_values, overrides_map, items in (
            (pi_values, pi_overrides, self._pi_items),
            (ppi_values, ppi_overrides, [(slot, name) for slot, _, name in self._dff_items]),
        ):
            for slot, name in items:
                base = base_values.get(name)
                overrides = overrides_map.get(name)
                if overrides is None:
                    if base == 1:
                        one[slot] = full
                    elif base == 0:
                        zero[slot] = full
                    continue
                override_mask = 0
                for slot_index, value in overrides:
                    bit = 1 << slot_index
                    override_mask |= bit
                    if value == 1:
                        one[slot] |= bit
                    elif value == 0:
                        zero[slot] |= bit
                rest = full & ~override_mask
                if rest:
                    if base == 1:
                        one[slot] |= rest
                    elif base == 0:
                        zero[slot] |= rest

        planes = PackedPlanes(zero=zero, one=one, width=width)
        self._logic.evaluate_planes(planes)
        return _PackedFrames(compiled, planes, width)


def create_implication_engine(
    circuit: Circuit,
    backend: "str | None" = None,
    robust: bool = True,
    context: Optional[TDgenContext] = None,
) -> ImplicationEngine:
    """Build the implication engine for ``circuit`` on the selected backend.

    ``backend`` resolves through :func:`repro.fausim.backends.resolve_backend`
    (``None`` = the process-wide default), so the engine always matches the
    fault simulation backend of the same name.
    """
    engine_class = (
        PackedImplicationEngine
        if resolve_backend(backend) == PACKED_BACKEND
        else ReferenceImplicationEngine
    )
    return engine_class(circuit, robust=robust, context=context)
