"""Backend-dispatched forward-implication engine shared by the search side.

PRs 1–2 made the *simulation* side of the flow bit-parallel; this module does
the same for the *search* side.  An :class:`ImplicationEngine` bundles the
three forward evaluations the searching phases replay once per decision
alternative:

* **two-frame eight-valued set implication** — TDgen's
  :func:`~repro.tdgen.simulation.simulate_two_frame`, and with one injected
  fault per candidate (:meth:`ImplicationEngine.implicate_faults`) every
  TDsim pass: the good machine, the stem analyses and the PPO
  confirmations,
* **single-frame good/faulty pair simulation** — SEMILET's propagation
  PODEM (:mod:`repro.semilet.propagation`),
* **single-frame three-valued simulation** — SEMILET's frame justification
  (:mod:`repro.semilet.justification`).

Every evaluation comes in a scalar form and a *candidate batch* form: the
batch takes the current partial assignment plus one override per candidate
(a decision alternative, a candidate frame) and yields one result per
candidate.  The ``reference`` engine computes batch entries lazily with the
interpreted oracles, one call per consumed alternative; the ``packed``
engine evaluates the whole batch in one bit-parallel pass over the compiled
netlist (:mod:`repro.algebra.packed_sets` for the eight-valued set words,
:mod:`repro.fausim.packed_sim` for the three-valued planes), one candidate
per pattern slot of the unbounded-width words, and unpacks only the
candidates that are actually consumed.  Both engines' batches expose their
results in one form only, the compiled slot order — a state's slot columns,
a pair candidate's pair codes, a frame batch's planes — which is what the
searches and the one :class:`~repro.tdgen.search.SearchKernels` class read.
A search addresses one candidate as the view ``(batch, cursor)`` and hands
that view back as the ``base`` of the next batch.

:func:`create_implication_engine` resolves its ``backend`` through the one
registry of :mod:`repro.fausim.backends`, and ``backend=None`` resolves to
the same process-wide default, so one ``--backend`` choice governs fault
simulation and the implication under the search heuristics
(:meth:`ImplicationEngine.search_kernels`)::

    engine = create_implication_engine(circuit, backend="packed")
    states = engine.implicate_candidates(pi_values, ppi_initial, fault, (None,))
    column = states.column_sets(0)
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.packed_sets import PackedSetSimulator, SetMove, apply_moves, slot_mask
from repro.algebra.sets import PI_SET, ValueSet
from repro.algebra.values import DelayValue
from repro.circuit.gates import evaluate_gate
from repro.circuit.netlist import Circuit, LineKind
from repro.faults.model import GateDelayFault
from repro.fausim.backends import PACKED_BACKEND, resolve_backend
from repro.fausim.compile import CompiledCircuit, compile_circuit
from repro.fausim.kernels import (
    PAIR_PLANES,
    PAIR_POTENTIAL,
    PAIR_PROVABLE,
    PairAnalysis,
    PairColumns,
    PairWave,
    pair_analysis,
    pair_broadcast,
    pair_wavefront,
)
from repro.fausim.logic_sim import LogicSimulator, SignalValues
from repro.fausim.packed_sim import PackedLogicSimulator, PackedPlanes
from repro.obs.metrics import NULL_REGISTRY
from repro.tdgen.context import TDgenContext
from repro.tdgen.search import SearchKernels
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


#: ``(good, faulty)`` values of the plane bits of each pair code (see
#: :class:`~repro.fausim.kernels.PairColumns`).
_PAIR_OF_CODE: Tuple[PairValue, ...] = tuple(
    (
        1 if code & 4 else 0 if code & 1 else None,
        1 if code & 8 else 0 if code & 2 else None,
    )
    for code in range(PAIR_PLANES + 1)
)

#: The pair code planes of each ``(good, faulty)`` value (the inverse above).
_CODE_OF_PAIR: Dict[PairValue, int] = {
    pair: code for code, pair in enumerate(_PAIR_OF_CODE) if code & 5 != 5 and code & 10 != 10
}


def _couple(
    name: str,
    initials: Sequence[Optional[int]],
    data_zero: int,
    data_one: int,
    ppi_pair_sets: List[Dict[str, ValueSet]],
) -> int:
    """State-register coupling of one flip-flop, one candidate per slot.

    Candidate ``j``'s PPI pair set follows from its initial value
    ``initials[j]`` and its frame-1 PPO value (bit ``j`` of the data planes);
    it is recorded in ``ppi_pair_sets[j]`` and returned as a set word.
    """
    word = 0
    for slot_index, initial in enumerate(initials):
        bit = 1 << slot_index
        if data_one & bit:
            final: Optional[int] = 1
        elif data_zero & bit:
            final = 0
        else:
            final = None
        pair_set = _PAIR_SET_TABLE[(initial, final)]
        ppi_pair_sets[slot_index][name] = pair_set
        word |= pair_set << (8 * slot_index)
    return word


#: Source name -> the ``(candidate, value)`` pairs overriding its base value.
Overrides = Dict[str, List[Tuple[int, object]]]


def _frame_overrides(candidates: Sequence[FrameCandidate]) -> Tuple[Overrides, Overrides]:
    """The overrides of the PIs and of the PPIs in a batch of frame candidates."""
    pi_overrides: Overrides = {}
    ppi_overrides: Overrides = {}
    for slot_index, candidate in enumerate(candidates):
        if candidate is not None:
            name, is_pi, value = candidate
            target = pi_overrides if is_pi else ppi_overrides
            target.setdefault(name, []).append((slot_index, value))
    return pi_overrides, ppi_overrides


class CandidateStates:
    """One two-frame implication result per candidate, possibly lazy.

    Every accessor reads candidate ``index`` in the slot order of the
    engine's ``compiled`` netlist; a search holds a candidate as the view
    ``(batch, index)``.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def column_sets(self, index: int) -> List[ValueSet]:
        """Candidate ``index``'s possibility set per compiled signal slot.

        For a fault on a signal *stem* the slot holds the post-injection
        set; for a *branch* fault the stem keeps its fault-free set and only
        the faulted gate input sees the injected one.
        """
        raise NotImplementedError

    def column_frame1(self, index: int) -> List[Optional[int]]:
        """Candidate ``index``'s settled initial-frame value per signal slot."""
        raise NotImplementedError

    def fault_line_set(self, index: int) -> ValueSet:
        """The set on candidate ``index``'s fault line after injection (0 unfaulted)."""
        raise NotImplementedError

    def ppi_pair_sets(self, index: int) -> Dict[str, ValueSet]:
        """The coupled source set of every pseudo primary input of candidate ``index``."""
        raise NotImplementedError

    def conflict_signal(self, index: int) -> Optional[str]:
        """The first signal whose set became empty in candidate ``index``, or ``None``."""
        raise NotImplementedError


class CandidatePairFrames:
    """One good/faulty pair frame per candidate, possibly lazy."""

    def __len__(self) -> int:
        raise NotImplementedError

    def columns(self, index: int) -> PairColumns:
        """Candidate ``index``'s pair code per slot and its D-frontier gates."""
        raise NotImplementedError


class CandidateFrames:
    """One three-valued frame per candidate, possibly lazy."""

    def __len__(self) -> int:
        raise NotImplementedError

    def packed_planes(self) -> PackedPlanes:
        """Every candidate's frame as planes, candidate ``i`` in bit ``i``."""
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
        """The search kernels bound to this engine (cached).

        Every engine gets the same kernels class: objective selection,
        multiple backtrace and the pair-frame queries read the slot columns,
        pair codes and planes this engine's batches expose, so the
        ``--backend`` choice governs the implication underneath the search
        heuristics, never the heuristics themselves.
        """
        if self._search_kernels is None:
            self._search_kernels = SearchKernels(self)
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
    def implicate_candidates(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
        fault: Optional[GateDelayFault],
        candidates: Sequence[TwoFrameCandidate],
        base: Optional[Tuple[CandidateStates, int]] = None,
    ) -> CandidateStates:
        """Implication of the base assignment under one override per candidate.

        Args:
            pi_values: base primary-input pair assignment.
            ppi_initial: base initial-frame PPI assignment.
            fault: the targeted fault shared by every candidate.
            candidates: one ``(kind, name, value)`` override per pattern slot
                (``None`` entries evaluate the base assignment itself).
            base: the ``(states, cursor)`` view of the *base assignment's*
                implication, if the caller holds it (the parent decision's
                view).  Engines may use it to evaluate the batch
                incrementally — the packed engine evaluates only the gates
                the decision variable's change reaches — and must produce
                bit-identical results either way.
        """
        raise NotImplementedError

    def implicate_faults(
        self,
        pi_values: Mapping[str, Optional[DelayValue]],
        ppi_initial: Mapping[str, Optional[int]],
        faults: Sequence[Optional[GateDelayFault]],
        base: Optional[Tuple[CandidateStates, int]] = None,
    ) -> CandidateStates:
        """Implication of one assignment with one injected fault per slot.

        TDsim's batch: slot ``j`` carries ``faults[j]`` (``None`` is the good
        machine), so one call answers a stem analysis (both transition
        directions) or every PPO confirmation of a pattern.

        Args:
            pi_values: primary-input pair assignment.
            ppi_initial: initial-frame PPI assignment.
            faults: the injection of each slot.
            base: the ``(batch, index)`` view of the fault-free implication
                of the same assignment, if the caller holds it.  The packed
                engine then evaluates only the gates the injections reach
                and raises ``ValueError`` for a view that is not fault free
                or not its own; results are bit-identical either way.
        """
        raise NotImplementedError

    # -- single-frame good/faulty pair simulation ------------------------ #
    def pair_frame_candidates(
        self,
        pi_values: Mapping[str, Optional[int]],
        good_state: SignalValues,
        faulty_state: SignalValues,
        free_ppi_values: Mapping[str, Optional[int]],
        candidates: Sequence[FrameCandidate],
        base: Optional[Tuple[CandidatePairFrames, int]] = None,
    ) -> CandidatePairFrames:
        """Pair simulation of the base frame under one override per candidate.

        Args:
            pi_values: base primary-input assignment.
            good_state: good machine state (X allowed).
            faulty_state: faulty machine state.
            free_ppi_values: base values of the free PPIs (both machines).
            candidates: one ``(name, is_pi, value)`` override per candidate
                (``None`` entries evaluate the base assignment itself).
            base: the ``(batch, cursor)`` view of the base assignment, if
                the caller holds it (the parent decision's view).  Engines
                may use it to evaluate the batch incrementally — the packed
                engine evaluates only the gates the decision variable's
                change reaches — and must produce bit-identical results
                either way.
        """
        raise NotImplementedError

    # -- single-frame three-valued simulation ---------------------------- #
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
def _differs(good_value: Optional[int], faulty_value: Optional[int]) -> bool:
    """True when both machines have binary values that provably differ."""
    return good_value is not None and faulty_value is not None and good_value != faulty_value


def _potential_difference(
    circuit: Circuit,
    rows: Sequence[Tuple[str, Tuple[str, ...]]],
    pairs: Mapping[str, PairValue],
) -> Dict[str, bool]:
    """Interpreted per-signal scan over the pair values of one frame.

    Maps a signal to ``True`` when the good and the faulty machine could
    still disagree on it (the propagation PODEM's X-path check).  ``rows``
    are the ``(name, fanin)`` of the combinational gates in evaluation order.
    """
    potential: Dict[str, bool] = {}
    for pi in circuit.primary_inputs:
        potential[pi] = False
    for ppi in circuit.pseudo_primary_inputs:
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
    for name, fanin in rows:
        good_value, faulty_value = pairs[name]
        if good_value is not None and faulty_value is not None:
            potential[name] = good_value != faulty_value
        else:
            potential[name] = any(potential[s] for s in fanin)
    return potential


def _pair_d_frontier(
    rows: Sequence[Tuple[str, Tuple[str, ...]]], pairs: Mapping[str, PairValue]
) -> List[str]:
    """Gates with a provably differing fanin but an output X in some machine."""
    frontier = []
    for name, fanin in rows:
        good_value, faulty_value = pairs[name]
        if good_value is not None and faulty_value is not None:
            continue
        if any(_differs(*pairs[s]) for s in fanin):
            frontier.append(name)
    return frontier


class _LazyStates(CandidateStates):
    """Reference candidate states: one interpreter run per consumed index.

    Every accessor derives from the cached
    :func:`~repro.tdgen.simulation.simulate_two_frame` result of its index,
    re-indexed by the compiled signal names.
    """

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, ppi_initial, faults, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._ppi_initial = dict(ppi_initial)
        self._faults = list(faults)
        self._candidates = list(candidates)
        self._cache: Dict[int, TwoFrameState] = {}
        self._columns: Dict[int, List[ValueSet]] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def column_sets(self, index: int) -> List[ValueSet]:
        """The interpreted ``signal_sets`` in compiled signal-slot order."""
        cached = self._columns.get(index)
        if cached is None:
            signal_sets = self._simulate(index).signal_sets
            cached = self._columns[index] = [
                signal_sets[name] for name in self._engine.compiled.signal_names
            ]
        return cached

    def column_frame1(self, index: int) -> List[Optional[int]]:
        """The interpreted ``frame1`` in compiled signal-slot order."""
        frame1 = self._simulate(index).frame1
        return [frame1[name] for name in self._engine.compiled.signal_names]

    def fault_line_set(self, index: int) -> ValueSet:
        """The interpreted ``fault_line_set``."""
        return self._simulate(index).fault_line_set

    def ppi_pair_sets(self, index: int) -> Dict[str, ValueSet]:
        """The interpreted ``ppi_pair_sets``."""
        return self._simulate(index).ppi_pair_sets

    def conflict_signal(self, index: int) -> Optional[str]:
        """The interpreted ``conflict_signal``."""
        return self._simulate(index).conflict_signal

    def _simulate(self, index: int) -> TwoFrameState:
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
            self._engine.context, pi_values, ppi_initial, self._faults[index],
            robust=self._engine.robust,
        )
        self._cache[index] = state
        return state


class _LazyPairFrames(CandidatePairFrames):
    """Reference pair frames: one interpreted lock-step run per index.

    :meth:`columns` builds the pair codes and the D-frontier from the
    per-name pairs of :meth:`_pairs` and the walks above, independently of
    the packed pair analysis.
    """

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, good_state, faulty_state, free_ppi_values, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._good_state = dict(good_state)
        self._faulty_state = dict(faulty_state)
        self._free_ppi_values = dict(free_ppi_values)
        self._candidates = list(candidates)
        self._cache: Dict[int, Dict[str, PairValue]] = {}
        self._columns: Dict[int, PairColumns] = {}

    def __len__(self) -> int:
        return len(self._candidates)

    def _pairs(self, index: int) -> Dict[str, PairValue]:
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

    def columns(self, index: int) -> PairColumns:
        """Candidate ``index``'s pair codes and D-frontier, from the walks."""
        cached = self._columns.get(index)
        if cached is not None:
            return cached
        engine = self._engine
        compiled = engine.compiled
        rows = engine._rows()
        pairs = self._pairs(index)
        potential = _potential_difference(engine.circuit, rows, pairs)
        codes = [
            _CODE_OF_PAIR[pairs[name]]
            | (PAIR_POTENTIAL if potential[name] else 0)
            | (PAIR_PROVABLE if _differs(*pairs[name]) else 0)
            for name in compiled.signal_names
        ]
        frontier = [
            compiled.gate_index_of[compiled.slot_of[name]]
            for name in _pair_d_frontier(rows, pairs)
        ]
        columns = self._columns[index] = PairColumns(codes, frontier)
        return columns


class _LazyFrames(CandidateFrames):
    """Reference frames: one interpreted combinational run per index.

    :meth:`packed_planes` packs the per-name frames of :meth:`_frame`.
    """

    def __init__(self, engine: "ReferenceImplicationEngine", pi_values, ppi_values, candidates):
        self._engine = engine
        self._pi_values = dict(pi_values)
        self._ppi_values = dict(ppi_values)
        self._candidates = list(candidates)
        self._cache: Dict[int, SignalValues] = {}
        self._planes: Optional[PackedPlanes] = None

    def __len__(self) -> int:
        return len(self._candidates)

    def _frame(self, index: int) -> SignalValues:
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

    def packed_planes(self) -> PackedPlanes:
        """Every candidate's interpreted frame packed into planes."""
        if self._planes is None:
            signal_names = self._engine.compiled.signal_names
            zero = [0] * len(signal_names)
            one = [0] * len(signal_names)
            for index in range(len(self)):
                frame = self._frame(index)
                bit = 1 << index
                for slot, name in enumerate(signal_names):
                    value = frame.get(name)
                    if value == 1:
                        one[slot] |= bit
                    elif value == 0:
                        zero[slot] |= bit
            self._planes = PackedPlanes(zero=zero, one=one, width=len(self))
        return self._planes


class ReferenceImplicationEngine(ImplicationEngine):
    """The interpreted oracles, kept bit-exact with the historical code paths.

    Candidate batches are lazy: a candidate that is never consumed (its
    decision alternative was never flipped to) costs no implication.  The
    batches expose their results in the compiled netlist's slot order
    (:attr:`compiled`), the form the search kernels read.
    """

    name = "reference"

    def __init__(
        self,
        circuit: Circuit,
        robust: bool = True,
        context: Optional[TDgenContext] = None,
    ) -> None:
        super().__init__(circuit, robust=robust, context=context)
        self._simulator = LogicSimulator(circuit)
        self.compiled: CompiledCircuit = compile_circuit(circuit)
        #: ``(name, fanin)`` per combinational gate in evaluation order,
        #: built on first pair-frame use.
        self._gate_rows: Optional[List[Tuple[str, Tuple[str, ...]]]] = None

    def _rows(self) -> List[Tuple[str, Tuple[str, ...]]]:
        if self._gate_rows is None:
            self._gate_rows = [
                (name, tuple(self.circuit.gate(name).fanin))
                for name in self.context.order
            ]
        return self._gate_rows

    def implicate_candidates(
        self, pi_values, ppi_initial, fault, candidates, base=None
    ) -> CandidateStates:
        """Lazy batch of :func:`~repro.tdgen.simulation.simulate_two_frame` runs.

        ``base`` is ignored: the reference engine always re-interprets a
        candidate from scratch, which is exactly the historical cost model.
        """
        return _LazyStates(
            self, pi_values, ppi_initial, [fault] * len(candidates), candidates
        )

    def implicate_faults(self, pi_values, ppi_initial, faults, base=None) -> CandidateStates:
        """Lazy batch: one :func:`~repro.tdgen.simulation.simulate_two_frame`
        run per consumed slot, with that slot's fault.

        ``base`` is ignored, as in :meth:`implicate_candidates`.
        """
        if not faults:
            raise ValueError("need at least one fault slot")
        return _LazyStates(self, pi_values, ppi_initial, faults, [None] * len(faults))

    def pair_frame_candidates(
        self, pi_values, good_state, faulty_state, free_ppi_values, candidates, base=None
    ) -> CandidatePairFrames:
        """Lazy batch of interpreted good/faulty lock-step frame runs.

        ``base`` is ignored: each candidate is interpreted from scratch.
        """
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
class _PackedStates(CandidateStates):
    """Packed candidate states: one set-word propagation pass, lazy unpacking.

    Each signal slot holds one set word (byte ``j`` is candidate ``j``'s
    possibility set, see :mod:`repro.algebra.packed_sets`) and one pair of
    initial-frame planes.  A *full* sweep fills every slot.  An *incremental*
    sweep (one started from a parent view) writes only the slots its
    wavefronts reached, listed in ``set_written`` / ``frame1_written``; every
    other word is ``None`` and every other plane entry ``None`` or the
    parent's broadcast, and reads of them fall back to the parent's per-slot
    column (``base_sets`` / ``base_frame1``).  The columns of a slot are the
    parent's columns with the written slots overwritten; each is unpacked on
    first use and cached.
    """

    def __init__(
        self,
        owner: "PackedImplicationEngine",
        set_words: List[Optional[int]],
        frame1_planes: PackedPlanes,
        ppi_pair_sets: List[Dict[str, ValueSet]],
        conflict_signals: Dict[int, str],
        faults: Sequence[Optional[GateDelayFault]],
        width: int,
        base_sets: Optional[List[ValueSet]] = None,
        base_frame1: Optional[List[Optional[int]]] = None,
        set_written: Sequence[int] = (),
        frame1_written: Sequence[int] = (),
    ) -> None:
        self._owner = owner
        self._compiled = owner.compiled
        self._set_words = set_words
        self._frame1_planes = frame1_planes
        self._ppi_pair_sets = ppi_pair_sets
        self._conflict_signals = conflict_signals
        self._faults = faults
        self._width = width
        self._base_sets = base_sets
        self._base_frame1 = base_frame1
        self._set_written = set_written
        self._frame1_written = frame1_written
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
        shift = 8 * index
        words = self._set_words
        if self._base_sets is None:
            column = [(word >> shift) & 255 for word in words]
        else:
            column = list(self._base_sets)
            for slot in self._set_written:
                column[slot] = (words[slot] >> shift) & 255
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
        if self._base_frame1 is None:
            column: List[Optional[int]] = [None] * len(zero)
            slots: Sequence[int] = range(len(zero))
        else:
            column = list(self._base_frame1)
            slots = self._frame1_written
        for slot in slots:
            if one[slot] & bit:
                column[slot] = 1
            elif zero[slot] & bit:
                column[slot] = 0
            else:
                column[slot] = None
        self._frame1_columns[index] = column
        return column

    def fault_line_set(self, index: int) -> ValueSet:
        """The fault line's set of one slot, read from its set word."""
        fault = self._faults[index]
        if fault is None:
            return 0
        slot = self._compiled.slot_of[fault.line.signal]
        word = self._set_words[slot]
        value_set = self._base_sets[slot] if word is None else (word >> (8 * index)) & 255
        if fault.line.kind is LineKind.STEM:
            return value_set
        return _inject(value_set, fault.fault_type)

    def ppi_pair_sets(self, index: int) -> Dict[str, ValueSet]:
        """The coupled PPI source sets of one slot."""
        return self._ppi_pair_sets[index]

    def conflict_signal(self, index: int) -> Optional[str]:
        """The first emptied signal of one slot, recorded by the sweep."""
        return self._conflict_signals.get(index)


class _PackedPairFrames(CandidatePairFrames):
    """Packed pair frames: good/faulty machines in adjacent pattern slots.

    A *full* batch holds every slot's planes and runs its analysis pass
    (:func:`repro.fausim.kernels.pair_analysis`) on first use.  An
    *event-driven* batch holds the :class:`~repro.fausim.kernels.PairWave`
    of its parent candidate's columns: only the slots its wavefront wrote.
    The search reads one candidate at a time through :meth:`columns`, whose
    codes are O(1) to read: a full batch unpacks every slot once, an
    event-driven one copies the parent's codes and overwrites the written
    slots.
    """

    def __init__(
        self,
        owner: "PackedImplicationEngine",
        states: Tuple[SignalValues, SignalValues],
        width: int,
        planes: Optional[PackedPlanes] = None,
        base: Optional[PairColumns] = None,
        wave: Optional[PairWave] = None,
    ) -> None:
        self._owner = owner
        self._states = states
        self._width = width
        self._planes = planes
        self._base = base
        self._wave = wave
        self._analysis: Optional[PairAnalysis] = None
        self._columns: Dict[int, PairColumns] = {}

    def __len__(self) -> int:
        return self._width

    def columns(self, index: int) -> PairColumns:
        """Candidate ``index``'s pair code per slot and its D-frontier gates."""
        cached = self._columns.get(index)
        if cached is not None:
            return cached
        shift = 2 * index
        wave = self._wave
        if wave is None:
            analysis = self.pair_analysis()
            codes = [
                ((held_zero >> shift) & 3)
                | (((held >> shift) & 3) << 2)
                | (((potential >> shift) & 1) << 4)
                | (((provable >> shift) & 1) << 5)
                for held_zero, held, potential, provable in zip(
                    self._planes.zero, self._planes.one,
                    analysis.potential, analysis.provable,
                )
            ]
            frontier = analysis.frontier
        else:
            # Bits 0-1 of the candidate's zero plane, one plane and
            # difference bits (at 0, width and 2 * width of its pair word)
            # become bits 0-1, 2-3 and 4-5 of its code.
            one_shift = 2 * self._width - 2
            difference_shift = 2 * one_shift
            codes = list(self._base.codes)
            words = wave.words
            for slot in wave.written:
                word = words[slot] >> shift
                codes[slot] = (
                    (word & 3)
                    | ((word >> one_shift) & 12)
                    | ((word >> difference_shift) & 48)
                )
            frontier = wave.frontier
        columns = PairColumns(
            codes, [gate for gate, mask in frontier if (mask >> shift) & 1]
        )
        self._columns[index] = columns
        return columns

    def pair_analysis(self) -> PairAnalysis:
        """The batch's analysis columns, computed on first use and cached.

        Bit ``2i`` of each column belongs to candidate ``i``; the columns
        are exactly the reference engine's per-name walks
        (:func:`_potential_difference`, :func:`_pair_d_frontier`), evaluated
        bit-parallel for the whole batch.  An event-driven batch
        fills its unwritten slots in from the parent's codes here (one step
        per slot); the search reads :meth:`columns` instead.
        """
        if self._analysis is not None:
            return self._analysis
        owner = self._owner
        if self._wave is None:
            planes = self._planes
            self._analysis = pair_analysis(
                owner.compiled, planes.zero, planes.one, planes.width, owner.metrics
            )
            return self._analysis
        width = 2 * self._width
        good = ((1 << width) - 1) // 3
        table = pair_broadcast(width)
        words = [
            table[code] if word is None else word
            for code, word in zip(self._base.codes, self._wave.words)
        ]
        self._analysis = PairAnalysis(
            potential=[(word >> (2 * width)) & good for word in words],
            provable=[(word >> (2 * width + 1)) & good for word in words],
            frontier=self._wave.frontier,
        )
        return self._analysis


class _PackedFrames(CandidateFrames):
    """Packed three-valued frames: one candidate per pattern slot."""

    def __init__(self, planes: PackedPlanes, width: int) -> None:
        self._planes = planes
        self._width = width

    def __len__(self) -> int:
        return self._width

    def packed_planes(self) -> PackedPlanes:
        """The underlying planes (read by the searches and their kernels)."""
        return self._planes


class PackedImplicationEngine(ImplicationEngine):
    """Bit-parallel implication on the compiled netlist.

    Each pattern slot carries one independent candidate assignment; one pass
    over the compiled gate program implies the whole batch.  The initial
    (slow clock) frame runs in the two-plane three-valued encoding of
    :mod:`repro.fausim.packed_sim`; the test frame runs on the *set words*
    of :mod:`repro.algebra.packed_sets` with the targeted
    fault injected per the reference rules (stem output or single branch
    pin).  Results unpack lazily, so unexplored alternatives only ever cost
    their share of the shared pass.

    When the caller provides the ``(batch, cursor)`` view of the base
    assignment's own implication (the parent decision's view), a
    candidate sweep over a single decision variable runs *incrementally*:
    it follows the fanout marks of the slots that leave the parent's value,
    and every other signal resolves to the parent's column.
    """

    name = PACKED_BACKEND

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
        self._ppi_items: List[Tuple[int, str]] = [
            (ppi_slot, name) for ppi_slot, _, name in self._dff_items
        ]
        #: Slot -> positions of the flip-flops whose pair set reads it: those
        #: that latch it, and the flip-flop whose PPI it is.
        self._dffs_at: Dict[int, List[int]] = {}
        for position, (ppi_slot, data_slot, _) in enumerate(self._dff_items):
            self._dffs_at.setdefault(data_slot, []).append(position)
            self._dffs_at.setdefault(ppi_slot, []).append(position)
        #: ``(parent batch, (cursor, candidates), batch)`` of the last
        #: event-driven pair pass (see :meth:`_try_pair_incremental`).
        self._last_pair: Optional[Tuple[object, object, "_PackedPairFrames"]] = None

    def set_metrics(self, metrics: object, site: str) -> None:
        """Attach a metrics registry and forward it to the internal simulators."""
        super().set_metrics(metrics, site)
        self._sets.metrics = metrics
        self._sets.metrics_site = site
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
        return self._implicate_full(
            pi_values, ppi_initial, candidates, [fault] * len(candidates),
            self._fault_moves(fault, slot_mask(len(candidates))),
        )

    def _try_incremental(
        self, pi_values, ppi_initial, fault, candidates, base
    ) -> Optional["_PackedStates"]:
        """Run the sweep incrementally off ``base`` when it is eligible.

        Eligible means: the base view is a candidate of a batch *this*
        engine built (not, say, a reference engine's batch) for the *same*
        fault, it is conflict free, and every override targets one single
        decision variable (the shape the search loops produce).  Returns
        ``None`` to fall back to a full sweep.
        """
        if base is None:
            return None
        parent, parent_index = base
        if (
            not isinstance(parent, _PackedStates)
            or parent._owner is not self
            or parent._faults[parent_index] != fault
            or parent.conflict_signal(parent_index) is not None
        ):
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
    def _fault_moves(
        self,
        fault: Optional[GateDelayFault],
        byte_mask: int,
        moves: Optional[Tuple[Dict[int, List[SetMove]], ...]] = None,
    ) -> Tuple[Dict[int, List[SetMove]], Dict[int, List[SetMove]], Dict[int, List[SetMove]]]:
        """Add the injection of ``fault`` on the slots of ``byte_mask``.

        ``moves`` is ``(source, stem, branch)``: source-stem moves keyed by
        PI/PPI slot, gate-stem moves keyed by output slot and branch moves
        keyed by flat fanin position — the packed mirror of the reference
        injection rules.  A new triple is started when ``moves`` is
        ``None``; the triple is returned.
        """
        if moves is None:
            moves = ({}, {}, {})
        if fault is None:
            return moves
        source_moves, stem_moves, branch_moves = moves
        compiled = self.compiled
        move: SetMove = (
            fault.fault_type.activation_value.index,
            fault.fault_type.fault_value.index,
            byte_mask,
        )
        slot = compiled.slot_of.get(fault.line.signal)
        if fault.line.kind is LineKind.STEM:
            if slot is not None:
                if slot < len(compiled.pi_slots) + len(compiled.ppi_slots):
                    source_moves.setdefault(slot, []).append(move)
                else:
                    stem_moves.setdefault(slot, []).append(move)
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
                    branch_moves.setdefault(position, []).append(move)
        return moves

    # ------------------------------------------------------------------ #
    def _implicate_incremental(
        self, pi_values, ppi_initial, fault, candidates,
        parent: "_PackedStates", parent_index: int, kind: str, name: str,
    ) -> "_PackedStates":
        """Candidate sweep driven by the wavefront of one decision variable.

        Both frames run event-driven from the parent's columns: a gate is
        evaluated only when one of its inputs left the parent's value, and
        every word or plane entry the wavefront never reaches reads as the
        parent's column broadcast to every slot.  The initial frame starts
        from the decision variable; the test frame from the variable (a PI)
        and the flip-flops re-coupled because their PPO value (or, for a PPI
        variable, their initial value) was written in the initial frame —
        the only pair sets that can differ from the parent's.
        """
        compiled = self.compiled
        width = len(candidates)
        full = (1 << width) - 1
        base_sets = parent.column_sets(parent_index)
        base_frame1 = parent.column_frame1(parent_index)
        var_slot = compiled.slot_of[name]
        num_signals = compiled.num_signals

        # ---- initial frame: wavefront from the decision variable -------- #
        var_zero = var_one = var_word = 0
        base_value = pi_values.get(name) if kind == "pi" else ppi_initial.get(name)
        for slot_index, candidate in enumerate(candidates):
            value = base_value if candidate is None else candidate[2]
            if kind == "pi":
                var_word |= (PI_SET if value is None else value.mask) << (8 * slot_index)
                value = None if value is None else value.initial
            if value == 1:
                var_one |= 1 << slot_index
            elif value == 0:
                var_zero |= 1 << slot_index
        zero: List[Optional[int]] = [None] * num_signals
        one: List[Optional[int]] = [None] * num_signals
        zero[var_slot] = var_zero
        one[var_slot] = var_one
        frame1_planes = PackedPlanes(zero=zero, one=one, width=width)
        frame1_written = self._logic.evaluate_planes(
            frame1_planes, base_frame1, (var_slot,)
        )

        # ---- test frame: wavefront from the variable and re-coupled DFFs - #
        source_moves, stem_moves, branch_moves = self._fault_moves(fault, slot_mask(width))
        words: List[Optional[int]] = [None] * num_signals
        changed_slots: List[int] = []
        if kind == "pi":
            words[var_slot] = var_word
            changed_slots.append(var_slot)

        # State-register coupling for the flip-flops whose pair set reads a
        # written initial-frame slot; every other pair set is the parent's.
        base_pairs = parent._ppi_pair_sets[parent_index]
        ppi_pair_sets: List[Dict[str, ValueSet]] = [
            dict(base_pairs) for _ in range(width)
        ]
        dffs_at = self._dffs_at
        recoupled = {
            position
            for slot in frame1_written
            for position in dffs_at.get(slot, ())
        }
        for position in recoupled:
            ppi_slot, data_slot, dff_name = self._dff_items[position]
            if one[data_slot] is None:
                # A PPI variable whose PPO the wavefront did not reach: the
                # parent's value, broadcast (as a gate input would read it).
                final = base_frame1[data_slot]
                zero[data_slot] = full if final == 0 else 0
                one[data_slot] = full if final == 1 else 0
            initial = ppi_initial.get(dff_name)
            initials = [initial] * width
            if dff_name == name:
                initials = [initial if c is None else c[2] for c in candidates]
            words[ppi_slot] = _couple(
                dff_name, initials, zero[data_slot], one[data_slot], ppi_pair_sets
            )
            changed_slots.append(ppi_slot)

        # Source-stem injection: only needed on words this sweep reloads
        # (the parent's columns already carry the injection elsewhere).
        for stem_slot, moves in source_moves.items():
            reloaded = words[stem_slot]
            if reloaded is not None:
                words[stem_slot] = apply_moves(reloaded, moves)

        result = self._sets.propagate(
            words, width, stem_moves, branch_moves,
            base_sets=base_sets, changed_slots=changed_slots,
        )
        return _PackedStates(
            owner=self,
            set_words=result.words,
            frame1_planes=frame1_planes,
            ppi_pair_sets=ppi_pair_sets,
            conflict_signals=result.conflict_signals,
            faults=[fault] * width,
            width=width,
            base_sets=base_sets,
            base_frame1=base_frame1,
            set_written=result.written,
            frame1_written=frame1_written,
        )

    def _implicate_full(
        self, pi_values, ppi_initial, candidates, faults, moves
    ) -> _PackedStates:
        """Evaluate a batch of two-frame candidates over the whole netlist.

        ``faults`` is each slot's injected fault and ``moves`` their
        :meth:`_fault_moves` triple.
        """
        compiled = self.compiled
        width = len(candidates)

        pi_overrides: Overrides = {}
        ppi_overrides: Overrides = {}
        for slot_index, candidate in enumerate(candidates):
            if candidate is None:
                continue
            kind, name, value = candidate
            target = pi_overrides if kind == "pi" else ppi_overrides
            target.setdefault(name, []).append((slot_index, value))

        # ---- pass 1: three-valued initial frame, all candidates at once --- #
        pi_initial = {
            name: None if value is None else value.initial
            for name, value in pi_values.items()
        }
        pi_initial_overrides = {
            name: [
                (slot_index, None if value is None else value.initial)
                for slot_index, value in overrides
            ]
            for name, overrides in pi_overrides.items()
        }
        frame1_planes = self._source_planes(
            (
                (pi_initial, pi_initial_overrides, self._pi_items),
                (ppi_initial, ppi_overrides, self._ppi_items),
            ),
            width,
        )
        self._logic.evaluate_planes(frame1_planes)

        # ---- source set words -------------------------------------------- #
        rep = slot_mask(width)
        set_words: List[Optional[int]] = [None] * compiled.num_signals
        for slot, name in self._pi_items:
            base = pi_values.get(name)
            word = (PI_SET if base is None else base.mask) * rep
            for slot_index, value in pi_overrides.get(name, ()):
                shift = 8 * slot_index
                word &= ~(255 << shift)
                word |= (PI_SET if value is None else value.mask) << shift
            set_words[slot] = word

        # State-register coupling: the PPI pair set of every candidate is
        # derived from its own initial value and its own frame-1 PPO value.
        ppi_pair_sets: List[Dict[str, ValueSet]] = [{} for _ in range(width)]
        for ppi_slot, data_slot, name in self._dff_items:
            initials = [ppi_initial.get(name)] * width
            for slot_index, value in ppi_overrides.get(name, ()):
                initials[slot_index] = value
            set_words[ppi_slot] = _couple(
                name, initials, frame1_planes.zero[data_slot],
                frame1_planes.one[data_slot], ppi_pair_sets,
            )

        # ---- fault injection moves ---------------------------------------- #
        source_moves, stem_moves, branch_moves = moves
        for stem_slot, slot_moves in source_moves.items():
            # PI / PPI stem: inject right at the loaded word.
            set_words[stem_slot] = apply_moves(set_words[stem_slot], slot_moves)

        result = self._sets.propagate(set_words, width, stem_moves, branch_moves)
        return _PackedStates(
            owner=self,
            set_words=result.words,
            frame1_planes=frame1_planes,
            ppi_pair_sets=ppi_pair_sets,
            conflict_signals=result.conflict_signals,
            faults=faults,
            width=width,
        )

    def implicate_faults(self, pi_values, ppi_initial, faults, base=None) -> CandidateStates:
        """One set-word sweep with per-slot injection moves.

        Without ``base`` the sweep is a full pass.  With it the sweep is
        event-driven off the base's column: it reloads the injected source
        stems, seeds the gates that apply an injection (the gate feeding a
        gate stem, the sink of a branch) and evaluates only the gates whose
        inputs leave the good value.  The initial frame is fault free, so
        every slot reads the base's.
        """
        if not faults:
            raise ValueError("need at least one fault slot")
        width = len(faults)
        moves = None
        for slot_index, fault in enumerate(faults):
            moves = self._fault_moves(fault, 1 << (8 * slot_index), moves)
        if base is None:
            return self._implicate_full(
                pi_values, ppi_initial, (None,) * width, faults, moves
            )
        parent, parent_index = base
        if (
            not isinstance(parent, _PackedStates)
            or parent._owner is not self
            or parent._faults[parent_index] is not None
            or parent.conflict_signal(parent_index) is not None
        ):
            raise ValueError("base must be a fault-free view of this engine")

        compiled = self.compiled
        source_moves, stem_moves, branch_moves = moves
        base_sets = parent.column_sets(parent_index)
        rep = slot_mask(width)
        words: List[Optional[int]] = [None] * compiled.num_signals
        for slot, slot_moves in source_moves.items():
            words[slot] = apply_moves(base_sets[slot] * rep, slot_moves)
        seeds = [compiled.gate_index_of[slot] for slot in stem_moves]
        seeds += [
            bisect_right(compiled.fanin_offsets, position) - 1
            for position in branch_moves
        ]
        result = self._sets.propagate(
            words, width, stem_moves, branch_moves,
            base_sets=base_sets, changed_slots=list(source_moves), seed_gates=seeds,
        )
        unwritten: List[Optional[int]] = [None] * compiled.num_signals
        return _PackedStates(
            owner=self,
            set_words=result.words,
            frame1_planes=PackedPlanes(zero=unwritten, one=unwritten, width=width),
            ppi_pair_sets=[parent._ppi_pair_sets[parent_index]] * width,
            conflict_signals=result.conflict_signals,
            faults=faults,
            width=width,
            base_sets=base_sets,
            base_frame1=parent.column_frame1(parent_index),
            set_written=result.written,
        )

    # ------------------------------------------------------------------ #
    def pair_frame_candidates(
        self, pi_values, good_state, faulty_state, free_ppi_values, candidates, base=None
    ) -> CandidatePairFrames:
        """One packed pass; candidate ``i`` occupies slots ``2i`` / ``2i + 1``.

        When ``base`` is a view of a batch of this engine for the same state
        pair and every candidate sets the same variable, the pass is
        event-driven from the base candidate's columns
        (:meth:`_try_pair_incremental`); otherwise it evaluates every gate.
        """
        if not candidates:
            raise ValueError("need at least one candidate")
        incremental = self._try_pair_incremental(
            good_state, faulty_state, candidates, base
        )
        if incremental is not None:
            return incremental
        compiled = self.compiled
        width = 2 * len(candidates)
        full = (1 << width) - 1
        #: Alternating good/faulty slot-selection masks.
        good_mask = full // 3  # bits 0, 2, 4, ...  (0b01 repeated)
        zero = [0] * compiled.num_signals
        one = [0] * compiled.num_signals

        pi_overrides, ppi_overrides = _frame_overrides(candidates)

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
        return _PackedPairFrames(
            self, (good_state, faulty_state), len(candidates), planes=planes
        )

    def _try_pair_incremental(
        self, good_state, faulty_state, candidates, base
    ) -> Optional[_PackedPairFrames]:
        """Run the pair pass event-driven off ``base`` when it is eligible.

        Eligible means: ``base`` is a ``(batch, cursor)`` view of a batch
        this engine built for the same ``good_state``/``faulty_state``
        objects, and every candidate sets the same PI or PPI (the shape of
        a propagation decision).  Returns ``None`` to fall back to a full
        pass.

        Only the variable's slot is loaded: a PI value, or a free PPI value
        that both machines take (``None`` falls back to the captured
        states); :func:`~repro.fausim.kernels.pair_wavefront` evaluates the
        gates it reaches from the base candidate's columns.

        The same decision from the same view returns the batch already
        implied for it.  The search repeats one whenever both values of a
        decision end without a variable left to decide: it steps back to
        the parent's view and decides the same variable again (71% of the
        decisions on ``s838_search``).
        """
        if base is None:
            return None
        parent, cursor = base
        if (
            not isinstance(parent, _PackedPairFrames)
            or parent._owner is not self
            or parent._states[0] is not good_state
            or parent._states[1] is not faulty_state
            or candidates[0] is None
        ):
            return None
        key = (cursor, tuple(candidates))
        last = self._last_pair
        if last is not None and last[0] is parent and last[1] == key:
            return last[2]
        name, is_pi, _ = candidates[0]
        compiled = self.compiled
        slot = compiled.slot_of.get(name, compiled.num_signals)
        n_pi = len(compiled.pi_slots)
        if not (slot < n_pi if is_pi else n_pi <= slot < n_pi + len(compiled.ppi_slots)):
            return None
        held_zero = held = 0
        for index, candidate in enumerate(candidates):
            if candidate is None or candidate[0] != name or candidate[1] != is_pi:
                return None
            value = candidate[2]
            if value is None and not is_pi:
                good_value = good_state.get(name)
                faulty_value = faulty_state.get(name)
            else:
                good_value = faulty_value = value
            good_bit = 1 << (2 * index)
            if good_value == 1:
                held |= good_bit
            elif good_value == 0:
                held_zero |= good_bit
            if faulty_value == 1:
                held |= good_bit << 1
            elif faulty_value == 0:
                held_zero |= good_bit << 1
        columns = parent.columns(cursor)
        wave = pair_wavefront(
            compiled, columns, slot, held_zero, held, 2 * len(candidates), self.metrics
        )
        frames = _PackedPairFrames(
            self, (good_state, faulty_state), len(candidates), base=columns, wave=wave
        )
        self._last_pair = (parent, key, frames)
        return frames

    # ------------------------------------------------------------------ #
    def _source_planes(self, sources, width: int) -> PackedPlanes:
        """Three-valued planes with every PI and PPI loaded, one candidate per bit.

        ``sources`` holds one ``(base values, overrides, items)`` triple per
        source kind: ``items`` lists its ``(slot, name)``, ``base values``
        maps a name to 0, 1 or ``None`` (X) and ``overrides`` maps a name to
        the ``(candidate, value)`` pairs that replace its base value.  Gate
        slots are left at X, ready for :meth:`PackedLogicSimulator.evaluate_planes`.
        """
        full = (1 << width) - 1
        zero = [0] * self.compiled.num_signals
        one = [0] * self.compiled.num_signals
        for base_values, overrides_map, items in sources:
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
        return PackedPlanes(zero=zero, one=one, width=width)

    # ------------------------------------------------------------------ #
    def frame_candidates(self, pi_values, ppi_values, candidates) -> CandidateFrames:
        """One packed three-valued pass, one candidate per pattern slot."""
        if not candidates:
            raise ValueError("need at least one candidate")
        pi_overrides, ppi_overrides = _frame_overrides(candidates)
        width = len(candidates)
        planes = self._source_planes(
            (
                (pi_values, pi_overrides, self._pi_items),
                (ppi_values, ppi_overrides, self._ppi_items),
            ),
            width,
        )
        self._logic.evaluate_planes(planes)
        return _PackedFrames(planes, width)


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
