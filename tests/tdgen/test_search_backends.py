"""Column oracle: what the search kernels read, reference engine vs packed.

Both implication engines feed the one :class:`repro.tdgen.search.SearchKernels`
class.  The heuristics themselves have no ground truth; what the backends
differ in is the implication the kernels read, and that must be *bit-exact*:

* a two-frame candidate's slot column (``column_sets`` of its
  ``(batch, index)`` view), on full and on chained incremental batches,
  stem and branch faults, both robustness modes;
* a pair-frame candidate's pair codes and D-frontier (``columns``): the
  reference engine builds them with the interpreted per-name walks, the
  packed engine with the bit-parallel pair analysis (both tiers) or the
  event-driven wavefront of a decision batch;
* a justification batch's three-valued planes (``packed_planes``).

Each test also runs the kernels over both engines' batches, so a column
difference that changes a search decision names that decision too.  The
fold-image backward implication of :mod:`repro.algebra.sets` is checked
against the historical combination-enumerating oracle kept here
(:func:`exhaustive_backward_input_sets`).

Whole-campaign equivalence of the two backends is pinned in
``tests/tdgen/test_implication_backends.py``.  Any mismatch prints the
failing seed, so a reproduction is one ``random_circuit(seed)`` call away.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.algebra.sets import FULL_SET, ValueSet, backward_input_sets, contains, members
from repro.algebra.tables import evaluate_delay_gate
from repro.algebra.values import ALL_VALUES, DelayValue, PI_VALUES
from repro.circuit.gates import GateType
from repro.faults.model import enumerate_delay_faults
from repro.fausim import kernels
from repro.fausim.backends import available_backends
from repro.fausim.kernels import kernels_for
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine
from repro.tdgen.search import SearchKernels

from tests.fausim.test_packed_differential import random_circuit
from tests.fuzz.harness import has_conflict, implicate

SEEDS = list(range(1, 25, 2))


def _kernel_pairs(circuit, robust=True):
    """(reference engine + kernels, packed engine + kernels) for one circuit."""
    context = TDgenContext(circuit)
    reference = create_implication_engine(
        circuit, "reference", robust=robust, context=context
    )
    packed = create_implication_engine(
        circuit, "packed", robust=robust, context=context
    )
    return (
        (reference, reference.search_kernels()),
        (packed, packed.search_kernels()),
    )


def _column_sets(view):
    """The slot column of a ``(batch, index)`` view."""
    batch, index = view
    return batch.column_sets(index)


def _partial_assignment(rng, circuit, density=0.55):
    pi_values: Dict[str, Optional[DelayValue]] = {
        pi: (rng.choice(PI_VALUES) if rng.random() < density else None)
        for pi in circuit.primary_inputs
    }
    ppi_initial: Dict[str, Optional[int]] = {
        ppi: (rng.randint(0, 1) if rng.random() < density else None)
        for ppi in circuit.pseudo_primary_inputs
    }
    return pi_values, ppi_initial


def _random_states(rng, circuit):
    """Random captured good/faulty machine states (X allowed)."""
    good = {}
    faulty = {}
    for ppi in circuit.pseudo_primary_inputs:
        good[ppi] = rng.choice([0, 1, None])
        faulty[ppi] = good[ppi] if rng.random() < 0.6 else rng.choice([0, 1, None])
    return good, faulty


# --------------------------------------------------------------------------- #
# the historical backward implication, enumerating input combinations
# --------------------------------------------------------------------------- #
_EXHAUSTIVE_BACKWARD_CACHE: Dict[Tuple, Tuple[ValueSet, ...]] = {}


def exhaustive_backward_input_sets(
    gate_type: GateType,
    input_sets: Sequence[ValueSet],
    output_set: ValueSet,
    robust: bool = True,
) -> List[ValueSet]:
    """The historical combination-enumerating backward implication.

    Must be bit-identical to :func:`repro.algebra.sets.backward_input_sets`,
    but computed by enumerating input combinations the way the pre-kernel
    search did: the correctness oracle of the fold-image implementation.
    """
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
# registry and dispatch
# --------------------------------------------------------------------------- #
def test_registry_names():
    """Every backend name yields the one kernels class."""
    circuit = random_circuit(0)
    kernel_types = {
        type(create_implication_engine(circuit, name).search_kernels())
        for name in available_backends()
    }
    assert kernel_types == {SearchKernels}


def test_kernels_follow_engine_backend():
    """Each engine's kernels are bound to it, read its netlist and are cached."""
    circuit = random_circuit(0)
    (reference, reference_kernels), (packed, packed_kernels) = _kernel_pairs(circuit)
    assert reference_kernels.engine is reference
    assert packed_kernels.engine is packed
    assert reference.compiled is packed.compiled  # cached on the circuit
    assert reference.search_kernels() is reference_kernels
    assert packed.search_kernels() is packed_kernels


def test_packed_engine_ignores_reference_base_state():
    """A reference batch's view as ``base`` falls back to a full packed sweep."""
    circuit = random_circuit(3)
    (reference, _), (packed, _) = _kernel_pairs(circuit)
    fault = enumerate_delay_faults(circuit)[0]
    pi_values = {pi: None for pi in circuit.primary_inputs}
    ppi_initial = {ppi: None for ppi in circuit.pseudo_primary_inputs}
    base = implicate(reference, pi_values, ppi_initial, fault)
    name = circuit.primary_inputs[0]
    candidates = [("pi", name, value) for value in PI_VALUES]
    assert packed._try_incremental(pi_values, ppi_initial, fault, candidates, base) is None
    got = packed.implicate_candidates(pi_values, ppi_initial, fault, candidates, base=base)
    want = reference.implicate_candidates(pi_values, ppi_initial, fault, candidates)
    for index in range(len(candidates)):
        assert got.column_sets(index) == want.column_sets(index)


# --------------------------------------------------------------------------- #
# backward implication: fold images vs the exhaustive oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize(
    "gate_type",
    [
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
    ],
)
def test_backward_input_sets_matches_exhaustive_oracle(gate_type, robust):
    """Random set combinations, arity 1-4, vs the combination enumeration."""
    # crc32, not hash(): the draw must not depend on PYTHONHASHSEED.
    rng = random.Random(zlib.crc32(f"{gate_type.value}:{robust}".encode()))
    for _ in range(150):
        arity = rng.randint(2, 4)
        input_sets = [rng.randint(0, FULL_SET) for _ in range(arity)]
        output_set = rng.randint(0, FULL_SET)
        want = exhaustive_backward_input_sets(gate_type, input_sets, output_set, robust)
        got = backward_input_sets(gate_type, input_sets, output_set, robust)
        assert got == want, (gate_type, robust, input_sets, output_set)


def test_backward_input_sets_exhaustive_pairs():
    """Every singleton/pair input combination of the two-input AND/XOR."""
    small_sets = [value.mask for value in ALL_VALUES] + [
        ALL_VALUES[i].mask | ALL_VALUES[j].mask for i in range(8) for j in range(i)
    ]
    rng = random.Random(99)
    outputs = [rng.randint(1, FULL_SET) for _ in range(5)]
    for gate_type in (GateType.AND, GateType.XOR):
        for left in small_sets:
            for right in small_sets[:12]:
                for output_set in outputs:
                    want = exhaustive_backward_input_sets(
                        gate_type, [left, right], output_set, False
                    )
                    got = backward_input_sets(gate_type, [left, right], output_set, False)
                    assert got == want, (gate_type, left, right, output_set)


def test_backward_input_sets_wide_gates_unpruned():
    """Fanins above the bound fall back to no pruning in both versions."""
    input_sets = [FULL_SET] * 5
    assert backward_input_sets(GateType.AND, input_sets, 1, True) == input_sets
    assert exhaustive_backward_input_sets(GateType.AND, input_sets, 1, True) == input_sets


# --------------------------------------------------------------------------- #
# TDgen: state slot columns, and the objective and backtrace over them
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_objective_and_backtrace_bit_exact(seed, robust):
    """Full states: equal slot columns, so equal objectives and backtraces."""
    circuit = random_circuit(seed)
    (reference, search), (packed, _) = _kernel_pairs(circuit, robust=robust)
    rng = random.Random(4321 + seed)
    faults = enumerate_delay_faults(circuit)

    for trial in range(4):
        pi_values, ppi_initial = _partial_assignment(rng, circuit)
        fault = rng.choice(faults)
        reference_view = implicate(reference, pi_values, ppi_initial, fault)
        packed_view = implicate(packed, pi_values, ppi_initial, fault)
        context = f"seed {seed} trial {trial}"
        assert _column_sets(reference_view) == _column_sets(packed_view), context
        if has_conflict(reference_view):
            continue
        want = search.propagation_objective(*reference_view, fault)
        assert search.propagation_objective(*packed_view, fault) == want, context
        if want is None:
            continue
        assert search.backtrace(
            *packed_view, fault, want, pi_values, ppi_initial
        ) == search.backtrace(*reference_view, fault, want, pi_values, ppi_initial), context


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_objective_bit_exact_on_incremental_states(seed):
    """Chained incremental batches: every candidate's slot column agrees."""
    circuit = random_circuit(seed)
    (reference, search), (packed, _) = _kernel_pairs(circuit)
    rng = random.Random(777 + seed)
    faults = enumerate_delay_faults(circuit)
    fault = rng.choice(faults)

    pi_values = {pi: None for pi in circuit.primary_inputs}
    ppi_initial = {ppi: None for ppi in circuit.pseudo_primary_inputs}
    reference_view = implicate(reference, pi_values, ppi_initial, fault)
    packed_view = implicate(packed, pi_values, ppi_initial, fault)

    # Chain three decisions like TDgen does, comparing after each sweep.
    for step in range(3):
        free = [pi for pi in circuit.primary_inputs if pi_values[pi] is None]
        if not free or has_conflict(packed_view):
            break
        name = rng.choice(free)
        candidates = [("pi", name, value) for value in PI_VALUES]
        reference_states = reference.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=reference_view
        )
        packed_states = packed.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=packed_view
        )
        context = f"seed {seed} step {step}"
        for index in range(len(candidates)):
            assert reference_states.column_sets(index) == packed_states.column_sets(
                index
            ), f"{context} candidate {index}"
        slot = rng.randrange(len(candidates))
        pi_values[name] = candidates[slot][2]
        reference_view = (reference_states, slot)
        packed_view = (packed_states, slot)
        assert _column_sets(reference_view) == _column_sets(packed_view), context
        if has_conflict(reference_view):
            assert has_conflict(packed_view)
            break
        want = search.propagation_objective(*reference_view, fault)
        assert search.propagation_objective(*packed_view, fault) == want, context
        if want is not None:
            assert search.backtrace(
                *packed_view, fault, want, pi_values, ppi_initial
            ) == search.backtrace(*reference_view, fault, want, pi_values, ppi_initial)


# --------------------------------------------------------------------------- #
# SEMILET propagation: pair codes and D-frontier
# --------------------------------------------------------------------------- #
def _assert_pair_columns_equal(reference_frames, packed_frames, context):
    """Every candidate's pair codes and D-frontier agree."""
    for index in range(len(reference_frames)):
        want = reference_frames.columns(index)
        got = packed_frames.columns(index)
        assert got.codes == want.codes, f"{context} candidate {index} codes"
        assert got.frontier == want.frontier, f"{context} candidate {index} frontier"


@pytest.mark.parametrize("seed", SEEDS)
def test_potential_difference_bit_exact(seed):
    """Event-driven decision batches: equal pair codes and decisions.

    The packed batch of each decision is built from the previous view
    (``base=``), so it comes from the wavefront, not the full analysis.
    """
    circuit = random_circuit(seed)
    (reference, search), (packed, _) = _kernel_pairs(circuit)
    rng = random.Random(888 + seed)
    event_driven = 0

    for trial in range(4):
        good, faulty = _random_states(rng, circuit)
        pi_values = {pi: None for pi in circuit.primary_inputs}
        free = {ppi: None for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.6}
        views = [
            (engine.pair_frame_candidates(pi_values, good, faulty, free, (None,)), 0)
            for engine in (reference, packed)
        ]
        variables = [(pi, True) for pi in circuit.primary_inputs]
        variables += [(ppi, False) for ppi in free]
        rng.shuffle(variables)
        for step, (name, is_pi) in enumerate(variables[:5]):
            values = [0, 1] if is_pi else rng.choice([[0, 1], [1, None, 0]])
            candidates = [(name, is_pi, value) for value in values]
            reference_frames, packed_frames = [
                engine.pair_frame_candidates(
                    pi_values, good, faulty, free, candidates, base=view
                )
                for engine, view in zip((reference, packed), views)
            ]
            event_driven += packed_frames._wave is not None
            context = f"seed {seed} trial {trial} step {step}"
            _assert_pair_columns_equal(reference_frames, packed_frames, context)
            cursor = rng.randrange(len(values))
            (pi_values if is_pi else free)[name] = values[cursor]
            for index in range(len(values)):
                assert search.pair_frame_decision(
                    packed_frames, index, pi_values, free
                ) == search.pair_frame_decision(
                    reference_frames, index, pi_values, free
                ), f"{context} candidate {index} decision"
            views = [(reference_frames, cursor), (packed_frames, cursor)]
    assert event_driven, "no decision batch took the event-driven path"


@pytest.mark.parametrize("tier_up", [10**9, 0], ids=["cold", "generated"])
@pytest.mark.parametrize("seed", SEEDS)
def test_pair_analysis_bit_exact(seed, tier_up, monkeypatch):
    """Root batches at both tiers: equal pair codes, frontier and classes.

    The codes hold both machines' planes and the potential and provable
    difference per slot; the packed batch takes them from the pair
    analysis, the reference one from the per-name walks.
    """
    monkeypatch.setattr(kernels, "TIER_UP_PASSES", tier_up)
    monkeypatch.setattr(kernels, "CHUNK_GATES", 4)
    circuit = random_circuit(seed)
    (reference, search), (packed, _) = _kernel_pairs(circuit)
    compiled = packed.compiled
    rng = random.Random(4242 + seed)

    for trial in range(4):
        good, faulty = _random_states(rng, circuit)
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.5 else None)
            for pi in circuit.primary_inputs
        }
        free = {ppi: None for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.4}
        decisions = [None]
        if free and rng.random() < 0.5:
            name = rng.choice(sorted(free))
            decisions = [(name, False, 0), (name, False, 1), None]
        elif circuit.primary_inputs:
            name = rng.choice(circuit.primary_inputs)
            decisions = [(name, True, 0), (name, True, 1)]
        reference_frames = reference.pair_frame_candidates(
            pi_values, good, faulty, free, decisions
        )
        packed_frames = packed.pair_frame_candidates(pi_values, good, faulty, free, decisions)
        context = f"seed {seed} trial {trial}"
        _assert_pair_columns_equal(reference_frames, packed_frames, context)
        generated = "pair_analysis" in kernels_for(compiled).generated
        assert generated == (tier_up == 0)
        blocked = {ppi for ppi in circuit.pseudo_primary_inputs if rng.random() < 0.3}
        for index in range(len(decisions)):
            for goal in ("po", "ppo"):
                targets = search.pair_frame_targets(goal, blocked)
                assert search.classify_pair_frame(
                    packed_frames, index, targets
                ) == search.classify_pair_frame(
                    reference_frames, index, targets
                ), f"{context} goal {goal}"


# --------------------------------------------------------------------------- #
# SEMILET justification: frame planes and the controlling-value backtrace
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_justification_backtrace_bit_exact(seed):
    """Equal frame planes, so the worklist backtrace lands on the same input."""
    circuit = random_circuit(seed)
    (reference, search), (packed, _) = _kernel_pairs(circuit)
    rng = random.Random(555 + seed)
    signals = [
        name
        for name in circuit.gates
        if not circuit.gates[name].is_input and not circuit.gates[name].is_dff
    ]

    for trial in range(4):
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.4 else None)
            for pi in circuit.primary_inputs
        }
        ppi_values = {
            ppi: (rng.randint(0, 1) if rng.random() < 0.4 else None)
            for ppi in circuit.pseudo_primary_inputs
        }
        candidates: List = [None]
        if circuit.primary_inputs:
            name = rng.choice(circuit.primary_inputs)
            candidates = [(name, True, 0), (name, True, 1), None]
        reference_frames = reference.frame_candidates(pi_values, ppi_values, candidates)
        packed_frames = packed.frame_candidates(pi_values, ppi_values, candidates)
        want_planes = reference_frames.packed_planes()
        got_planes = packed_frames.packed_planes()
        context = f"seed {seed} trial {trial}"
        assert got_planes.width == want_planes.width, context
        assert list(got_planes.zero) == list(want_planes.zero), f"{context} zero plane"
        assert list(got_planes.one) == list(want_planes.one), f"{context} one plane"
        for signal in rng.sample(signals, min(4, len(signals))):
            for target in (0, 1):
                for decide_ppis in (True, False):
                    want = search.justification_backtrace(
                        reference_frames, 0, signal, target,
                        pi_values, ppi_values, decide_ppis,
                    )
                    got = search.justification_backtrace(
                        packed_frames, 0, signal, target,
                        pi_values, ppi_values, decide_ppis,
                    )
                    assert got == want, (
                        f"{context} justification backtrace differs "
                        f"({signal} -> {target}, decide_ppis={decide_ppis})"
                    )
