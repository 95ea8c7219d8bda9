"""Differential harness: packed implication engine vs the reference oracle.

The packed engine (:class:`repro.tdgen.implication.PackedImplicationEngine`)
must be *bit-exact* against the interpreted reference for every evaluation
kind it offers — two-frame eight-valued set implication (stem and branch
faults, PPI coupling, partial assignments), candidate batches, incremental
cone sweeps chained like the TDgen search chains them, SEMILET pair frames
and three-valued justification frames — and whole campaigns must come out
*identical* under both backends (same fault statuses, same sequences, same
coverage).  Batches are compared in the one form they expose, the compiled
slot order: a two-frame candidate's five accessors (its slot columns, fault
line set, coupled PPI sets and conflict signal), a pair candidate's pair
codes and D-frontier, a frame batch's planes.

Any mismatch prints the failing seed, so a reproduction is one
``random_circuit(seed)`` call away.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import pytest

from repro.algebra.values import DelayValue, PI_VALUES
from repro.circuit.netlist import LineKind
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults, sample_faults
from repro.fausim.backends import available_backends, default_backend, set_default_backend
from repro.tdgen.context import TDgenContext
from repro.tdgen.implication import create_implication_engine

from tests.fausim.test_packed_differential import random_circuit
from tests.fuzz.harness import implicate, state_mismatch

SEEDS = list(range(0, 24, 2))


def _engines(circuit, robust=True, context=None):
    context = context or TDgenContext(circuit)
    return (
        create_implication_engine(circuit, "reference", robust=robust, context=context),
        create_implication_engine(circuit, "packed", robust=robust, context=context),
    )


def _partial_assignment(rng, circuit, density=0.6):
    pi_values: Dict[str, Optional[DelayValue]] = {
        pi: (rng.choice(PI_VALUES) if rng.random() < density else None)
        for pi in circuit.primary_inputs
    }
    ppi_initial: Dict[str, Optional[int]] = {
        ppi: (rng.randint(0, 1) if rng.random() < density else None)
        for ppi in circuit.pseudo_primary_inputs
    }
    return pi_values, ppi_initial


def _assert_views_equal(reference_view, packed_view, context_message):
    """Two ``(batch, index)`` views agree on every per-candidate accessor."""
    field = state_mismatch(packed_view, reference_view)
    assert field is None, f"{context_message}: {field} differs"


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def test_registry_names():
    """Every simulation backend has the implication engine of its name."""
    circuit = random_circuit(0)
    names = {create_implication_engine(circuit, name).name for name in available_backends()}
    assert names == set(available_backends())


def test_unknown_backend_rejected():
    circuit = random_circuit(0)
    for name in ("no-such-engine", "bigint", "numpy"):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_implication_engine(circuit, name)


def test_default_follows_simulation_backend():
    """One ``--backend`` choice governs simulation and implication alike."""
    circuit = random_circuit(0)
    previous = default_backend()
    try:
        set_default_backend("reference")
        assert create_implication_engine(circuit).name == "reference"
        set_default_backend("packed")
        assert create_implication_engine(circuit).name == "packed"
    finally:
        set_default_backend(previous)


def test_engine_classes_match_registry():
    circuit = random_circuit(0)
    reference, packed = _engines(circuit)
    assert reference.name == "reference"
    assert packed.name == "packed"


# --------------------------------------------------------------------------- #
# two-frame implication
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("robust", [True, False])
def test_implicate_bit_exact(seed, robust):
    """Partial assignments, stem + branch faults, fault-free pass."""
    circuit = random_circuit(seed)
    reference, packed = _engines(circuit, robust=robust)
    rng = random.Random(1234 + seed)
    faults = enumerate_delay_faults(circuit)

    for trial in range(3):
        pi_values, ppi_initial = _partial_assignment(rng, circuit)
        fault = rng.choice(faults) if trial else None
        want = implicate(reference, pi_values, ppi_initial, fault)
        got = implicate(packed, pi_values, ppi_initial, fault)
        _assert_views_equal(want, got, f"seed {seed} trial {trial} fault {fault}")


@pytest.mark.parametrize("seed", SEEDS)
def test_candidate_batches_bit_exact(seed):
    """A decision sweep over every alternative equals per-candidate runs."""
    circuit = random_circuit(seed)
    reference, packed = _engines(circuit)
    rng = random.Random(77 + seed)
    faults = enumerate_delay_faults(circuit)

    pi_values, ppi_initial = _partial_assignment(rng, circuit, density=0.5)
    fault = rng.choice(faults)
    unassigned = [pi for pi, value in pi_values.items() if value is None]
    if not unassigned:
        pi_values[circuit.primary_inputs[0]] = None
        unassigned = [circuit.primary_inputs[0]]
    name = rng.choice(unassigned)
    candidates = [("pi", name, value) for value in PI_VALUES] + [None]

    want = reference.implicate_candidates(pi_values, ppi_initial, fault, candidates)
    got = packed.implicate_candidates(pi_values, ppi_initial, fault, candidates)
    for index in range(len(candidates)):
        _assert_views_equal(
            (want, index), (got, index), f"seed {seed} candidate {index}"
        )


@pytest.mark.parametrize("seed", list(range(10)))
def test_incremental_chain_bit_exact(seed):
    """Sweeps chained decision-by-decision, exactly as the search chains them.

    Each sweep passes the previous view as ``base``, so the packed engine
    takes its incremental cone path; every candidate of every sweep must
    still match a from-scratch reference interpretation.
    """
    circuit = random_circuit(seed)
    context = TDgenContext(circuit)
    reference, packed = _engines(circuit, context=context)
    rng = random.Random(999 + seed)
    fault = rng.choice(enumerate_delay_faults(circuit))

    pi_values: Dict[str, Optional[DelayValue]] = {
        pi: None for pi in circuit.primary_inputs
    }
    ppi_initial: Dict[str, Optional[int]] = {
        ppi: None for ppi in circuit.pseudo_primary_inputs
    }
    reference_view = implicate(reference, pi_values, ppi_initial, fault)
    packed_view = implicate(packed, pi_values, ppi_initial, fault)

    variables = [("pi", pi) for pi in circuit.primary_inputs] + [
        ("ppi", ppi) for ppi in circuit.pseudo_primary_inputs
    ]
    rng.shuffle(variables)
    for kind, name in variables:
        domain = list(PI_VALUES) if kind == "pi" else [0, 1]
        rng.shuffle(domain)
        candidates = [(kind, name, value) for value in domain]
        want = reference.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=reference_view
        )
        got = packed.implicate_candidates(
            pi_values, ppi_initial, fault, candidates, base=packed_view
        )
        for index in range(len(candidates)):
            _assert_views_equal(
                (want, index), (got, index),
                f"seed {seed} var {name} candidate {index}",
            )
        pick = rng.randrange(len(domain))
        if kind == "pi":
            pi_values[name] = domain[pick]
        else:
            ppi_initial[name] = domain[pick]
        reference_view = (want, pick)
        packed_view = (got, pick)


@pytest.mark.parametrize("seed", list(range(12)))
def test_incremental_delta_columns_match_full_sweep(seed):
    """An incremental sweep's columns equal a full sweep's, slot for slot.

    The incremental sweep writes only the slots its wavefronts reach and
    reads every other one from the parent's columns; ``column_sets`` and
    ``column_frame1`` of each candidate, the coupled pair sets and the
    conflict signals must still equal those of ``_implicate_full`` on the
    same assignment — for PI and PPI variables, with a stem fault, a branch
    fault and no fault.
    """
    circuit = random_circuit(seed)
    packed = create_implication_engine(circuit, "packed")
    rng = random.Random(4321 + seed)
    faults = enumerate_delay_faults(circuit)
    stems = [fault for fault in faults if fault.line.kind is LineKind.STEM]
    branches = [fault for fault in faults if fault.line.kind is not LineKind.STEM]
    for fault in [None, rng.choice(stems)] + ([rng.choice(branches)] if branches else []):
        for attempt in range(20):
            pi_values, ppi_initial = _partial_assignment(rng, circuit, density=0.5)
            parent = implicate(packed, pi_values, ppi_initial, fault)
            if parent[0].conflict_signal(0) is None:
                break
        else:
            continue
        variables = [("pi", pi) for pi in circuit.primary_inputs] + [
            ("ppi", ppi) for ppi in circuit.pseudo_primary_inputs
        ]
        for kind, name in rng.sample(variables, min(6, len(variables))):
            domain = list(PI_VALUES) if kind == "pi" else [0, 1]
            candidates = [(kind, name, value) for value in domain] + [None]
            incremental = packed._try_incremental(
                pi_values, ppi_initial, fault, candidates, parent
            )
            assert incremental is not None, "the sweep must take the incremental path"
            full = packed.implicate_candidates(pi_values, ppi_initial, fault, candidates)
            message = f"seed {seed} fault {fault} var {name}"
            for index in range(len(candidates)):
                assert incremental.column_sets(index) == full.column_sets(index), message
                assert incremental.column_frame1(index) == full.column_frame1(index), message
            assert incremental._ppi_pair_sets == full._ppi_pair_sets, message
            assert incremental._conflict_signals == full._conflict_signals, message


# --------------------------------------------------------------------------- #
# SEMILET frames
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", list(range(10)))
def test_pair_frames_bit_exact(seed):
    """Good/faulty pair frames, with free PPIs and candidate batches."""
    circuit = random_circuit(seed)
    reference, packed = _engines(circuit)
    rng = random.Random(555 + seed)

    for trial in range(3):
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.6 else None)
            for pi in circuit.primary_inputs
        }
        good = {
            ppi: rng.choice([0, 1, None]) for ppi in circuit.pseudo_primary_inputs
        }
        faulty = {
            ppi: (
                1 - good[ppi]
                if good[ppi] is not None and rng.random() < 0.3
                else good[ppi]
            )
            for ppi in circuit.pseudo_primary_inputs
        }
        free = {
            ppi: rng.choice([0, 1, None])
            for ppi in circuit.pseudo_primary_inputs
            if rng.random() < 0.4
        }
        want = reference.pair_frame_candidates(pi_values, good, faulty, free, (None,))
        got = packed.pair_frame_candidates(pi_values, good, faulty, free, (None,))
        assert got.columns(0) == want.columns(0), f"seed {seed} trial {trial}"

        candidates = []
        unassigned = [pi for pi, value in pi_values.items() if value is None]
        if unassigned:
            candidates += [(unassigned[0], True, 0), (unassigned[0], True, 1)]
        open_free = [ppi for ppi, value in free.items() if value is None]
        if open_free:
            candidates += [(open_free[0], False, 1), (open_free[0], False, None)]
        if not candidates:
            continue
        want_batch = reference.pair_frame_candidates(
            pi_values, good, faulty, free, candidates
        )
        got_batch = packed.pair_frame_candidates(
            pi_values, good, faulty, free, candidates
        )
        for index in range(len(candidates)):
            assert got_batch.columns(index) == want_batch.columns(index), (
                f"seed {seed} trial {trial} candidate {index}"
            )


@pytest.mark.parametrize("seed", list(range(10)))
def test_justification_frames_bit_exact(seed):
    """Three-valued frames with per-candidate overrides."""
    circuit = random_circuit(seed)
    reference, packed = _engines(circuit)
    rng = random.Random(321 + seed)

    for trial in range(3):
        pi_values = {
            pi: (rng.randint(0, 1) if rng.random() < 0.6 else None)
            for pi in circuit.primary_inputs
        }
        ppi_values = {
            ppi: rng.choice([0, 1, None]) for ppi in circuit.pseudo_primary_inputs
        }
        name = circuit.primary_inputs[0]
        for candidates in ((None,), [None] + [(name, True, value) for value in (0, 1, None)]):
            want = reference.frame_candidates(pi_values, ppi_values, candidates)
            got = packed.frame_candidates(pi_values, ppi_values, candidates)
            assert _planes(got) == _planes(want), (
                f"seed {seed} trial {trial} candidates {candidates}"
            )


def _planes(frames):
    """A frame batch's planes as comparable lists."""
    planes = frames.packed_planes()
    return list(planes.zero), list(planes.one), planes.width


# --------------------------------------------------------------------------- #
# end-to-end campaign equivalence
# --------------------------------------------------------------------------- #
def _campaign_fingerprint(campaign):
    """Everything a campaign decided, in a comparable shape."""
    rows = []
    for result in campaign.fault_results:
        sequence = None
        if result.sequence is not None:
            s = result.sequence
            sequence = (
                tuple(tuple(sorted(v.items())) for v in s.initialization_vectors),
                tuple(sorted(s.v1.items())),
                tuple(sorted(s.v2.items())),
                tuple(tuple(sorted(v.items())) for v in s.propagation_vectors),
                s.observation_point,
                s.observed_at_po,
            )
        rows.append(
            (
                str(result.fault),
                result.status.value,
                result.phase.value,
                result.local_backtracks,
                result.sequential_backtracks,
                result.attempts,
                tuple(str(f) for f in result.additionally_detected),
                sequence,
            )
        )
    return rows


def _run_campaign(circuit, faults, backend):
    atpg = SequentialDelayATPG(circuit, backend=backend)
    return atpg.run(faults)


def test_campaign_equivalence_s27():
    """Full s27 campaign: identical results under both backends."""
    reference = _run_campaign(
        load_circuit("s27"), enumerate_delay_faults(load_circuit("s27")), "reference"
    )
    circuit = load_circuit("s27")
    packed = _run_campaign(circuit, enumerate_delay_faults(circuit), "packed")
    assert _campaign_fingerprint(packed) == _campaign_fingerprint(reference)
    assert (packed.tested, packed.untestable, packed.aborted) == (
        reference.tested,
        reference.untestable,
        reference.aborted,
    )


def test_campaign_equivalence_surrogate():
    """Sampled s838-surrogate campaign: identical results under both backends."""
    reference_circuit = load_circuit("s838", scale=0.25, seed=0)
    packed_circuit = load_circuit("s838", scale=0.25, seed=0)
    reference_faults = sample_faults(enumerate_delay_faults(reference_circuit), 16)
    packed_faults = sample_faults(enumerate_delay_faults(packed_circuit), 16)
    reference = _run_campaign(reference_circuit, reference_faults, "reference")
    packed = _run_campaign(packed_circuit, packed_faults, "packed")
    assert _campaign_fingerprint(packed) == _campaign_fingerprint(reference)
