"""Differential harness: fault-parallel grading vs per-fault scalar replay.

``grade_test_sequence`` with the packed backend puts the good machine in
pattern slot 0 and one gross-delay faulty machine in every remaining slot;
the verdict, detection frame and detecting primary output of every fault must
be identical to replaying the sequence against that fault alone with the
reference interpreter (which is what ``verify_test_sequence`` has always
done).  The universe-resident graders behind it are checked with random
live-lane masks: only live lanes are ever reported, each at its reference
verdict.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

import pytest

from repro.core.clocking import ClockSchedule
from repro.core.results import TestSequence
from repro.core.verify import (
    PackedGrader,
    ReferenceGrader,
    create_grader,
    grade_test_sequence,
    iter_lanes,
    verify_test_sequence,
)
from repro.faults.model import enumerate_delay_faults
from repro.fausim.backends import create_simulator

from tests.fausim.test_packed_differential import random_circuit


def random_sequence(rng: random.Random, circuit, length: int = 6) -> TestSequence:
    """A random test sequence with a random fast-frame position."""
    vectors = [
        {pi: rng.randint(0, 1) for pi in circuit.primary_inputs} for _ in range(length)
    ]
    fast_index = rng.randint(1, length - 1)
    schedule = ClockSchedule.for_sequence(
        initialization_frames=fast_index - 1,
        propagation_frames=length - fast_index - 1,
    )
    fault = rng.choice(enumerate_delay_faults(circuit))
    return TestSequence(
        fault=fault,
        initialization_vectors=vectors[: fast_index - 1],
        v1=vectors[fast_index - 1],
        v2=vectors[fast_index],
        propagation_vectors=vectors[fast_index + 1 :],
        clock_schedule=schedule,
        observation_point="",
        observed_at_po=True,
    )


@pytest.mark.parametrize("seed", range(0, 30))
def test_grading_bit_exact_across_backends(seed):
    """Packed word-parallel grading equals the reference per-fault replay."""
    circuit = random_circuit(seed)
    rng = random.Random(6000 + seed)
    sequence = random_sequence(rng, circuit)
    faults = enumerate_delay_faults(circuit)

    want = grade_test_sequence(circuit, sequence, faults, backend="reference")
    got = grade_test_sequence(circuit, sequence, faults, backend="packed")
    assert len(got) == len(want) == len(faults)
    for reference, packed in zip(want, got):
        assert packed.fault == reference.fault
        assert packed.detected == reference.detected, f"seed {seed}: {packed.fault}"
        assert packed.detection_frame == reference.detection_frame, f"seed {seed}: {packed.fault}"
        assert packed.primary_output == reference.primary_output, f"seed {seed}: {packed.fault}"


@pytest.mark.parametrize("seed", range(0, 20, 2))
def test_grading_matches_verify_per_fault(seed):
    """Each grade equals a dedicated verify_test_sequence run for that fault."""
    circuit = random_circuit(seed)
    rng = random.Random(6100 + seed)
    sequence = random_sequence(rng, circuit)
    faults = enumerate_delay_faults(circuit)
    sample = rng.sample(faults, min(len(faults), 20))

    grades = grade_test_sequence(circuit, sequence, sample, backend="packed")
    for fault, grade in zip(sample, grades):
        candidate = dataclasses.replace(sequence, fault=fault)
        report = verify_test_sequence(circuit, candidate, backend="reference")
        assert grade.detected == report.detected, f"seed {seed}: {fault}"
        assert grade.detection_frame == report.detection_frame
        assert grade.primary_output == report.primary_output


@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_verify_report_identical_across_backends(seed):
    """Full VerificationReport (including traces) matches between backends."""
    circuit = random_circuit(seed)
    rng = random.Random(6200 + seed)
    faults = enumerate_delay_faults(circuit)
    for _ in range(4):
        sequence = random_sequence(rng, circuit)
        sequence = dataclasses.replace(sequence, fault=rng.choice(faults))
        want = verify_test_sequence(circuit, sequence, backend="reference")
        got = verify_test_sequence(circuit, sequence, backend="packed")
        assert got.detected == want.detected
        assert got.detection_frame == want.detection_frame
        assert got.primary_output == want.primary_output
        assert got.good_trace == want.good_trace
        assert got.faulty_trace == want.faulty_trace


def test_grading_chunks_beyond_word_width(s27):
    """Fault lists longer than one word chunk transparently."""
    rng = random.Random(42)
    sequence = random_sequence(rng, s27, length=8)
    faults = enumerate_delay_faults(s27) * 2  # duplicates are graded per slot
    assert len(faults) > 63  # straddles the word boundary — the point of the test
    want = grade_test_sequence(s27, sequence, faults, backend="reference")
    got = grade_test_sequence(s27, sequence, faults, backend="packed")
    assert [(g.detected, g.detection_frame, g.primary_output) for g in got] == [
        (g.detected, g.detection_frame, g.primary_output) for g in want
    ]


def test_grading_empty_fault_list(s27):
    rng = random.Random(43)
    sequence = random_sequence(rng, s27)
    assert grade_test_sequence(s27, sequence, [], backend="packed") == []
    assert grade_test_sequence(s27, sequence, [], backend="reference") == []


# --------------------------------------------------------------------------- #
# universe-resident graders with live-lane masks
# --------------------------------------------------------------------------- #
def _verdicts(events):
    """Lane -> (frame, primary output); a lane reported twice fails."""
    verdicts = {}
    for frame, po, lanes in events:
        for lane in iter_lanes(lanes):
            assert lane not in verdicts, f"lane {lane} reported twice"
            verdicts[lane] = (frame, po)
    return verdicts


@pytest.mark.parametrize("seed", range(0, 24))
def test_live_mask_grading_matches_reference_sublist(seed):
    """A packed grade of random live lanes equals grading the live sublist."""
    circuit = random_circuit(seed)
    rng = random.Random(6300 + seed)
    faults = enumerate_delay_faults(circuit)
    grader = create_grader(create_simulator(circuit, "packed"), faults)
    oracle = create_grader(create_simulator(circuit, "reference"), faults)
    assert isinstance(grader, PackedGrader) and isinstance(oracle, ReferenceGrader)
    for _ in range(3):
        sequence = random_sequence(rng, circuit)
        live = 0
        for lane in range(1, len(faults) + 1):
            if rng.random() < 0.5:
                live |= 1 << lane
        events = grader.grade(sequence, live)
        assert events == oracle.grade(sequence, live), f"seed {seed}"
        verdicts = _verdicts(events)
        assert set(verdicts) <= set(iter_lanes(live)), "a dead lane was reported"

        lanes = list(iter_lanes(live))
        sublist = [faults[lane - 1] for lane in lanes]
        want = grade_test_sequence(circuit, sequence, sublist, backend="reference")
        for lane, grade in zip(lanes, want):
            got = verdicts.get(lane)
            assert (got is not None) == grade.detected, f"seed {seed}: {grade.fault}"
            if got is not None:
                assert got == (grade.detection_frame, grade.primary_output)


def test_grader_with_no_live_lanes_reports_nothing(s27):
    rng = random.Random(44)
    sequence = random_sequence(rng, s27)
    faults = enumerate_delay_faults(s27)
    for backend in ("packed", "reference"):
        grader = create_grader(create_simulator(s27, backend), faults)
        assert grader.grade(sequence, 0) == []
        # lanes outside the universe are ignored
        assert grader.grade(sequence, 1 | (1 << (len(faults) + 1))) == []
