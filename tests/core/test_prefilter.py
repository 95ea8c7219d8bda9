"""Unit tests of the random-pattern prefix phase (:mod:`repro.core.prefilter`).

The hybrid campaign's Phase A must be a pure function of (circuit, universe,
config): seeded per-sequence, credited under the exact eight-valued rule, and
resumable from journaled records without replaying the RNG history.  These
tests pin the seed derivation, the config validation, the record round-trip,
the adaptive stopping rules and the replay-equals-fresh-run contract.
"""

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.core.prefilter import (
    STOP_BUDGET,
    STOP_EXHAUSTED,
    STOP_WINDOW,
    PrefixConfig,
    PrefixRecord,
    RandomPrefixEngine,
    derive_prefix_seed,
)
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults

#: A prefix workload with real detections: s344@0.3 seed 0 credits ~40 faults
#: within ~35 sequences before the window rule stops it (sub-second).
CONFIG = PrefixConfig(budget=64, window=8, sequence_length=8, seed=0)


@pytest.fixture(scope="module")
def s344_small():
    return load_circuit("s344", scale=0.3)


@pytest.fixture(scope="module")
def prefix_outcome(s344_small):
    engine = RandomPrefixEngine(s344_small, CONFIG, backend="packed")
    return engine.run(enumerate_delay_faults(s344_small))


# --------------------------------------------------------------------------- #
# seed derivation / config validation
# --------------------------------------------------------------------------- #
def test_derive_prefix_seed_is_deterministic_and_index_local():
    assert derive_prefix_seed(7, 3) == derive_prefix_seed(7, 3)
    seeds = {derive_prefix_seed(7, k) for k in range(100)}
    assert len(seeds) == 100, "per-sequence seeds must not collide on a small run"
    assert all(0 <= seed <= 0x7FFFFFFF for seed in seeds)
    # different campaigns draw different sequences
    assert derive_prefix_seed(7, 0) != derive_prefix_seed(8, 0)


def test_prefix_config_validation():
    with pytest.raises(ValueError, match="budget"):
        PrefixConfig(budget=0)
    with pytest.raises(ValueError, match="window"):
        PrefixConfig(window=0)
    with pytest.raises(ValueError, match="two frames"):
        PrefixConfig(sequence_length=1)


# --------------------------------------------------------------------------- #
# record round-trip
# --------------------------------------------------------------------------- #
def test_prefix_record_journal_round_trip(prefix_outcome):
    assert prefix_outcome.detected, "workload must credit faults to be meaningful"
    for record in prefix_outcome.records:
        rebuilt = PrefixRecord.from_journal(record.to_journal())
        assert rebuilt.seq == record.seq
        assert rebuilt.candidates == record.candidates
        assert rebuilt.detections == record.detections
        if record.sequence is None:
            assert rebuilt.sequence is None
        else:
            assert rebuilt.sequence.to_json() == record.sequence.to_json()


def test_sequences_kept_only_when_crediting(prefix_outcome):
    for record in prefix_outcome.records:
        assert (record.sequence is not None) == bool(record.detections)
        # the gross-delay grade is a necessary condition of the credit
        assert len(record.detections) <= record.candidates


# --------------------------------------------------------------------------- #
# stopping rules
# --------------------------------------------------------------------------- #
def test_window_stop(prefix_outcome):
    """The workload's natural stop: a full window without a new credit."""
    assert prefix_outcome.stop_reason == STOP_WINDOW
    window = CONFIG.window
    tail = prefix_outcome.records[-window:]
    assert sum(len(record.detections) for record in tail) == 0
    assert prefix_outcome.applied < CONFIG.budget


def test_budget_stop(s344_small):
    config = PrefixConfig(budget=5, window=64, sequence_length=8, seed=0)
    engine = RandomPrefixEngine(s344_small, config, backend="packed")
    outcome = engine.run(enumerate_delay_faults(s344_small))
    assert outcome.stop_reason == STOP_BUDGET
    assert outcome.applied == 5


def test_exhausted_stop_on_empty_universe(s344_small):
    engine = RandomPrefixEngine(s344_small, CONFIG, backend="packed")
    outcome = engine.run([])
    assert outcome.stop_reason == STOP_EXHAUSTED
    assert outcome.applied == 0 and outcome.detected == []


# --------------------------------------------------------------------------- #
# determinism + replay
# --------------------------------------------------------------------------- #
def _journal_form(outcome):
    return (
        [record.to_journal() for record in outcome.records],
        [fault.to_json() for fault in outcome.detected],
        outcome.stop_reason,
    )


def test_rerun_is_bit_identical(s344_small, prefix_outcome):
    engine = RandomPrefixEngine(s344_small, CONFIG, backend="packed")
    again = engine.run(enumerate_delay_faults(s344_small))
    assert _journal_form(again) == _journal_form(prefix_outcome)


def test_replay_from_any_cut_matches_fresh_run(s344_small, prefix_outcome):
    """Resuming from journaled records continues the identical prefix."""
    faults = enumerate_delay_faults(s344_small)
    for cut in (1, len(prefix_outcome.records) // 2, len(prefix_outcome.records)):
        replay = [
            PrefixRecord.from_journal(record.to_journal())
            for record in prefix_outcome.records[:cut]
        ]
        engine = RandomPrefixEngine(s344_small, CONFIG, backend="packed")
        emitted = []
        resumed = engine.run(faults, replay=replay, on_record=emitted.append)
        assert _journal_form(resumed) == _journal_form(prefix_outcome), cut
        # only newly applied sequences are re-emitted
        assert len(emitted) == prefix_outcome.applied - cut


def test_replay_out_of_order_is_rejected(s344_small, prefix_outcome):
    engine = RandomPrefixEngine(s344_small, CONFIG, backend="packed")
    with pytest.raises(ValueError, match="out of order"):
        engine.run(
            enumerate_delay_faults(s344_small), replay=prefix_outcome.records[1:]
        )


def test_backends_agree(s27):
    """The prefix phase is backend-independent like every other layer."""
    universe = enumerate_delay_faults(s27)
    packed, reference = (
        RandomPrefixEngine(s27, CONFIG, backend=backend).run(universe)
        for backend in ("packed", "reference")
    )
    assert packed.detected, "the prefix must credit faults to be a meaningful check"
    assert _journal_form(packed) == _journal_form(reference)


def test_packed_prefix_plans_once_and_builds_no_fault_grades(s344_small, monkeypatch):
    """One grading plan per phase; the live-lane loop makes no per-fault verdicts."""
    from repro.core import verify

    plans = []
    original_init = verify.PackedGrader.__init__

    def counting_init(self, simulator, faults):
        plans.append(len(faults))
        original_init(self, simulator, faults)

    def no_grades(*args, **kwargs):
        raise AssertionError("the prefix must not build FaultGrade objects")

    monkeypatch.setattr(verify.PackedGrader, "__init__", counting_init)
    monkeypatch.setattr(verify, "FaultGrade", no_grades)
    config = PrefixConfig(budget=12, window=64, sequence_length=8, seed=0)
    universe = enumerate_delay_faults(s344_small)
    outcome = RandomPrefixEngine(s344_small, config, backend="packed").run(universe)
    assert outcome.applied == 12 and outcome.detected
    assert plans == [len(universe)]


# --------------------------------------------------------------------------- #
# serial hybrid flow
# --------------------------------------------------------------------------- #
def test_serial_hybrid_campaign_bookkeeping(s344_small, prefix_outcome):
    """``SequentialDelayATPG.run(prefix=...)`` folds Phase A into the result."""
    campaign = SequentialDelayATPG(s344_small, backend="packed").run(prefix=CONFIG)
    assert campaign.prefix_applied == prefix_outcome.applied
    assert campaign.prefix_detected == len(prefix_outcome.detected)
    assert campaign.prefix_stop_reason == prefix_outcome.stop_reason
    assert len(campaign.prefix_sequences) == len(prefix_outcome.kept_sequences)
    # prefix-credited faults are tested without being targeted
    assert campaign.tested >= campaign.prefix_detected
    assert campaign.targeted <= campaign.total_faults - campaign.prefix_detected
    assert campaign.total_faults == len(enumerate_delay_faults(s344_small))

    # the hybrid result round-trips through JSON with its prefix fields
    rebuilt = type(campaign).from_json(campaign.to_json())
    assert rebuilt.prefix_applied == campaign.prefix_applied
    assert rebuilt.prefix_detected == campaign.prefix_detected
    assert rebuilt.prefix_stop_reason == campaign.prefix_stop_reason
    assert len(rebuilt.prefix_sequences) == len(campaign.prefix_sequences)
    assert rebuilt.pattern_count == campaign.pattern_count
