"""The seeded incremental-equivalence fuzz loop.

Each seed deterministically generates one
:class:`tests.fuzz.harness.IncrementalFuzzCase` — a random synchronous
circuit, a random single-edit perturbation (gate type flip, fanin rewire,
added or removed gate, added primary input or flip-flop) and random campaign
settings (robustness mode, simulation backend, optional base-campaign cap,
optional random prefix, one or two workers) — and asserts the store-backed
incremental re-run is fingerprint-identical to a from-scratch campaign on
the perturbed circuit, with the residue exactly the influence-cone
intersection.

The default budget keeps the suite inside tier-1 time (each case runs three
small campaigns); CI pushes and the nightly cron extend it via
``REPRO_FUZZ_INCR_CASES``.  A failing seed is shrunk to a minimal
reproduction and persisted into ``tests/fuzz/corpus/`` before the test
fails, so the discovery is pinned even if the seed budget later changes.
"""

from __future__ import annotations

import os

import pytest

from tests.fuzz.harness import (
    IncrementalFuzzCase,
    check_incremental_case,
    generate_incremental_case,
    persist_incremental_case,
    shrink_incremental_case,
)

#: Default bounded budget; ``REPRO_FUZZ_INCR_CASES`` extends it (CI cron: 400).
FUZZ_BUDGET = int(os.environ.get("REPRO_FUZZ_INCR_CASES", "12"))


@pytest.mark.parametrize("seed", range(FUZZ_BUDGET))
def test_incremental_matches_scratch_on_fuzzed_edit(seed):
    """Incremental re-run is bit-identical to from-scratch on one fuzzed edit."""
    case = generate_incremental_case(seed)
    failures = check_incremental_case(case)
    if failures:
        minimised = shrink_incremental_case(case)
        path = persist_incremental_case(
            minimised,
            check_incremental_case(minimised) or failures,
            note=f"shrunk from generate_incremental_case({seed})",
        )
        pytest.fail(
            f"seed {seed}: incremental equivalence violated ({failures[0]}); "
            f"minimised reproduction persisted to {path}"
        )


def test_incremental_case_serialisation_round_trips():
    """A case rebuilt from its JSON form replays identically."""
    case = generate_incremental_case(1)
    clone = IncrementalFuzzCase.from_json(case.to_json())
    assert clone.to_json() == case.to_json()
    assert check_incremental_case(clone) == check_incremental_case(case)


def test_incremental_shrinker_preserves_validity():
    """Shrink variants still build both circuits or are skipped."""
    from tests.fuzz.harness import (
        _is_valid_incremental,
        _shrink_incremental_candidates,
    )

    case = generate_incremental_case(2)
    variants = _shrink_incremental_candidates(case)
    assert variants, "generator produced an unshrinkable case"
    assert any(_is_valid_incremental(variant) for variant in variants)


def test_hybrid_cases_reachable():
    """The default seed budget includes hybrid (random-prefix) cases."""
    assert any(generate_incremental_case(seed).rpg for seed in range(FUZZ_BUDGET))


def test_sharded_cases_reachable():
    """The default seed budget includes a re-run on two workers."""
    assert any(generate_incremental_case(seed).jobs == 2 for seed in range(FUZZ_BUDGET))


def test_perturbation_kinds_all_reachable():
    """The generator exercises every perturbation kind within a seed window."""
    kinds = {generate_incremental_case(seed).perturb.kind for seed in range(80)}
    assert kinds == set(
        ("type_flip", "rewire", "add_gate", "remove_gate", "add_input", "add_dff")
    ), f"unreachable perturbation kinds: {kinds}"
