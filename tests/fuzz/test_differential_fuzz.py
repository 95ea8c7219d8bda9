"""The seeded differential fuzz loop over all registered backends.

Each seed deterministically generates one :class:`tests.fuzz.harness.FuzzCase`
and replays it through all five layers (simulation, implication, search
kernels, grading, TDsim) under every registered backend, asserting bit-exact
agreement with the reference oracle.

The default budget keeps the suite inside tier-1 time; the CI cron job (and
anyone hunting) extends it via ``REPRO_FUZZ_CASES``.  A failing seed is
shrunk to a minimal reproduction and persisted into ``tests/fuzz/corpus/``
before the test fails, so the discovery is pinned even if the seed budget
later changes.
"""

from __future__ import annotations

import os

import pytest

from tests.fuzz.harness import check_case, generate_case, persist_case, shrink_case

#: Default bounded budget; ``REPRO_FUZZ_CASES`` extends it (CI cron: 1000).
FUZZ_BUDGET = int(os.environ.get("REPRO_FUZZ_CASES", "40"))


@pytest.mark.parametrize("seed", range(FUZZ_BUDGET))
def test_backends_agree_on_fuzzed_case(seed):
    """All five layers agree across backends on one fuzzed case."""
    case = generate_case(seed)
    failures = check_case(case)
    if failures:
        minimised = shrink_case(case)
        path = persist_case(
            minimised,
            check_case(minimised) or failures,
            note=f"shrunk from generate_case({seed})",
        )
        pytest.fail(
            f"seed {seed}: backends disagree ({failures[0]}); "
            f"minimised reproduction persisted to {path}"
        )


def test_case_serialisation_round_trips():
    """A case rebuilt from its JSON form replays identically."""
    from tests.fuzz.harness import FuzzCase

    case = generate_case(1)
    clone = FuzzCase.from_json(case.to_json())
    assert clone.to_json() == case.to_json()
    assert check_case(clone) == check_case(case)


def test_shrinker_preserves_validity():
    """Every one-step shrink variant still builds a legal circuit or is skipped."""
    from tests.fuzz.harness import _is_valid, _shrink_candidates

    case = generate_case(2)
    variants = _shrink_candidates(case)
    assert variants, "generator produced an unshrinkable case"
    assert any(_is_valid(variant) for variant in variants)
