"""Search-effort pin: the s27 campaign's decisions, sweeps and backtracks.

The campaign fingerprint pins verdicts and per-fault backtrack counts, but
not how many decisions or implication sweeps the searches spent reaching
them.  A change to the decision loop that keeps every verdict but reorders
the search would pass every other test; these counts catch it.  They are
the same under every ``PYTHONHASHSEED`` and on both backends.
"""

from __future__ import annotations

import pytest

from repro.core.flow import SequentialDelayATPG
from repro.obs.metrics import MetricsRegistry

#: (robust) -> expected counter values of one serial s27 campaign.
EXPECTED = {
    True: {
        "decisions": 664,
        "sweeps_tdgen": 699,
        "sweeps_propagation": 34,
        "sweeps_justification": 603,
        "backtracks_tdgen": 1011,
        "backtracks_semilet": 303,
    },
    False: {
        "decisions": 754,
        "sweeps_tdgen": 789,
        "sweeps_propagation": 33,
        "sweeps_justification": 519,
        "backtracks_tdgen": 926,
        "backtracks_semilet": 404,
    },
}


@pytest.mark.parametrize("backend", ["reference", "packed"])
@pytest.mark.parametrize("robust", [True, False], ids=["robust", "nonrobust"])
def test_s27_search_effort(s27, backend, robust):
    registry = MetricsRegistry()
    SequentialDelayATPG(s27, robust=robust, backend=backend, metrics=registry).run()
    sweeps = "repro_implication_sweeps_total"
    measured = {
        "decisions": registry.counter_value("repro_decisions_total"),
        "sweeps_tdgen": registry.counter_value(sweeps, site="tdgen"),
        "sweeps_propagation": registry.counter_value(sweeps, site="propagation"),
        "sweeps_justification": registry.counter_value(sweeps, site="justification"),
        "backtracks_tdgen": registry.counter_value("repro_backtracks_total", engine="tdgen"),
        "backtracks_semilet": registry.counter_value(
            "repro_backtracks_total", engine="semilet"
        ),
    }
    assert measured == EXPECTED[robust]
