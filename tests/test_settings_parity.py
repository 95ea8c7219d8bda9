"""The CLI and the service reject the same campaign settings.

Both front ends map their inputs onto one
:class:`~repro.orchestrate.OrchestratorConfig` and one
:func:`~repro.orchestrate.campaign_mode` check, so every invalid setting
below must be refused by ``python -m repro campaign`` (exit 2) *and* by
``POST /jobs`` (:meth:`~repro.service.jobs.JobSpec.from_request`, a 400),
with a message naming the same setting.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.service import JobSpec

#: (CLI flags, request fields, the setting both messages must name).
INVALID = [
    (("--jobs", "0"), {"jobs": 0}, "'jobs'"),
    (("--backtrack-limit", "0"), {"backtrack_limit": 0}, "backtrack_limit'"),
    (("--rpg-budget", "0"), {"rpg_budget": 0}, "'rpg_budget'"),
    (("--rpg-prefix", "--rpg-window", "0"), {"rpg_prefix": True, "rpg_window": 0}, "'rpg_window'"),
    (("--scale", "-1"), {"scale": -1}, "'scale'"),
    (("--max-faults", "-3"), {"max_target_faults": -3}, "'max_target_faults'"),
    (("--time-limit", "-1"), {"time_limit_s": -1}, "'time_limit_s'"),
    (("--time-limit", "5", "--jobs", "2"), {"time_limit_s": 5, "jobs": 2}, "'time_limit_s'"),
    (("--circuits", "s9999"), {"circuit": "s9999"}, "unknown circuit"),
    (("--backend", "numpy"), {"backend": "numpy"}, "backend"),
]


def _cli_error(capsys, flags) -> str:
    """Run ``campaign`` on s27 with ``flags``; assert exit 2, return stderr."""
    try:
        code = main(["campaign", "--circuits", "s27", *flags])
    except SystemExit as exit_:  # argparse rejects a bad choice itself
        code = exit_.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "flags, fields, setting", INVALID, ids=[setting.strip("'") for *_, setting in INVALID]
)
def test_cli_and_service_reject_the_same_settings(capsys, flags, fields, setting):
    cli_message = _cli_error(capsys, flags)
    with pytest.raises(ValueError) as service_error:
        JobSpec.from_request({"circuit": "s27", **fields})
    assert setting in cli_message
    assert setting in str(service_error.value)
