"""The combined TDgen + SEMILET flow — the paper's headline contribution.

:class:`repro.core.flow.SequentialDelayATPG` implements the extended
FOGBUSTER algorithm of Figure 4: local test generation, forward propagation,
propagation justification, justification of the test frames, initialisation,
and the three-phase fault simulation, with backtracking between the steps.
"""

from repro.core.clocking import ClockSchedule, ClockSpeed
from repro.core.results import (
    FaultResult,
    FaultResultStatus,
    TestSequence,
    CampaignResult,
)
from repro.core.flow import SequentialDelayATPG, credit_fault_result, run_campaign_loop
from repro.core.verify import (
    FaultGrade,
    VerificationReport,
    grade_test_sequence,
    verify_test_sequence,
)
from repro.core.reporting import (
    campaign_row,
    format_campaign_table,
    format_shard_summary,
    format_untestable_breakdown,
)

__all__ = [
    "ClockSchedule",
    "ClockSpeed",
    "FaultResult",
    "FaultResultStatus",
    "TestSequence",
    "CampaignResult",
    "SequentialDelayATPG",
    "credit_fault_result",
    "run_campaign_loop",
    "verify_test_sequence",
    "grade_test_sequence",
    "VerificationReport",
    "FaultGrade",
    "format_campaign_table",
    "campaign_row",
    "format_shard_summary",
    "format_untestable_breakdown",
]
