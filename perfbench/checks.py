"""Output checks of one measurement, run outside the timed regions.

Every measurement checks its Table 3 row sums (also of the ECO re-run) and
records each campaign's fingerprint digest.  A ``verify`` measurement also re-checks every credited
sequence on the ``reference`` backend, an independent scalar oracle of the
compiled default backend.  A ``check`` measurement also compares the ECO
re-run with a from-scratch run of the edited circuit and a sharded campaign
with its serial twin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List

from repro.core.flow import SequentialDelayATPG
from repro.core.results import CampaignResult, FaultResultStatus
from repro.core.verify import grade_test_sequence, verify_test_sequence


def fingerprint_digest(result: CampaignResult) -> str:
    """A short digest of :meth:`CampaignResult.fingerprint`."""
    payload = json.dumps(result.fingerprint(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def row_sums(result: CampaignResult) -> bool:
    """Every fault of the universe has exactly one Table 3 verdict."""
    return result.tested + result.untestable + result.aborted == result.total_faults


def aborted_targets(result: CampaignResult) -> int:
    """Targeted faults whose search was aborted."""
    return sum(1 for r in result.fault_results if r.status is FaultResultStatus.ABORTED)


def reference_verified(circuit, result: CampaignResult) -> bool:
    """Every credited deterministic sequence detects its target on ``reference``."""
    return all(
        verify_test_sequence(circuit, r.sequence, backend="reference").detected
        for r in result.fault_results
        if r.tested and r.sequence is not None
    )


def prefix_reference_graded(circuit, records) -> bool:
    """Every prefix sequence gross-detects the faults it was credited with.

    Gross detection is the necessary condition the prefix's TDsim crediting
    refines, so a credited fault the ``reference`` grader misses is wrong.
    """
    for record in records:
        if record.detections and not all(
            grade.detected
            for grade in grade_test_sequence(
                circuit, record.sequence, record.detections, backend="reference"
            )
        ):
            return False
    return True


def eco_matches_scratch(eco, max_targets) -> bool:
    """The ECO re-run equals a from-scratch campaign on the edited circuit."""
    scratch = SequentialDelayATPG(eco.circuit, **eco.config.atpg_kwargs()).run(
        max_target_faults=max_targets
    )
    return eco.outcome.result.fingerprint() == scratch.fingerprint()


def sharded_matches_serial(workload, leg, config) -> bool:
    """A sharded campaign equals the serial campaign with the same settings."""
    serial_config = dataclasses.replace(config, jobs=1)
    serial = SequentialDelayATPG(leg.circuit, **serial_config.atpg_kwargs()).run(
        max_target_faults=workload.max_targets, prefix=serial_config.prefix_config()
    )
    return leg.result.fingerprint() == serial.fingerprint()


def run_checks(run, outcome, verify: bool, check: bool) -> Dict[str, bool]:
    """All checks that apply to this measurement, by name."""
    results: Dict[str, bool] = {"row_sums": all(row_sums(leg.result) for leg in outcome.legs)}
    if outcome.eco is not None:
        results["eco_row_sums"] = row_sums(outcome.eco.outcome.result)
    if verify:
        results["reference_verified"] = all(
            reference_verified(leg.circuit, leg.result) for leg in outcome.legs
        )
        results["prefix_reference_graded"] = all(
            prefix_reference_graded(leg.circuit, leg.prefix_records) for leg in outcome.legs
        )
    if check:
        if outcome.eco is not None:
            results["eco_matches_scratch"] = eco_matches_scratch(outcome.eco, run.workload.max_targets)
        config = run.workload.config(run.campaign_seed)
        sharded = [leg for leg in outcome.legs if leg.orchestrator is not None]
        if sharded:
            results["sharded_matches_serial"] = all(
                sharded_matches_serial(run.workload, leg, config) for leg in sharded
            )
    return results


def campaign_rows(outcome) -> List[Dict[str, object]]:
    """The Table 3 rows of a measurement with their fingerprint digests."""
    return [
        {
            "circuit": leg.result.circuit_name,
            "total": leg.result.total_faults,
            "tested": leg.result.tested,
            "untestable": leg.result.untestable,
            "aborted": leg.result.aborted,
            "patterns": leg.result.pattern_count,
            "targeted": leg.result.targeted,
            "aborted_targets": aborted_targets(leg.result),
            "fingerprint": fingerprint_digest(leg.result),
        }
        for leg in outcome.legs
    ]
