"""Result objects of the local (TDgen) test generation step."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional

from repro.algebra.values import DelayValue
from repro.faults.model import GateDelayFault


class LocalTestStatus(enum.Enum):
    """Outcome of one TDgen invocation."""

    SUCCESS = "success"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclasses.dataclass
class LocalTest:
    """A two-pattern local test produced by TDgen.

    Attributes:
        fault: the targeted gate delay fault.
        status: success / untestable / aborted.
        pi_values: pair value per primary input; ``None`` entries are don't
            cares (any value keeps the test valid, because the observation was
            proven for every completion).
        ppi_initial: required initial-frame value per pseudo primary input;
            unmentioned PPIs are don't cares for the local test.
        observation_points: primary outputs and/or pseudo primary output
            signals where the fault effect is guaranteed to appear.
        observed_at_po: True if at least one observation point is a PO (no
            sequential propagation needed).
        ppo_final_values: final (test frame) value of every PPO that TDgen is
            allowed to specify to SEMILET: only PPOs with an equal, hazard-free
            initial and final value may be handed over (paper section 6); the
            rest map to ``None`` — the "unjustifiable don't care".
        ppo_fault_effects: per PPO signal, the fault-carrying value captured in
            the state register (``Rc``/``Fc``), for observation points that are
            pseudo primary outputs.
        backtracks: number of backtracks spent.
        decisions: number of decisions taken.
    """

    fault: GateDelayFault
    status: LocalTestStatus
    pi_values: Dict[str, Optional[DelayValue]] = dataclasses.field(default_factory=dict)
    ppi_initial: Dict[str, int] = dataclasses.field(default_factory=dict)
    observation_points: List[str] = dataclasses.field(default_factory=list)
    observed_at_po: bool = False
    ppo_final_values: Dict[str, Optional[int]] = dataclasses.field(default_factory=dict)
    ppo_fault_effects: Dict[str, DelayValue] = dataclasses.field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0

    def required_state(self) -> Dict[str, int]:
        """The partial state required at the start of the initial frame.

        This is what the synchronisation (initialisation) phase must
        establish.
        """
        return dict(self.ppi_initial)

    def vector_pair(self, fill: int = 0) -> "TestVectorPair":
        """Concrete two-pattern test with don't cares filled deterministically."""
        v1: Dict[str, int] = {}
        v2: Dict[str, int] = {}
        for pi, value in self.pi_values.items():
            if value is None:
                v1[pi] = fill
                v2[pi] = fill
            else:
                v1[pi] = value.initial
                v2[pi] = value.final
        return TestVectorPair(initial=v1, final=v2)

    def __str__(self) -> str:
        points = ", ".join(self.observation_points) or "-"
        return (
            f"LocalTest({self.fault}, {self.status.value}, observe@[{points}], "
            f"backtracks={self.backtracks})"
        )


@dataclasses.dataclass
class TestVectorPair:
    """A fully specified two-pattern test at the primary inputs."""

    initial: Dict[str, int]
    final: Dict[str, int]
