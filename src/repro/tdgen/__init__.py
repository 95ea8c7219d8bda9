"""TDgen — local (combinational, two-frame) robust gate delay fault ATPG.

TDgen handles the *test time frame* and the *initial time frame* of the time
frame model (paper Figure 2, section 3): it generates the two-pattern test
``(v1, v2)`` that provokes the targeted gate delay fault and propagates the
fault effect robustly to a primary output or to a pseudo primary output,
using the eight-valued algebra of :mod:`repro.algebra`.

The decision procedure is a PODEM-style branch-and-bound over the primary
input pairs and the initial-frame values of the pseudo primary inputs, with
the state-register coupling rule (the final value of a PPI equals the initial
frame value of the corresponding PPO) built into the forward implication.

The package also hosts the two backend-dispatched layers shared with SEMILET
and TDsim: the implication engines (:mod:`repro.tdgen.implication`) and the
search kernels (:mod:`repro.tdgen.search` — objective selection, multiple
backtrace, potential-difference scan).  Engines resolve their backend name
through :mod:`repro.fausim.backends` and each builds its own kernels, so one
``backend`` choice governs the whole flow.
"""

from repro.tdgen.context import TDgenContext
from repro.tdgen.simulation import TwoFrameState, simulate_two_frame
from repro.tdgen.implication import (
    ImplicationEngine,
    PackedImplicationEngine,
    ReferenceImplicationEngine,
    create_implication_engine,
)
from repro.tdgen.search import (
    PackedSearchKernels,
    ReferenceSearchKernels,
    SearchKernels,
)
from repro.tdgen.result import LocalTest, LocalTestStatus
from repro.tdgen.engine import TDgen

__all__ = [
    "SearchKernels",
    "ReferenceSearchKernels",
    "PackedSearchKernels",
    "TDgenContext",
    "TwoFrameState",
    "simulate_two_frame",
    "ImplicationEngine",
    "ReferenceImplicationEngine",
    "PackedImplicationEngine",
    "create_implication_engine",
    "LocalTest",
    "LocalTestStatus",
    "TDgen",
]
