"""repro — Gate Delay Fault Test Generation for Non-Scan Circuits.

A Python reproduction of G. van Brakel, U. Glaeser, H.G. Kerkhoff and
H.T. Vierhaus, "Gate Delay Fault Test Generation for Non-Scan Circuits",
Proc. European Design and Test Conference (ED&TC / DATE), 1995.

The public API re-exports the pieces most users need:

* circuit modelling and ISCAS'89 ``.bench`` I/O (:mod:`repro.circuit`),
* the eight-valued robust delay algebra (:mod:`repro.algebra`),
* the gate delay fault model (:mod:`repro.faults`),
* TDgen, the local two-frame delay-fault test generator (:mod:`repro.tdgen`),
* SEMILET, the sequential propagation / justification / synchronisation
  engine (:mod:`repro.semilet`),
* the fault simulators FAUSIM and TDsim (:mod:`repro.fausim`,
  :mod:`repro.tdsim`),
* the combined FOGBUSTER flow (:mod:`repro.core`),
* sharded multi-process campaign orchestration (:mod:`repro.orchestrate`),
* benchmark circuits (:mod:`repro.data`) and baselines (:mod:`repro.baselines`).

Quickstart::

    from repro import SequentialDelayATPG, load_circuit

    circuit = load_circuit("s27")
    atpg = SequentialDelayATPG(circuit)
    campaign = atpg.run()
    print(campaign.as_table3_row())
"""

from repro.circuit import (
    Circuit,
    CircuitBuilder,
    GateType,
    Line,
    LineKind,
    parse_bench,
    parse_bench_file,
    write_bench,
)
from repro.algebra import (
    DelayValue,
    V0,
    V1,
    R,
    F,
    H0,
    H1,
    RC,
    FC,
    evaluate_delay_gate,
    format_truth_table,
)
from repro.faults import (
    DelayFaultType,
    FaultList,
    FaultStatus,
    GateDelayFault,
    enumerate_delay_faults,
)
from repro.tdgen import TDgen, LocalTest, LocalTestStatus
from repro.semilet import Semilet
from repro.fausim import LogicSimulator, PropagationFaultSimulator, simulate_sequence
from repro.tdsim import DelayFaultSimulator
from repro.core import (
    CampaignResult,
    ClockSchedule,
    FaultGrade,
    FaultResult,
    FaultResultStatus,
    SequentialDelayATPG,
    TestSequence,
    format_campaign_table,
    grade_test_sequence,
    verify_test_sequence,
)
from repro.data import list_circuits, load_circuit, circuit_spec
from repro.baselines import EnhancedScanATPG, RandomSequenceATPG
from repro.orchestrate import (
    CampaignOrchestrator,
    OrchestratorConfig,
    run_campaign,
)

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "CircuitBuilder",
    "GateType",
    "Line",
    "LineKind",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "DelayValue",
    "V0",
    "V1",
    "R",
    "F",
    "H0",
    "H1",
    "RC",
    "FC",
    "evaluate_delay_gate",
    "format_truth_table",
    "DelayFaultType",
    "FaultList",
    "FaultStatus",
    "GateDelayFault",
    "enumerate_delay_faults",
    "TDgen",
    "LocalTest",
    "LocalTestStatus",
    "Semilet",
    "LogicSimulator",
    "PropagationFaultSimulator",
    "simulate_sequence",
    "DelayFaultSimulator",
    "CampaignResult",
    "ClockSchedule",
    "FaultResult",
    "FaultResultStatus",
    "SequentialDelayATPG",
    "TestSequence",
    "format_campaign_table",
    "verify_test_sequence",
    "grade_test_sequence",
    "FaultGrade",
    "list_circuits",
    "load_circuit",
    "circuit_spec",
    "EnhancedScanATPG",
    "RandomSequenceATPG",
    "CampaignOrchestrator",
    "OrchestratorConfig",
    "run_campaign",
    "__version__",
]
