"""FAUSIM — good machine simulation and propagation-phase fault simulation.

The paper splits fault simulation into three phases (section 5); FAUSIM covers
the first two:

1. good machine simulation of all initialisation frames and the fast frame,
2. stuck-at-style fault simulation of the propagation phase, injecting a D at
   every pseudo primary output that holds a non-steady value at the end of
   the fast frame and checking which of them become observable at a primary
   output.

The third phase (delay fault critical path tracing in the fast frame) lives in
:mod:`repro.tdsim`.

Good-machine simulation runs on one of two backends (see
:mod:`repro.fausim.backends`): the compiled bit-parallel ``packed``
evaluator on unbounded-width integer planes (the process default) and the
``reference`` per-gate interpreter (the differential-testing oracle).
TDsim's eight-valued two-frame passes run on the implication engine's set
words (:mod:`repro.tdgen.implication`), on the same compiled netlist.
"""

from repro.fausim.logic_sim import (
    LogicSimulator,
    simulate_combinational,
    simulate_sequence,
    SequenceResult,
)
from repro.fausim.fault_sim import PropagationFaultSimulator, PPOObservability
from repro.fausim.backends import (
    available_backends,
    create_simulator,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.fausim.compile import CompiledCircuit, compile_circuit
from repro.fausim.packed_sim import PackedLogicSimulator

__all__ = [
    "LogicSimulator",
    "PackedLogicSimulator",
    "CompiledCircuit",
    "compile_circuit",
    "simulate_combinational",
    "simulate_sequence",
    "SequenceResult",
    "PropagationFaultSimulator",
    "PPOObservability",
    "available_backends",
    "create_simulator",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
]
