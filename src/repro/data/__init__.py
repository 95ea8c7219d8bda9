"""Benchmark circuits.

The paper evaluates on the ISCAS'89 sequential benchmark suite.  ``s27`` is
embedded verbatim (its netlist is tiny and widely published); the remaining
circuits are *surrogates*: deterministically generated synchronous circuits
with the published interface statistics (primary inputs, primary outputs,
flip-flops) and comparable gate counts.  See DESIGN.md section 5 for why this
substitution preserves the behaviour the experiments exercise.
"""

from repro.data.iscas89 import (
    BenchmarkSpec,
    ISCAS89_SPECS,
    check_scale,
    list_circuits,
    load_circuit,
    circuit_spec,
)
from repro.data.surrogate import generate_surrogate

__all__ = [
    "BenchmarkSpec",
    "ISCAS89_SPECS",
    "check_scale",
    "list_circuits",
    "load_circuit",
    "circuit_spec",
    "generate_surrogate",
]
