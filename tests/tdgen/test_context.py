"""``TDgenContext.order`` is the compiled program's gate order.

The context reads its topological order off :func:`compile_circuit` (cached
on the circuit) instead of levelising the circuit again; it must equal
:func:`combinational_order` on real and surrogate netlists, on random
circuits, and after an edit recompiles the circuit.
"""

from __future__ import annotations

import pytest

from repro.circuit.gates import GateType
from repro.circuit.levelize import combinational_order
from repro.data import load_circuit
from repro.tdgen.context import TDgenContext

from tests.fausim.test_packed_differential import random_circuit


@pytest.mark.parametrize("name", ["s27", "s208"])
def test_order_matches_combinational_order_on_benchmarks(name):
    circuit = load_circuit(name)
    assert TDgenContext(circuit).order == combinational_order(circuit)


@pytest.mark.parametrize("seed", range(8))
def test_order_matches_combinational_order_on_random_circuits(seed):
    circuit = random_circuit(seed)
    assert TDgenContext(circuit).order == combinational_order(circuit)


def test_order_follows_an_add_gate_edit():
    circuit = random_circuit(5)
    before = TDgenContext(circuit).order
    circuit.add_gate("eco_obs", GateType.AND, list(circuit.primary_inputs[:2]))
    circuit.add_output("eco_obs")
    after = TDgenContext(circuit).order
    assert after == combinational_order(circuit)
    assert "eco_obs" in after and "eco_obs" not in before
