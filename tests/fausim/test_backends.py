"""Backend registry and circuit compiler."""

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.fausim import (
    LogicSimulator,
    PackedLogicSimulator,
    available_backends,
    compile_circuit,
    create_simulator,
    default_backend,
    resolve_backend,
    set_default_backend,
)


def test_builtin_backends_registered():
    assert available_backends() == ("packed", "reference")


def test_create_simulator_types(s27):
    assert isinstance(create_simulator(s27, "reference"), LogicSimulator)
    assert isinstance(create_simulator(s27, "packed"), PackedLogicSimulator)


def test_default_backend_is_packed(s27):
    """The campaign default is the compiled bit-parallel backend."""
    assert default_backend() == "packed"
    assert resolve_backend(None) == "packed"
    assert isinstance(create_simulator(s27), PackedLogicSimulator)


def test_unknown_backend_rejected(s27):
    with pytest.raises(ValueError, match="unknown simulation backend"):
        create_simulator(s27, "warp-drive")
    with pytest.raises(ValueError):
        resolve_backend("warp-drive")


def test_set_default_backend_round_trip(s27):
    previous = set_default_backend("reference")
    try:
        assert previous == "packed"
        assert isinstance(create_simulator(s27), LogicSimulator)
    finally:
        set_default_backend(previous)
    assert default_backend() == "packed"


def test_compile_layout(s27):
    compiled = compile_circuit(s27)
    # PIs first, then PPIs, then gates in evaluation order.
    assert [compiled.signal_names[slot] for slot in compiled.pi_slots] == s27.primary_inputs
    assert [
        compiled.signal_names[slot] for slot in compiled.ppi_slots
    ] == s27.pseudo_primary_inputs
    assert compiled.num_signals == len(s27.primary_inputs) + len(
        s27.pseudo_primary_inputs
    ) + len(s27.combinational_gates)
    assert compiled.num_gates == len(s27.combinational_gates)
    assert len(compiled.fanin_offsets) == compiled.num_gates + 1
    # Every fanin slot is defined before it is consumed.
    produced = set(compiled.pi_slots) | set(compiled.ppi_slots)
    for index in range(compiled.num_gates):
        for position in range(
            compiled.fanin_offsets[index], compiled.fanin_offsets[index + 1]
        ):
            assert compiled.fanin_flat[position] in produced
        produced.add(compiled.outputs[index])


def test_compile_cache_reused_and_invalidated():
    builder = CircuitBuilder("cache")
    builder.inputs(["a", "b"])
    builder.and_("y", ["a", "b"])
    builder.output("y")
    circuit = builder.build()

    first = compile_circuit(circuit)
    assert compile_circuit(circuit) is first

    circuit.add_gate("z", GateType.OR, ["a", "y"])
    second = compile_circuit(circuit)
    assert second is not first
    assert "z" in second.slot_of


def test_removed_backends_rejected(s27):
    """Only `packed` and `reference` exist; any other name fails loudly."""
    for name in ("bigint", "numpy"):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            create_simulator(s27, name)


def test_two_frame_factory_matches_tiers(s27):
    from repro.fausim import PackedTwoFrameSimulator, create_two_frame_simulator

    assert isinstance(
        create_two_frame_simulator(s27, backend="packed"), PackedTwoFrameSimulator
    )
    assert create_two_frame_simulator(s27, backend="reference") is None
