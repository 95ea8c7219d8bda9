"""Crediting one test sequence computes its good machine once.

:func:`repro.core.flow.simulate_sequence_detections` reads the state latched
after the fast frame from TDsim's own good-machine pass, which
:meth:`~repro.tdsim.cpt.DelayFaultSimulator.simulate` then reuses.  On the
packed backend no interpreted two-frame simulation runs at all.
"""

from __future__ import annotations

import pytest

import repro.tdgen.implication as implication
import repro.tdgen.simulation as simulation
from repro.core.flow import SequentialDelayATPG, simulate_sequence_detections
from repro.data import load_circuit
from repro.obs.metrics import MetricsRegistry
from repro.tdgen.context import TDgenContext
from repro.tdsim.cpt import DelayFaultSimulator


@pytest.fixture(scope="module")
def s27_sequences():
    circuit = load_circuit("s27")
    campaign = SequentialDelayATPG(circuit, backend="packed").run()
    sequences = [
        result.sequence for result in campaign.fault_results if result.sequence is not None
    ]
    assert sequences
    return circuit, sequences


def _interpreter_forbidden(*args, **kwargs):
    raise AssertionError("the packed crediting path ran the interpreted two-frame simulation")


def test_packed_crediting_runs_no_interpreted_two_frame_pass(s27_sequences, monkeypatch):
    circuit, sequences = s27_sequences
    simulator = DelayFaultSimulator(circuit, backend="packed")
    expected = [
        simulate_sequence_detections(circuit, simulator, sequence, "packed")
        for sequence in sequences
    ]
    monkeypatch.setattr(simulation, "good_machine_values", _interpreter_forbidden)
    monkeypatch.setattr(simulation, "simulate_two_frame", _interpreter_forbidden)
    monkeypatch.setattr(implication, "simulate_two_frame", _interpreter_forbidden)
    got = [
        simulate_sequence_detections(circuit, simulator, sequence, "packed")
        for sequence in sequences
    ]
    assert got == expected
    assert any(got)


def test_one_good_machine_per_call_on_both_backends(s27_sequences):
    circuit, sequences = s27_sequences
    detections = {}
    for backend in ("packed", "reference"):
        metrics = MetricsRegistry()
        simulator = DelayFaultSimulator(circuit, backend=backend, metrics=metrics)
        calls = []
        original = simulator.good_machine

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        simulator.good_machine = counted
        detections[backend] = [
            simulate_sequence_detections(circuit, simulator, sequence, backend)
            for sequence in sequences
        ]
        assert len(calls) == len(sequences)
        assert metrics.counter_value("repro_tdsim_passes_total") == len(sequences)
    assert detections["packed"] == detections["reference"]


def test_latched_state_is_the_good_machine_final_value(s27_sequences):
    circuit, sequences = s27_sequences
    context = TDgenContext(circuit)
    for backend in ("packed", "reference"):
        simulator = DelayFaultSimulator(circuit, backend=backend)
        for sequence in sequences:
            good = simulator.good_machine(sequence.pi_pair_values, sequence.ppi_initial_values)
            values = simulation.good_machine_values(
                context, sequence.pi_pair_values, sequence.ppi_initial_values
            )
            assert good.latched_state(circuit) == {
                dff.name: values[dff.fanin[0]].final for dff in circuit.flip_flops
            }
