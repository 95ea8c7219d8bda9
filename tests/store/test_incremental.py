"""Deterministic tests of the incremental re-run engine on s27.

The contract under test: an incremental campaign (stored outcomes reused
for faults outside the edit's influence cone, the residue re-targeted) is
**fingerprint-identical** to a from-scratch serial campaign on the edited
netlist, for every ``backend`` and for every supported edit shape.  The
property-based companion (``tests/fuzz/test_incremental_fuzz.py``) fuzzes
the same contract over random circuits and perturbations; this module pins
the named cases and the failure modes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuit.gates import GateType
from repro.core.flow import SequentialDelayATPG
from repro.data import load_circuit
from repro.faults.model import enumerate_delay_faults
from repro.fausim.compile import compile_circuit, diff_compiled
from repro.obs.metrics import MetricsRegistry
from repro.orchestrate import OrchestratorConfig, run_campaign
from repro.store import CampaignStore, influence_cone, invalidate, run_incremental


def _config(**overrides) -> OrchestratorConfig:
    """A small serial config; overrides map onto OrchestratorConfig fields."""
    settings = {"jobs": 1, "local_backtrack_limit": 20, "sequential_backtrack_limit": 20}
    settings.update(overrides)
    return OrchestratorConfig(**settings)


def _scratch(circuit, config, metrics=None):
    """From-scratch serial campaign on ``circuit`` under ``config``."""
    atpg = SequentialDelayATPG(circuit, metrics=metrics, **config.atpg_kwargs())
    return atpg.run(prefix=config.prefix_config())


def _store_with_base(tmp_path, circuit, config, **ingest_kwargs):
    """A store holding one finished base campaign for ``circuit``."""
    store = CampaignStore(str(tmp_path / "base.sqlite"))
    result = _scratch(circuit, config)
    store.ingest_result(result, circuit=circuit, config=config, **ingest_kwargs)
    return store, result


def _with_observer(circuit):
    """An ECO-style edit: observe the AND of the first two PIs at a new PO."""
    edited = circuit.copy()
    edited.add_gate("eco_obs", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_output("eco_obs")
    return edited


def _with_type_flip(circuit):
    """Flip the type of one multi-input combinational gate."""
    edited = circuit.copy()
    for name, gate in edited.gates.items():
        if gate.gate_type is GateType.NAND and len(gate.fanin) > 1:
            gate.gate_type = GateType.NOR
            edited._invalidate()
            return edited
    raise AssertionError("s27 has no NAND gate to flip")


def _with_new_input(circuit):
    """Add a primary input, observed through an AND with the first PI."""
    edited = circuit.copy()
    edited.add_input("eco_in")
    edited.add_gate("eco_pi", GateType.AND, ["eco_in", edited.primary_inputs[0]])
    edited.add_output("eco_pi")
    return edited


def _with_new_flip_flop(circuit):
    """Register the AND of the first two PIs in a new flip-flop read by a new PO."""
    edited = circuit.copy()
    edited.add_gate("eco_d", GateType.AND, list(edited.primary_inputs[:2]))
    edited.add_gate("eco_q", GateType.DFF, ["eco_d"])
    edited.add_output("eco_q")
    return edited


def test_unchanged_circuit_reuses_everything(tmp_path):
    """An empty delta re-targets nothing and reproduces the base exactly."""
    circuit = load_circuit("s27")
    config = _config()
    store, base_result = _store_with_base(tmp_path, circuit, config)
    with store:
        outcome = run_incremental(load_circuit("s27"), store, config)
    assert outcome.delta.is_empty
    assert outcome.cone_size == 0
    assert outcome.invalidated == 0
    assert outcome.retargeted == 0
    assert outcome.result.fingerprint() == base_result.fingerprint()


@pytest.mark.parametrize("edit", [_with_observer, _with_type_flip])
@pytest.mark.parametrize("backend", [None, "reference"])
def test_incremental_matches_scratch(tmp_path, edit, backend):
    """Fingerprint identity with from-scratch for both edit shapes."""
    circuit = load_circuit("s27")
    config = _config(backend=backend)
    store, _ = _store_with_base(tmp_path, circuit, config)
    edited = edit(load_circuit("s27"))
    with store:
        outcome = run_incremental(edited, store, config)
    scratch = _scratch(edit(load_circuit("s27")), config)
    assert outcome.result.fingerprint() == scratch.fingerprint()
    assert outcome.kept + outcome.invalidated == outcome.result.total_faults
    if edit is _with_observer:
        # The observer edit's cone is tiny, so most outcomes are reused; a
        # type flip near the PIs legitimately cones all of little s27.
        assert outcome.reused > 0
        assert outcome.invalidated < outcome.result.total_faults


def test_residue_is_exactly_the_cone_intersection(tmp_path):
    """invalidate() partitions the universe precisely along the cone."""
    circuit = load_circuit("s27")
    edited = _with_observer(load_circuit("s27"))
    delta = diff_compiled(compile_circuit(circuit), compile_circuit(edited))
    # The new gate's value differs (it did not exist); its PI fanins only
    # gained a sink, so they are observability-only.
    assert "eco_obs" in delta.changed
    assert set(delta.observability) == set(edited.primary_inputs[:2])
    cone = influence_cone(edited, delta)
    universe = enumerate_delay_faults(edited)
    kept, residue = invalidate(universe, cone)
    assert len(kept) + len(residue) == len(universe)
    assert all(fault.line.signal in cone for fault in residue)
    assert all(fault.line.signal not in cone for fault in kept)
    assert residue, "the edit must invalidate at least the new gate's faults"


def test_capped_base_retargets_missing_records(tmp_path):
    """Faults the capped base never recorded are targeted fresh."""
    circuit = load_circuit("s27")
    config = _config()
    store, base_result = _store_with_base(tmp_path, circuit, config)
    # Re-ingest a capped variant as the *latest* base: find_base picks it.
    capped = SequentialDelayATPG(circuit, **config.atpg_kwargs()).run(
        max_target_faults=5
    )
    with store:
        store.ingest_result(capped, circuit=circuit, config=config)
        outcome = run_incremental(load_circuit("s27"), store, config)
    assert outcome.retargeted > 0
    assert outcome.result.fingerprint() == base_result.fingerprint()


@pytest.mark.parametrize("robust", [True, False])
def test_incremental_hybrid_matches_scratch(tmp_path, robust):
    """A hybrid re-run runs the prefix afresh and memoises only Phase B."""
    config = _config(
        robust=robust, rpg_prefix=True, rpg_budget=32, rpg_window=8, campaign_seed=5
    )
    store, _ = _store_with_base(tmp_path, load_circuit("s27"), config)
    with store:
        outcome = run_incremental(_with_observer(load_circuit("s27")), store, config)
    scratch = _scratch(_with_observer(load_circuit("s27")), config)
    assert outcome.result.fingerprint() == scratch.fingerprint()
    assert outcome.result.prefix_applied > 0
    assert outcome.reused > 0


def test_incremental_time_limit_cuts_the_loop(tmp_path):
    """A generous limit changes nothing; an expired one targets nothing."""
    circuit = load_circuit("s27")
    config = _config()
    store, _ = _store_with_base(tmp_path, circuit, config)
    edited = _with_observer(load_circuit("s27"))
    with store:
        roomy = run_incremental(edited, store, config, time_limit_s=600.0)
        expired = run_incremental(edited, store, config, time_limit_s=1e-9)
    assert roomy.result.fingerprint() == _scratch(edited.copy(), config).fingerprint()
    assert expired.result.targeted == 0
    assert expired.result.aborted == expired.result.total_faults


def test_incremental_requires_matching_base(tmp_path):
    """An empty or mismatched store raises instead of running from scratch."""
    circuit = load_circuit("s27")
    config = _config()
    store, _ = _store_with_base(tmp_path, circuit, config)
    with store:
        with pytest.raises(LookupError, match="no campaign"):
            run_incremental(circuit, store, _config(robust=False))


def test_incremental_metrics_fold_stored_costs(tmp_path):
    """With metrics on, reused faults replay their stored search costs."""
    circuit = load_circuit("s27")
    config = _config()
    registry = MetricsRegistry()
    base = SequentialDelayATPG(circuit, metrics=registry, **config.atpg_kwargs())
    base_result = base.run()
    store = CampaignStore(str(tmp_path / "base.sqlite"))
    with store:
        store.ingest_result(
            base_result, circuit=circuit, config=config, costs=base.cost_log
        )
        incremental_registry = MetricsRegistry()
        outcome = run_incremental(
            load_circuit("s27"), store, config, metrics=incremental_registry
        )
    assert len(outcome.costs) == len(base.cost_log)
    assert [cost.fault for cost in outcome.costs] == [
        cost.fault for cost in base.cost_log
    ]
    decisions = sum(cost.decisions for cost in base.cost_log)
    assert sum(cost.decisions for cost in outcome.costs) == decisions


def test_observability_only_edit_keeps_disjoint_cones_intact(tmp_path):
    """The ECO edit's cone stays tiny: only the PI fanin cone is re-targeted."""
    circuit = load_circuit("s27")
    config = _config()
    store, _ = _store_with_base(tmp_path, circuit, config)
    edited = _with_observer(load_circuit("s27"))
    with store:
        outcome = run_incremental(edited, store, config)
    # Cone = the new gate plus its two PI fanins; nothing propagates forward
    # from an observability-only change.
    assert outcome.cone_size == 3
    assert outcome.reused > outcome.retargeted


@pytest.mark.parametrize("edit", [_with_new_input, _with_new_flip_flop])
def test_interface_edit_invalidates_everything(tmp_path, edit):
    """A new primary input or flip-flop re-targets the whole universe.

    Searches that range over every input or state bit differ for every
    fault, so nothing is reused and the run equals a scratch run.
    """
    circuit = load_circuit("s27")
    config = _config()
    store, _ = _store_with_base(tmp_path, circuit, config)
    with store:
        outcome = run_incremental(edit(load_circuit("s27")), store, config)
    assert outcome.delta.interface_changed
    assert outcome.kept == 0 and outcome.reused == 0
    assert outcome.invalidated == outcome.result.total_faults
    assert outcome.result.fingerprint() == _scratch(edit(load_circuit("s27")), config).fingerprint()


@pytest.mark.parametrize("jobs", [1, 2])
def test_fault_subset_matches_scratch(tmp_path, jobs):
    """A fault subset reuses by universe index and equals a scratch run of it."""
    config = _config()
    store, _ = _store_with_base(tmp_path, load_circuit("s27"), config)
    store.close()
    edited = _with_observer(load_circuit("s27"))
    subset = enumerate_delay_faults(edited)[::2]
    run = run_campaign(
        edited, dataclasses.replace(config, jobs=jobs), faults=subset,
        incremental_from=store.path,
    )
    scratch = SequentialDelayATPG(edited.copy(), **config.atpg_kwargs()).run(faults=subset)
    assert run.result.fingerprint() == scratch.fingerprint()
    assert run.incremental["reused"] > 0
    assert run.incremental["kept"] + run.incremental["invalidated"] == len(subset)
