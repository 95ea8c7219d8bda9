"""Two-frame eight-valued forward implication with fault injection.

Given a (partial) assignment of primary input pairs and initial-frame values
of the pseudo primary inputs, :func:`simulate_two_frame` computes for every
signal the set of still-possible algebra values.  The simulation proceeds in
two passes:

1. a three-valued pass over the *initial* frame (slow clock, fault free) that
   determines the values the pseudo primary outputs settle to, and therefore
   the *final*-frame values the state register presents at the pseudo primary
   inputs during the test frame (the state-register coupling rule of the
   paper);
2. an eight-valued set pass over the combinational block with the fault
   injected at the fault site (``R``/``F`` converted to ``Rc``/``Fc`` at the
   fault line, and nowhere else).

Because the pass only ever propagates *sets of possible values* forward, a
singleton set at an observation point means the observation is guaranteed for
every completion of the unassigned inputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from repro.algebra.sets import (
    EMPTY_SET,
    ValueSet,
    contains,
    evaluate_gate_sets,
    has_fault_value,
    is_singleton,
    members,
    set_of,
    single_value,
)
from repro.algebra.values import (
    ALL_VALUES,
    DelayValue,
    F,
    FC,
    PI_VALUES,
    R,
    RC,
    V0,
    V1,
)
from repro.circuit.gates import evaluate_gate
from repro.circuit.netlist import Circuit, LineKind
from repro.faults.model import DelayFaultType, GateDelayFault
from repro.tdgen.context import TDgenContext

PI_SET_MASK: ValueSet = set_of(*PI_VALUES)
FAULT_MASK: ValueSet = set_of(RC, FC)


@dataclasses.dataclass
class TwoFrameState:
    """Result of one forward implication pass.

    Attributes:
        signal_sets: per-signal set of possible algebra values.  For a fault on
            a signal *stem* the stored set is the post-injection set (all sinks
            and observation points see it); for a *branch* fault the stem keeps
            its fault-free set and only the faulted gate input sees the
            injected set.
        frame1: three-valued settled value of every signal in the initial frame.
        fault_line_set: set of possible values on the fault line itself,
            after injection.
        ppi_pair_sets: the source sets used for the pseudo primary inputs.
        conflict_signal: first signal (in evaluation order) whose possibility
            set became empty during the propagation pass, or ``None``.  The
            pass records it so :meth:`has_conflict` — invoked once per
            decision by :class:`repro.tdgen.engine.TDgen` — does not have to
            re-scan every signal set.
        packed_handle: opaque backref set by the packed implication engine
            (:mod:`repro.tdgen.implication`) so a follow-up candidate sweep
            can start from this state's planes and re-evaluate only the
            decision variable's influence cone.  Never compared and always
            ``None`` for reference states.
    """

    signal_sets: Dict[str, ValueSet]
    frame1: Dict[str, Optional[int]]
    fault_line_set: ValueSet
    ppi_pair_sets: Dict[str, ValueSet]
    conflict_signal: Optional[str] = None
    packed_handle: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def definite_value(self, signal: str) -> Optional[DelayValue]:
        """The value of a signal if it is fully determined, else ``None``."""
        value_set = self.signal_sets[signal]
        if is_singleton(value_set):
            return single_value(value_set)
        return None

    def has_conflict(self) -> bool:
        """True if any signal has an empty possibility set.

        Answered from the ``conflict_signal`` recorded during the propagation
        pass — O(1) instead of a scan over every signal set.
        """
        return self.conflict_signal is not None


def _inject(value_set: ValueSet, fault_type: DelayFaultType) -> ValueSet:
    """Convert the activating transition into its fault-carrying variant."""
    activation = fault_type.activation_value
    if not contains(value_set, activation):
        return value_set
    injected = value_set & ~activation.mask
    injected |= fault_type.fault_value.mask
    return injected


def branch_fault_key(fault: Optional[GateDelayFault]) -> Optional[Tuple[str, int]]:
    """The ``(sink gate, pin)`` a branch fault injects at, or ``None``.

    Stem faults (and the fault-free case) have no branch key: their injection
    happens at the driving signal itself.
    """
    if fault is not None and fault.line.kind is LineKind.BRANCH:
        return (fault.line.sink, fault.line.pin)
    return None


def branch_injected_input_sets(
    gate,
    signal_sets: Mapping[str, ValueSet],
    fault: Optional[GateDelayFault],
    key: Optional[Tuple[str, int]],
) -> list:
    """The value sets a gate actually sees on its inputs, in pin order.

    Re-applies the branch-fault injection on the single faulted pin.  This is
    the one shared definition of branch injection: the forward pass of
    :func:`simulate_two_frame` and the engine-facing :func:`gate_input_sets`
    (D-frontier, backtrace) both call it, so the two views cannot drift.

    Args:
        gate: the gate whose inputs are read (``repro.circuit`` gate object).
        signal_sets: current per-signal possibility sets.
        fault: the targeted fault (``None`` for the fault-free pass).
        key: precomputed :func:`branch_fault_key` of ``fault``.
    """
    input_sets = [signal_sets[source] for source in gate.fanin]
    if key is not None and key[0] == gate.name:
        pin = key[1]
        if (
            fault is not None
            and pin is not None
            and 0 <= pin < len(gate.fanin)
            and gate.fanin[pin] == fault.line.signal
        ):
            input_sets[pin] = _inject(input_sets[pin], fault.fault_type)
    return input_sets


def _ppi_pair_set(initial: Optional[int], final: Optional[int]) -> ValueSet:
    """Possible values of a pseudo primary input given its two frame values.

    Flip-flop outputs change only at the clock edge, so they are hazard free
    and never fault-originating: the candidates are ``0``, ``1``, ``R``, ``F``.
    """
    mask = 0
    for value in PI_VALUES:
        if initial is not None and value.initial != initial:
            continue
        if final is not None and value.final != final:
            continue
        mask |= value.mask
    return mask


def simulate_two_frame(
    context: TDgenContext,
    pi_values: Mapping[str, Optional[DelayValue]],
    ppi_initial: Mapping[str, Optional[int]],
    fault: Optional[GateDelayFault] = None,
    robust: bool = True,
) -> TwoFrameState:
    """Forward implication of the two local time frames.

    Args:
        context: precomputed circuit data.
        pi_values: assigned pair value per primary input (``None`` / missing
            means unassigned).
        ppi_initial: assigned initial-frame value per pseudo primary input.
        fault: the targeted gate delay fault; ``None`` simulates the fault-free
            pair (used by the delay fault simulator for the good machine).
        robust: use the robust (paper Table 1) or the relaxed non-robust tables.
    """
    circuit = context.circuit

    # ---- pass 1: three-valued initial (slow clock) frame ------------------- #
    frame1: Dict[str, Optional[int]] = {}
    for pi in circuit.primary_inputs:
        value = pi_values.get(pi)
        frame1[pi] = value.initial if value is not None else None
    for ppi in circuit.pseudo_primary_inputs:
        frame1[ppi] = ppi_initial.get(ppi)
    for name in context.order:
        gate = circuit.gate(name)
        frame1[name] = evaluate_gate(gate.gate_type, [frame1[s] for s in gate.fanin])

    # ---- source sets -------------------------------------------------------- #
    signal_sets: Dict[str, ValueSet] = {}
    ppi_pair_sets: Dict[str, ValueSet] = {}
    for pi in circuit.primary_inputs:
        value = pi_values.get(pi)
        signal_sets[pi] = value.mask if value is not None else PI_SET_MASK
    for dff in circuit.flip_flops:
        ppi = dff.name
        ppo = dff.fanin[0]
        pair_set = _ppi_pair_set(ppi_initial.get(ppi), frame1[ppo])
        ppi_pair_sets[ppi] = pair_set
        signal_sets[ppi] = pair_set

    # ---- fault injection bookkeeping ---------------------------------------- #
    stem_fault_signal: Optional[str] = None
    if fault is not None and fault.line.kind is LineKind.STEM:
        stem_fault_signal = fault.line.signal
    branch_key = branch_fault_key(fault)

    # Source signals may themselves be the fault stem (a PI or PPI stem fault).
    if stem_fault_signal is not None and stem_fault_signal in signal_sets:
        signal_sets[stem_fault_signal] = _inject(signal_sets[stem_fault_signal], fault.fault_type)

    # ---- pass 2: eight-valued set propagation ------------------------------- #
    conflict_signal: Optional[str] = None
    for name in context.order:
        gate = circuit.gate(name)
        input_sets = branch_injected_input_sets(gate, signal_sets, fault, branch_key)
        output_set = evaluate_gate_sets(gate.gate_type, input_sets, robust)
        if stem_fault_signal == name:
            output_set = _inject(output_set, fault.fault_type)
        signal_sets[name] = output_set
        if output_set == EMPTY_SET and conflict_signal is None:
            conflict_signal = name

    # ---- fault line view ----------------------------------------------------- #
    if fault is None:
        fault_line_set = 0
    elif fault.line.kind is LineKind.STEM:
        fault_line_set = signal_sets[fault.line.signal]
    else:
        fault_line_set = _inject(signal_sets[fault.line.signal], fault.fault_type)

    return TwoFrameState(
        signal_sets=signal_sets,
        frame1=frame1,
        fault_line_set=fault_line_set,
        ppi_pair_sets=ppi_pair_sets,
        conflict_signal=conflict_signal,
    )


def gate_input_sets(
    state: TwoFrameState,
    context: TDgenContext,
    gate_name: str,
    fault: Optional[GateDelayFault] = None,
) -> Dict[int, ValueSet]:
    """The value sets a gate actually sees on its input pins.

    Delegates to :func:`branch_injected_input_sets` — the same helper the
    forward pass uses — so the engine's D-frontier and backtrace reason about
    exactly the sets the forward pass propagated.
    """
    gate = context.circuit.gate(gate_name)
    input_sets = branch_injected_input_sets(
        gate, state.signal_sets, fault, branch_fault_key(fault)
    )
    return dict(enumerate(input_sets))


def good_machine_values(
    context: TDgenContext,
    pi_values: Mapping[str, DelayValue],
    ppi_initial: Mapping[str, int],
    robust: bool = True,
) -> Dict[str, DelayValue]:
    """Fully-specified fault-free two-frame simulation.

    All primary inputs and all pseudo primary input initial values must be
    assigned; the result maps every signal to its single algebra value.  The
    program itself takes the good machine from TDsim
    (:meth:`repro.tdsim.cpt.DelayFaultSimulator.good_machine`); this
    interpreted form is the oracle the tests compare it against.
    """
    state = simulate_two_frame(context, pi_values, ppi_initial, fault=None, robust=robust)
    values: Dict[str, DelayValue] = {}
    for signal, value_set in state.signal_sets.items():
        if not is_singleton(value_set):
            raise ValueError(
                f"signal {signal!r} is not fully determined; "
                "good_machine_values requires a complete assignment"
            )
        values[signal] = single_value(value_set)
    return values
