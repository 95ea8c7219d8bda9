"""Eight-valued robust gate delay fault algebra (paper section 3).

The algebra encodes the two time frames of a two-pattern delay test in a
single value per signal:

=====  ===========================================================
value  meaning
=====  ===========================================================
``0``  steady zero in both frames, hazard free
``1``  steady one in both frames, hazard free
``R``  rising transition (zero in the first frame, one in the second)
``F``  falling transition (one in the first frame, zero in the second)
``0h`` steady zero, but a temporary hazard to one is possible
``1h`` steady one, but a temporary hazard to zero is possible
``Rc`` rising transition carrying the fault effect (the D of delay ATPG)
``Fc`` falling transition carrying the fault effect (the D̄ of delay ATPG)
=====  ===========================================================

``Rc``/``Fc`` only ever originate at the fault site (an ``R``/``F`` is
converted there); the gate truth tables guarantee that they never appear at a
gate output unless present at an input, and that they only survive when the
robustness criterion of the paper holds (Table 1 / Table 2).
"""

from repro.algebra.values import (
    DelayValue,
    V0,
    V1,
    R,
    F,
    H0,
    H1,
    RC,
    FC,
    ALL_VALUES,
    TRANSITION_VALUES,
    FAULT_VALUES,
    PI_VALUES,
    value_from_pair,
    value_from_name,
)
from repro.algebra.tables import (
    evaluate_delay_gate,
    and2,
    or2,
    xor2,
    not1,
    table_for_gate,
    format_truth_table,
)
from repro.algebra.sets import (
    ValueSet,
    EMPTY_SET,
    FULL_SET,
    set_of,
    evaluate_gate_sets,
    backward_input_sets,
)
from repro.algebra.packed_sets import PackedSetSimulator

__all__ = [
    "DelayValue",
    "V0",
    "V1",
    "R",
    "F",
    "H0",
    "H1",
    "RC",
    "FC",
    "ALL_VALUES",
    "TRANSITION_VALUES",
    "FAULT_VALUES",
    "PI_VALUES",
    "value_from_pair",
    "value_from_name",
    "evaluate_delay_gate",
    "and2",
    "or2",
    "xor2",
    "not1",
    "table_for_gate",
    "format_truth_table",
    "ValueSet",
    "EMPTY_SET",
    "FULL_SET",
    "set_of",
    "evaluate_gate_sets",
    "backward_input_sets",
    "PackedSetSimulator",
]
