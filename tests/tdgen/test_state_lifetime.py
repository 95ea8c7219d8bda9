"""Search states are freed by reference counting alone, on both engines.

A candidate batch hands out ``TwoFrameState`` views that point back at it
(``packed_handle``), through which the search kernels read the state's slot
column.  If the batch also cached those states, each batch would sit in a
reference cycle and live until the cyclic garbage collector ran — on large
circuits that keeps thousands of set-word columns alive and raises the
campaign's peak memory.
"""

from __future__ import annotations

import gc

from repro.core.flow import SequentialDelayATPG
from repro.tdgen.implication import _LazyStates, _PackedStates


def _cyclic_batches(circuit, backend, batch_class) -> int:
    """Batches of ``batch_class`` only the cyclic collector could free."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        SequentialDelayATPG(circuit, backend=backend).run(max_target_faults=20)
        gc.collect()
        return sum(isinstance(obj, batch_class) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_packed_states_leave_no_cyclic_garbage(s27):
    assert _cyclic_batches(s27, "packed", _PackedStates) == 0


def test_reference_states_leave_no_cyclic_garbage(s27):
    assert _cyclic_batches(s27, "reference", _LazyStates) == 0
