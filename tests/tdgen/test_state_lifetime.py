"""Packed search states are freed by reference counting alone.

A packed candidate batch hands out ``TwoFrameState`` views that point back
at it (``packed_handle``).  If the batch also cached those states, each
batch would sit in a reference cycle and live until the cyclic garbage
collector ran — on large circuits that keeps thousands of set-word columns
alive and raises the campaign's peak memory.
"""

from __future__ import annotations

import gc

from repro.core.flow import SequentialDelayATPG
from repro.tdgen.implication import _PackedStates


def test_packed_states_leave_no_cyclic_garbage(s27):
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        SequentialDelayATPG(s27, backend="packed").run(max_target_faults=20)
        gc.collect()
        leaked = sum(isinstance(obj, _PackedStates) for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == 0
