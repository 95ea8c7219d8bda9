"""The backend registry: the compiled ``packed`` backend and its oracle.

Two backends ship with the library:

``reference``
    :class:`~repro.fausim.logic_sim.LogicSimulator` — the per-gate
    interpreter.  Slow but transparent; it is the oracle the differential
    test harness checks the compiled backend against.

``packed``
    :class:`~repro.fausim.packed_sim.PackedLogicSimulator` — the compiled
    bit-parallel evaluator.  Every signal plane is one unbounded-width Python
    integer, so one gate evaluation covers a whole pattern/fault/candidate
    batch in a single big-integer operation.

This is the one registry of the code base: fault simulation
(:func:`create_simulator`, :func:`create_two_frame_simulator`), the
search-side implication engines
(:func:`repro.tdgen.implication.create_implication_engine`) and, through
each engine, its search kernels all resolve a backend name here, so one
choice — per call, via :func:`set_default_backend`, or via the CLI
``--backend`` flag — governs the whole flow::

    simulator = create_simulator(circuit, backend="packed")

``backend=None`` resolves to the process-wide default, ``packed``.  The
compiled backend is differentially tested to be bit-exact against the
reference interpreter (``tests/fausim``, ``tests/core``, ``tests/tdsim``,
``tests/fuzz``); pass ``backend="reference"`` (or call
``set_default_backend("reference")``) for the transparent interpreter — the
escape hatch when debugging the compiled evaluators themselves.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.circuit.netlist import Circuit
from repro.fausim.logic_sim import LogicSimulator
from repro.fausim.packed_sim import PackedLogicSimulator
from repro.fausim.packed_two_frame import PackedTwoFrameSimulator

REFERENCE_BACKEND = "reference"
PACKED_BACKEND = "packed"

#: Backend name -> good-machine simulator class.  Every simulator implements
#: the scalar ``LogicSimulator`` interface (``combinational`` /
#: ``next_state`` / ``clock`` / ``outputs``); the packed one adds the batch
#: methods (``clock_batch`` …).
_SIMULATORS: Dict[str, type] = {
    REFERENCE_BACKEND: LogicSimulator,
    PACKED_BACKEND: PackedLogicSimulator,
}
_default_backend = PACKED_BACKEND


def available_backends() -> Tuple[str, ...]:
    """Names of all backends, sorted."""
    return tuple(sorted(_SIMULATORS))


def resolve_backend(name: "str | None" = None) -> str:
    """Resolve ``None`` to the default backend and validate the name."""
    resolved = name if name is not None else _default_backend
    if resolved not in _SIMULATORS:
        raise ValueError(
            f"unknown simulation backend {resolved!r}; available: {', '.join(available_backends())}"
        )
    return resolved


def default_backend() -> str:
    """Name of the process-wide default backend."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Change the process-wide default backend; returns the previous default."""
    global _default_backend
    resolved = resolve_backend(name)
    previous = _default_backend
    _default_backend = resolved
    return previous


def create_simulator(circuit: Circuit, backend: "str | None" = None):
    """Build a simulator for ``circuit`` using the selected backend."""
    return _SIMULATORS[resolve_backend(backend)](circuit)


def create_two_frame_simulator(
    circuit: Circuit, robust: bool = True, backend: "str | None" = None
):
    """Build the eight-valued fault-parallel two-frame simulator of a backend.

    Returns ``None`` for the ``reference`` backend (its consumers route the
    exact injection checks through the interpreted implication engine
    instead); the ``packed`` backend runs a whole injection batch in one
    pass.
    """
    if resolve_backend(backend) == PACKED_BACKEND:
        return PackedTwoFrameSimulator(circuit, robust=robust)
    return None
