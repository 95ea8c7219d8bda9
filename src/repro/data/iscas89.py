"""Registry of the ISCAS'89 circuits used in the paper's Table 3.

``s27`` is loaded from its embedded netlist; every other circuit is a
surrogate (see :mod:`repro.data.surrogate` and DESIGN.md section 5) generated
with the published interface statistics.  The gate counts below follow the
commonly cited ISCAS'89 profile; absolute values do not have to be exact
because only the surrogate's size class matters for the experiments.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.data.s27 import S27_BENCH
from repro.data.surrogate import generate_surrogate


@dataclasses.dataclass(frozen=True)
class BenchmarkSpec:
    """Interface statistics of one ISCAS'89 benchmark circuit."""

    name: str
    inputs: int
    outputs: int
    flip_flops: int
    gates: int
    surrogate: bool

    def scaled(self, scale: float) -> "BenchmarkSpec":
        """A down-scaled variant (same interface class, fewer gates/flip-flops).

        The interface (PIs/POs) shrinks much more slowly than the logic: a
        scaled surrogate keeps at least half of the published pin count so
        that controllability and observability stay in the same class as the
        original circuit.
        """
        if scale >= 1.0:
            return self
        io_scale = max(scale, 0.5)
        return BenchmarkSpec(
            name=self.name,
            inputs=max(3, round(self.inputs * io_scale)),
            outputs=max(1, round(self.outputs * io_scale)),
            flip_flops=max(1, round(self.flip_flops * scale)),
            gates=max(8, round(self.gates * scale)),
            surrogate=self.surrogate,
        )


#: Published interface statistics of the circuits evaluated in Table 3.
ISCAS89_SPECS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("s27", 4, 1, 3, 10, surrogate=False),
        BenchmarkSpec("s208", 10, 1, 8, 96, surrogate=True),
        BenchmarkSpec("s298", 3, 6, 14, 119, surrogate=True),
        BenchmarkSpec("s344", 9, 11, 15, 160, surrogate=True),
        BenchmarkSpec("s349", 9, 11, 15, 161, surrogate=True),
        BenchmarkSpec("s386", 7, 7, 6, 159, surrogate=True),
        BenchmarkSpec("s420", 18, 1, 16, 218, surrogate=True),
        BenchmarkSpec("s641", 35, 24, 19, 379, surrogate=True),
        BenchmarkSpec("s713", 35, 23, 19, 393, surrogate=True),
        BenchmarkSpec("s838", 34, 1, 32, 446, surrogate=True),
        BenchmarkSpec("s1196", 14, 14, 18, 529, surrogate=True),
        BenchmarkSpec("s1238", 14, 14, 18, 508, surrogate=True),
    )
}

#: Order in which the paper's Table 3 lists the circuits.
TABLE3_ORDER: List[str] = [
    "s27",
    "s208",
    "s298",
    "s344",
    "s349",
    "s386",
    "s420",
    "s641",
    "s713",
    "s838",
    "s1196",
    "s1238",
]


def list_circuits() -> List[str]:
    """Names of all available benchmark circuits, in Table 3 order."""
    return list(TABLE3_ORDER)


def _normalize_name(name: str) -> str:
    """Resolve registry aliases: ``s838-surrogate`` names the ``s838`` entry."""
    if name.endswith("-surrogate"):
        return name[: -len("-surrogate")]
    return name


def circuit_spec(name: str) -> BenchmarkSpec:
    """Interface statistics of a benchmark circuit.

    ``<name>-surrogate`` is accepted as an alias for ``<name>`` (the registry
    entry already records whether the circuit is an embedded netlist or a
    generated surrogate).
    """
    try:
        return ISCAS89_SPECS[_normalize_name(name)]
    except KeyError as exc:
        raise KeyError(
            f"unknown circuit {name!r}; known: {', '.join(list_circuits())}"
        ) from exc


def check_scale(scale: float) -> None:
    """Reject a surrogate scale that is not positive (raises ValueError)."""
    if scale <= 0:
        raise ValueError("'scale' must be > 0")


def load_circuit(name: str, scale: float = 1.0, seed: int = 0) -> Circuit:
    """Load a benchmark circuit.

    Args:
        name: circuit name (``s27`` ... ``s1238``).
        scale: for surrogate circuits, scale factor applied to the gate and
            flip-flop counts (``1.0`` keeps the published size; smaller values
            produce proportionally smaller circuits for quick experiments —
            ``s27`` is always returned verbatim).
        seed: surrogate generator seed.
    """
    check_scale(scale)
    name = _normalize_name(name)
    spec = circuit_spec(name)
    if not spec.surrogate:
        return parse_bench(S27_BENCH, name="s27")
    scaled = spec.scaled(scale)
    suffix = "" if scale >= 1.0 else f"@{scale:g}"
    return generate_surrogate(
        name=f"{name}{suffix}",
        n_inputs=scaled.inputs,
        n_outputs=scaled.outputs,
        n_flip_flops=scaled.flip_flops,
        n_gates=scaled.gates,
        seed=seed,
    )
