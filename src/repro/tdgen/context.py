"""Precomputed per-circuit data shared by all TDgen runs.

Building the levelised order, the fanout map and the observability distance
metric once per circuit (instead of once per targeted fault) keeps the cost
of the campaign dominated by the actual search.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.circuit.netlist import Circuit
from repro.fausim.compile import compile_circuit


class TDgenContext:
    """Static analysis results for one circuit.

    Attributes:
        circuit: the circuit the context was built for.
        order: combinational gates in topological evaluation order.
        distance_to_po: per signal, the minimum number of gates between the
            signal and a primary output (``None`` if no structural path).
        distance_to_observation: like ``distance_to_po`` but counting pseudo
            primary outputs as observation points too.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        # The compiled program (cached on the circuit) froze the same order.
        compiled = compile_circuit(circuit)
        self.order: List[str] = [compiled.signal_names[slot] for slot in compiled.outputs]
        self.distance_to_po: Dict[str, Optional[int]] = self._distances(pos_only=True)
        self.distance_to_observation: Dict[str, Optional[int]] = self._distances(pos_only=False)

    def _distances(self, pos_only: bool) -> Dict[str, Optional[int]]:
        """Breadth-first distance from every signal to an observation point."""
        distance: Dict[str, Optional[int]] = {name: None for name in self.circuit.gates}
        frontier: List[str] = []
        ppos = set(self.circuit.pseudo_primary_outputs)
        for signal in self.circuit.gates:
            if self.circuit.is_primary_output(signal) or (not pos_only and signal in ppos):
                distance[signal] = 0
                frontier.append(signal)
        # Walk backwards over the combinational block (reverse topological order
        # visits are not needed; a BFS over the fanin relation suffices because
        # all edge weights are one).
        pending = list(frontier)
        while pending:
            signal = pending.pop(0)
            gate = self.circuit.gate(signal)
            if not gate.gate_type.is_combinational:
                continue
            next_distance = (distance[signal] or 0) + 1
            for source in gate.fanin:
                current = distance[source]
                if current is None or current > next_distance:
                    distance[source] = next_distance
                    pending.append(source)
        return distance

    def observation_distance(self, signal: str, pos_only: bool = False) -> Optional[int]:
        """Distance to the nearest observation point, or ``None`` if unreachable."""
        table = self.distance_to_po if pos_only else self.distance_to_observation
        return table.get(signal)
