"""The one decision loop behind TDgen and SEMILET's frame searches.

TDgen's two-frame search (:mod:`repro.tdgen.engine`), SEMILET's frame
propagation (:mod:`repro.semilet.propagation`) and its frame justification
(:mod:`repro.semilet.justification`) are the same PODEM-style
branch-and-bound (Goel 1981): decide on an unassigned input, imply, and on a
conflict flip the deepest decision that still has an untried value.
:func:`decision_search` is that loop.  It owns the decision stack and the
assignment bookkeeping; each engine supplies only what differs — how it
classifies a view, how it picks the next variable and orders its values,
and how it implies a candidate batch — and builds its own result from the
final view.

A *view* is a ``(batch, cursor)`` pair: a candidate batch of the
engine's implication engine (:mod:`repro.tdgen.implication`) and the index
of one candidate in it.  When a decision node is opened, all values of its
variable are implied as one batch, so flipping the node later moves the
cursor instead of re-running the forward pass.

Why the search stopped is a :class:`Stop`, the single place where an
exhausted search (a proof within the decision space) is told apart from
an aborted one (backtrack limit, deadline or decision limit).
"""

from __future__ import annotations

import enum
import time
from typing import Callable, List, MutableMapping, NamedTuple, Optional, Sequence, Tuple


class Stop(enum.Enum):
    """Why :func:`decision_search` returned."""

    SUCCESS = "success"
    #: Every value of every decision was tried: no assignment succeeds.
    EXHAUSTED = "exhausted"
    BACKTRACK_LIMIT = "backtrack_limit"
    DEADLINE = "deadline"
    DECISION_LIMIT = "decision_limit"


class SearchOutcome(NamedTuple):
    """The stop reason, the final ``(batch, cursor)`` view and the effort."""

    stop: Stop
    batch: object
    cursor: int
    backtracks: int
    decisions: int


#: What ``decide`` returns: the mapping the variable lives in, its name and
#: its values in the order to try them.
Variable = Tuple[MutableMapping, object, Sequence[object]]


class _Decision:
    """One node of the decision stack: a variable and its implied batch."""

    __slots__ = ("assignment", "name", "values", "batch", "cursor")

    def __init__(self, assignment, name, values, batch) -> None:
        self.assignment = assignment
        self.name = name
        self.values = values
        self.batch = batch
        self.cursor = 0


def decision_search(
    root: object,
    classify: Callable[[object, int], str],
    decide: Callable[[object, int], Optional[Variable]],
    imply: Callable[[object, int, MutableMapping, object, Sequence[object]], object],
    backtrack_limit: int,
    deadline: Optional[float] = None,
    max_decisions: Optional[int] = None,
) -> SearchOutcome:
    """Run the branch-and-bound from the root view ``(root, 0)``.

    Args:
        root: candidate batch implied from the initial assignment; its
            candidate 0 is the root view.
        classify: ``classify(batch, cursor)`` returns ``"success"``,
            ``"conflict"`` or ``"continue"``.
        decide: ``decide(batch, cursor)`` returns the next :data:`Variable`,
            or ``None`` when nothing is left to decide (a dead end).
        imply: ``imply(batch, cursor, assignment, name, values)`` returns
            the batch with one candidate per value, implied from the current
            view before the variable is assigned.
        backtrack_limit: stop with :attr:`Stop.BACKTRACK_LIMIT` once a flip
            makes the backtrack count exceed this.
        deadline: optional :func:`time.perf_counter` timestamp, checked
            before each view is classified.
        max_decisions: optional bound on the decision nodes opened.

    Each flip to a node's next value counts one backtrack.  A conflict
    unwinds to the deepest node with an untried value; a dead end steps back
    exactly one node, to its parent's view (or the root view).  Variables are
    written into and cleared from their ``assignment`` mappings (``None``
    means unassigned), so on return the mappings hold the assignment of the
    final view.
    """
    stack: List[_Decision] = []
    batch, cursor = root, 0
    backtracks = decisions = 0
    perf_counter = time.perf_counter
    while True:
        if deadline is not None and perf_counter() > deadline:
            return SearchOutcome(Stop.DEADLINE, batch, cursor, backtracks, decisions)
        status = classify(batch, cursor)
        if status == "success":
            return SearchOutcome(Stop.SUCCESS, batch, cursor, backtracks, decisions)
        if status == "conflict":
            while stack and stack[-1].cursor + 1 == len(stack[-1].values):
                node = stack.pop()
                node.assignment[node.name] = None
            if not stack:
                return SearchOutcome(Stop.EXHAUSTED, batch, cursor, backtracks, decisions)
        else:
            variable = decide(batch, cursor)
            if variable is not None:
                assignment, name, values = variable
                batch = imply(batch, cursor, assignment, name, values)
                cursor = 0
                assignment[name] = values[0]
                stack.append(_Decision(assignment, name, values, batch))
                decisions += 1
                if max_decisions is not None and decisions > max_decisions:
                    return SearchOutcome(
                        Stop.DECISION_LIMIT, batch, cursor, backtracks, decisions
                    )
                continue
            if not stack:
                return SearchOutcome(Stop.EXHAUSTED, batch, cursor, backtracks, decisions)
            node = stack[-1]
            if node.cursor + 1 == len(node.values):
                # Back to the popped node's prefix, whose view is the
                # parent's current candidate (or the root view).
                stack.pop()
                node.assignment[node.name] = None
                if stack:
                    batch, cursor = stack[-1].batch, stack[-1].cursor
                else:
                    batch, cursor = root, 0
                continue
        # Flip the top node to its next value.
        node = stack[-1]
        node.cursor += 1
        node.assignment[node.name] = node.values[node.cursor]
        batch, cursor = node.batch, node.cursor
        backtracks += 1
        if backtracks > backtrack_limit:
            return SearchOutcome(Stop.BACKTRACK_LIMIT, batch, cursor, backtracks, decisions)
