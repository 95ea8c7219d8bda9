"""The shared decision loop on a toy problem of three boolean variables.

Variables ``a`` and ``b`` live in one assignment mapping and ``c`` in a
second one, as TDgen keeps primary inputs and pseudo primary inputs apart.
A candidate batch is a tuple of assignment snapshots, one per value, so a
``(batch, cursor)`` view is the snapshot ``batch[cursor]``.
"""

from __future__ import annotations

import time

from repro.tdgen.decide import Stop, decision_search

ORDER = ("a", "b", "c")


class Toy:
    """A three-variable search whose classification is a plain function."""

    def __init__(self, rule, decidable=ORDER):
        self.first = {"a": None, "b": None}
        self.second = {"c": None}
        self.rule = rule
        self.decidable = decidable
        self.views = []
        self.root = (self.snapshot(),)

    def snapshot(self):
        return {**self.first, **self.second}

    def classify(self, batch, cursor):
        view = batch[cursor]
        self.views.append(view)
        return self.rule(view, self.views)

    def decide(self, batch, cursor):
        view = batch[cursor]
        for name in self.decidable:
            if view[name] is None:
                return (self.first if name in self.first else self.second), name, (0, 1)
        return None

    def imply(self, batch, cursor, assignment, name, values):
        # The batch is implied before the variable is assigned.
        assert assignment[name] is None
        assert self.snapshot() == batch[cursor]
        return tuple({**batch[cursor], name: value} for value in values)

    def run(self, backtrack_limit=100, **kwargs):
        return decision_search(
            self.root, self.classify, self.decide, self.imply, backtrack_limit, **kwargs
        )


def _target(target):
    """Conflict as soon as an assigned variable differs from ``target``."""

    def rule(view, views):
        if any(view[name] is not None and view[name] != target[name] for name in ORDER):
            return "conflict"
        return "success" if all(view[name] is not None for name in ORDER) else "continue"

    return rule


def _leaf_conflict(view, views):
    """Unsatisfiable: every full assignment conflicts."""
    return "conflict" if all(view[name] is not None for name in ORDER) else "continue"


def test_success_and_assignment_mappings_hold_final_view():
    toy = Toy(_target({"a": 1, "b": 0, "c": 1}))
    outcome = toy.run()
    assert outcome.stop is Stop.SUCCESS
    assert outcome.batch[outcome.cursor] == {"a": 1, "b": 0, "c": 1}
    assert toy.first == {"a": 1, "b": 0}
    assert toy.second == {"c": 1}
    # a=0 and c=0 each conflict once: two flips, three decisions.
    assert (outcome.backtracks, outcome.decisions) == (2, 3)


def test_unsatisfiable_visits_every_leaf_then_exhausts():
    toy = Toy(_leaf_conflict)
    outcome = toy.run()
    assert outcome.stop is Stop.EXHAUSTED
    leaves = [
        tuple(view[name] for name in ORDER)
        for view in toy.views
        if all(view[name] is not None for name in ORDER)
    ]
    assert sorted(leaves) == sorted(
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    )
    assert len(leaves) == 8
    # Seven nodes (one a, two b, four c) are opened and each flips once.
    assert (outcome.backtracks, outcome.decisions) == (7, 7)
    # The root view plus one view per opened node and one per flip.
    assert len(toy.views) == 1 + outcome.decisions + outcome.backtracks
    assert toy.first == {"a": None, "b": None}
    assert toy.second == {"c": None}


def test_every_flip_counts_one_backtrack_and_the_limit_follows_the_flip():
    toy = Toy(_leaf_conflict)
    outcome = toy.run(backtrack_limit=2)
    assert outcome.stop is Stop.BACKTRACK_LIMIT
    assert outcome.backtracks == 3
    # Flips: c under (0, 0), b under a=0, then c under (0, 1).  The search
    # stops on the third flip's view before classifying it.
    assert outcome.batch[outcome.cursor] == {"a": 0, "b": 1, "c": 1}
    assert toy.views[-1] == {"a": 0, "b": 1, "c": 0}
    assert toy.first == {"a": 0, "b": 1}
    assert toy.second == {"c": 1}


def test_conflict_unwinds_past_exhausted_nodes():
    # Only a=1 can succeed, but that is found only at a full assignment.
    def rule(view, views):
        if all(view[name] is not None for name in ORDER):
            return "success" if view["a"] == 1 else "conflict"
        return "continue"

    toy = Toy(rule)
    outcome = toy.run()
    assert outcome.stop is Stop.SUCCESS
    after = toy.views.index({"a": 0, "b": 1, "c": 1}) + 1
    # c and b of the a=0 subtree are both exhausted: the next view is a=1.
    assert toy.views[after] == {"a": 1, "b": None, "c": None}
    assert toy.first == {"a": 1, "b": 0}
    assert toy.second == {"c": 0}


def test_dead_end_steps_back_one_node_to_the_parent_view():
    # Only a and b are ever decided, so every view with both set is a dead
    # end.  Succeed when a view comes round a second time.
    def rule(view, views):
        return "success" if views.count(view) == 2 else "continue"

    toy = Toy(rule, decidable=("a", "b"))
    outcome = toy.run()
    assert outcome.stop is Stop.SUCCESS
    assert toy.views == [
        {"a": None, "b": None, "c": None},
        {"a": 0, "b": None, "c": None},
        {"a": 0, "b": 0, "c": None},
        # Dead end with an untried value: flip b.
        {"a": 0, "b": 1, "c": None},
        # Dead end with b exhausted: back to a's view, a still assigned.
        {"a": 0, "b": None, "c": None},
    ]
    assert outcome.batch[outcome.cursor] == {"a": 0, "b": None, "c": None}
    assert toy.first == {"a": 0, "b": None}
    assert outcome.backtracks == 1


def test_dead_end_with_one_node_steps_back_to_the_root_view():
    def rule(view, views):
        return "success" if views.count(view) == 2 else "continue"

    toy = Toy(rule, decidable=("a",))
    outcome = toy.run()
    assert outcome.stop is Stop.SUCCESS
    assert outcome.batch is toy.root and outcome.cursor == 0
    assert toy.first == {"a": None, "b": None}
    assert (outcome.backtracks, outcome.decisions) == (1, 1)


def test_dead_end_at_the_root_exhausts():
    toy = Toy(lambda view, views: "continue", decidable=())
    outcome = toy.run()
    assert outcome.stop is Stop.EXHAUSTED
    assert (outcome.backtracks, outcome.decisions) == (0, 0)


def test_past_deadline_stops_before_classifying():
    toy = Toy(_leaf_conflict)
    outcome = toy.run(deadline=time.perf_counter() - 1.0)
    assert outcome.stop is Stop.DEADLINE
    assert toy.views == []
    assert outcome.batch is toy.root


def test_decision_limit_counts_the_node_that_exceeds_it():
    toy = Toy(_target({"a": 0, "b": 0, "c": 0}))
    outcome = toy.run(max_decisions=2)
    assert outcome.stop is Stop.DECISION_LIMIT
    assert outcome.decisions == 3
    assert toy.first == {"a": 0, "b": 0}
    assert toy.second == {"c": 0}
