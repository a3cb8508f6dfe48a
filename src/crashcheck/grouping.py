"""The represents relation and behavior grouping.

Two nodes are equivalent when their static keys match (same kind, same
payload-independent call chain); dynamic data never participates.  Edge
equivalence follows from endpoint equivalence.  Behavior U1 represents U2
when U2's nodes embed into U1's up to equivalence and the dependencies
among the matched U1 nodes all have equivalents among U2's dependencies:
the representative has at least the ops and at most the ordering, so its
crash schedules subsume the member's.

The subset relations are existential, so when several nodes of one side
share a static key the equivalence image can be smaller than the matched
set; nothing here assumes image and subset sizes agree.

Grouping works per behavior *shape*: the window of the behavior's nodes and
each node's static key and window predecessor bitset, in seq order.  Equal
shapes have equal key sets, key pairs and edge counts, so a behavior that
repeats one shape costs one edge count and one ``represents`` call per
pair of shapes, and only one behavior per shape caches its key sets.
"""

from __future__ import annotations

from .behavior import UpdateBehavior
from .graph import PersistenceGraph


def represents(u1: UpdateBehavior, u2: UpdateBehavior) -> bool:
    """True when u1 can be tested on behalf of u2.

    Requires u2's nodes to embed into u1's up to equivalence, and the
    induced dependencies among the matched u1 nodes to all have equivalents
    among u2's dependencies.  Both are read from the key sets each
    behavior's subgraph caches: the matched nodes' dependencies, up to
    equivalence, are u1's key pairs whose two keys u2 has.
    """
    g1, g2 = u1.subgraph, u2.subgraph
    wanted, pairs = g2.key_set, g2.key_pairs
    return wanted <= g1.key_set and all(
        pair in pairs for pair in g1.key_pairs if pair[0] in wanted and pair[1] in wanted
    )


def _shape(graph: PersistenceGraph) -> tuple:
    """What :func:`represents` and the edge count read of a graph.  The mask
    places the nodes in the window: without it, one predecessor bit could
    stand for nodes of different keys in two graphs."""
    keys = graph.static_keys
    return graph.mask, tuple((keys[dst], bits) for dst, bits in graph.own_preds())


class BehaviorGroup:
    __slots__ = ("representative", "members")

    def __init__(self, representative: str, members: list[str]):
        self.representative, self.members = representative, members


def group_behaviors(behaviors: list[UpdateBehavior]) -> list[BehaviorGroup]:
    """Group behaviors under representatives.

    Behaviors are visited from largest node count to smallest.  Ties go to
    the behavior with fewer induced dependencies first: a representative
    never has more dependencies (up to equivalence) than its members, so
    this lets the single pass catch equal-sized pairs where only one
    direction represents.  Remaining ties break by first seq, then id, so
    runs are reproducible.  Each behavior joins every existing group whose
    representative represents it and founds a new group when none does; a
    behavior can belong to several groups.  When two behaviors are mutually
    representative the first one processed stays the representative.
    """
    if len({b.id for b in behaviors}) != len(behaviors):
        raise ValueError("behavior ids must be unique")
    # Each behavior's shape index, and the first behavior of each shape,
    # which stands for the others in every edge count and represents call.
    index_of: dict[tuple, int] = {}
    shape_of: dict[str, int] = {}
    exemplars: list[UpdateBehavior] = []
    for behavior in behaviors:
        shape = shape_of[behavior.id] = index_of.setdefault(_shape(behavior.subgraph), len(index_of))
        if shape == len(exemplars):
            exemplars.append(behavior)
    edge_counts = [b.subgraph.edge_count for b in exemplars]
    ordered = sorted(
        behaviors, key=lambda b: (-b.size, edge_counts[shape_of[b.id]], b.span[0], b.id)
    )
    verdicts: dict[tuple[int, int], bool] = {}
    groups: list[BehaviorGroup] = []
    for behavior in ordered:
        shape = shape_of[behavior.id]
        joined = False
        for group in groups:
            pair = (shape_of[group.representative], shape)
            verdict = verdicts.get(pair)
            if verdict is None:
                verdict = verdicts[pair] = represents(exemplars[pair[0]], exemplars[shape])
            if verdict:
                group.members.append(behavior.id)
                joined = True
        if not joined:
            groups.append(BehaviorGroup(representative=behavior.id, members=[behavior.id]))
    return groups
