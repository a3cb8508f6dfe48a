"""Node/edge equivalence, the represents relation, and behavior grouping.

Two nodes are equivalent when their static keys match (same kind, same
payload-independent call chain); dynamic data never participates.  Edge
equivalence follows from endpoint equivalence.  Behavior U1 represents U2
when U2's nodes embed into U1's up to equivalence and the dependencies
among the matched U1 nodes all have equivalents among U2's dependencies:
the representative has at least the ops and at most the ordering, so its
crash schedules subsume the member's.

The subset relations are the existential definitions, so when several nodes
of one side share a static key the equivalence image can be smaller than
the matched set; nothing here assumes image and subset sizes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .behavior import UpdateBehavior
from .graph import FULL_KEY, StaticKey
from .trace import Operation

KeyPair = tuple[StaticKey, StaticKey]


def node_equiv(n1: Operation, n2: Operation, mode: str = FULL_KEY) -> bool:
    """True when two operations share all static information."""
    return StaticKey.of(n1, mode) == StaticKey.of(n2, mode)


def edge_equiv(
    e1: tuple[Operation, Operation],
    e2: tuple[Operation, Operation],
    mode: str = FULL_KEY,
) -> bool:
    """True when sources are equivalent and destinations are equivalent.

    Edges are passed as resolved (source op, destination op) pairs so the
    two edges may come from different graphs.
    """
    return node_equiv(e1[0], e2[0], mode) and node_equiv(e1[1], e2[1], mode)


def _keys(ops, mode: str) -> set[StaticKey]:
    return {StaticKey.of(op, mode) for op in ops}


def subset_equiv_nodes(n2, n1, mode: str = FULL_KEY) -> bool:
    """N2 is subset-equivalent to N1: every op in N2 has an equivalent in N1."""
    return _keys(n2, mode) <= _keys(n1, mode)


def equivalence_image(n1, n2, mode: str = FULL_KEY):
    """The ops of N1 that are equivalent to some op of N2."""
    wanted = _keys(n2, mode)
    return [op for op in n1 if StaticKey.of(op, mode) in wanted]


def subset_equiv_edges(e1, e2, mode: str = FULL_KEY) -> bool:
    """E1 is subset-equivalent to E2 over resolved (src op, dst op) pairs."""
    def keypairs(edges) -> set[KeyPair]:
        return {(StaticKey.of(s, mode), StaticKey.of(d, mode)) for s, d in edges}

    return keypairs(e1) <= keypairs(e2)


def represents(u1: UpdateBehavior, u2: UpdateBehavior) -> bool:
    """True when u1 can be tested on behalf of u2.

    Requires u2's nodes to embed into u1's up to equivalence, and the
    induced dependencies among the matched u1 nodes to all have equivalents
    among u2's dependencies.  This is :func:`subset_equiv_nodes`,
    :func:`equivalence_image` and :func:`subset_equiv_edges` evaluated over
    the key sets each behavior's subgraph caches.
    """
    g1, g2 = u1.subgraph, u2.subgraph
    wanted = g2.key_set
    if not wanted <= g1.key_set:
        return False
    if wanted == g1.key_set:
        # Every node of u1 matches, so the image is u1's whole subgraph.
        return g1.key_pairs <= g2.key_pairs
    keys = g1.static_keys
    image = g1.induced(seq for seq in g1.ops_by_seq if keys[seq] in wanted)
    return image.key_pairs <= g2.key_pairs


@dataclass
class BehaviorGroup:
    representative: str
    members: list[str]


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
    by_id = {b.id: b for b in behaviors}
    if len(by_id) != len(behaviors):
        raise ValueError("behavior ids must be unique")
    ordered = sorted(
        behaviors, key=lambda b: (-b.size, b.subgraph.edge_count, b.span[0], b.id)
    )
    groups: list[BehaviorGroup] = []
    for behavior in ordered:
        joined = False
        for group in groups:
            if represents(by_id[group.representative], behavior):
                group.members.append(behavior.id)
                joined = True
        if not joined:
            groups.append(BehaviorGroup(representative=behavior.id, members=[behavior.id]))
    return groups
