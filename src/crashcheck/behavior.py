"""Update behaviors: named subgraphs of the persistence graph, plus the
1-D density clustering used to split temporally dispersed behaviors."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

from .graph import PersistenceGraph


@dataclass(frozen=True)
class UpdateBehavior:
    """One semantically related run of storage operations.

    ``owner_function`` is the function (POSIX) or ``type.instance`` label
    (MMIO) the behavior was derived under; ``subgraph`` is always the
    induced subgraph of the full persistence graph on ``node_seqs``.
    """

    id: str
    owner_function: str
    tid: int
    node_seqs: tuple[int, ...]
    subgraph: PersistenceGraph
    span: tuple[int, int]

    def __post_init__(self):
        if not self.node_seqs:
            raise ValueError("update behavior must contain at least one op")

    @property
    def size(self) -> int:
        return len(self.node_seqs)


def make_behavior(
    behavior_id: str,
    owner: str,
    tid: int,
    node_seqs,
    full_graph: PersistenceGraph,
) -> UpdateBehavior:
    seqs = tuple(sorted(node_seqs))
    return UpdateBehavior(
        id=behavior_id,
        owner_function=owner,
        tid=tid,
        node_seqs=seqs,
        subgraph=full_graph.induced(seqs),
        span=(seqs[0], seqs[-1]),
    )


def dbscan_1d(points: list[int], eps: int, min_pts: int) -> tuple[list[list[int]], list[int]]:
    """DBSCAN over integer points on a line.

    Returns (clusters, noise).  A point is core when at least ``min_pts``
    points (itself included) lie within ``eps``; clusters grow from core
    points in ascending order, border points joining the first cluster that
    reaches them.
    """
    if eps <= 0 or min_pts <= 0:
        raise ValueError("eps and min_pts must be positive")
    pts = sorted(points)
    neighbors = {p: pts[bisect_left(pts, p - eps):bisect_right(pts, p + eps)] for p in pts}
    core = {p for p in pts if len(neighbors[p]) >= min_pts}
    assigned: dict[int, int] = {}
    clusters: list[list[int]] = []
    for p in pts:
        if p in assigned or p not in core:
            continue
        cluster_id = len(clusters)
        clusters.append([])
        frontier = deque([p])
        assigned[p] = cluster_id
        while frontier:
            cur = frontier.popleft()
            clusters[cluster_id].append(cur)
            if cur not in core:
                continue
            for q in neighbors[cur]:
                if q not in assigned:
                    assigned[q] = cluster_id
                    frontier.append(q)
    noise = [p for p in pts if p not in assigned]
    return [sorted(c) for c in clusters], noise


def cluster_temporal(
    behavior: UpdateBehavior, eps: int = 10, min_pts: int = 1
) -> list[UpdateBehavior]:
    """Split a behavior into temporally local behaviors.

    Points are the member seq values.  Each cluster becomes one behavior;
    noise points (possible when min_pts > 1) become singleton behaviors.
    The output node sets partition the input node set.  Restricting the
    behavior's own induced subgraph gives the same edges as restricting the
    full graph, so no outside context is needed.
    """
    clusters, noise = dbscan_1d(list(behavior.node_seqs), eps, min_pts)
    pieces = sorted(clusters + [[p] for p in noise], key=lambda c: c[0])
    if len(pieces) == 1:
        return [behavior]
    return [
        make_behavior(
            f"{behavior.id}.c{i}", behavior.owner_function, behavior.tid, piece, behavior.subgraph
        )
        for i, piece in enumerate(pieces)
    ]
