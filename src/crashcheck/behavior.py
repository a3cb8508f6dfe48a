"""Update behaviors: named subgraphs of the persistence graph, plus the
1-D density clustering used to split temporally dispersed behaviors."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import groupby
from typing import NamedTuple

from .graph import PersistenceGraph

# Temporal clustering's radius, in seqs, and the points a core needs.
DEFAULT_EPS = 10
DEFAULT_MIN_PTS = 1


class UpdateBehavior(NamedTuple):
    """One semantically related run of storage operations, built by
    :func:`make_behavior`.

    ``owner_function`` is the function (POSIX) or ``type.instance`` label
    (MMIO) the behavior was derived under; ``subgraph`` is an induced
    subgraph of the full persistence graph, never empty for a derived
    behavior, and holds the behavior's only copy of its node set: its
    window, from which ``node_seqs``, ``span`` and ``size`` are read.
    """

    id: str
    owner_function: str
    tid: int
    subgraph: PersistenceGraph

    @property
    def node_seqs(self) -> tuple[int, ...]:
        return self.subgraph.node_seqs

    @property
    def span(self) -> tuple[float, float]:
        """The first and last node seq, or ``(inf, inf)`` without nodes: then every op is context."""
        g = self.subgraph
        return (g.seqs[g.base], g.seqs[g.base + g.mask.bit_length() - 1]) if g.mask else (math.inf, math.inf)

    @property
    def size(self) -> int:
        return len(self.subgraph)


def make_behavior(
    behavior_id: str,
    owner: str,
    tid: int,
    node_seqs,
    full_graph: PersistenceGraph,
) -> UpdateBehavior:
    subgraph = full_graph.induced(node_seqs)
    if not subgraph.mask:
        raise ValueError("update behavior must contain at least one op")
    return UpdateBehavior(behavior_id, owner, tid, subgraph)


def dbscan_1d(points: list[int], eps: int, min_pts: int) -> tuple[list[list[int]], list[int]]:
    """DBSCAN over integer points on a line, as one scan of the sorted points.

    Returns (clusters, noise).  A point is core when at least ``min_pts``
    points (itself and its copies included) lie within ``eps``, counted by
    bisection.  Consecutive cores within ``eps`` of each other share a
    cluster.  Any other point joins the cluster of its nearest lower core if
    that core reaches it, else that of its nearest upper core if it reaches
    it, else it is noise.  A cluster lists each of its values once; noise
    keeps every copy.
    """
    if eps <= 0 or min_pts <= 0:
        raise ValueError("eps and min_pts must be positive")
    pts = sorted(points)
    cores = [p for p in dict.fromkeys(pts) if bisect_right(pts, p + eps) - bisect_left(pts, p - eps) >= min_pts]
    clusters: list[list[int]] = []
    cluster_of: list[int] = []  # the index in ``clusters`` of each core's cluster
    for i, core in enumerate(cores):
        if not i or core - cores[i - 1] > eps:
            clusters.append([])
        cluster_of.append(len(clusters) - 1)
    noise: list[int] = []
    for p, copies in groupby(pts):
        i = bisect_right(cores, p)  # cores[i - 1] <= p < cores[i]
        if i and p - cores[i - 1] <= eps:
            clusters[cluster_of[i - 1]].append(p)
        elif i < len(cores) and cores[i] - p <= eps:
            clusters[cluster_of[i]].append(p)
        else:
            noise.extend(copies)
    return clusters, noise


def cluster_temporal(
    behavior: UpdateBehavior, eps: int = DEFAULT_EPS, min_pts: int = DEFAULT_MIN_PTS
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
