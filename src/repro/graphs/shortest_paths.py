"""Shortest-path substrate: APSP over sparse weighted graphs.

The DBHT algorithm needs all-pairs shortest paths on the TMFG (a planar
graph with exactly ``3n - 6`` edges) under the *dissimilarity* edge
weights. The environment ships no scipy, so the kernel is hand-rolled, and
:func:`apsp` is the one kernel of every APSP here: the driver pipeline
(``repro.core.dbht.tmfg_apsp``), the PMFG baseline and the Spark tasks of
``repro.spark.apsp_spark``, which each run it once for their block of
sources.

The kernel relaxes all sources at once. ``DT[v]`` holds the distances from
every source to ``v``; a step sets ``DT[v]`` to the elementwise minimum of
itself and ``DT[u] + w(u, v)`` over neighbours ``u`` of ``v``. The vertex
order is the reverse of a min-degree elimination (a peeling of the graph).
A TMFG is a planar 3-tree: each vertex joined three corners of a face, and
peeling a degree-3 vertex leaves a planar 3-tree, so this order is an
insertion order of the TMFG. Sweeps of steps run first in peeling order,
then alternate with insertion order, until a sweep other than the first
changes nothing. Shortest paths on a TMFG run down toward earlier-inserted
vertices and back up, so the loop stops after three sweeps, where
insertion order first needs four and vertex-id order tens (EXPERIMENTS.md,
APSP sweep kernel).

In each sweep a vertex relaxes only from the neighbours that come before
it in that sweep's order. From the second sweep on, the other steps change
nothing: a neighbour ``u`` that comes after ``v`` in sweep k came before it
in sweep k - 1, so ``v`` relaxed from ``u``'s row as that sweep left it,
and ``u`` is not processed again until after ``v``. Each later sweep thus
gives the state a sweep over all neighbours would, and one that changes
nothing has reached the fixpoint of every step. The first sweep is not
such a sweep: when the only source is the first-inserted vertex it changes
nothing, which is why it never stops the loop.

The result is bit-identical to per-source Dijkstra. Rounded addition is
monotone (``a <= b`` gives ``fl(a + w) <= fl(b + w)``) and never goes below
``a`` for ``w >= 0``, so both compute, for each pair, the least left-to-right
float sum over paths: Dijkstra because its invariant holds in this
arithmetic, a relaxation from ``inf`` because its fixpoint is reached by a
path and is at most every path's sum. ``min`` is exact, so neither the
neighbour order, the sweep order nor the skipped steps change a bit.
"""
from __future__ import annotations

import heapq
from typing import Iterable, List

import numpy as np


def _elimination_order(n: int, edges: np.ndarray) -> List[int]:
    """Reverse min-degree elimination order of the graph: repeatedly peel a
    vertex of least remaining degree (ties to the smallest id) and return
    the peeled vertices last-first."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges.tolist():
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    deg = [len(s) for s in nbrs]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    peeled = [False] * n
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if peeled[v] or d != deg[v]:
            continue  # stale entry: v was peeled or lost a neighbour since
        peeled[v] = True
        order.append(v)
        for u in nbrs[v]:
            if not peeled[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return order[::-1]


def apsp(n: int, edges: np.ndarray, weights: np.ndarray,
         sources: Iterable[int] | None = None) -> np.ndarray:
    """All-pairs (or selected-sources) shortest path distance matrix.

    ``edges`` is an ``(m, 2)`` array of undirected edges between vertices
    ``0..n-1`` and ``weights`` their ``m`` finite nonnegative weights.
    Returns a ``(len(sources), n)`` matrix of distances, ``inf`` where a
    vertex is unreachable (``sources`` defaults to all vertices, giving the
    full ``(n, n)`` APSP matrix). ``sources`` may be any iterable, a
    generator included, and may repeat a vertex. The matrix is a transposed
    view of the ``(n, len(sources))`` array the kernel works in.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(edges),):
        raise ValueError(f"{len(edges)} edges but weights of shape "
                         f"{weights.shape}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("edge weights must be finite and nonnegative")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    sources = np.fromiter(range(n) if sources is None else sources,
                          dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValueError(f"sources must lie in [0, {n})")

    # per-vertex neighbours and their edge weights, each edge both ways, the
    # neighbours before the vertex in insertion order first
    order = np.array(_elimination_order(n, edges), dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ends = np.concatenate([edges, edges[:, ::-1]])
    both = np.concatenate([weights, weights])
    later = rank[ends[:, 0]] > rank[ends[:, 1]]
    by_vertex = np.lexsort((later, ends[:, 1]))
    nbr, wgt = ends[by_vertex, 0], both[by_vertex, None]
    cuts = np.searchsorted(ends[by_vertex, 1], np.arange(n + 1))
    mids = cuts[:-1] + np.bincount(ends[~later, 1], minlength=n)

    def steps(vertices, starts, stops):
        # a vertex with no such neighbour has nothing to relax (and an empty
        # min raises)
        return [(v, nbr[a:b], wgt[a:b])
                for v, a, b in zip(vertices.tolist(), starts[vertices].tolist(),
                                   stops[vertices].tolist()) if a < b]

    # each vertex relaxes only from the neighbours already swept: peeling
    # order from the later-inserted ones, insertion order from the earlier
    sweeps = (steps(order[::-1], mids, cuts[1:]),
              steps(order, cuts[:-1], mids))

    DT = np.full((n, len(sources)), np.inf)
    DT[sources, np.arange(len(sources))] = 0.0
    # sweep 0 alone may change nothing (a lone first-inserted source); every
    # later sweep does at least a Bellman-Ford round, so sweeps 1..n-1 reach
    # the fixpoint and sweep n confirms it (n = 0 still needs sweep 1)
    for sweep in range(max(n, 1) + 1):
        changed = False
        for v, u, w in sweeps[sweep % 2]:
            cand = (DT[u] + w).min(axis=0)
            row = DT[v]
            if not changed:
                changed = bool((cand < row).any())
            np.minimum(row, cand, out=row)
        if sweep and not changed:
            return DT.T
    raise RuntimeError(f"APSP relaxation did not converge in {n + 1} sweeps")
