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
itself and ``DT[u] + w(u, v)`` over the neighbours ``u`` of ``v``, and
sweeps of such steps alternate forward and backward over a vertex order
until a sweep changes nothing. The order is the reverse of a min-degree
elimination (a peeling of the graph). A TMFG is a planar 3-tree: each
vertex joined three corners of a face, and peeling a degree-3 vertex
leaves a planar 3-tree, so this order is an insertion order of the TMFG.
The loop then stops after about four sweeps where vertex-id order needs
tens (EXPERIMENTS.md, APSP sweep kernel). The order only sets the number
of sweeps, not the result.

The result is bit-identical to per-source Dijkstra. Rounded addition is
monotone (``a <= b`` gives ``fl(a + w) <= fl(b + w)``) and never goes below
``a`` for ``w >= 0``, so both compute, for each pair, the least left-to-right
float sum over paths: Dijkstra because its invariant holds in this
arithmetic, a relaxation from ``inf`` because its fixpoint is reached by a
path and is at most every path's sum. ``min`` is exact, so neither the
neighbour order nor the sweep order changes a bit.
"""
from __future__ import annotations

import heapq
from typing import Dict, Iterable, List

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

    # per-vertex neighbours and their edge weights, each edge both ways
    ends = np.concatenate([edges, edges[:, ::-1]])
    both = np.concatenate([weights, weights])
    by_vertex = np.argsort(ends[:, 1], kind="stable")
    cuts = np.searchsorted(ends[by_vertex, 1], np.arange(n + 1))
    nbr = [ends[by_vertex[a:b], 0] for a, b in zip(cuts[:-1], cuts[1:])]
    wgt = [both[by_vertex[a:b], None] for a, b in zip(cuts[:-1], cuts[1:])]

    DT = np.full((n, len(sources)), np.inf)
    DT[sources, np.arange(len(sources))] = 0.0
    # an isolated vertex has nothing to relax (and an empty min raises)
    order = [v for v in _elimination_order(n, edges) if len(nbr[v])]
    sweeps = (order, order[::-1])
    # a sweep does at least a Bellman-Ford round, so n - 1 sweeps reach the
    # fixpoint and one more confirms it; the cap leaves one to spare
    for sweep in range(n + 1):
        changed = False
        for v in sweeps[sweep % 2]:
            cand = (DT[nbr[v]] + wgt[v]).min(axis=0)
            row = DT[v]
            if not changed:
                changed = bool((cand < row).any())
            np.minimum(row, cand, out=row)
        if not changed:
            return DT.T
    raise RuntimeError(f"APSP relaxation did not converge in {n + 1} sweeps")


def bfs_levels(adj_unweighted: Dict[int, List[int]], src: int) -> Dict[int, int]:
    """Unweighted BFS levels; used by tests to validate connectivity."""
    level = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj_unweighted.get(u, []):
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level
