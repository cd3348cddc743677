"""Shortest-path substrate: Dijkstra + APSP over sparse weighted graphs.

The DBHT algorithm needs all-pairs shortest paths on the TMFG (a planar
graph with exactly ``3n - 6`` edges) under the *dissimilarity* edge
weights. The environment ships no scipy, so Dijkstra is implemented with
``heapq``. It is the one kernel of every APSP here: the driver pipeline
(``repro.core.dbht.tmfg_apsp``), the PMFG baseline and the Spark tasks of
``repro.spark.apsp_spark``, which each run it for a block of sources and
emit one dense distance row per source.

The distances live in a plain Python list while the heap runs (indexing a
numpy array per relaxation costs a scalar box and a mixed-type compare);
the row becomes a numpy array once, at the end. The sums and comparisons
are the same IEEE doubles either way, so the output is bit-identical.
"""
from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

Adjacency = List[List[Tuple[int, float]]]


def build_adjacency(n: int, edges: np.ndarray, weights: np.ndarray) -> Adjacency:
    """Adjacency list for an undirected graph.

    ``edges`` is an ``(m, 2)`` int array, ``weights`` an ``(m,)`` float
    array of nonnegative edge weights.
    """
    adj: Adjacency = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        u, v, w = int(u), int(v), float(w)
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def dijkstra(adj: Adjacency, src: int) -> np.ndarray:
    """Single-source shortest path distances from ``src``.

    Unreachable vertices get ``inf``. Standard binary-heap Dijkstra with
    lazy deletion; weights must be nonnegative.
    """
    dist = [math.inf] * len(adj)
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return np.array(dist)


def apsp(n: int, edges: np.ndarray, weights: np.ndarray,
         sources: Iterable[int] | None = None) -> np.ndarray:
    """All-pairs (or selected-sources) shortest path distance matrix.

    Returns a ``(len(sources), n)`` matrix of distances (``sources``
    defaults to all vertices, giving the full ``(n, n)`` APSP matrix).
    ``sources`` may be any iterable, a generator included.
    """
    adj = build_adjacency(n, edges, weights)
    sources = list(range(n) if sources is None else sources)
    out = np.empty((len(sources), n))
    for i, s in enumerate(sources):
        out[i] = dijkstra(adj, int(s))
    return out


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
