"""Bubble detection for arbitrary maximal planar graphs (PMFG-DBHT).

This is the bubble tree of the *baseline* DBHT of Song et al. (2012),
needed for the paper's PMFG-DBHT comparator: unlike a TMFG, whose bubble
tree comes free with the construction, a PMFG's bubbles are detected from
scratch — enumerate all triangles, test each for being separating (does
removing its 3 vertices disconnect the graph?), cut the graph along every
separating triangle, and connect pieces sharing a triangle. The result is
a plain ``BubbleTree`` with bubbles of any size: its directions are
Algorithm 3's, as on a TMFG, and the vertex assignment and hierarchy are
``repro.core.dbht``'s, whose general formulas take bubbles of any size.

For TMFG inputs this path must reproduce the TMFG path's bubble tree and
assignments exactly — a test cross-validates that.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.dbht import DBHTResult, dbht
from repro.graphs.bubble_tree import BubbleTree


def _adjacency(n: int, edges: np.ndarray) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[int(u)].add(int(v))
        adj[int(v)].add(int(u))
    return adj


def enumerate_triangles(n: int, edges: np.ndarray) -> List[Tuple[int, int, int]]:
    """All 3-cliques, each reported once as a sorted tuple."""
    adj = _adjacency(n, edges)
    out = []
    for u, v in edges:
        u, v = int(u), int(v)
        for w in adj[u] & adj[v]:
            if w > v and u < v:
                out.append((u, v, w))
    return sorted(out)


def _components(vertices: Set[int], adj: List[Set[int]],
                removed: Set[int]) -> List[Set[int]]:
    """Connected components of the induced subgraph on
    ``vertices - removed``."""
    todo = set(vertices) - removed
    comps = []
    while todo:
        start = next(iter(todo))
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in todo and y not in comp:
                    comp.add(y)
                    stack.append(y)
        todo -= comp
        comps.append(comp)
    return comps


def planar_bubble_tree(n: int, edges: np.ndarray) -> BubbleTree:
    """Detect bubbles of a maximal planar graph from scratch.

    Cut the vertex set along every separating triangle (each separates the
    graph into exactly two sides, by planarity); the resulting pieces are
    the bubbles; pieces sharing a separating triangle are adjacent in the
    bubble tree.
    """
    adj = _adjacency(n, edges)
    all_vertices = set(range(n))
    triangles = enumerate_triangles(n, edges)
    separating = [t for t in triangles
                  if len(_components(all_vertices, adj, set(t))) > 1]
    pieces: List[Set[int]] = [set(all_vertices)]
    for t in separating:
        ts = set(t)
        nxt: List[Set[int]] = []
        for p in pieces:
            if ts <= p:
                comps = _components(p, adj, ts)
                if len(comps) > 1:
                    nxt.extend(c | ts for c in comps)
                    continue
            nxt.append(p)
        pieces = nxt
    bubbles = sorted(tuple(sorted(p)) for p in pieces)
    # adjacency: the two bubbles fully containing each separating triangle
    by_tri: Dict[FrozenSet[int], List[int]] = {}
    for t in separating:
        holders = [i for i, b in enumerate(bubbles) if set(t) <= set(b)]
        if len(holders) != 2:
            raise ValueError(
                f"separating triangle {t} contained in {len(holders)} bubbles"
            )
        by_tri[frozenset(t)] = holders
    # root at bubble 0, BFS to orient parents
    n_b = len(bubbles)
    parent = [-1] * n_b
    children: List[List[int]] = [[] for _ in range(n_b)]
    sep: List[Optional[Tuple[int, int, int]]] = [None] * n_b
    nbrs: List[List[Tuple[int, Tuple[int, int, int]]]] = [[] for _ in range(n_b)]
    for t, (a, b) in by_tri.items():
        tt = tuple(sorted(t))
        nbrs[a].append((b, tt))
        nbrs[b].append((a, tt))
    visited = [False] * n_b
    visited[0] = True
    queue = [0]
    while queue:
        x = queue.pop()
        for y, tt in nbrs[x]:
            if not visited[y]:
                visited[y] = True
                parent[y] = x
                sep[y] = tt
                children[x].append(y)
                queue.append(y)
    if not all(visited):
        raise ValueError("bubble adjacency is not connected")
    return BubbleTree(bubbles=bubbles, parent=parent, children=children,
                      sep_triangle=sep, root=0)


def dbht_on_planar_graph(S: np.ndarray, D: np.ndarray,
                         edges: np.ndarray) -> DBHTResult:
    """Full original-style DBHT on any maximal planar graph (PMFG-DBHT).
    ``D`` must have the shape of ``S``, else ``ValueError``."""
    return dbht(S, D, planar_bubble_tree(S.shape[0], edges), edges)
