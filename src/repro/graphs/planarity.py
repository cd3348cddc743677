"""Left-right planarity test (de Fraysseix--Ossona de Mendez--Rosenstiehl).

The PMFG baseline (Tumminello et al., PNAS 2005) adds edges in
decreasing-weight order, keeping an edge iff the graph stays planar, so it
needs a planarity oracle. We implement the linear-time left-right
algorithm from scratch (boolean answer only; no embedding is extracted).
It stays in place of ``networkx.is_planar``: with networkx the PMFG of
CBF-lite (n=124) and SonyAIBO-lite (n=98) took about twice as long, with
the same edges (EXPERIMENTS.md, Planarity test).

The recursion is implemented iteratively (explicit stacks) so graphs with
DFS depth in the thousands do not hit Python's recursion limit.

References: U. Brandes, "The left-right planarity test" (2009); the
structure follows the standard presentation (also used by networkx's
``check_planarity``).
"""
from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

Edge = Tuple[Hashable, Hashable]


class _Interval:
    """An interval of back edges, identified by its low and high edge."""

    __slots__ = ("low", "high")

    def __init__(self, low: Optional[Edge] = None, high: Optional[Edge] = None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)


class _ConflictPair:
    """A pair of intervals of edges that must go to opposite sides."""

    __slots__ = ("L", "R")

    def __init__(self, left: Optional[_Interval] = None, right: Optional[_Interval] = None):
        self.L = left if left is not None else _Interval()
        self.R = right if right is not None else _Interval()

    def swap(self) -> None:
        self.L, self.R = self.R, self.L


class _LRPlanarity:
    """State machine for one planarity query on an undirected simple graph."""

    def __init__(self, adj: Dict[Hashable, List[Hashable]]):
        self.adj = adj
        self.height: Dict[Hashable, Optional[int]] = {v: None for v in adj}
        self.lowpt: Dict[Edge, int] = {}
        self.lowpt2: Dict[Edge, int] = {}
        self.nesting_depth: Dict[Edge, int] = {}
        self.parent_edge: Dict[Hashable, Optional[Edge]] = {v: None for v in adj}
        self.oriented: Dict[Edge, bool] = {}  # directed edges produced by DFS1
        self.DG: Dict[Hashable, List[Hashable]] = {v: [] for v in adj}
        self.ordered_adjs: Dict[Hashable, List[Hashable]] = {}
        self.ref: Dict[Optional[Edge], Optional[Edge]] = {}
        self.side: Dict[Edge, int] = {}
        self.S: List[_ConflictPair] = []
        self.stack_bottom: Dict[Edge, Optional[_ConflictPair]] = {}
        self.lowpt_edge: Dict[Edge, Edge] = {}
        self.roots: List[Hashable] = []

    # -- phase 1: DFS orientation ------------------------------------------
    def dfs_orientation(self, root: Hashable) -> None:
        """Orient the graph by DFS and compute lowpoints / nesting depths."""
        # Explicit stack of (vertex, iterator-index) frames.
        stack = [root]
        ind = {v: 0 for v in self.adj}
        skip_init = {v: False for v in self.adj}
        while stack:
            v = stack[-1]
            e = self.parent_edge[v]
            progressed = False
            while ind[v] < len(self.adj[v]):
                w = self.adj[v][ind[v]]
                vw = (v, w)
                if not skip_init[v]:
                    if vw in self.oriented or (w, v) in self.oriented:
                        ind[v] += 1
                        continue
                    self.oriented[vw] = True
                    self.lowpt[vw] = self.height[v]
                    self.lowpt2[vw] = self.height[v]
                    if self.height[w] is None:  # tree edge: descend
                        self.parent_edge[w] = vw
                        self.height[w] = self.height[v] + 1
                        stack.append(w)
                        skip_init[v] = True
                        progressed = True
                        break
                    else:  # back edge
                        self.lowpt[vw] = self.height[w]
                # postprocessing of edge vw (after returning from child, or
                # immediately for back edges)
                skip_init[v] = False
                self.nesting_depth[vw] = 2 * self.lowpt[vw]
                if self.lowpt2[vw] < self.height[v]:  # chordal
                    self.nesting_depth[vw] += 1
                if e is not None:
                    if self.lowpt[vw] < self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                        self.lowpt[e] = self.lowpt[vw]
                    elif self.lowpt[vw] > self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
                    else:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])
                self.DG[v].append(w)
                ind[v] += 1
            if progressed:
                continue
            stack.pop()

    # -- phase 2: testing ---------------------------------------------------
    def _top(self) -> Optional[_ConflictPair]:
        return self.S[-1] if self.S else None

    def _lowest(self, P: _ConflictPair) -> int:
        if P.L.empty():
            return self.lowpt[P.R.low]
        if P.R.empty():
            return self.lowpt[P.L.low]
        return min(self.lowpt[P.L.low], self.lowpt[P.R.low])

    def _conflicting(self, I: _Interval, b: Edge) -> bool:
        return (not I.empty()) and self.lowpt[I.high] > self.lowpt[b]

    def add_constraints(self, ei: Edge, e: Edge) -> bool:
        P = _ConflictPair()
        # merge return edges of e_i into P.R
        while True:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False  # not planar
            if self.lowpt[Q.R.low] > self.lowpt[e]:
                # merge intervals
                if P.R.empty():  # topmost interval
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:  # align
                self.ref[Q.R.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of e_1 .. e_{i-1} into P.L
        while self.S and (
            self._conflicting(self.S[-1].L, ei) or self._conflicting(self.S[-1].R, ei)
        ):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                return False  # not planar
            # merge interval below lowpt(e_i) into P.R
            if P.R.low is not None:
                self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():  # topmost interval
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)
        return True

    def remove_back_edges(self, e: Edge) -> None:
        u = e[0]
        # drop entire conflict pairs whose lowest return edge ends at u
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:  # one more conflict pair to consider
            P = self.S.pop()
            # trim left interval
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref.get(P.L.high)
            if P.L.high is None and P.L.low is not None:
                # just emptied
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            # trim right interval
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref.get(P.R.high)
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)
        # side of e is the side of a highest return edge
        if self.S and self.lowpt[e] < self.height[u]:  # e has return edge
            top = self.S[-1]
            hl = top.L.high
            hr = top.R.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    def dfs_testing(self, root: Hashable) -> bool:
        """Iterative version of the testing DFS; returns False iff nonplanar."""
        stack = [root]
        ind = {v: 0 for v in self.adj}
        skip_init = {v: False for v in self.adj}
        while stack:
            v = stack[-1]
            e = self.parent_edge[v]
            progressed = False
            while ind[v] < len(self.ordered_adjs[v]):
                w = self.ordered_adjs[v][ind[v]]
                ei = (v, w)
                if not skip_init[v]:
                    self.stack_bottom[ei] = self._top()
                    if ei == self.parent_edge[w]:  # tree edge: descend
                        stack.append(w)
                        skip_init[v] = True
                        progressed = True
                        break
                    else:  # back edge
                        self.lowpt_edge[ei] = ei
                        self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                # integrate new return edges (post-visit for tree edges)
                skip_init[v] = False
                if self.lowpt[ei] < self.height[v]:  # ei has return edge
                    if w == self.ordered_adjs[v][0]:
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                    else:
                        if not self.add_constraints(ei, e):
                            return False
                ind[v] += 1
            if progressed:
                continue
            # leaving v: remove back edges ending at parent
            stack.pop()
            if e is not None:
                self.remove_back_edges(e)
        return True

    def run(self) -> bool:
        n = len(self.adj)
        m = sum(len(a) for a in self.adj.values()) // 2
        if n > 2 and m > 3 * n - 6:
            return False
        for v in self.adj:
            if self.height[v] is None:
                self.height[v] = 0
                self.roots.append(v)
                self.dfs_orientation(v)
        for v in self.adj:
            self.ordered_adjs[v] = sorted(
                self.DG[v], key=lambda w: self.nesting_depth[(v, w)]
            )
        for s in self.roots:
            if not self.dfs_testing(s):
                return False
        return True


def _build_adj(n_or_vertices, edges: Iterable[Edge]) -> Dict[Hashable, List[Hashable]]:
    if isinstance(n_or_vertices, int):
        vertices = range(n_or_vertices)
    else:
        vertices = n_or_vertices
    adj: Dict[Hashable, List[Hashable]] = {v: [] for v in vertices}
    seen = set()
    for u, v in edges:
        if u == v:
            continue  # self-loops never affect planarity
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        if key in seen:
            continue  # parallel edges never affect planarity
        seen.add(key)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def is_planar(n_or_vertices, edges: Iterable[Edge]) -> bool:
    """True iff the simple undirected graph is planar.

    ``n_or_vertices`` is either a vertex count (vertices ``0..n-1``) or an
    iterable of vertex labels; ``edges`` is an iterable of pairs. Self-loops
    and parallel edges are ignored (they do not affect planarity).
    """
    adj = _build_adj(n_or_vertices, edges)
    return _LRPlanarity(adj).run()
