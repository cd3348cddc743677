"""Parallel DBHT for TMFG (Algorithm 4), on the driver in both pipelines.

Steps (Section V):
  1. direct the bubble-tree edges (Algorithm 3, linear work);
  2. find converging bubbles (out-degree 0) and, per bubble, the set of
     converging bubbles reachable along directed edges;
  3. APSP over the TMFG under the dissimilarity weights;
  4. first-level assignment: every vertex gets a *group* (a converging
     bubble) — by max attachment chi for vertices inside a converging
     bubble, else by min mean shortest-path distance to the already
     assigned vertices ``V_b^0``;
  5. second-level assignment: every vertex gets a *bubble* by max
     normalized attachment chi';
  6. hierarchy: complete linkage at three levels (intra-bubble subgroups,
     inter-bubble within a group, inter-group), with the Aste height
     assignment (heights ``[1/(n_b-1), ..., 1]`` inside each group;
     converging-bubble counts above).

Tie-breaking: the paper's WRITEMAX/WRITEMIN on (score, bubble) pairs
leaves ties platform-defined; we break all score ties toward the smaller
bubble id. The Spark SQL scores of ``repro.spark.dbht_spark`` are the
DuckDB-checked reference that tests compare these decisions against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.linkage import hac, pairwise_max_between
from repro.core.tmfg import TMFGResult
from repro.graphs import shortest_paths


@dataclass
class Assignments:
    """Per-vertex group (converging bubble id) and bubble id."""

    group: np.ndarray
    bubble: np.ndarray
    converging: np.ndarray  # converging bubble ids, ascending


@dataclass
class DBHTResult:
    dendrogram: Dendrogram
    assignments: Assignments
    apsp: np.ndarray  # (n, n) shortest-path distances used by the hierarchy


# --------------------------------------------------------------------- APSP
def tmfg_apsp(D: np.ndarray, t: TMFGResult) -> np.ndarray:
    """All-pairs shortest paths over the TMFG with dissimilarity weights."""
    w = D[t.edges[:, 0], t.edges[:, 1]]
    return shortest_paths.apsp(t.n, t.edges, w)


# --------------------------------------------------- vertex assignment (4-23)
def assignment_inputs(S: np.ndarray, t: TMFGResult, group: np.ndarray
                      ) -> Tuple[Dict[int, np.ndarray], List[Tuple[int, int]],
                                 np.ndarray]:
    """What the L-bar and chi' passes need once the chi pass has set
    ``group`` (-1 where unassigned): ``(vb0, cand, denom)``.

    ``vb0`` maps each converging bubble to V_b^0, the vertices the chi
    pass assigned to it. ``cand`` lists the ``(v, b)`` pairs to score by
    L-bar, ascending: for each unassigned ``v``, the converging bubbles
    with non-empty V_b^0 that a bubble containing ``v`` reaches along
    directed edges, or, when there is none, every converging bubble with
    non-empty V_b^0 (the paper's "v -> b" set always contains one in
    practice). ``denom`` is each bubble's chi' denominator, the sum of its
    6 intra-bubble similarities; a denominator <= 0 raises ``ValueError``,
    because chi' would be NaN or have its argmax flipped (constant or
    length-1 series give such an ``S``).
    """
    tree = t.tree
    bubbles = np.array(tree.bubbles)
    denom = sum(S[bubbles[:, i], bubbles[:, j]]
                for i in range(4) for j in range(i + 1, 4))
    if (denom <= 0).any():
        raise ValueError("bubble similarity sums must be positive for chi'")
    cvg = tree.converging_bubbles()
    reach = tree.reachable_converging()  # (n_bubbles, n_cvg) bool
    mem = tree.vertex_memberships(t.n)
    vb0 = {int(b): np.flatnonzero(group == b) for b in cvg}
    nonempty = np.array([len(vb0[int(b)]) > 0 for b in cvg])
    cand: List[Tuple[int, int]] = []
    for v in np.flatnonzero(group == -1):
        ok = reach[mem[v]].any(axis=0) & nonempty
        if not ok.any():
            ok = nonempty
        cand.extend((int(v), int(b)) for b in cvg[ok])
    return vb0, cand, denom


def assign_vertices(S: np.ndarray, t: TMFGResult,
                    dist: np.ndarray) -> Assignments:
    """Lines 4-23 of Algorithm 4: group and bubble assignment."""
    tree = t.tree
    if tree.down is None:
        tree.compute_directions(S, t.edges)
    n = t.n
    cvg = tree.converging_bubbles()

    # chi(v, b) = sum_{u in b} w(u, v); bubbles are 4-cliques so every u in
    # the bubble is adjacent to v in the TMFG. Scores are rounded to 12
    # decimals before comparison so the Spark SQL reference scores (whose
    # SUM order is nondeterministic) give identical argmax decisions; ties
    # go to the smallest bubble id (iteration over ``cvg`` is ascending).
    group = np.full(n, -1, dtype=np.int64)
    best_chi = np.full(n, -np.inf)
    for b in cvg:
        verts = tree.bubbles[int(b)]
        for v in verts:
            chi = round(sum(S[u, v] for u in verts if u != v), 12)
            if chi > best_chi[v]:
                best_chi[v] = chi
                group[v] = b

    # Remaining vertices: min mean shortest-path distance to V_b^0 over
    # their candidate converging bubbles.
    vb0, cand, denom = assignment_inputs(S, t, group)
    best: Dict[int, Tuple[float, int]] = {}
    for v, b in cand:  # ascending: ties keep the smallest bubble id
        lbar = round(float(dist[vb0[b], v].mean()), 12)
        if v not in best or lbar < best[v][0]:
            best[v] = (lbar, b)
    for v, (_, b) in best.items():
        group[v] = b

    # Second level: bubble assignment by chi' for *all* vertices (per the
    # paper's footnote, matching the reference implementation).
    mem = tree.vertex_memberships(n)
    bubble = np.full(n, -1, dtype=np.int64)
    best_chi2 = np.full(n, -np.inf)
    for v in range(n):
        for b in mem[v]:  # ascending: ties keep the smallest bubble id
            verts = tree.bubbles[b]
            chi2 = round(sum(S[u, v] for u in verts if u != v) / denom[b], 12)
            if chi2 > best_chi2[v]:
                best_chi2[v] = chi2
                bubble[v] = b
    return Assignments(group=group, bubble=bubble, converging=cvg)


# ----------------------------------------------------------- hierarchy (24-33)
@dataclass
class _Node:
    """Bookkeeping for one internal dendrogram node before heights exist."""

    nid: int
    level: str  # 'sub' | 'group' | 'top'
    group: int  # converging bubble id (-1 for top)
    bubble: int  # bubble id for 'sub' nodes, -1 otherwise
    dist: float  # merge distance at creation
    seq: int  # creation sequence for tie-breaking


def _run_linkage_into(merges: List[Tuple[int, int]], nodes: List[_Node],
                      Z: np.ndarray, item_nodes: List[int], n_leaves: int,
                      level: str, group: int, bubble: int) -> int:
    """Append a local linkage ``Z`` over ``item_nodes`` to the global merge
    list, returning the root's global node id."""
    m = len(item_nodes)
    if m == 1:
        return item_nodes[0]
    local_to_global = {i: item_nodes[i] for i in range(m)}
    root = -1
    for r in range(m - 1):
        left, right, d, _ = Z[r]
        gl = local_to_global[int(left)]
        gr = local_to_global[int(right)]
        nid = n_leaves + len(merges)
        merges.append((min(gl, gr), max(gl, gr)))
        nodes.append(_Node(nid=nid, level=level, group=group, bubble=bubble,
                           dist=float(d), seq=len(nodes)))
        local_to_global[m + r] = nid
        root = nid
    return root


def build_hierarchy(assign: Assignments, dist: np.ndarray) -> Dendrogram:
    """Lines 24-33 + the Aste height assignment (Section V-D)."""
    n = dist.shape[0]
    merges: List[Tuple[int, int]] = []
    nodes: List[_Node] = []
    groups = sorted(int(g) for g in np.unique(assign.group))
    group_roots: List[int] = []
    group_members: List[np.ndarray] = []
    for g in groups:
        g_members = np.flatnonzero(assign.group == g)
        bubbles = sorted(int(b) for b in np.unique(assign.bubble[g_members]))
        sub_roots: List[int] = []
        sub_members: List[np.ndarray] = []
        for q in bubbles:
            members = np.flatnonzero((assign.group == g) & (assign.bubble == q))
            sub_members.append(members)
            if len(members) == 1:
                sub_roots.append(int(members[0]))
                continue
            Z = hac(dist[np.ix_(members, members)], "complete")
            root = _run_linkage_into(
                merges, nodes, Z, [int(x) for x in members], n, "sub", g, q
            )
            sub_roots.append(root)
        if len(sub_roots) > 1:
            M = pairwise_max_between(dist, sub_members)
            Z = hac(M, "complete")
            root = _run_linkage_into(merges, nodes, Z, sub_roots, n,
                                     "group", g, -1)
        else:
            root = sub_roots[0]
        group_roots.append(root)
        group_members.append(g_members)
    if len(group_roots) > 1:
        M = pairwise_max_between(dist, group_members)
        Z = hac(M, "complete")
        _run_linkage_into(merges, nodes, Z, group_roots, n, "top", -1, -1)

    # ---- heights -----------------------------------------------------------
    heights = np.zeros(len(merges))
    by_group: Dict[int, List[_Node]] = {}
    for nd in nodes:
        if nd.level in ("sub", "group"):
            by_group.setdefault(nd.group, []).append(nd)
    for g, nds in by_group.items():
        n_b = int((assign.group == g).sum())
        ladder = [1.0 / (n_b - 1 - i) for i in range(n_b - 1)]  # ascending
        # subgroup nodes first (by bubble, then merge distance), then
        # group-level nodes (by merge distance); seq breaks exact ties.
        def sort_key(nd: _Node):
            if nd.level == "sub":
                return (0, nd.bubble, nd.dist, nd.seq)
            return (1, 0, nd.dist, nd.seq)
        nds_sorted = sorted(nds, key=sort_key)
        assert len(nds_sorted) == n_b - 1
        for h, nd in zip(ladder, nds_sorted):
            heights[nd.nid - n] = h
    # top-level nodes: height = number of converging bubbles (groups) below.
    group_leaf_count: Dict[int, int] = {}
    for root in group_roots:
        group_leaf_count[root] = 1
    for nd in nodes:
        if nd.level == "top":
            left, right = merges[nd.nid - n]
            c = group_leaf_count.get(left, 0) + group_leaf_count.get(right, 0)
            group_leaf_count[nd.nid] = c
            heights[nd.nid - n] = float(c)
    merge_arr = np.array(
        [(left, right, heights[i]) for i, (left, right) in enumerate(merges)],
        dtype=np.float64,
    ).reshape(-1, 3)
    return Dendrogram(n_leaves=n, merges=merge_arr)


# ------------------------------------------------------------------ end2end
def dbht(S: np.ndarray, D: np.ndarray, t: TMFGResult,
         dist: Optional[np.ndarray] = None) -> DBHTResult:
    """Full DBHT on a TMFG: directions, assignments, hierarchy."""
    if dist is None:
        dist = tmfg_apsp(D, t)
    assign = assign_vertices(S, t, dist)
    dendro = build_hierarchy(assign, dist)
    return DBHTResult(dendrogram=dendro, assignments=assign, apsp=dist)
