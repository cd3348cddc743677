"""DBHT vertex assignment and hierarchy (Algorithm 4), on the driver in
both pipelines and for the PMFG-DBHT baseline.

Steps (Section V):
  1. direct the bubble-tree edges with the tree's ``compute_directions``
     (Algorithm 3 on a TMFG tree, the quadratic method on a
     ``PlanarBubbleTree``);
  2. find converging bubbles (out-degree 0) and, per bubble, the set of
     converging bubbles reachable along directed edges (two passes over
     the rooted tree, ``BubbleTree.reachable_converging``);
  3. APSP over the filtered graph under the dissimilarity weights;
  4. first-level assignment: every vertex gets a *group* (a converging
     bubble) — by max attachment ``chi(v, b) = sum_{u in b} w(u, v) /
     (3(|b|-2))`` for vertices inside a converging bubble, else by min
     mean shortest-path distance to the already assigned vertices
     ``V_b^0``;
  5. second-level assignment: every vertex gets a *bubble* by max
     normalized attachment ``chi'(v, b) = sum_{u in b} w(u, v) /
     sum_{u' < v' in b} w(u', v')``;
  6. hierarchy: complete linkage at three levels (intra-bubble subgroups,
     inter-bubble within a group, inter-group), with the Aste height
     assignment: heights ``[1/(n_b-1), ..., 1]`` inside each group, handed
     out as the group's linkages are built; above, the inter-group
     linkage's item counts (converging bubbles below each merge).

These are the general formulas of Song, Di Matteo & Aste (2012) for
bubbles of any size; a TMFG is the case where every bubble is a 4-clique.

Tie-breaking: the paper's WRITEMAX/WRITEMIN on (score, bubble) pairs
leaves ties platform-defined. We round every chi, chi' and L-bar score to
12 decimals, so the order of a sum cannot flip a decision, and break the
remaining ties toward the smaller bubble id.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.linkage import hac, pairwise_max_between
from repro.core.tmfg import TMFGResult
from repro.graphs import shortest_paths
from repro.graphs.bubble_tree import BubbleTree


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
def assign_vertices(S: np.ndarray, tree: BubbleTree, edges: np.ndarray,
                    dist: np.ndarray) -> Assignments:
    """Lines 4-23 of Algorithm 4: group and bubble assignment on any bubble
    tree (a TMFG's, or a ``PlanarBubbleTree`` of a PMFG), directing its
    edges with the tree's own ``compute_directions`` if not yet done.

    A bubble whose chi' denominator (the sum of its intra-bubble
    similarities) is <= 0 raises ``ValueError``, because chi' would be NaN
    or have its argmax flipped (constant or length-1 series give such an
    ``S``).
    """
    if tree.down is None:
        tree.compute_directions(S, edges)
    n = S.shape[0]
    # chi' denominators, one (bubbles, k) stack per bubble size k: the
    # pairs i < j are added in row-major order, as a left-to-right sum.
    sizes = np.array([len(verts) for verts in tree.bubbles])
    denom = np.empty(len(sizes))
    for k in np.unique(sizes):
        ids = np.flatnonzero(sizes == k)
        V = np.array([tree.bubbles[b] for b in ids])
        d = np.zeros(len(ids))
        for i, j in itertools.combinations(range(k), 2):
            d += S[V[:, i], V[:, j]]
        denom[ids] = d
    if (denom <= 0).any():
        raise ValueError("bubble similarity sums must be positive for chi'")
    cvg = tree.converging_bubbles()
    mem = tree.vertex_memberships(n)

    # chi(v, b) = sum_{u in b} w(u, v) / (3(|b| - 2)): v's similarity to
    # the rest of b over b's edge count (6 on a 4-clique). Scores are
    # rounded to 12 decimals before comparison so the order of a sum cannot
    # flip a decision; ties go to the smallest bubble id (iteration over
    # ``cvg`` is ascending).
    group = np.full(n, -1, dtype=np.int64)
    best_chi = np.full(n, -np.inf)
    for b in cvg:
        verts = tree.bubbles[int(b)]
        norm = 3.0 * (len(verts) - 2)
        for v in verts:
            chi = round(sum(S[u, v] for u in verts if u != v) / norm, 12)
            if chi > best_chi[v]:
                best_chi[v] = chi
                group[v] = b

    # Remaining vertices: min mean shortest-path distance L-bar to V_b^0
    # (the vertices the chi pass gave to b) over the candidates, ascending
    # so ties keep the smallest bubble id. The candidates are the converging
    # bubbles with non-empty V_b^0 that a bubble containing v reaches along
    # directed edges, or, when there is none, every converging bubble with
    # non-empty V_b^0 (the paper's "v -> b" set always holds one in practice).
    reach = tree.reachable_converging()  # (n_bubbles, n_cvg) bool
    vb0 = [np.flatnonzero(group == b) for b in cvg]
    nonempty = np.array([len(u) > 0 for u in vb0])
    for v in np.flatnonzero(group == -1):
        ok = reach[mem[v]].any(axis=0) & nonempty
        if not ok.any():
            ok = nonempty
        cand = np.flatnonzero(ok)
        lbar = [round(float(dist[vb0[k], v].mean()), 12) for k in cand]
        group[v] = cvg[cand[int(np.argmin(lbar))]]

    # Second level: bubble assignment by
    # chi'(v, b) = sum_{u in b} w(u, v) / sum_{u' < v' in b} w(u', v')
    # for *all* vertices (per the paper's footnote, matching the reference
    # implementation).
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
def build_hierarchy(assign: Assignments, dist: np.ndarray) -> Dendrogram:
    """Lines 24-33 + the Aste height assignment (Section V-D).

    Complete linkage inside each subgroup (the vertices of one group
    assigned to one bubble), then between the subgroups of a group, then
    between groups. The ``n_b - 1`` merges of a group of ``n_b`` vertices
    take the heights ``1/(n_b-1), ..., 1/2, 1`` in this order: subgroup
    merges bubble by bubble (ascending id), then group-level merges, each
    linkage's merges by merge distance with ties in row order. A merge
    between groups is as high as the number of groups below it.
    """
    n = dist.shape[0]
    rows: List[Tuple[int, int, float]] = []

    def link(items: List[int], D: np.ndarray, ladder=None) -> int:
        """Complete linkage over the node ids ``items`` under ``D``: append
        its merges and return the root's id. Heights are the next rungs of
        ``ladder`` or, without one, the linkage's item counts."""
        if len(items) == 1:
            return items[0]
        Z = hac(D, "complete")
        if ladder is None:
            heights = Z[:, 3]
        else:
            heights = np.empty(len(Z))
            heights[np.argsort(Z[:, 2], kind="stable")] = [
                next(ladder) for _ in range(len(Z))]
        ids = list(items)
        for (a, b), h in zip(Z[:, :2].astype(np.int64).tolist(), heights):
            a, b = ids[a], ids[b]
            ids.append(n + len(rows))
            rows.append((min(a, b), max(a, b), h))
        return ids[-1]

    group_roots: List[int] = []
    group_members: List[np.ndarray] = []
    for g in np.unique(assign.group):
        in_g = assign.group == g
        g_members = np.flatnonzero(in_g)
        n_b = len(g_members)
        ladder = iter([1.0 / (n_b - 1 - i) for i in range(n_b - 1)])
        sub_roots: List[int] = []
        sub_members: List[np.ndarray] = []
        for q in np.unique(assign.bubble[g_members]):
            members = np.flatnonzero(in_g & (assign.bubble == q))
            sub_members.append(members)
            sub_roots.append(link(members.tolist(),
                                  dist[np.ix_(members, members)], ladder))
        group_roots.append(link(sub_roots,
                                pairwise_max_between(dist, sub_members),
                                ladder))
        group_members.append(g_members)
    link(group_roots, pairwise_max_between(dist, group_members))
    return Dendrogram(n_leaves=n,
                      merges=np.array(rows, dtype=np.float64).reshape(-1, 3))


# ------------------------------------------------------------------ end2end
def dbht(S: np.ndarray, D: np.ndarray, t: TMFGResult) -> DBHTResult:
    """Full DBHT on a TMFG: APSP, directions, assignments, hierarchy."""
    dist = tmfg_apsp(D, t)
    assign = assign_vertices(S, t.tree, t.edges, dist)
    dendro = build_hierarchy(assign, dist)
    return DBHTResult(dendrogram=dendro, assignments=assign, apsp=dist)
