"""DBHT vertex assignment and hierarchy (Algorithm 4), on the driver in
both pipelines and for the PMFG-DBHT baseline. ``dbht`` is the one place
that runs these steps, on any bubble tree; only its APSP stage is
swappable.

Steps (Section V):
  1. direct the bubble-tree edges with ``BubbleTree.compute_directions``
     (Algorithm 3, on a TMFG's tree and a PMFG's alike), which returns the
     directions ``down`` for the ``S`` at hand; the tree stores none, so a
     tree reused with another ``S`` is directed anew;
  2. find converging bubbles (out-degree 0) and, per bubble, the set of
     converging bubbles reachable along directed edges (two passes over
     the rooted tree, ``BubbleTree.reachable_converging(down)``);
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
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.dendrogram import Dendrogram
from repro.core.linkage import hac, pairwise_max_between
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
    # wall seconds per step, under Fig. 5's keys: "apsp", "bubble-tree"
    # (directions + assignments) and "hierarchy"
    times: Dict[str, float]


# --------------------------------------------------------------------- APSP
def tmfg_apsp(n: int, edges: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The driver APSP stage: all-pairs shortest paths over the filtered
    graph's ``edges`` (a TMFG's or a PMFG's) under the weights ``w``."""
    return shortest_paths.apsp(n, edges, w)


# --------------------------------------------------- vertex assignment (4-23)
def _first_per_vertex(v: np.ndarray, key: np.ndarray,
                      b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Over the entries ``(v[i], key[i], b[i])``: each distinct vertex
    (ascending) and the ``b`` of its entry with the smallest ``(key, b)``."""
    order = np.lexsort((b, key, v))
    v, b = v[order], b[order]
    first = np.ones(len(v), dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return v[first], b[first]


def _best_attachment(S: np.ndarray, tree: BubbleTree, ids: np.ndarray,
                     scale: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For every vertex of the bubbles ``ids``: the bubble maximizing
    ``round(sum_{u in b, u != v} S[u, v] / scale[b], 12)``, ties to the
    smallest id. Returns the vertices (ascending) and their bubbles.

    Each numerator adds the other members left to right in bubble order,
    as ``sum(S[u, v] for u in verts if u != v)`` does. The rounding is
    numpy's ``np.round``, which is what Python's ``round`` does on a numpy
    float64; it differs from ``round`` on a Python float for about 1 in
    10^4 doubles."""
    vs, scores, bs = [], [], []
    for sel, V in tree.by_size(ids):
        k = V.shape[1]
        for p in range(k):
            others = [q for q in range(k) if q != p]
            num = S[V[:, others[0]], V[:, p]]
            for q in others[1:]:
                num += S[V[:, q], V[:, p]]
            vs.append(V[:, p])
            scores.append(num / scale[sel])
            bs.append(sel)
    score = np.round(np.concatenate(scores), 12)
    return _first_per_vertex(np.concatenate(vs), -score, np.concatenate(bs))


def assign_vertices(S: np.ndarray, tree: BubbleTree, edges: np.ndarray,
                    dist: np.ndarray) -> Assignments:
    """Lines 4-23 of Algorithm 4: group and bubble assignment on any bubble
    tree (a TMFG's, or the one ``planar_bubble_tree`` detects in a PMFG),
    directing its edges for this ``S`` with ``tree.compute_directions``.

    Every (vertex, bubble) pair is scored at once, as the paper's
    WRITEMAX/WRITEMIN do; the decisions are those of the per-vertex
    definitions, bit for bit, because the scores keep this order contract:

    * chi and chi' numerators add the other members of the bubble left to
      right in bubble order, and the chi' denominators the bubble's pairs
      ``i < j`` in row-major order, starting from 0;
    * chi and chi' are rounded to 12 decimals by ``np.round`` (what Python's
      ``round`` does on a numpy float64), L-bar by Python's ``round`` on a
      Python float;
    * L-bar is ``dist[V_b^0, v].mean()``: a pairwise sum over the rows of
      the V_b^0 sources at column ``v``, divided by ``|V_b^0|``.

    A bubble whose chi' denominator (the sum of its intra-bubble
    similarities) is <= 0 raises ``ValueError``, because chi' would be NaN
    or have its argmax flipped (constant or length-1 series give such an
    ``S``).
    """
    down = tree.compute_directions(S, edges)
    n = S.shape[0]
    every = np.arange(tree.n_bubbles())
    denom = np.empty(len(every))
    pair_v, pair_b = [], []  # (vertex, bubble) membership pairs
    for ids, V in tree.by_size(every):
        d = np.zeros(len(ids))
        for i, j in itertools.combinations(range(V.shape[1]), 2):
            d += S[V[:, i], V[:, j]]
        denom[ids] = d
        pair_v.append(V.ravel())
        pair_b.append(np.repeat(ids, V.shape[1]))
    if (denom <= 0).any():
        raise ValueError("bubble similarity sums must be positive for chi'")
    cvg = tree.converging_bubbles(down)

    # chi(v, b) = sum_{u in b} w(u, v) / (3(|b| - 2)): v's similarity to
    # the rest of b over b's edge count (6 on a 4-clique), for the vertices
    # of converging bubbles. Scores are rounded to 12 decimals before
    # comparison so the order of a sum cannot flip a decision; ties go to
    # the smallest bubble id.
    group = np.full(n, -1, dtype=np.int64)
    edge_count = 3.0 * (np.array([len(verts) for verts in tree.bubbles]) - 2)
    v, b = _best_attachment(S, tree, cvg, edge_count)
    group[v] = b

    # Remaining vertices: min mean shortest-path distance L-bar to V_b^0
    # (the vertices the chi pass gave to b) over the candidates, ties to
    # the smallest bubble id. The candidates are the converging bubbles
    # with non-empty V_b^0 that a bubble containing v reaches along
    # directed edges, or, when there is none, every converging bubble with
    # non-empty V_b^0 (the paper's "v -> b" set always holds one in
    # practice). V_b^0 is fixed before any L-bar assignment.
    rest = np.flatnonzero(group == -1)
    if len(rest):
        vb0 = [np.flatnonzero(group == b) for b in cvg]
        nonempty = np.array([len(u) > 0 for u in vb0])
        row = np.full(n, -1)
        row[rest] = np.arange(len(rest))
        pv, pb = np.concatenate(pair_v), np.concatenate(pair_b)
        on = row[pv] >= 0
        rows, bubbles = row[pv[on]], pb[on]
        reach = tree.reachable_converging(down)  # (n_bubbles, n_cvg) bool
        # ok[r, k]: some bubble holding rest[r] reaches the k-th converging
        # bubble, whose V_b^0 is non-empty
        ok = np.zeros((len(rest), len(cvg)), dtype=bool)
        for k in np.flatnonzero(nonempty):
            ok[rows[reach[bubbles, k]], k] = True
        ok[~ok.any(axis=1)] = nonempty
        vs, scores, ks = [], [], []
        for k in np.flatnonzero(nonempty):
            U = rest[ok[:, k]]
            # one row per candidate: a contiguous reduction, so each mean
            # is the pairwise sum of dist[vb0[k], v].mean()
            block = np.ascontiguousarray(dist[np.ix_(vb0[k], U)].T)
            vs.append(U)
            scores.append(block.mean(axis=1))
            ks.append(np.full(len(U), k))
        lbar = np.array([round(x, 12) for x in np.concatenate(scores).tolist()])
        v, k = _first_per_vertex(np.concatenate(vs), lbar, np.concatenate(ks))
        group[v] = cvg[k]

    # Second level: bubble assignment by
    # chi'(v, b) = sum_{u in b} w(u, v) / sum_{u' < v' in b} w(u', v')
    # for *all* vertices (per the paper's footnote, matching the reference
    # implementation), rounded and tie-broken as chi.
    bubble = np.full(n, -1, dtype=np.int64)
    v, b = _best_attachment(S, tree, every, denom)
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
        g_members = np.flatnonzero(assign.group == g)
        n_b = len(g_members)
        ladder = iter([1.0 / (n_b - 1 - i) for i in range(n_b - 1)])
        # the group's own block of dist: its subgroup levels read no other
        # column (positions in g_members keep the row order of vertex ids)
        block = dist[np.ix_(g_members, g_members)]
        bubble = assign.bubble[g_members]
        sub_roots: List[int] = []
        sub_members: List[np.ndarray] = []
        for q in np.unique(bubble):
            members = np.flatnonzero(bubble == q)
            sub_members.append(members)
            sub_roots.append(link(g_members[members].tolist(),
                                  block[np.ix_(members, members)], ladder))
        group_roots.append(link(sub_roots,
                                pairwise_max_between(block, sub_members),
                                ladder))
        group_members.append(g_members)
    link(group_roots, pairwise_max_between(dist, group_members))
    return Dendrogram(n_leaves=n,
                      merges=np.array(rows, dtype=np.float64).reshape(-1, 3))


# ------------------------------------------------------------------ end2end
def dbht(S: np.ndarray, D: np.ndarray, tree: BubbleTree, edges: np.ndarray,
         apsp: Optional[Callable] = None) -> DBHTResult:
    """Full DBHT on the bubble ``tree`` of the filtered graph ``edges``:
    APSP, directions, assignments, hierarchy, each step timed.

    ``D`` must have the shape of ``S``, else ``ValueError``: a smaller
    ``D`` would fail on an edge index and a larger one give the weights of
    another block. ``apsp(n, edges, w)`` computes the distances;
    ``tmfg_apsp`` on the driver by default."""
    if np.shape(D) != np.shape(S):
        raise ValueError(f"D must have the shape of S, {np.shape(S)}; "
                         f"got {np.shape(D)}")
    w = D[edges[:, 0], edges[:, 1]]
    t0 = time.monotonic()
    # the default is read from the module when called, so a rebinding of
    # tmfg_apsp (a tracer's wrapper) takes effect
    dist = (apsp or tmfg_apsp)(len(S), edges, w)
    t1 = time.monotonic()
    assign = assign_vertices(S, tree, edges, dist)
    t2 = time.monotonic()
    dendro = build_hierarchy(assign, dist)
    times = {"apsp": t1 - t0, "bubble-tree": t2 - t1,
             "hierarchy": time.monotonic() - t2}
    return DBHTResult(dendrogram=dendro, assignments=assign, apsp=dist,
                      times=times)
