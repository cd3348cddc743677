"""Bubble tree of a maximal planar graph (Algorithms 2 and 3).

The paper's key structural insight (Section V-A): every TMFG vertex
insertion creates exactly one bubble (the new 4-clique) and one bubble-tree
edge (whose separating triangle is the face inserted into), so the TMFG
builds its tree incrementally. Inserting into the *outer* face re-roots
the tree. The PMFG baseline's tree is detected from scratch
(``repro.core.generic_dbht.planar_bubble_tree``) and has bubbles of any
size; both are this one ``BubbleTree``.

Edge directions (Algorithm 3) are computed in Theta(n) total work by a
bottom-up accumulation of each separating triangle's weight into its
subtree, instead of the original per-triangle BFS (Theta(n^2)). It holds
on any bubble tree: a vertex's bubbles form a connected subtree and every
edge lies inside some bubble, so each edge from a corner into the subtree
is counted exactly once, in the bubble that holds it or below the one
child whose triangle holds that corner. The navigation after the
directions (out-degrees, converging bubbles and the converging bubbles
each bubble reaches, by one pass up and one down the rooted tree) is
shared too.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

Triangle = Tuple[int, int, int]


def _sorted_tri(t) -> Triangle:
    a, b, c = sorted(int(x) for x in t)
    return (a, b, c)


@dataclass
class BubbleTree:
    """Rooted undirected bubble tree.

    Node ``i`` is the bubble ``bubbles[i]``, a sorted vertex tuple of any
    size >= 4; in a TMFG's tree it is the 4-clique created by the ``i``-th
    insertion (node 0 is the initial 4-clique). ``sep_triangle[i]`` is the
    sorted separating triangle on the tree edge between ``i`` and
    ``parent[i]``.
    """

    bubbles: List[Tuple[int, ...]] = field(default_factory=list)
    parent: List[int] = field(default_factory=list)
    children: List[List[int]] = field(default_factory=list)
    sep_triangle: List[Optional[Triangle]] = field(default_factory=list)
    root: int = 0
    outer_face: int = -1  # face id managed by the TMFG builder
    face_bubble: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ build
    @classmethod
    def initial(cls, clique, face_ids, outer_face: int) -> "BubbleTree":
        """Tree with the starting 4-clique as its single node.

        ``face_ids`` are the ids of the four triangular faces of the
        clique; ``outer_face`` is the id chosen as the (arbitrary) outer
        face.
        """
        bt = cls()
        bt.bubbles.append(tuple(sorted(int(v) for v in clique)))
        bt.parent.append(-1)
        bt.children.append([])
        bt.sep_triangle.append(None)
        bt.root = 0
        bt.outer_face = outer_face
        for fid in face_ids:
            bt.face_bubble[fid] = 0
        return bt

    def insert(self, v: int, face_id: int, triangle, new_face_ids) -> int:
        """Algorithm 2 (UpdateBubbleTree): insert ``v`` into face ``face_id``.

        ``triangle`` is the face's corner vertices; ``new_face_ids`` are the
        ids of the three faces created by the insertion (the first one
        becomes the new outer face when inserting into the outer face).
        Returns the new bubble's node id.
        """
        tri = _sorted_tri(triangle)
        b = self.face_bubble[face_id]
        b_star = len(self.bubbles)
        self.bubbles.append(tuple(sorted((v,) + tri)))
        self.children.append([])
        if face_id == self.outer_face:
            # v lands in the outer face: the old root becomes a child of the
            # new bubble and the outer face moves to a face of the new clique.
            self.parent.append(-1)
            self.sep_triangle.append(None)
            self.parent[b] = b_star
            self.sep_triangle[b] = tri
            self.children[b_star].append(b)
            self.root = b_star
            self.outer_face = new_face_ids[0]
        else:
            self.parent.append(b)
            self.sep_triangle.append(tri)
            self.children[b].append(b_star)
        for fid in new_face_ids:
            self.face_bubble[fid] = b_star
        del self.face_bubble[face_id]
        return b_star

    # ------------------------------------------------------------ navigation
    def n_bubbles(self) -> int:
        return len(self.bubbles)

    def depths(self) -> np.ndarray:
        d = np.full(self.n_bubbles(), -1, dtype=np.int64)
        d[self.root] = 0
        stack = [self.root]
        while stack:
            b = stack.pop()
            for c in self.children[b]:
                d[c] = d[b] + 1
                stack.append(c)
        return d

    def by_size(self, ids: np.ndarray):
        """Yield ``(bubble ids of size k, (m, k) array of their vertices)``
        for each bubble size ``k`` among the bubbles ``ids``."""
        sizes = np.array([len(self.bubbles[b]) for b in ids], dtype=np.int64)
        for k in np.unique(sizes):
            sel = ids[sizes == k]
            yield sel, np.array([self.bubbles[b] for b in sel], dtype=np.int64)

    # ------------------------------------------------------------ directions
    def compute_directions(self, S: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Algorithm 3: direct every tree edge in Theta(n) work.

        ``S`` is the similarity matrix, ``edges`` the filtered graph's edge
        list (for weighted degrees and adjacency). Returns ``down``: for
        each non-root bubble ``b``, ``down[b]`` is True iff the edge is
        directed ``parent[b] -> b`` (i.e. INVAL > OUTVAL for the separating
        triangle, INVAL being the weight from its corners into the
        subtree's other vertices). The entry for the root is False and
        unused. Nothing is stored on the tree, so each ``S`` gets its own
        directions.
        """
        n, n_b = S.shape[0], self.n_bubbles()
        # weighted degrees: each vertex adds its edges' weights in edge
        # order, from 0.0, as a loop over the edges would
        w = S[edges[:, 0], edges[:, 1]]
        deg = np.bincount(edges.ravel(), weights=np.repeat(w, 2), minlength=n)
        keys = np.sort(edges.min(axis=1) * n + edges.max(axis=1))
        ids = np.flatnonzero(np.asarray(self.parent) != -1)
        # the root's row is a placeholder, never read
        tri = np.array([t or (0, 0, 0) for t in self.sep_triangle])
        # r[b][j]: weight from corner j of b's triangle into b's subtree.
        # b's own term adds S[c, u] left to right over b's members u off
        # the triangle that are adjacent to the corner c (on a 4-clique,
        # the one member left); the rest lies below the children whose
        # triangles hold c (see the module docstring).
        r = np.zeros((n_b, 3))
        for sel, V in self.by_size(ids):
            C = tri[sel]
            U = V[(V[:, :, None] != C[:, None]).all(axis=2)]
            C, U = C[:, :, None], U.reshape(len(sel), 1, -1)
            key = np.minimum(C, U) * n + np.maximum(C, U)
            pos = np.searchsorted(keys, key).clip(max=len(keys) - 1)
            terms = np.where(keys[pos] == key, S[C, U], 0.0)
            r[sel] = terms.cumsum(axis=2)[:, :, -1]  # left to right
        r = r.tolist()
        order = np.argsort(-self.depths(), kind="stable")  # deepest first
        for b in order.tolist():
            if self.parent[b] == -1:
                continue
            tb, rb = self.sep_triangle[b], r[b]
            for c_star in self.children[b]:
                for corner, val in zip(self.sep_triangle[c_star], r[c_star]):
                    if corner in tb:
                        rb[tb.index(corner)] += val
        r = np.array(r)
        inval = r[:, 0] + r[:, 1] + r[:, 2]
        vx, vy, vz = tri.T
        outval = (deg[vx] + deg[vy] + deg[vz] - inval
                  - 2.0 * (S[vx, vy] + S[vx, vz] + S[vy, vz]))
        down = np.zeros(n_b, dtype=bool)
        down[ids] = inval[ids] > outval[ids]
        return down

    def out_degrees(self, down: np.ndarray) -> np.ndarray:
        """Out-degree of each bubble node in the tree directed by ``down``:
        an edge leaves the parent if it points down, else the child."""
        parent = np.asarray(self.parent)
        b = np.flatnonzero(parent != -1)
        return np.bincount(np.where(down[b], parent[b], b),
                           minlength=self.n_bubbles())

    def converging_bubbles(self, down: np.ndarray) -> np.ndarray:
        """Bubble ids with out-degree zero under ``down``, ascending."""
        return np.flatnonzero(self.out_degrees(down) == 0)

    def reachable_converging(self, down: np.ndarray) -> np.ndarray:
        """Boolean matrix ``R[b, k]``: bubble ``b`` can reach the ``k``-th
        converging bubble (in ``converging_bubbles(down)`` order) by
        following the tree edges as ``down`` directs them (the per-bubble
        search of Algorithm 4).

        Two passes over the rooted tree: deepest first, a parent whose edge
        points down to ``b`` reaches all that ``b`` reaches below it; then
        root first, ``b`` whose edge points up reaches all that its parent
        reaches. A walk on a tree never returns through the edge it left
        by, so these are all the walks.
        """
        cvg = self.converging_bubbles(down)
        R = np.zeros((self.n_bubbles(), len(cvg)), dtype=bool)
        R[cvg, np.arange(len(cvg))] = True
        order = np.argsort(-self.depths(), kind="stable")  # deepest first
        for b in order:
            if down[b]:  # False at the root
                R[self.parent[b]] |= R[b]
        for b in order[::-1]:
            if self.parent[b] != -1 and not down[b]:
                R[b] |= R[self.parent[b]]
        return R
