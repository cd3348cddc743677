"""Bubble tree for TMFGs, built incrementally during construction.

The paper's key structural insight (Section V-A): every TMFG vertex
insertion creates exactly one bubble (the new 4-clique) and one bubble-tree
edge (whose separating triangle is the face inserted into). Inserting into
the *outer* face re-roots the tree. The resulting rooted tree satisfies the
invariant that all descendants of an edge lie in the interior of the edge's
separating triangle, which lets edge directions (Algorithm 3) be computed
in Theta(n) total work by a bottom-up accumulation instead of the original
per-triangle BFS (Theta(n^2)).

The navigation after the directions (out-degrees, converging bubbles and
the converging bubbles each bubble reaches, by one pass up and one down the
rooted tree) holds on any bubble tree; the PMFG baseline's
``repro.core.generic_dbht.PlanarBubbleTree`` inherits it and overrides
only the directions.
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
    """Rooted undirected bubble tree, maintained during TMFG construction.

    Node ``i`` corresponds to the 4-clique created by the ``i``-th
    insertion (node 0 is the initial 4-clique). ``sep_triangle[i]`` is the
    separating triangle on the tree edge between ``i`` and ``parent[i]``.
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

    def vertex_memberships(self, n_vertices: int) -> List[List[int]]:
        """For each graph vertex, the bubbles containing it (sorted)."""
        mem: List[List[int]] = [[] for _ in range(n_vertices)]
        for b, verts in enumerate(self.bubbles):
            for v in verts:
                mem[v].append(b)
        return mem

    # ------------------------------------------------------------ directions
    def compute_directions(self, S: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Algorithm 3: direct every tree edge in Theta(n) work.

        ``S`` is the similarity matrix, ``edges`` the TMFG edge list (used
        for weighted degrees). Returns ``down``: for each non-root bubble
        ``b``, ``down[b]`` is True iff the edge is directed ``parent[b] ->
        b`` (i.e. INVAL > OUTVAL for the separating triangle). The entry
        for the root is False and unused. Nothing is stored on the tree,
        so each ``S`` gets its own directions.
        """
        n_b = self.n_bubbles()
        # weighted degrees: each vertex adds its edges' weights in edge
        # order, from 0.0, as a loop over the edges would
        w = S[edges[:, 0], edges[:, 1]]
        deg = np.bincount(edges.ravel(), weights=np.repeat(w, 2),
                          minlength=S.shape[0])
        # r maps (bubble -> {corner: interior weight sum}); children first.
        order = np.argsort(-self.depths(), kind="stable")  # deepest first
        r: List[Dict[int, float]] = [{} for _ in range(n_b)]
        down = np.zeros(n_b, dtype=bool)
        for b in order:
            b = int(b)
            if self.parent[b] == -1:
                continue
            tri = self.sep_triangle[b]
            v_rem = next(x for x in self.bubbles[b] if x not in tri)
            rb = {c: float(S[c, v_rem]) for c in tri}
            for c_star in self.children[b]:
                for corner, val in r[c_star].items():
                    if corner in rb:
                        rb[corner] += val
            r[b] = rb
            inval = sum(rb.values())
            vx, vy, vz = tri
            outval = (
                deg[vx] + deg[vy] + deg[vz]
                - inval
                - 2.0 * (S[vx, vy] + S[vx, vz] + S[vy, vz])
            )
            down[b] = inval > outval
        # the root consumes nothing; its children's r values feed no one else
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
