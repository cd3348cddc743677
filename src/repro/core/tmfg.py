"""Parallel-prefix TMFG construction (Algorithm 1) — the one TMFG engine.

Per round, the ``prefix`` best vertex-face pairs (by gain) are selected
from the GAINS table, conflicts are resolved by letting each vertex keep
only its best face, and all surviving pairs are inserted in the same
round. ``prefix=1`` reproduces the exact sequential TMFG of Massara et al.
The bubble tree (Algorithm 2) is built during construction.

GAINS lives on the driver, next to the topology, as per-face arrays
indexed by face id: the corners ``tri``, the best remaining vertex
``best_v``, its ``gain`` and the selection ``key`` (fewer than 3n faces
are ever created). Each round does only the work of Lines 9-16:

- a face whose best vertex is inserted goes *stale*: it leaves the
  selection (``key`` is ``-inf``) and keeps its last gain as a bound.
  Its gain for any vertex is a fixed float and only vertices leave, so
  its next best gain cannot exceed that bound, and a stale face whose
  bound is below the round's cut (the ``prefix``-th largest fresh gain)
  cannot be selected. Each round re-scores the new faces plus only the
  stale faces whose bound reaches the cut (every one when fewer than
  ``prefix`` faces are fresh); at Crop-lite prefix 1 that is 13,328 face
  rows instead of 33,290, with the same selections;
- the re-scoring is one blocked numpy pass over the *scored columns*, a
  copy of ``S`` restricted to the vertices not yet inserted (inserted
  columns are masked by a row of ``-inf`` added to each scored block, and
  dropped once fewer than half are live, so the copying totals O(n^2));
- the selection partitions the fresh gains around the ``prefix``-th
  largest and orders only the ``prefix`` faces at or above that cut, so
  no round sorts every live face.

Both pipelines build the TMFG here, on the driver: a Spark round costs
about 0.3 s of job latency while a whole driver TMFG takes about 0.11 s
on Crop-lite (n=1294) at prefix 1 on a 4-core x86-64 box (EXPERIMENTS.md,
TMFG placement, TMFG engine and Lazy re-scoring of stale faces). All ties
break toward smaller vertex/face ids.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.graphs.bubble_tree import BubbleTree

Triangle = Tuple[int, int, int]


@dataclass
class TMFGResult:
    """Output of TMFG construction.

    ``edges`` is the ``(3n-6, 2)`` edge list (u < v, lexicographically
    sorted); ``tree`` is the bubble tree built during construction;
    ``rounds`` counts while-loop iterations (the paper's rho);
    ``insertions`` records ``(vertex, triangle)`` in insertion order.
    """

    n: int
    prefix: int
    edges: np.ndarray
    tree: BubbleTree
    rounds: int
    seed_vertices: np.ndarray
    insertions: List[Tuple[int, Triangle]] = field(default_factory=list)

    def edge_weight_sum(self, S: np.ndarray) -> float:
        return float(S[self.edges[:, 0], self.edges[:, 1]].sum())


# Entries per block of the symmetry check and of the face scorer: bounds
# the temporaries when a round re-scores thousands of faces (late rounds,
# large prefixes).
_CHECK_BLOCK = 1 << 20
_SCORE_BLOCK = 1 << 17


def _check_similarity(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("S must be square")
    if n < 4:
        raise ValueError("TMFG needs at least 4 vertices")
    if not np.isfinite(S).all():
        raise ValueError("S must be finite")
    # np.allclose(S, S.T, atol=1e-8)'s test, one block of rows at a time,
    # so no n x n temporary is built. A block equal to its transpose passes
    # it (the entries are finite), so only a block that differs is tested.
    step = max(1, _CHECK_BLOCK // n)
    for lo in range(0, n, step):
        a, b = S[lo:lo + step], S[:, lo:lo + step].T
        if not (np.array_equal(a, b)
                or (np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)).all()):
            raise ValueError("S must be symmetric")
    return S


def _score(Sc: np.ndarray, faces: np.ndarray, cols: np.ndarray,
           mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Best remaining vertex per face row and its gain (ties: smallest id).

    ``Sc`` holds the columns ``cols`` (ascending vertex ids) of ``S``;
    ``mask`` is ``0.0`` at the remaining vertices' columns and ``-inf`` at
    the inserted ones'. The gain row is ``Sc[a] + Sc[b] + Sc[c]`` over the
    sorted corners, summed left to right, plus ``mask``: each gain is the
    same float as over all of ``S`` (``x + 0.0`` only turns ``-0.0`` into
    ``0.0``, which compares equal).
    """
    best = np.empty(len(faces), dtype=np.int64)
    gain = np.empty(len(faces))
    step = max(1, _SCORE_BLOCK // Sc.shape[1])
    for lo in range(0, len(faces), step):
        f = faces[lo:lo + step]
        g = Sc[f[:, 0]]
        g += Sc[f[:, 1]]
        g += Sc[f[:, 2]]
        g += mask
        b = g.argmax(axis=1)  # first occurrence of the max -> smallest id
        best[lo:lo + len(f)] = cols[b]
        gain[lo:lo + len(f)] = g[np.arange(len(f)), b]
    return best, gain


def select_batch(best_v: np.ndarray, key: np.ndarray,
                 prefix: int) -> List[Tuple[int, int]]:
    """Round selection (Lines 9-10) over the GAINS arrays, indexed by face
    id: pick the ``prefix`` live faces with the largest keys, then resolve
    vertex conflicts by keeping each vertex's highest-key face. ``key`` is
    a live face's gain and ``-inf`` at every face that is not live. Returns
    ``(vertex, face_id)`` pairs sorted by face id. Ties break toward
    smaller face ids everywhere.

    Live gains must be finite, as ``tmfg``'s are. Only the faces above the
    ``prefix``-th largest live key, and the smallest-id faces equal to it,
    are ordered by ``(-key, face id)``.
    """
    if prefix == 1 and key.size:
        f = int(key.argmax())  # first occurrence -> smallest face id
        return [] if key[f] == -np.inf else [(int(best_v[f]), f)]
    k = min(prefix, int(np.count_nonzero(key > -np.inf)))
    if k == 0:
        return []
    cut = np.partition(key, len(key) - k)[len(key) - k]
    above = np.flatnonzero(key > cut)
    at_cut = np.flatnonzero(key == cut)[:k - len(above)]
    top = np.concatenate((above, at_cut))
    top = top[np.lexsort((top, -key[top]))]
    _, first = np.unique(best_v[top], return_index=True)
    keep = np.sort(top[first])
    return list(zip(best_v[keep].tolist(), keep.tolist()))


def tmfg(S: np.ndarray, prefix: int = 1) -> TMFGResult:
    """Construct the TMFG of similarity matrix ``S`` (Algorithm 1)."""
    S = _check_similarity(S)
    if prefix < 1:
        raise ValueError("prefix must be >= 1")
    n = S.shape[0]
    # Lines 1-4: seed with the 4 vertices of largest row sum.
    seed = np.argsort(-S.sum(axis=1), kind="stable")[:4]
    v1, v2, v3, v4 = (int(x) for x in seed)
    edges: List[Tuple[int, int]] = [
        tuple(sorted(p))
        for p in ((v1, v2), (v1, v3), (v1, v4), (v2, v3), (v2, v4), (v3, v4))
    ]
    # GAINS: 4 seed faces plus 3 per insertion, 3n - 8 in all. ``gain``
    # is each face's last scored gain; ``key`` is that gain while the face
    # is fresh (alive, its best vertex still remaining) and -inf once it is
    # dead or stale.
    tri = np.empty((3 * n, 3), dtype=np.int64)
    tri[:4] = [sorted((v1, v2, v3)), sorted((v1, v2, v4)),
               sorted((v1, v3, v4)), sorted((v2, v3, v4))]
    best_v = np.zeros(3 * n, dtype=np.int64)
    gain = np.zeros(3 * n)
    key = np.full(3 * n, -np.inf)
    n_faces = 4
    # The fresh faces by best vertex, and the stale faces not re-scored yet.
    faces_of: List[List[int]] = [[] for _ in range(n)]
    stale = np.empty(0, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    remaining[seed] = False
    # The scored columns: a copy, so the caller's S is never written.
    cols = np.flatnonzero(remaining)
    Sc = S.take(cols, axis=1)  # C-ordered, unlike S[:, cols]
    mask = np.zeros(len(cols))
    # Lines 6-7: bubble tree seeded with the clique; face 0 is the outer face.
    tree = BubbleTree.initial(seed, [0, 1, 2, 3], outer_face=0)
    insertions: List[Tuple[int, Triangle]] = []
    rounds = 0
    new = np.arange(4)  # Line 5: the initial GAINS
    # Lines 8-17: insert remaining vertices in batches of up to ``prefix``.
    while remaining.any():
        # A stale face's gain can only have fallen since it was scored, so
        # it can enter the top ``prefix`` only if its old gain reaches the
        # prefix-th largest fresh gain (ties included: the face id decides
        # them). The cut leaves out the new faces, scored in the same pass:
        # a lower cut only re-scores more. ``key`` is -inf at every face but
        # the fresh ones (the unscored new faces included), so with fewer
        # than ``prefix`` fresh faces the cut is -inf and every stale face
        # is re-scored.
        live = key[:n_faces]
        kth = max(0, n_faces - prefix)
        cut = live.max() if prefix == 1 else np.partition(live, kth)[kth]
        hit = gain[stale] >= cut
        rows, stale = np.concatenate((new, stale[hit])), stale[~hit]
        b, g = _score(Sc, tri[rows], cols, mask)
        best_v[rows], gain[rows], key[rows] = b, g, g
        for fid, v in zip(rows.tolist(), b.tolist()):
            faces_of[v].append(fid)
        rounds += 1
        batch = select_batch(best_v[:n_faces], live, prefix)
        inserted = [v for v, _ in batch]
        remaining[inserted] = False
        mask[np.searchsorted(cols, inserted)] = -np.inf
        first_new = n_faces
        for v, fid in batch:  # face ids are distinct; order is deterministic
            vx, vy, vz = tri[fid].tolist()
            edges.extend((min(v, u), max(v, u)) for u in (vx, vy, vz))
            created = [n_faces, n_faces + 1, n_faces + 2]
            # paper's face order: {v,vx,vy}, {v,vy,vz}, {v,vx,vz}
            tri[n_faces:n_faces + 3] = [sorted((v, vx, vy)),
                                        sorted((v, vy, vz)),
                                        sorted((v, vx, vz))]
            n_faces += 3
            tree.insert(v, fid, (vx, vy, vz), created)
            insertions.append((v, (vx, vy, vz)))
        # The faces whose best vertex went in: one is dead, the others go
        # stale and keep their gain as the bound.
        went = [f for v, fid in batch for f in faces_of[v] if f != fid]
        key[[fid for _, fid in batch] + went] = -np.inf
        stale = np.concatenate((stale, np.array(went, dtype=np.int64)))
        new = np.arange(first_new, n_faces)
        if 2 * (n - 4 - len(insertions)) < len(cols):
            keep = np.flatnonzero(remaining[cols])
            cols, Sc, mask = cols[keep], Sc.take(keep, axis=1), mask[keep]
    edge_arr = np.array(sorted(set(edges)), dtype=np.int64)
    assert len(edge_arr) == 3 * n - 6, "TMFG must have exactly 3n-6 edges"
    return TMFGResult(n=n, prefix=prefix, edges=edge_arr, tree=tree,
                      rounds=rounds, seed_vertices=seed, insertions=insertions)
