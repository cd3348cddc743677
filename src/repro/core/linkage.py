"""Hierarchical agglomerative clustering via the nearest-neighbor chain.

Provides the COMP / AVG baselines of the paper (parallel C++ ParChain in
the original; here a deterministic O(n^2) numpy NN-chain — complete and
average linkage are both *reducible*, so NN-chain produces the correct
dendrogram) and the complete-linkage subroutine used by DBHT at all three
levels (Section V-D).

There are two NN-chains, and they share no code:

* ``hac`` links one matrix, in place, one row per step. It runs the
  COMP/AVG baselines and DBHT's group and inter-group levels.
* ``complete_linkage_batch`` links a stack of same-size matrices in lock
  step, one chain step of every unfinished matrix per numpy call. It is
  DBHT's parallel-for over subgroups (Algorithm 4, Lines 25-28): at
  Crop-lite prefix 1 that is 386 linkages, all on 2-4 items, where
  ``hac``'s per-call overhead is most of the work. Its fancy-indexed steps
  cost more than ``hac``'s row writes on one large matrix: a batch of one
  took 0.27 s against 0.06 s for ``hac`` at m=1294, and 0.065 s against
  0.007 s at m=334.

Both make the same comparisons in the same row orientation (row ``a`` of
the chain's top), so they return the same linkage bit for bit, also on a
``D`` that is not bit-symmetric. All ties break toward the smallest
cluster id so results are deterministic and the Spark and driver paths
agree exactly.

Between two merges the chain's pushes depend on its top alone, so a run
of more pushes than there are items has entered a cycle it never leaves
(only an asymmetric ``D`` can do that); both kernels raise ``ValueError``
there instead of looping forever.
"""
from __future__ import annotations

from typing import List

import numpy as np


def _cycling() -> ValueError:
    return ValueError("the nearest-neighbor chain cycles; D must be "
                      "symmetric")


def hac(D: np.ndarray, method: str = "complete") -> np.ndarray:
    """Agglomerate ``m`` items with pairwise distances ``D`` (symmetric).

    Returns a scipy-style linkage matrix ``Z`` of shape ``(m-1, 4)``:
    columns are (left id, right id, merge distance, number of items in the
    new cluster); leaves are ``0..m-1``, the merge in row ``r`` creates node
    ``m + r``. Rows are in merge (NN-chain) order; distances are monotone
    along every root path but not necessarily sorted across rows. Raises
    ``ValueError`` when the chain cycles, which an asymmetric ``D`` can
    make it do.
    """
    if method not in ("complete", "average"):
        raise ValueError(f"unknown linkage method: {method}")
    m = D.shape[0]
    if D.shape != (m, m):
        raise ValueError("D must be square")
    if m == 0:
        raise ValueError("need at least one item")
    if m == 1:
        return np.empty((0, 4))
    W = D.astype(np.float64, copy=True)
    np.fill_diagonal(W, np.inf)
    size = np.ones(m)
    # slot s holds cluster cluster_id[s]; inactive slots have cluster_id -1
    cluster_id = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    Z = np.empty((m - 1, 4))
    chain: List[int] = []  # slots
    pushes = 0  # since the last merge
    n_merges = 0
    next_id = m
    while n_merges < m - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        a = chain[-1]
        row = np.where(active, W[a], np.inf)
        row[a] = np.inf
        b = int(np.argmin(row))  # ties -> smallest slot
        if len(chain) >= 2 and row[chain[-2]] == row[b]:
            b = chain[-2]  # prefer closing the chain on ties (reciprocal NN)
        if len(chain) >= 2 and b == chain[-2]:
            # reciprocal nearest neighbors: merge slots a and b
            chain.pop()
            chain.pop()
            dist = W[a, b]
            ia, ib = cluster_id[a], cluster_id[b]
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            if method == "complete":
                new_row = np.maximum(W[a], W[b])
            else:
                new_row = (size[a] * W[a] + size[b] * W[b]) / (size[a] + size[b])
            keep = a if a < b else b
            drop = b if a < b else a
            W[keep] = new_row
            W[:, keep] = new_row
            W[keep, keep] = np.inf
            active[drop] = False
            W[drop] = np.inf
            W[:, drop] = np.inf
            size[keep] = size[a] + size[b]
            Z[n_merges] = (lo, hi, dist, size[keep])
            cluster_id[keep] = next_id
            next_id += 1
            n_merges += 1
            pushes = 0
        else:
            if pushes == m:
                raise _cycling()
            chain.append(b)
            pushes += 1
    return Z


def complete_linkage_batch(D: np.ndarray) -> np.ndarray:
    """``hac(D[i], "complete")`` for every matrix of the ``(B, m, m)``
    stack ``D``, as one ``(B, m-1, 4)`` array, bit for bit.

    Every unfinished matrix takes one NN-chain step per pass, with
    ``hac``'s comparisons and tie rules, and a matrix whose chain cycles
    raises ``ValueError`` as in ``hac``. Memory is that of ``D`` plus a
    chain of ``m * m`` slots per matrix: pushes between two merges number
    at most ``m``, so the chain never holds more than ``(m-1)^2 + 2``.
    """
    B, m = D.shape[0], D.shape[1]
    if D.shape != (B, m, m):
        raise ValueError("D must be a stack of square matrices")
    if m == 0:
        raise ValueError("need at least one item")
    Z = np.empty((B, m - 1, 4))
    if m == 1 or B == 0:
        return Z
    W = D.astype(np.float64, copy=True)
    diag = np.arange(m)
    W[:, diag, diag] = np.inf
    size = np.ones((B, m))
    cluster_id = np.tile(diag, (B, 1))
    active = np.ones((B, m), dtype=bool)
    chain = np.empty((B, m * m), dtype=np.int64)
    depth = np.zeros(B, dtype=np.int64)  # chain lengths
    pushes = np.zeros(B, dtype=np.int64)  # since each matrix's last merge
    n_merges = np.zeros(B, dtype=np.int64)
    live = np.arange(B)
    while live.size:
        empty = live[depth[live] == 0]
        chain[empty, 0] = active[empty].argmax(axis=1)
        depth[empty] = 1
        c = depth[live]
        r = np.arange(live.size)
        a = chain[live, c - 1]
        row = np.where(active[live], W[live, a], np.inf)
        row[r, a] = np.inf
        b = row.argmin(axis=1)  # ties -> smallest slot
        # below a one-slot chain, prev is the top itself and goes unused
        prev = chain[live, np.maximum(c - 2, 0)]
        two = c >= 2
        b = np.where(two & (row[r, prev] == row[r, b]), prev, b)
        merge = two & (b == prev)

        grow = ~merge
        P, bp = live[grow], b[grow]
        if (pushes[P] == m).any():
            raise _cycling()
        chain[P, depth[P]] = bp
        depth[P] += 1
        pushes[P] += 1

        M, a, b = live[merge], a[merge], b[merge]
        dist = W[M, a, b]
        ia, ib = cluster_id[M, a], cluster_id[M, b]
        new_row = np.maximum(W[M, a], W[M, b])
        keep, drop = np.minimum(a, b), np.maximum(a, b)
        W[M, keep] = new_row
        W[M, :, keep] = new_row
        W[M, keep, keep] = np.inf
        active[M, drop] = False
        W[M, drop] = np.inf
        W[M, :, drop] = np.inf
        size[M, keep] = size[M, a] + size[M, b]
        k = n_merges[M]
        Z[M, k, 0] = np.minimum(ia, ib)
        Z[M, k, 1] = np.maximum(ia, ib)
        Z[M, k, 2] = dist
        Z[M, k, 3] = size[M, keep]
        cluster_id[M, keep] = m + k
        n_merges[M] += 1
        depth[M] -= 2
        pushes[M] = 0
        live = live[n_merges[live] < m - 1]
    return Z


def pairwise_max_between(D: np.ndarray, groups: List[np.ndarray]) -> np.ndarray:
    """Matrix of complete-linkage (max) distances between vertex groups.

    Used by DBHT's inter-bubble and inter-group levels, where the distance
    between two sets is ``max l_D(u, v)`` over cross pairs.
    """
    # two O(k) reductions: R[i] = max over the rows of group i, then
    # M[i, j] = max of R[i] over the columns of group j; the upper triangle
    # is mirrored, as shortest-path sums need not be bit-symmetric
    R = np.stack([D[g].max(axis=0) for g in groups])
    M = np.triu(np.stack([R[:, g].max(axis=1) for g in groups], axis=1), 1)
    return M + M.T
