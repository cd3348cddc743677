"""NN-chain HAC vs the O(m^3) greedy oracle, linkage invariants, the
batched complete-linkage kernel vs ``hac``, the cycling-chain guard, and
the set-max distance helper used by DBHT's upper levels."""
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.dendrogram import from_linkage
from repro.core.linkage import (complete_linkage_batch, hac,
                                 pairwise_max_between)
from repro.core.tmfg import tmfg
from repro.datasets import correlation_matrices, load_ucr_lite
from repro.graphs import shortest_paths

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def random_dist(m, seed):
    rng = np.random.default_rng(seed)
    D = rng.random((m, m))
    D = (D + D.T) / 2
    np.fill_diagonal(D, 0.0)
    return D


def greedy_hac_reference(D, method="complete"):
    """O(m^3) textbook greedy HAC; the oracle for ``hac``.

    Always merges the globally closest pair (ties toward the smallest
    ids), which for reducible linkages yields the same dendrogram as the
    NN-chain up to merge-row permutation.
    """
    m = D.shape[0]
    W = D.astype(np.float64, copy=True)
    np.fill_diagonal(W, np.inf)
    size = np.ones(m)
    cluster_id = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    Z = np.empty((m - 1, 4))
    next_id = m
    for r in range(m - 1):
        masked = np.where(np.outer(active, active), W, np.inf)
        flat = int(np.argmin(masked))
        a, b = divmod(flat, m)
        if a > b:
            a, b = b, a
        dist = W[a, b]
        ia, ib = sorted((cluster_id[a], cluster_id[b]))
        if method == "complete":
            new_row = np.maximum(W[a], W[b])
        else:
            new_row = (size[a] * W[a] + size[b] * W[b]) / (size[a] + size[b])
        W[a] = new_row
        W[:, a] = new_row
        W[a, a] = np.inf
        active[b] = False
        W[b] = np.inf
        W[:, b] = np.inf
        size[a] = size[a] + size[b]
        Z[r] = (ia, ib, dist, size[a])
        cluster_id[a] = next_id
        next_id += 1
    return Z


def cut_labels(Z, m, k):
    return from_linkage(Z, m).cut_k(k)


class TestAgainstGreedy:
    @pytest.mark.parametrize("m,seed", [(5, 0), (8, 1), (12, 2), (20, 3), (30, 4)])
    @pytest.mark.parametrize("method", ["complete", "average"])
    def test_cut_matches_greedy(self, m, seed, method):
        """NN-chain and greedy give the same flat clusters at every k
        (distances are generic random floats, so merges are unambiguous)."""
        D = random_dist(m, seed)
        Z1 = hac(D, method)
        Z2 = greedy_hac_reference(D, method)
        for k in range(1, m + 1):
            l1 = cut_labels(Z1, m, k)
            l2 = cut_labels(Z2, m, k)
            # same partition (labels may be permuted)
            p1 = {tuple(np.flatnonzero(l1 == c)) for c in np.unique(l1)}
            p2 = {tuple(np.flatnonzero(l2 == c)) for c in np.unique(l2)}
            assert p1 == p2, f"k={k}"

    @pytest.mark.parametrize("method", ["complete", "average"])
    def test_merge_distance_multiset_matches(self, method):
        D = random_dist(15, 7)
        d1 = np.sort(hac(D, method)[:, 2])
        d2 = np.sort(greedy_hac_reference(D, method)[:, 2])
        assert np.allclose(d1, d2)


class TestInvariants:
    @pytest.mark.parametrize("method", ["complete", "average"])
    def test_shape_and_sizes(self, method):
        m = 10
        Z = hac(random_dist(m, 5), method)
        assert Z.shape == (m - 1, 4)
        assert Z[-1, 3] == m  # final cluster holds everything
        assert np.all(Z[:, 3] >= 2)

    def test_monotone_along_paths(self):
        """Complete linkage is monotone: parent merge distance >= child's."""
        m = 25
        Z = hac(random_dist(m, 6), "complete")
        dendro = from_linkage(Z, m)
        dendro.validate()  # includes height monotonicity

    def test_two_items(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        Z = hac(D, "complete")
        assert Z.shape == (1, 4)
        assert Z[0, 2] == 3.0

    def test_single_item(self):
        assert hac(np.zeros((1, 1)), "complete").shape == (0, 4)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            hac(random_dist(4, 0), "ward")

    def test_complete_first_merge_is_min_pair(self):
        D = random_dist(12, 8)
        Z = hac(D, "complete")
        off = D[np.triu_indices(12, 1)]
        assert np.min(Z[:, 2]) == pytest.approx(off.min())

    def test_deterministic(self):
        D = random_dist(18, 9)
        assert np.array_equal(hac(D, "complete"), hac(D, "complete"))


class TestPairwiseMax:
    def test_small(self):
        D = np.arange(16, dtype=float).reshape(4, 4)
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0)
        groups = [np.array([0, 1]), np.array([2]), np.array([3])]
        M = pairwise_max_between(D, groups)
        assert M[0, 1] == max(D[0, 2], D[1, 2])
        assert M[0, 2] == max(D[0, 3], D[1, 3])
        assert M[1, 2] == D[2, 3]
        assert np.allclose(M, M.T)
        assert np.all(np.diag(M) == 0)

    def test_matches_complete_linkage_semantics(self):
        """Running complete linkage on pre-grouped items via the max matrix
        equals running it on all points restricted to inter-group merges."""
        D = random_dist(6, 11)
        groups = [np.array([0, 1, 2]), np.array([3, 4]), np.array([5])]
        M = pairwise_max_between(D, groups)
        Z = hac(M, "complete")
        # final merge distance must be the global max cross-group distance
        # of the last two clusters formed; sanity: <= overall max
        assert Z[:, 2].max() <= D.max() + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_pair_max(self, seed):
        """Random unsorted groups, singletons among them, on an asymmetric
        D: entry (i, j), i < j, is the max of D over rows of group i and
        columns of group j, mirrored below the diagonal."""
        rng = np.random.default_rng(seed)
        m = 40
        D = rng.random((m, m))
        np.fill_diagonal(D, 0.0)
        # the first three groups are singletons
        cuts = np.concatenate([[1, 2, 3], np.sort(
            rng.choice(np.arange(4, m), size=9, replace=False))])
        groups = np.split(rng.permutation(m), cuts)
        M = pairwise_max_between(D, groups)
        k = len(groups)
        ref = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                ref[i, j] = ref[j, i] = max(D[u, v] for u in groups[i]
                                            for v in groups[j])
        assert np.array_equal(M, ref)


def unguarded_hac(D, max_steps):
    """``hac(D, "complete")`` without the cycling-chain guard, stopped after
    ``max_steps`` chain steps: ``(Z, revisited)``, where ``Z`` is None if it
    had not finished and ``revisited`` says whether a slot already on the
    chain was pushed again."""
    m = D.shape[0]
    W = D.astype(np.float64, copy=True)
    np.fill_diagonal(W, np.inf)
    size = np.ones(m)
    cluster_id = np.arange(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)
    Z = np.empty((m - 1, 4))
    chain, n_merges, revisited = [], 0, False
    for _ in range(max_steps):
        if n_merges == m - 1:
            return Z, revisited
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        a = chain[-1]
        row = np.where(active, W[a], np.inf)
        row[a] = np.inf
        b = int(np.argmin(row))
        if len(chain) >= 2 and row[chain[-2]] == row[b]:
            b = chain[-2]
        if len(chain) >= 2 and b == chain[-2]:
            chain.pop()
            chain.pop()
            lo, hi = sorted((cluster_id[a], cluster_id[b]))
            dist = W[a, b]
            new_row = np.maximum(W[a], W[b])
            keep, drop = min(a, b), max(a, b)
            W[keep] = new_row
            W[:, keep] = new_row
            W[keep, keep] = np.inf
            active[drop] = False
            W[drop] = np.inf
            W[:, drop] = np.inf
            size[keep] = size[a] + size[b]
            Z[n_merges] = (lo, hi, dist, size[keep])
            cluster_id[keep] = m + n_merges
            n_merges += 1
        else:
            revisited |= b in chain
            chain.append(b)
    return (Z if n_merges == m - 1 else None), revisited


class TestCyclingChain:
    def test_asymmetric_cycle_raises(self):
        """On this asymmetric 5x5 ``D`` the chain cycles; both kernels
        raise instead of looping. Run in a subprocess with a timeout, so a
        kernel that loops fails the test rather than hanging it."""
        code = (
            "import numpy as np\n"
            "from repro.core.linkage import complete_linkage_batch, hac\n"
            "D = np.random.default_rng(2).random((5, 5))\n"
            "ok = np.zeros((5, 5))\n"
            "for f in (lambda: hac(D), lambda: hac(D, 'average'),\n"
            "          lambda: complete_linkage_batch(np.stack([ok, D]))):\n"
            "    try:\n"
            "        f()\n"
            "        print('returned')\n"
            "    except ValueError as e:\n"
            "        print('raised', 'cycles' in str(e))\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:3] == ["raised True"] * 3

    def test_raises_only_when_the_chain_never_ends(self):
        """Random asymmetric ``D`` (half rounded to one decimal): where the
        unguarded NN-chain finishes, ``hac`` and the batched kernel return
        its linkage, also when the chain pushed a slot it already held;
        where it runs on, both raise."""
        finished = revisits = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 9))
            D = rng.random((m, m))
            if seed % 2:
                D = np.round(D, 1)
            ref, revisited = unguarded_hac(D, 20 * m * m)
            if ref is None:
                with pytest.raises(ValueError, match="cycles"):
                    hac(D)
                with pytest.raises(ValueError, match="cycles"):
                    complete_linkage_batch(D[None])
                continue
            assert np.array_equal(hac(D), ref)
            assert np.array_equal(complete_linkage_batch(D[None])[0], ref)
            finished += 1
            revisits += revisited
        assert finished >= 100 and revisits >= 5


def apsp_blocks(sizes, seed):
    """For each size, a block of ECG5000-lite's TMFG shortest-path
    distances over that many random vertices, in ascending id order as
    DBHT reads them. ``apsp`` is not bit-symmetric, nor are the blocks."""
    ds = load_ucr_lite(6, seed=0)
    S, D = correlation_matrices(ds.X)
    t = tmfg(S, prefix=1)
    dist = shortest_paths.apsp(len(S), t.edges,
                               D[t.edges[:, 0], t.edges[:, 1]])
    rng = np.random.default_rng(seed)
    picks = [np.sort(rng.choice(len(S), size=m, replace=False)) for m in sizes]
    return [dist[np.ix_(v, v)] for v in picks]


class TestBatch:
    @pytest.mark.parametrize("kind", ["random", "ties", "apsp"])
    def test_matches_hac(self, kind):
        """Stacks of 1 to 7 matrices of each size 1..15 (random symmetric,
        rounded to one decimal so that merges tie, or ulp-asymmetric
        ``apsp`` blocks) link to ``hac``'s linkages, bit for bit."""
        rng = np.random.default_rng(["random", "ties", "apsp"].index(kind))
        sizes = [m for m in range(1, 16) for _ in range(rng.integers(1, 8))]
        if kind == "apsp":
            mats = apsp_blocks(sizes, 3)
            assert any(not np.array_equal(M, M.T) for M in mats)
        else:
            mats = [random_dist(m, int(rng.integers(1 << 30))) for m in sizes]
            if kind == "ties":
                mats = [np.round(M, 1) for M in mats]
        for m in range(1, 16):
            stack = np.stack([M for M in mats if len(M) == m])
            Z = complete_linkage_batch(stack)
            assert Z.shape == (len(stack), m - 1, 4)
            for M, z in zip(stack, Z):
                assert np.array_equal(z, hac(M, "complete"))

    def test_empty_and_invalid(self):
        assert complete_linkage_batch(np.zeros((0, 3, 3))).shape == (0, 2, 4)
        assert complete_linkage_batch(np.zeros((2, 1, 1))).shape == (2, 0, 4)
        with pytest.raises(ValueError):
            complete_linkage_batch(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            complete_linkage_batch(np.zeros((2, 0, 0)))
