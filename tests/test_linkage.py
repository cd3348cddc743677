"""NN-chain HAC vs the O(m^3) greedy oracle, linkage invariants, and the
set-max distance helper used by DBHT's upper levels."""
import numpy as np
import pytest

from repro.core.dendrogram import from_linkage
from repro.core.linkage import hac, pairwise_max_between


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
