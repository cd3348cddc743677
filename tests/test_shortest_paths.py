"""APSP substrate vs a brute-force Floyd-Warshall oracle, and bit for bit
against a frozen per-source heap Dijkstra."""
import heapq

import numpy as np
import pytest

from repro.core.pmfg import pmfg
from repro.core.tmfg import tmfg
from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.graphs.shortest_paths import apsp


def floyd_warshall(n, edges, weights):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), w in zip(edges, weights):
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def build_adjacency(n, edges, weights):
    """Adjacency lists ``[(neighbour, weight), ...]`` of an undirected graph."""
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(edges, weights):
        u, v, w = int(u), int(v), float(w)
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def numpy_dijkstra(adj, src):
    """A former kernel, frozen: binary-heap Dijkstra with lazy deletion,
    distances in a numpy array. ``apsp`` must match it bit for bit."""
    dist = np.full(len(adj), np.inf)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = np.array(sorted(edges))
    weights = rng.random(len(edges)) + 0.01
    return edges, weights


class TestDijkstra:
    @pytest.mark.parametrize("n,m,seed", [(5, 6, 0), (10, 20, 1), (30, 60, 2),
                                          (50, 140, 3), (25, 24, 4)])
    def test_matches_floyd_warshall(self, n, m, seed):
        edges, weights = random_graph(n, m, seed)
        expected = floyd_warshall(n, edges, weights)
        got = apsp(n, edges, weights)
        assert np.allclose(got, expected, equal_nan=True)

    def test_disconnected_inf(self):
        edges = np.array([[0, 1], [2, 3]])
        weights = np.array([1.0, 2.0])
        d = apsp(4, edges, weights, sources=[0])[0]
        assert d[1] == 1.0 and np.isinf(d[2]) and np.isinf(d[3])

    def test_source_zero(self):
        edges, weights = random_graph(20, 40, 5)
        d = apsp(20, edges, weights, sources=range(5))
        assert np.all(d[range(5), range(5)] == 0.0)

    def test_symmetry_undirected(self):
        edges, weights = random_graph(25, 60, 6)
        d = apsp(25, edges, weights)
        assert np.allclose(d, d.T)

    def test_triangle_inequality(self):
        edges, weights = random_graph(20, 50, 7)
        d = apsp(20, edges, weights)
        for k in range(20):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)

    def test_selected_sources(self):
        """Any iterable of sources works; a generator is read once, not
        consumed by a length check that leaves the matrix uninitialised."""
        edges, weights = random_graph(15, 30, 8)
        full = apsp(15, edges, weights)
        # distinct picks per case, so no case can be handed a recycled
        # buffer that already holds the expected rows
        for picked, sources in (([0, 5, 14, 2], (s for s in [0, 5, 14, 2])),
                                ([3, 7, 11], [3, 7, 11]),
                                ([9, 1], np.array([9, 1]))):
            part = apsp(15, edges, weights, sources=sources)
            assert np.array_equal(part, full[picked])


class TestOnTMFG:
    @pytest.mark.parametrize("n,seed", [(20, 0), (50, 1)])
    def test_tmfg_apsp_finite(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.random((n, n))
        S = (S + S.T) / 2
        t = tmfg(S)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        w = D[t.edges[:, 0], t.edges[:, 1]]
        d = apsp(n, t.edges, w)
        assert np.all(np.isfinite(d)), "TMFG is connected"
        # direct edges are at most the graph distance, and the shortest
        # path can't exceed the direct edge weight
        for (u, v), wd in zip(t.edges[:20], w[:20]):
            assert d[u, v] <= wd + 1e-12


class TestBitIdentity:
    """The sweep kernel returns the same floats as the per-source heap
    Dijkstra it replaced, inf entries included."""

    @staticmethod
    def reference(n, edges, weights, sources=None):
        adj = build_adjacency(n, edges, weights)
        sources = range(n) if sources is None else sources
        return np.array([numpy_dijkstra(adj, s) for s in sources])

    @pytest.mark.parametrize("n,seed", [(60, 0), (200, 1)])
    def test_tie_heavy_tmfg(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.random((n, n))
        S = np.round((S + S.T) / 2, 1)
        np.fill_diagonal(S, 1.0)
        t = tmfg(S)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        w = D[t.edges[:, 0], t.edges[:, 1]]
        assert np.array_equal(apsp(n, t.edges, w),
                              self.reference(n, t.edges, w))

    def test_disconnected(self):
        edges, weights = random_graph(12, 14, 9)
        # two components: shift a copy of the graph by 12 vertices
        edges = np.vstack([edges, edges + 12])
        weights = np.concatenate([weights, weights[::-1]])
        got = apsp(24, edges, weights)
        assert np.isinf(got).any()
        assert np.array_equal(got, self.reference(24, edges, weights))

    def test_pmfg(self):
        """A maximal planar graph that is not a 3-tree: its peeling order
        is no insertion order, and the result must not depend on that."""
        rng = np.random.default_rng(2)
        S = rng.random((40, 40))
        S = (S + S.T) / 2
        np.fill_diagonal(S, 1.0)
        edges = pmfg(S)
        w = np.sqrt(2 * (1 - S[edges[:, 0], edges[:, 1]]))
        assert np.array_equal(apsp(40, edges, w),
                              self.reference(40, edges, w))

    def test_zero_weight_edges(self):
        """Duplicated series have correlation 1, so D is 0 on some edges."""
        rng = np.random.default_rng(3)
        X = latent_curve_dataset("dup", 60, 80, 4, noise=0.5, shared=0.3,
                                 seed=3).X
        rows = rng.choice(60, 20, replace=False)
        X[rows] = X[rng.integers(0, 60, 20)]
        S, D = correlation_matrices(X)
        t = tmfg(S)
        w = D[t.edges[:, 0], t.edges[:, 1]]
        assert (w == 0).any()
        assert np.array_equal(apsp(60, t.edges, w),
                              self.reference(60, t.edges, w))

    def test_scrambled_sources_with_repeat(self):
        rng = np.random.default_rng(4)
        S = rng.random((80, 80))
        S = (S + S.T) / 2
        t = tmfg(S)
        w = np.sqrt(2 * (1 - S[t.edges[:, 0], t.edges[:, 1]]))
        sources = list(rng.permutation(80)[:30]) + [11, 5, 11]
        assert np.array_equal(apsp(80, t.edges, w, sources=sources),
                              self.reference(80, t.edges, w, sources))

    def test_nonmetric_tmfg(self):
        """Uniform random weights ignore the TMFG's correlation structure,
        so shortest paths wind up and down the insertion order and the
        loop needs 15 sweeps instead of 3."""
        rng = np.random.default_rng(0)
        S = rng.random((300, 300))
        S = (S + S.T) / 2
        t = tmfg(S)
        w = rng.random(len(t.edges))
        assert np.array_equal(apsp(300, t.edges, w),
                              self.reference(300, t.edges, w))

    def test_scrambled_long_path(self):
        """A path with scrambled vertex ids, the order-adversarial case:
        sweeping in vertex-id order would need about n/2 sweeps."""
        n = 150
        rng = np.random.default_rng(5)
        ids = rng.permutation(n)
        edges = np.column_stack([ids[:-1], ids[1:]])
        w = rng.random(n - 1)
        assert np.array_equal(apsp(n, edges, w), self.reference(n, edges, w))


class TestSingleSources:
    """Each source alone gives its row of the full matrix. With the
    first-inserted vertex as the only source the first sweep changes
    nothing, and the loop must not stop there."""

    @staticmethod
    def check_each_source(n, edges, w):
        full = apsp(n, edges, w)
        for s in range(n):
            assert np.array_equal(apsp(n, edges, w, sources=[s])[0],
                                  full[s]), f"source {s}"

    def test_tmfg(self):
        rng = np.random.default_rng(7)
        S = rng.random((300, 300))
        S = (S + S.T) / 2
        t = tmfg(S)
        self.check_each_source(300, t.edges,
                               np.sqrt(2 * (1 - S[t.edges[:, 0],
                                                  t.edges[:, 1]])))

    def test_pmfg(self):
        rng = np.random.default_rng(8)
        S = rng.random((40, 40))
        S = (S + S.T) / 2
        np.fill_diagonal(S, 1.0)
        edges = pmfg(S)
        self.check_each_source(40, edges,
                               np.sqrt(2 * (1 - S[edges[:, 0], edges[:, 1]])))


class TestInputContract:
    """Inputs a shortest-path kernel cannot answer raise instead of
    returning wrong distances."""

    edges = np.array([[0, 1], [1, 2], [2, 3]])

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_bad_weight(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            apsp(4, self.edges, np.array([1.0, bad, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            apsp(4, self.edges, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_endpoint_out_of_range(self, bad):
        edges = np.array([[0, 1], [1, bad]])
        with pytest.raises(ValueError, match="endpoints"):
            apsp(4, edges, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_source_out_of_range(self, bad):
        with pytest.raises(ValueError, match="sources"):
            apsp(4, self.edges, np.ones(3), sources=[0, bad])
