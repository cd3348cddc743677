"""DBHT tests: assignment rules vs their definitions, hierarchy/height
structure (Section V-D), and end-to-end clustering sanity."""
import numpy as np
import pytest

from repro.core.dbht import assign_vertices, dbht, tmfg_apsp
from repro.core.metrics import ari
from repro.core.tmfg import tmfg
from repro.datasets import correlation_matrices, latent_curve_dataset


def make_case(n, seed, prefix=1):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    t = tmfg(S, prefix=prefix)
    return S, D, t


CASES = [(8, 0, 1), (15, 1, 1), (30, 2, 4), (60, 3, 8)]


def clustered_case(n, seed, prefix):
    """TMFG of 4 latent-curve clusters: it has several converging bubbles,
    so some vertices have more than one L-bar candidate (the random
    ``make_case`` inputs have one converging bubble)."""
    ds = latent_curve_dataset("clustered", n, 100, 4, noise=0.3, shared=0.2,
                              outlier_frac=0.0, seed=seed)
    S, D = correlation_matrices(ds.X)
    return S, D, tmfg(S, prefix=prefix)


LBAR_CASES = ([(make_case, *c) for c in CASES]
              + [(clustered_case, 80, 0, 1), (clustered_case, 80, 1, 5)])


class TestAssignments:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_groups_are_converging_bubbles(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        cvg = set(int(b) for b in a.converging)
        assert set(np.unique(a.group)) <= cvg
        assert np.all(a.group >= 0)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_bubble_contains_vertex(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        for v in range(n):
            assert v in t.tree.bubbles[a.bubble[v]]

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_chi_argmax_definition(self, n, seed, prefix):
        """Vertices inside converging bubbles must pick the converging
        bubble maximizing chi(v,b) = sum_{u in b} S[u,v]."""
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        cvg = [int(b) for b in a.converging]
        mem = t.tree.vertex_memberships(n)
        for v in range(n):
            in_cvg = [b for b in mem[v] if b in cvg]
            if not in_cvg:
                continue
            chis = {b: round(sum(S[u, v] for u in t.tree.bubbles[b] if u != v), 12)
                    for b in in_cvg}
            best = max(chis.values())
            assert chis[a.group[v]] == best

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_chi_prime_argmax_definition(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        mem = t.tree.vertex_memberships(n)
        for v in range(n):
            scores = {}
            for b in mem[v]:
                verts = t.tree.bubbles[b]
                den = sum(S[verts[i], verts[j]]
                          for i in range(4) for j in range(i + 1, 4))
                scores[b] = round(sum(S[u, v] for u in verts if u != v) / den, 12)
            assert scores[a.bubble[v]] == max(scores.values())

    @pytest.mark.parametrize("build,n,seed,prefix", LBAR_CASES,
                             ids=[f"{b.__name__}-{n}-{s}-{p}"
                                  for b, n, s, p in LBAR_CASES])
    def test_lbar_argmin_definition(self, build, n, seed, prefix):
        """Vertices in no converging bubble (none took them in the chi
        pass) get the candidate minimizing round(mean dist to V_b^0, 12),
        ties to the smaller bubble id. The candidates are the converging
        bubbles with non-empty V_b^0 that a bubble holding v reaches,
        else all of those with non-empty V_b^0."""
        S, D, t = build(n, seed, prefix)
        dist = tmfg_apsp(D, t)
        a = assign_vertices(S, t, dist)
        tree = t.tree
        cvg = [int(b) for b in a.converging]
        mem = tree.vertex_memberships(n)
        R = tree.reachable_converging()
        chi_pass = {v for b in cvg for v in tree.bubbles[b]}
        vb0 = {b: sorted(u for u in chi_pass if a.group[u] == b) for b in cvg}
        nonempty = [b for b in cvg if vb0[b]]
        contested = 0
        for v in set(range(n)) - chi_pass:
            reach = {cvg[k] for b in mem[v] for k in np.flatnonzero(R[b])}
            cand = sorted(reach & set(nonempty)) or nonempty
            lbar = {b: round(float(dist[vb0[b], v].mean()), 12) for b in cand}
            best = min(lbar.values())
            assert a.group[v] == min(b for b in cand if lbar[b] == best)
            contested += len(cand) > 1
        if build is clustered_case:
            assert contested > 0

    def test_length1_series_raise(self):
        """S = I makes every bubble's chi' denominator 0 (the S of
        length-1 series, which ``correlation_matrices`` rejects)."""
        S = np.eye(10)
        D = np.sqrt(2.0 * (1.0 - S))
        t = tmfg(S)
        with pytest.raises(ValueError, match="chi'"):
            assign_vertices(S, t, tmfg_apsp(D, t))

    def test_deterministic(self):
        S, D, t = make_case(40, 4, 5)
        dist = tmfg_apsp(D, t)
        a1 = assign_vertices(S, t, dist)
        a2 = assign_vertices(S, t, dist)
        assert np.array_equal(a1.group, a2.group)
        assert np.array_equal(a1.bubble, a2.bubble)


class TestHierarchy:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_valid_full_dendrogram(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        res.dendrogram.validate()
        assert res.dendrogram.n_leaves == n

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_group_heights_ladder(self, n, seed, prefix):
        """Within each group the internal node heights are exactly
        {1/(n_b-1), ..., 1/2, 1} (Section V-D, Aste height assignment)."""
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        dendro = res.dendrogram
        groups = np.unique(res.assignments.group)
        heights_in_unit = sorted(
            h for h in dendro.merges[:, 2] if h <= 1.0 + 1e-12
        )
        expected = sorted(
            1.0 / (nb - 1 - i)
            for g in groups
            for nb in [(res.assignments.group == g).sum()]
            for i in range(nb - 1)
        )
        assert np.allclose(heights_in_unit, expected)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_top_heights_are_converging_counts(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t)
        n_groups = len(np.unique(res.assignments.group))
        top = sorted(h for h in res.dendrogram.merges[:, 2] if h > 1.0 + 1e-12)
        assert len(top) == max(0, n_groups - 1)
        if top:
            assert top[-1] == n_groups  # root counts all groups
            assert all(float(h).is_integer() for h in top)

    def test_cut_at_group_count_recovers_groups(self):
        """Cutting just below the inter-group level yields the group
        partition itself."""
        S, D, t = make_case(50, 5, 4)
        res = dbht(S, D, t)
        n_groups = len(np.unique(res.assignments.group))
        if n_groups > 1:
            labels = res.dendrogram.cut_k(n_groups)
            assert ari(res.assignments.group, labels) == pytest.approx(1.0)


class TestEndToEnd:
    def test_recovers_clear_clusters(self):
        ds = latent_curve_dataset("easy", 80, 100, 4, noise=0.3, shared=0.2,
                                  outlier_frac=0.0, seed=0)
        S, D = correlation_matrices(ds.X)
        t = tmfg(S, prefix=1)
        res = dbht(S, D, t)
        labels = res.dendrogram.cut_k(4)
        assert ari(ds.y, labels) > 0.8

    @pytest.mark.parametrize("prefix", [1, 5, 20])
    def test_prefix_variants_all_valid(self, prefix):
        ds = latent_curve_dataset("med", 70, 80, 3, noise=0.8, seed=1)
        S, D = correlation_matrices(ds.X)
        res = dbht(S, D, tmfg(S, prefix=prefix))
        res.dendrogram.validate()
        labels = res.dendrogram.cut_k(3)
        assert len(np.unique(labels)) == 3

    def test_n4_minimal(self):
        S, D, t = make_case(4, 0)
        res = dbht(S, D, t)
        res.dendrogram.validate()
        assert res.dendrogram.cut_k(2).shape == (4,)
