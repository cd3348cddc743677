"""DBHT tests: assignment rules vs their definitions, hierarchy/height
structure (Section V-D), and end-to-end clustering sanity."""
import numpy as np
import pytest

from repro.core.dbht import (Assignments, assign_vertices, build_hierarchy,
                             dbht, tmfg_apsp)
from repro.core.dendrogram import Dendrogram
from repro.core.generic_dbht import dbht_on_planar_graph, planar_bubble_tree
from repro.core.linkage import hac, pairwise_max_between
from repro.core.metrics import ari
from repro.core.pmfg import pmfg
from repro.core.tmfg import tmfg
from repro.datasets import (correlation_matrices, latent_curve_dataset,
                            load_ucr_lite)
from repro.graphs import shortest_paths
from repro.graphs.bubble_tree import BubbleTree


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S, np.sqrt(2 * (1 - np.clip(S, -1, 1)))


def make_case(n, seed, prefix=1):
    S, D = rand_sim(n, seed)
    return S, D, tmfg(S, prefix=prefix)


def tmfg_dist(D, t):
    """Shortest-path distances over the TMFG ``t`` under the weights ``D``."""
    return tmfg_apsp(t.n, t.edges, D[t.edges[:, 0], t.edges[:, 1]])


class DirectedTree(BubbleTree):
    """A hand-built bubble tree whose edge directions are given, not
    computed from ``S``: ``down[b]`` means the edge ``parent[b] -> b``."""

    def __init__(self, down, **fields):
        super().__init__(**fields)
        self.given = np.asarray(down)

    def compute_directions(self, S, edges):
        return self.given


def memberships(tree, n):
    """For each of the ``n`` vertices, the bubbles of ``tree`` holding it
    (ascending)."""
    mem = [[] for _ in range(n)]
    for b, verts in enumerate(tree.bubbles):
        for v in verts:
            mem[v].append(b)
    return mem


CASES = [(8, 0, 1), (15, 1, 1), (30, 2, 4), (60, 3, 8)]


def sym(n, diag, off, entries):
    """Symmetric (n, n) matrix: ``diag`` on the diagonal, ``entries``
    ({(i, j): value}) at both orientations, ``off`` elsewhere."""
    M = np.full((n, n), off)
    np.fill_diagonal(M, diag)
    for (i, j), w in entries.items():
        M[i, j] = M[j, i] = w
    return M


def tie_case(name):
    """``assign_vertices`` inputs on a 7-vertex TMFG-shaped tree. Root
    bubble 0 = (0,1,2,3) points down to the converging bubbles
    1 = (0,1,2,4) and 2 = (0,1,3,5); bubble 3 = (0,2,3,6) points up to
    it, so vertex 6 is left to L-bar with candidates 1 and 2. Vertex 0's
    chi in bubbles 1 and 2, its chi' in bubbles 1 and 2, and vertex 6's
    L-bar to groups 1 and 2 are:

    * ``ties``: equal (all similarities 0.5, all distances 1);
    * ``rounding``: equal up to summation order, so they tie only after
      rounding to 12 decimals: chi sums 0.2+0.3+0.1 = 0.6 in bubble 1 and
      0.2+0.1+0.3 = 0.6000000000000001 in bubble 2, chi' is 0.5 against
      0.5000000000000001, and L-bar averages 0.2, 0.1, 0.3 over
      V^0 = {0,2,4} and 0.2, 0.3, 0.1 over {1,3,5}. Unrounded, each
      decision would go to the other bubble;
    * ``near-ties``: ``ties`` with S[0,5] raised by 6e-9 and dist[5,6]
      lowered by 3e-9, so bubble 2 wins each by about 1e-9, which a
      coarser rounding would call a tie.
    """
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6)],
        parent=[-1, 0, 0, 0], children=[[1, 2, 3], [], [], []],
        sep_triangle=[None, (0, 1, 2), (0, 1, 3), (0, 2, 3)], root=0,
        down=np.array([False, True, True, False]))
    if name == "rounding":
        S = sym(7, 1.0, 0.0, {
            (0, 1): 0.2, (0, 2): 0.3, (0, 4): 0.1, (0, 3): 0.1, (0, 5): 0.3,
            (1, 2): 0.1, (1, 4): 0.1, (2, 4): 0.4,
            (1, 3): 0.2, (1, 5): 0.2, (3, 5): 0.2,
            (0, 6): 0.1, (2, 3): 0.9, (2, 6): 0.5, (3, 6): 0.5})
        dist = sym(7, 0.0, 1.0, {(0, 6): 0.2, (2, 6): 0.1, (4, 6): 0.3,
                                 (1, 6): 0.2, (3, 6): 0.3, (5, 6): 0.1})
    else:
        gap = 1e-9 if name == "near-ties" else 0.0
        S = sym(7, 1.0, 0.5, {(0, 5): 0.5 + 6 * gap})
        dist = sym(7, 0.0, 1.0, {(5, 6): 1.0 - 3 * gap})
    return S, tree, np.empty((0, 2), dtype=np.int64), dist


def fallback_case():
    """``assign_vertices`` inputs on a 9-vertex TMFG-shaped tree whose
    converging root bubble 0 = (0,1,2,3) gets no vertex in the chi pass:
    vertices 0, 1 go to bubble 4 = (0,1,4,7) and 2, 3 to bubble
    5 = (2,3,5,8), where their similarities are 0.9 rather than 0.5.
    Vertex 6, only in bubble 3 = (1,2,3,6), reaches just the root, so its
    L-bar candidates fall back to bubbles 4 and 5; it is nearer to 5."""
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3, 5), (1, 2, 3, 6),
                 (0, 1, 4, 7), (2, 3, 5, 8)],
        parent=[-1, 0, 0, 0, 1, 2], children=[[1, 2, 3], [4], [5], [], [], []],
        sep_triangle=[None, (0, 1, 2), (0, 2, 3), (1, 2, 3), (0, 1, 4),
                      (2, 3, 5)], root=0,
        down=np.array([False, False, False, False, True, True]))
    S = sym(9, 1.0, 0.5, {e: 0.9 for e in [(0, 4), (0, 7), (1, 4), (1, 7),
                                           (2, 5), (2, 8), (3, 5), (3, 8)]})
    dist = sym(9, 0.0, 2.0, {(u, 6): 1.0 for u in (2, 3, 5, 8)})
    return S, tree, np.empty((0, 2), dtype=np.int64), dist


def any_bubble_case():
    """``assign_vertices`` inputs on a 9-vertex TMFG-shaped tree where
    vertex 3, in no converging bubble, lies in bubbles that reach different
    converging bubbles. Root 0 = (0,1,2,3) points down to the converging
    bubble 1 = (0,1,2,4); bubble 2 = (0,1,3,5) points up to the root and
    down to the converging bubble 3 = (0,1,5,6); bubble 4 = (0,2,4,7),
    below bubble 1, points up to it and down to the converging bubble
    5 = (2,4,7,8). Vertex 3 is in bubbles 0 and 2, which reach {1} and
    {1, 3}: its L-bar candidates are those reached from any of its
    bubbles, {1, 3}, and it goes to 3 (mean distance 1.5 against 2.0). The
    bubbles reached from every one of its bubbles, or from its first,
    give {1}; all converging bubbles would give 5 (mean distance 1.0)."""
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 5, 6),
                 (0, 2, 4, 7), (2, 4, 7, 8)],
        parent=[-1, 0, 0, 2, 1, 4], children=[[1, 2], [4], [3], [], [5], []],
        sep_triangle=[None, (0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 2, 4),
                      (2, 4, 7)], root=0,
        down=np.array([False, True, False, True, False, True]))
    S = sym(9, 1.0, 0.5, {})
    dist = sym(9, 0.0, 2.0, {(3, 5): 1.5, (3, 6): 1.5,
                             (3, 7): 1.0, (3, 8): 1.0})
    return S, tree, np.empty((0, 2), dtype=np.int64), dist


def frozen_v0_case():
    """``assign_vertices`` inputs on ``tie_case``'s tree with bubble
    4 = (0,2,6,7) below bubble 3, pointing up to it, so vertices 6 and 7
    both go to L-bar with candidates 1 and 2, V^0 = {0,1,2,4} and {3,5}.
    Vertex 6 goes to 2 (mean distance 1.0 against 2.0). Vertex 7 is at 0.8
    from {3,5} and 1.0 from {0,1,2,4}, so it goes to 2 too; had V^0_2 taken
    in vertex 6 (distance 2.0 from 7), its mean would be 1.2 and 7 would go
    to 1."""
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6),
                 (0, 2, 6, 7)],
        parent=[-1, 0, 0, 0, 3], children=[[1, 2, 3], [], [], [4], []],
        sep_triangle=[None, (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 2, 6)],
        root=0, down=np.array([False, True, True, False, False]))
    S = sym(8, 1.0, 0.5, {})
    dist = sym(8, 0.0, 2.0, {(3, 6): 1.0, (5, 6): 1.0,
                             (0, 7): 1.0, (1, 7): 1.0, (2, 7): 1.0,
                             (4, 7): 1.0, (3, 7): 0.8, (5, 7): 0.8})
    return S, tree, np.empty((0, 2), dtype=np.int64), dist


def round_half_case():
    """``assign_vertices`` inputs where the 12-decimal rounding method
    decides a chi' argmax. Root bubble 0 = (0,1,2,3) points down to the
    converging bubble 1 = (0,1,2,4); both chi' denominators add up to
    exactly 2.0, and vertex 0's chi' is x = 0.5918468900725 in bubble 0
    and y = 0.591846890073 in bubble 1. The definition rounds the numpy
    float64 score, which ``round`` does as ``np.round``: x goes to
    0.591846890072 and bubble 1 wins. ``round`` on the Python float x
    gives 0.591846890073, a tie that bubble 0 would win."""
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3), (0, 1, 2, 4)], parent=[-1, 0],
        children=[[1], []], sep_triangle=[None, (0, 1, 2)], root=0,
        down=np.array([False, True]))
    x, y = 0.5918468900725, 0.591846890073
    # left to right, 0.25 + 0.25 + (2x - 0.5) is 2x and the denominator
    # 2x + 0.25 + 0.25 + (1.5 - 2x) is 2.0, all exactly
    S = sym(5, 1.0, 0.5, {
        (0, 1): 0.25, (0, 2): 0.25, (1, 2): 0.25, (1, 3): 0.25, (1, 4): 0.25,
        (0, 3): 2 * x - 0.5, (2, 3): 1.5 - 2 * x,
        (0, 4): 2 * y - 0.5, (2, 4): 1.5 - 2 * y})
    return S, tree, np.empty((0, 2), dtype=np.int64), sym(5, 0.0, 1.0, {})


# distances from V_b^0 = {5, ..., 13} in ``pairwise_mean_case``
PAIRWISE_DISTS = (2.9, 1.6, 3.1, 3.3, 1.2, 2.1, 2.0, 2.7, 7.732436895940502)


def pairwise_mean_case():
    """``assign_vertices`` inputs where the summation order of an L-bar
    mean over a V_b^0 of 9 vertices decides. Root bubble 0 = (0,1,2,3,4)
    points down to the converging bubbles 1 = (0,1,2,5,...,13) and
    2 = (0,1,2,14). Vertices 0, 1 and 2 go to bubble 2 by chi (1.5/6
    against 5.5/30), so V^0 is {5, ..., 13} and {0, 1, 2, 14}, and
    vertices 3 and 4 go to L-bar with candidates 1 and 2. Their distances
    from 5, ..., 13 are ``PAIRWISE_DISTS``: numpy's pairwise sum, as in
    ``dist[V^0, v].mean()``, gives 2.9591596551045, which Python's
    ``round`` takes to 2.959159655105. A left-to-right sum (a mean over
    axis 0 of both vertices' columns) and ``np.round`` each give
    2.959159655104 instead. Their distance from all of bubble 2's V^0 is
    2.959159655104, so both go to bubble 2; either of those changes makes
    a tie that bubble 1 wins."""
    tree = DirectedTree(
        bubbles=[(0, 1, 2, 3, 4), (0, 1, 2, *range(5, 14)), (0, 1, 2, 14)],
        parent=[-1, 0, 0], children=[[1, 2], [], []],
        sep_triangle=[None, (0, 1, 2), (0, 1, 2)], root=0,
        down=np.array([False, True, True]))
    far = {(u, v): 2.959159655104 for u in (0, 1, 2, 14) for v in (3, 4)}
    near = {(u, v): w for u, w in zip(range(5, 14), PAIRWISE_DISTS)
            for v in (3, 4)}
    dist = sym(15, 0.0, 5.0, {**far, **near})
    return sym(15, 1.0, 0.5, {}), tree, np.empty((0, 2), dtype=np.int64), dist


# hand-built cases whose decisions are exact ties, ties only after the
# 12-decimal rounding, gaps of 1e-9 that the rounding must keep, an L-bar
# candidate set that falls back past an empty V_b^0, one drawn from any
# (not every) bubble of the vertex, two L-bar vertices over a V_b^0 that
# the first one's assignment must not change, a chi' that numpy's and
# Python's 12-decimal roundings decide apart, or an L-bar mean whose
# summation order decides
HAND_CASES = ("ties", "rounding", "near-ties", "fallback", "any-bubble",
              "frozen-v0", "round-half", "pairwise-mean")
# the groups the L-bar rule gives and the bubbles the chi' rule gives in
# some of them (docstrings above)
LBAR_GROUPS = {"any-bubble": {3: 3}, "frozen-v0": {6: 2, 7: 2},
               "pairwise-mean": {3: 2, 4: 2}}
CHI_PRIME_BUBBLES = {"round-half": {0: 1}}


def hand_case(name):
    built = {"fallback": fallback_case, "any-bubble": any_bubble_case,
             "frozen-v0": frozen_v0_case, "round-half": round_half_case,
             "pairwise-mean": pairwise_mean_case}
    return built[name]() if name in built else tie_case(name)


def tree_case(graph, n, seed, prefix):
    """``assign_vertices`` inputs on the TMFG of a random ``S``, on the
    bubble tree detected in its PMFG (bubbles of more than 4 vertices), or
    on a hand-built tree (``HAND_CASES``)."""
    if graph in HAND_CASES:
        return hand_case(graph)
    S, D = rand_sim(n, seed)
    if graph == "tmfg":
        t = tmfg(S, prefix=prefix)
        tree, edges = t.tree, t.edges
    else:
        edges = pmfg(S)
        tree = planar_bubble_tree(n, edges)
        assert max(len(b) for b in tree.bubbles) > 4
    dist = shortest_paths.apsp(n, edges, D[edges[:, 0], edges[:, 1]])
    return S, tree, edges, dist


# the PMFG inputs are those of test_generic_dbht.py::TestPMFGDBHT
TREE_CASES = ([("tmfg", *c) for c in CASES]
              + [("pmfg", 15, 0, None), ("pmfg", 30, 1, None)]
              + [(h, None, None, None) for h in HAND_CASES])
TREE_IDS = ([f"{n}-{s}-{p}" for n, s, p in CASES]
            + ["pmfg-15-0", "pmfg-30-1"] + list(HAND_CASES))


def clustered_case(n, seed, prefix):
    """TMFG of 4 latent-curve clusters: it has several converging bubbles,
    so some vertices have more than one L-bar candidate (the random
    ``make_case`` inputs have one converging bubble)."""
    ds = latent_curve_dataset("clustered", n, 100, 4, noise=0.3, shared=0.2,
                              outlier_frac=0.0, seed=seed)
    S, D = correlation_matrices(ds.X)
    return S, D, tmfg(S, prefix=prefix)


LBAR_CASES = ([(make_case, *c) for c in CASES]
              + [(clustered_case, 80, 0, 1), (clustered_case, 80, 1, 5)]
              + [(h, None, None, None) for h in HAND_CASES])


def lbar_case(build, n, seed, prefix):
    """``assign_vertices`` inputs of one ``LBAR_CASES`` entry."""
    if build in HAND_CASES:
        return hand_case(build)
    S, D, t = build(n, seed, prefix)
    return S, t.tree, t.edges, tmfg_dist(D, t)


class TestAssignments:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_groups_are_converging_bubbles(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_dist(D, t)
        a = assign_vertices(S, t.tree, t.edges, dist)
        cvg = set(int(b) for b in a.converging)
        assert set(np.unique(a.group)) <= cvg
        assert np.all(a.group >= 0)

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_bubble_contains_vertex(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        dist = tmfg_dist(D, t)
        a = assign_vertices(S, t.tree, t.edges, dist)
        for v in range(n):
            assert v in t.tree.bubbles[a.bubble[v]]

    @pytest.mark.parametrize("graph,n,seed,prefix", TREE_CASES, ids=TREE_IDS)
    def test_chi_argmax_definition(self, graph, n, seed, prefix):
        """Vertices inside converging bubbles must pick the converging
        bubble maximizing chi(v,b) = sum_{u in b} S[u,v] / (3(|b|-2)),
        rounded to 12 decimals, ties to the smaller bubble id."""
        S, tree, edges, dist = tree_case(graph, n, seed, prefix)
        a = assign_vertices(S, tree, edges, dist)
        cvg = [int(b) for b in a.converging]
        n = len(S)
        mem = memberships(tree, n)
        tied = 0
        for v in range(n):
            in_cvg = [b for b in mem[v] if b in cvg]
            if not in_cvg:
                continue
            chis = {}
            for b in in_cvg:
                verts = tree.bubbles[b]
                chis[b] = round(sum(S[u, v] for u in verts if u != v)
                                / (3 * (len(verts) - 2)), 12)
            best = max(chis.values())
            assert a.group[v] == min(b for b in chis if chis[b] == best)
            tied += list(chis.values()).count(best) > 1
        if graph in ("ties", "rounding"):
            assert tied > 0

    def test_chi_normalized_by_edge_count(self):
        """Vertices 0 and 1 lie in converging bubbles of 5 and 4 vertices.
        At equal similarities 0.5, vertex 0's raw sum favours the larger
        bubble (2.0 > 1.5), chi's division by 3(|b|-2) the smaller
        (2/9 < 1.5/6). With 0.375 to vertices 3 and 6, vertex 1 keeps the
        larger (2/9 > 1.25/6), which a division by the pair count
        (2/10 < 1.25/6) or a sum that counts S[1,1] (3/9 < 2.25/6) would
        flip."""
        S = sym(7, 1.0, 0.5, {(1, 3): 0.375, (1, 6): 0.375})
        tree = DirectedTree(
            bubbles=[(0, 1, 2, 3), (0, 1, 2, 4, 5), (0, 1, 3, 6)],
            parent=[-1, 0, 0], children=[[1, 2], [], []],
            sep_triangle=[None, (0, 1, 2), (0, 1, 3)], root=0,
            down=np.array([False, True, True]))
        a = assign_vertices(S, tree, np.empty((0, 2), dtype=np.int64),
                            np.zeros((7, 7)))
        assert a.converging.tolist() == [1, 2]
        assert a.group.tolist() == [2, 1, 1, 2, 1, 1, 2]

    @pytest.mark.parametrize("graph,n,seed,prefix", TREE_CASES, ids=TREE_IDS)
    def test_chi_prime_argmax_definition(self, graph, n, seed, prefix):
        """Every vertex picks the bubble maximizing chi'(v,b) =
        sum_{u in b} S[u,v] / sum_{u' < v' in b} S[u',v'], rounded to 12
        decimals, ties to the smaller bubble id."""
        S, tree, edges, dist = tree_case(graph, n, seed, prefix)
        a = assign_vertices(S, tree, edges, dist)
        n = len(S)
        mem = memberships(tree, n)
        tied = 0
        for v in range(n):
            scores = {}
            for b in mem[v]:
                verts = tree.bubbles[b]
                k = len(verts)
                den = sum(S[verts[i], verts[j]]
                          for i in range(k) for j in range(i + 1, k))
                scores[b] = round(sum(S[u, v] for u in verts if u != v) / den, 12)
            best = max(scores.values())
            assert a.bubble[v] == min(b for b in scores if scores[b] == best)
            tied += list(scores.values()).count(best) > 1
        if graph in ("ties", "rounding"):
            assert tied > 0
        for v, b in CHI_PRIME_BUBBLES.get(graph, {}).items():
            assert a.bubble[v] == b

    @pytest.mark.parametrize("build,n,seed,prefix", LBAR_CASES,
                             ids=[b if b in HAND_CASES
                                  else f"{b.__name__}-{n}-{s}-{p}"
                                  for b, n, s, p in LBAR_CASES])
    def test_lbar_argmin_definition(self, build, n, seed, prefix):
        """Vertices in no converging bubble (none took them in the chi
        pass) get the candidate minimizing round(mean dist to V_b^0, 12),
        ties to the smaller bubble id. The candidates are the converging
        bubbles with non-empty V_b^0 that any bubble holding v reaches,
        else all of those with non-empty V_b^0. V_b^0 holds the chi pass's
        vertices only, whatever L-bar assigns before v."""
        S, tree, edges, dist = lbar_case(build, n, seed, prefix)
        a = assign_vertices(S, tree, edges, dist)
        n = len(S)
        cvg = [int(b) for b in a.converging]
        mem = memberships(tree, n)
        R = tree.reachable_converging(tree.compute_directions(S, edges))
        chi_pass = {v for b in cvg for v in tree.bubbles[b]}
        vb0 = {b: sorted(u for u in chi_pass if a.group[u] == b) for b in cvg}
        nonempty = [b for b in cvg if vb0[b]]
        contested = tied = fell_back = 0
        for v in set(range(n)) - chi_pass:
            reach = {cvg[k] for b in mem[v] for k in np.flatnonzero(R[b])}
            cand = sorted(reach & set(nonempty)) or nonempty
            fell_back += not reach & set(nonempty)
            lbar = {b: round(float(dist[vb0[b], v].mean()), 12) for b in cand}
            best = min(lbar.values())
            assert a.group[v] == min(b for b in cand if lbar[b] == best)
            contested += len(cand) > 1
            tied += list(lbar.values()).count(best) > 1
        if build is clustered_case:
            assert contested > 0
        if build in ("ties", "rounding"):
            assert tied > 0
        if build == "fallback":
            assert fell_back > 0
        for v, g in LBAR_GROUPS.get(build, {}).items():
            assert v not in chi_pass and a.group[v] == g

    def test_length1_series_raise(self):
        """S = I makes every bubble's chi' denominator 0 (the S of
        length-1 series, which ``correlation_matrices`` rejects)."""
        S = np.eye(10)
        D = np.sqrt(2.0 * (1.0 - S))
        t = tmfg(S)
        with pytest.raises(ValueError, match="chi'"):
            assign_vertices(S, t.tree, t.edges, tmfg_dist(D, t))

    def test_directions_follow_each_S(self):
        """A tree is directed anew for every ``S``: assigning on
        ECG5000-lite's TMFG tree with ``S`` and then with the ``S2`` of
        noisier series gives what a fresh copy of the tree gives for
        ``S2``. Directions kept from ``S`` give 7 converging bubbles
        instead of 9 and move 140 of the 334 groups."""
        ds = load_ucr_lite(6, seed=0)
        S, D = correlation_matrices(ds.X)
        noise = np.random.default_rng(0).standard_normal(ds.X.shape)
        S2, D2 = correlation_matrices(ds.X + 1.5 * noise)
        t = tmfg(S, prefix=1)
        dist2 = tmfg_dist(D2, t)
        assign_vertices(S, t.tree, t.edges, tmfg_dist(D, t))
        again = assign_vertices(S2, t.tree, t.edges, dist2)
        fresh = assign_vertices(S2, tmfg(S, prefix=1).tree, t.edges, dist2)
        assert np.array_equal(again.converging, fresh.converging)
        assert np.array_equal(again.group, fresh.group)
        assert np.array_equal(again.bubble, fresh.bubble)

    def test_deterministic(self):
        S, D, t = make_case(40, 4, 5)
        dist = tmfg_dist(D, t)
        a1 = assign_vertices(S, t.tree, t.edges, dist)
        a2 = assign_vertices(S, t.tree, t.edges, dist)
        assert np.array_equal(a1.group, a2.group)
        assert np.array_equal(a1.bubble, a2.bubble)


class TestHierarchy:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_valid_full_dendrogram(self, n, seed, prefix):
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t.tree, t.edges)
        res.dendrogram.validate()
        assert res.dendrogram.n_leaves == n

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_group_heights_ladder(self, n, seed, prefix):
        """Within each group the internal node heights are exactly
        {1/(n_b-1), ..., 1/2, 1} (Section V-D, Aste height assignment)."""
        S, D, t = make_case(n, seed, prefix)
        res = dbht(S, D, t.tree, t.edges)
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
        res = dbht(S, D, t.tree, t.edges)
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
        res = dbht(S, D, t.tree, t.edges)
        n_groups = len(np.unique(res.assignments.group))
        if n_groups > 1:
            labels = res.dendrogram.cut_k(n_groups)
            assert ari(res.assignments.group, labels) == pytest.approx(1.0)


    @pytest.mark.parametrize("case", ["crop-lite", "ecg5000-lite",
                                      "pmfg-30-1"])
    def test_transposed_dist(self, case):
        """``apsp`` is not bit-symmetric, and DBHT reads one orientation of
        each pair: L-bar the rows of the V_b^0 sources, the linkages their
        blocks as given. On these inputs (Crop-lite and ECG5000-lite at
        seed 0, prefix 1, and a PMFG tree) the groups, bubbles and merges
        are the same on ``dist`` and on its transpose."""
        if case == "pmfg-30-1":
            S, tree, edges, dist = tree_case("pmfg", 30, 1, None)
        else:
            ds = load_ucr_lite(17 if case == "crop-lite" else 6, seed=0)
            S, D = correlation_matrices(ds.X)
            t = tmfg(S, prefix=1)
            tree, edges, dist = t.tree, t.edges, tmfg_dist(D, t)
        dist_t = np.ascontiguousarray(dist.T)
        assert not np.array_equal(dist, dist_t)
        a = assign_vertices(S, tree, edges, dist)
        b = assign_vertices(S, tree, edges, dist_t)
        assert np.array_equal(a.group, b.group)
        assert np.array_equal(a.bubble, b.bubble)
        assert np.array_equal(build_hierarchy(a, dist).merges,
                              build_hierarchy(b, dist_t).merges)


def per_subgroup_hierarchy(assign, dist):
    """``build_hierarchy`` as one ``hac`` call per subgroup, group and the
    inter-group level, each subgroup's block and each group's maxima read
    with ``np.ix_``: the reference for the batched hierarchy."""
    n = dist.shape[0]
    rows = []

    def link(items, D, ladder=None):
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

    group_roots, group_members = [], []
    for g in np.unique(assign.group):
        g_members = np.flatnonzero(assign.group == g)
        n_b = len(g_members)
        ladder = iter([1.0 / (n_b - 1 - i) for i in range(n_b - 1)])
        block = dist[np.ix_(g_members, g_members)]
        bubble = assign.bubble[g_members]
        sub_roots, sub_members = [], []
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


class TestBatchedHierarchy:
    @pytest.mark.parametrize("prefix", [1, 10, 50, 200])
    @pytest.mark.parametrize("did", [6, 17], ids=["ecg5000", "crop"])
    def test_tmfg_matches_per_subgroup(self, did, prefix):
        """On ECG5000-lite and Crop-lite TMFGs the batched hierarchy is
        the per-subgroup one, bit for bit, on ``dist`` and its transpose."""
        ds = load_ucr_lite(did, seed=0)
        S, D = correlation_matrices(ds.X)
        t = tmfg(S, prefix=prefix)
        dist = tmfg_dist(D, t)
        a = assign_vertices(S, t.tree, t.edges, dist)
        assert len(np.unique(a.group)) > 1
        for d in (dist, np.ascontiguousarray(dist.T)):
            assert np.array_equal(build_hierarchy(a, d).merges,
                                  per_subgroup_hierarchy(a, d).merges)

    @pytest.mark.parametrize("n,seed", [(40, 6), (45, 5)])
    def test_pmfg_matches_per_subgroup(self, n, seed):
        """PMFG bubble trees, whose subgroups reach 14 and 18 vertices, so
        that sizes 1-4 share buckets and the large ones stand alone."""
        S, tree, edges, dist = tree_case("pmfg", n, seed, None)
        a = assign_vertices(S, tree, edges, dist)
        sizes = np.unique(np.stack([a.group, a.bubble]), axis=1,
                          return_counts=True)[1]
        assert sizes.max() >= 13
        assert np.array_equal(build_hierarchy(a, dist).merges,
                              per_subgroup_hierarchy(a, dist).merges)

    def test_pmfg_groups_match_per_subgroup(self):
        """A PMFG of 4 latent-curve clusters: 4 groups, several subgroups
        each."""
        ds = latent_curve_dataset("clustered", 60, 100, 4, noise=1.5,
                                  shared=0.2, outlier_frac=0.0, seed=2)
        S, D = correlation_matrices(ds.X)
        edges = pmfg(S)
        tree = planar_bubble_tree(len(S), edges)
        dist = shortest_paths.apsp(len(S), edges,
                                   D[edges[:, 0], edges[:, 1]])
        a = assign_vertices(S, tree, edges, dist)
        assert len(np.unique(a.group)) == 4
        assert np.array_equal(build_hierarchy(a, dist).merges,
                              per_subgroup_hierarchy(a, dist).merges)

    def test_singleton_groups_and_subgroups(self):
        """Hand-made assignments: a one-vertex group, a group of one
        subgroup, and subgroups of one vertex among larger ones."""
        dist = rand_sim(12, 0)[1]
        group = np.array([5, 5, 2, 5, 9, 2, 2, 5, 2, 2, 5, 2])
        bubble = np.array([0, 3, 1, 3, 4, 1, 7, 0, 1, 8, 3, 7])
        a = Assignments(group=group, bubble=bubble,
                        converging=np.array([2, 5, 9]))
        ref = per_subgroup_hierarchy(a, dist)
        assert np.array_equal(build_hierarchy(a, dist).merges, ref.merges)
        ref.validate()


class TestEndToEnd:
    def test_recovers_clear_clusters(self):
        ds = latent_curve_dataset("easy", 80, 100, 4, noise=0.3, shared=0.2,
                                  outlier_frac=0.0, seed=0)
        S, D = correlation_matrices(ds.X)
        t = tmfg(S, prefix=1)
        res = dbht(S, D, t.tree, t.edges)
        labels = res.dendrogram.cut_k(4)
        assert ari(ds.y, labels) > 0.8

    @pytest.mark.parametrize("prefix", [1, 5, 20])
    def test_prefix_variants_all_valid(self, prefix):
        ds = latent_curve_dataset("med", 70, 80, 3, noise=0.8, seed=1)
        S, D = correlation_matrices(ds.X)
        t = tmfg(S, prefix=prefix)
        res = dbht(S, D, t.tree, t.edges)
        res.dendrogram.validate()
        labels = res.dendrogram.cut_k(3)
        assert len(np.unique(labels)) == 3

    @pytest.mark.parametrize("shape", [(39, 39), (41, 41), (40, 39)])
    def test_apsp_rejects_d_of_another_shape(self, shape):
        """``D`` must have the shape of ``S``, on a TMFG tree and in
        PMFG-DBHT: a smaller one would fail on an edge index, a larger one
        give another block's weights."""
        S, D, t = make_case(40, 4)
        with pytest.raises(ValueError, match="shape of S"):
            dbht(S, np.ones(shape), t.tree, t.edges)
        with pytest.raises(ValueError, match="shape of S"):
            dbht_on_planar_graph(S, np.ones(shape), pmfg(S))

    def test_n4_minimal(self):
        S, D, t = make_case(4, 0)
        res = dbht(S, D, t.tree, t.edges)
        res.dendrogram.validate()
        assert res.dendrogram.cut_k(2).shape == (4,)
