"""PMFG-DBHT's from-scratch bubble detection vs the TMFG path.

On TMFG inputs the detected bubble tree must hold the TMFG's incremental
bubbles, tree edges and separating triangles, only numbered and rooted
differently. Both trees are then directed by the one
``BubbleTree.compute_directions`` and assigned by the one
``repro.core.dbht.assign_vertices``, so the groups, bubbles and hierarchy
must agree too: this checks that none of those steps depends on how a
tree is numbered or rooted. PMFG inputs, with bubbles of more than four
vertices, are pinned end to end.
"""
import hashlib

import numpy as np
import pytest

from repro.core.dbht import dbht
from repro.core.generic_dbht import (dbht_on_planar_graph,
                                     enumerate_triangles, planar_bubble_tree)
from repro.core.pmfg import pmfg
from repro.core.tmfg import tmfg


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


CASES = [(10, 0, 1), (20, 1, 1), (35, 2, 4), (50, 3, 8)]


class TestTriangles:
    def test_k4(self):
        edges = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert enumerate_triangles(4, edges) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_tmfg_triangle_count(self, n, seed, prefix):
        """A maximal planar graph built by TMFG has 3n-8 triangles when
        every 3-clique bounds a face or separates (n-4 separating + 2n-4
        faces ... ); just check count >= faces = 2n-4."""
        t = tmfg(rand_sim(n, seed), prefix=prefix)
        tris = enumerate_triangles(n, t.edges)
        assert len(tris) >= 2 * n - 4


class TestBubbleDetection:
    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_matches_incremental_tree(self, n, seed, prefix):
        """From-scratch bubble detection == bubbles built during TMFG."""
        S = rand_sim(n, seed)
        t = tmfg(S, prefix=prefix)
        gen = planar_bubble_tree(n, t.edges)
        assert sorted(gen.bubbles) == sorted(t.tree.bubbles)
        # same adjacency structure (as unordered edges with triangles)
        fast_edges = {
            frozenset((tuple(sorted(t.tree.bubbles[b])),
                       tuple(sorted(t.tree.bubbles[t.tree.parent[b]])))):
            t.tree.sep_triangle[b]
            for b in range(t.tree.n_bubbles()) if t.tree.parent[b] != -1
        }
        gen_edges = {
            frozenset((gen.bubbles[b], gen.bubbles[gen.parent[b]])):
            gen.sep_triangle[b]
            for b in range(gen.n_bubbles()) if gen.parent[b] != -1
        }
        assert fast_edges == gen_edges

    def test_pmfg_bubbles_cover_graph(self):
        S = rand_sim(25, 4)
        e = pmfg(S)
        gen = planar_bubble_tree(25, e)
        assert set().union(*[set(b) for b in gen.bubbles]) == set(range(25))
        for b in gen.bubbles:
            assert len(b) >= 4


class TestFullEquivalenceOnTMFG:
    """DBHT on the bubble tree detected in a TMFG == DBHT on the tree the
    TMFG built."""

    @pytest.mark.parametrize("n,seed,prefix", CASES)
    def test_same_assignments_and_hierarchy(self, n, seed, prefix):
        """Same groups, bubbles and hierarchy from the detected tree as
        from the incremental one.

        Bubble *numbering* and the root differ between the two trees (and
        the height assignment sorts by bubble id), so assignments are
        compared via bubble vertex sets, and the hierarchy is compared after
        remapping the detected tree's bubble ids onto the incremental
        tree's numbering.
        """
        from repro.core.dbht import build_hierarchy
        from repro.core.dbht import Assignments as A

        S = rand_sim(n, seed)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        t = tmfg(S, prefix=prefix)
        fast = dbht(S, D, t.tree, t.edges)
        gen_tree = planar_bubble_tree(n, t.edges)
        gen = dbht_on_planar_graph(S, D, t.edges)

        def canon(assign, tree_bubbles):
            g = [tuple(tree_bubbles[b]) for b in assign.group]
            q = [tuple(tree_bubbles[b]) for b in assign.bubble]
            return g, q

        g1, q1 = canon(fast.assignments, t.tree.bubbles)
        g2, q2 = canon(gen.assignments, gen_tree.bubbles)
        assert g1 == g2
        assert q1 == q2
        # remap generic bubble ids -> fast tree ids, rebuild, compare exactly
        to_fast = {i: t.tree.bubbles.index(b)
                   for i, b in enumerate(gen_tree.bubbles)}
        remapped = A(
            group=np.array([to_fast[int(b)] for b in gen.assignments.group]),
            bubble=np.array([to_fast[int(b)] for b in gen.assignments.bubble]),
            converging=np.sort(np.array(
                [to_fast[int(b)] for b in gen.assignments.converging])),
        )
        rebuilt = build_hierarchy(remapped, gen.apsp)
        assert np.array_equal(rebuilt.merges, fast.dendrogram.merges)


class TestPMFGDBHT:
    @pytest.mark.parametrize("n,seed", [(15, 0), (30, 1)])
    def test_end_to_end_valid(self, n, seed):
        S = rand_sim(n, seed)
        D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        res = dbht_on_planar_graph(S, D, pmfg(S))
        res.dendrogram.validate()
        labels = res.dendrogram.cut_k(3)
        assert len(np.unique(labels)) == 3

    def test_zero_similarity_raise(self):
        """S = I makes every bubble's chi' denominator 0 (the S of
        length-1 series): no vertex may be left without a bubble."""
        S = np.eye(10)
        D = np.sqrt(2.0 * (1.0 - S))
        with pytest.raises(ValueError, match="chi'"):
            dbht_on_planar_graph(S, D, pmfg(S))


@pytest.mark.parametrize("n,seed,expected", [
    (15, 0,
     "84436f69b9f84376f0428c592480785a8050a42711d703a5a5e414759d2420d0"),
    (30, 1,
     "85884b1ae01b70582b02e64726dabeb83891cb781835b03c7c4ee0e4a8b5cce2"),
], ids=["15-0", "30-1"])
def test_pinned_output(n, seed, expected):
    """Bit identity of PMFG-DBHT: the ``TestPMFGDBHT`` inputs keep the
    sha256 pinned here over the merges, groups and bubbles, so a change
    to bubble detection, directions, reachability, assignment or the
    hierarchy shows."""
    S = rand_sim(n, seed)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    res = dbht_on_planar_graph(S, D, pmfg(S))
    h = hashlib.sha256()
    for part in (res.dendrogram.merges, res.assignments.group,
                 res.assignments.bubble):
        h.update(np.ascontiguousarray(part).tobytes())
    assert h.hexdigest() == expected
