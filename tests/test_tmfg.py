"""TMFG construction tests: structural invariants, greedy semantics at
prefix=1, prefix batching behavior, determinism, pinned output."""
import hashlib

import numpy as np
import pytest

import repro.core.tmfg as tmfg_module
from repro.core.tmfg import select_batch, tmfg
from repro.graphs.planarity import is_planar


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


class TestStructure:
    @pytest.mark.parametrize("n", [4, 5, 6, 10, 30, 80])
    @pytest.mark.parametrize("prefix", [1, 3, 10])
    def test_edge_count_and_planarity(self, n, prefix):
        t = tmfg(rand_sim(n, n + prefix), prefix=prefix)
        assert t.edges.shape == (3 * n - 6, 2)
        assert len({tuple(e) for e in t.edges}) == 3 * n - 6
        assert np.all(t.edges[:, 0] < t.edges[:, 1])
        assert is_planar(n, [tuple(e) for e in t.edges])

    def test_n4_is_k4(self):
        t = tmfg(rand_sim(4, 0))
        assert t.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert t.rounds == 0
        assert t.tree.n_bubbles() == 1

    def test_all_vertices_covered(self):
        t = tmfg(rand_sim(25, 1), prefix=5)
        assert set(t.edges.ravel()) == set(range(25))

    def test_seed_vertices_max_row_sum(self):
        S = rand_sim(20, 2)
        t = tmfg(S)
        top4 = set(np.argsort(-S.sum(1), kind="stable")[:4])
        assert set(int(v) for v in t.seed_vertices) == top4

    @pytest.mark.parametrize("prefix", [1, 2, 7])
    def test_deterministic(self, prefix):
        S = rand_sim(30, 3)
        S0 = S.copy()
        t1, t2 = tmfg(S, prefix), tmfg(S, prefix)
        assert np.array_equal(t1.edges, t2.edges)
        assert t1.insertions == t2.insertions
        assert np.array_equal(S, S0)  # the caller's S is never written

    def test_insertion_count(self):
        n = 40
        t = tmfg(rand_sim(n, 4), prefix=6)
        assert len(t.insertions) == n - 4
        inserted = [v for v, _ in t.insertions]
        assert len(set(inserted)) == n - 4

    def test_rounds_bounds(self):
        n, prefix = 50, 8
        t = tmfg(rand_sim(n, 5), prefix=prefix)
        assert int(np.ceil((n - 4) / prefix)) <= t.rounds <= n - 4

    def test_prefix1_rounds_equals_insertions(self):
        n = 30
        t = tmfg(rand_sim(n, 6), prefix=1)
        assert t.rounds == n - 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tmfg(rand_sim(3, 0))
        with pytest.raises(ValueError):
            tmfg(rand_sim(5, 0), prefix=0)
        with pytest.raises(ValueError):
            tmfg(np.arange(16.0).reshape(4, 4))  # not symmetric
        for bad in (np.nan, np.inf, -np.inf):
            S = rand_sim(6, 0)
            S[1, 2] = S[2, 1] = bad
            with pytest.raises(ValueError, match="S must be finite"):
                tmfg(S)


@pytest.mark.parametrize("n", [5, 37, 300])
def test_symmetry_check_matches_allclose(n, monkeypatch):
    """The blocked symmetry check raises exactly when
    ``np.allclose(S, S.T, atol=1e-8)`` fails, for one entry pair pushed
    just inside or just outside ``1e-8 + 1e-5 * |S|``; small row blocks
    make the larger cases span many of them."""
    monkeypatch.setattr(tmfg_module, "_CHECK_BLOCK", 1000)
    rng = np.random.default_rng(n)
    for case in range(12):
        S = rand_sim(n, case) * rng.choice([1.0, 1e-4, 1e4])
        i, j = rng.choice(n, 2, replace=False)
        tol = 1e-8 + 1e-5 * abs(S[j, i])
        S[i, j] = S[j, i] + rng.choice([-1, 1]) * rng.choice(
            [0.5, 0.999999, 1.000001, 2.0]) * tol
        if np.allclose(S, S.T, atol=1e-8):
            tmfg(S, prefix=n)
        else:
            with pytest.raises(ValueError, match="S must be symmetric"):
                tmfg(S, prefix=n)
    S = rand_sim(n, 0)
    S[n - 1, 0] = np.nan
    with pytest.raises(ValueError, match="S must be finite"):
        tmfg(S)


class TestGreedySemantics:
    def test_prefix1_each_insertion_is_best_gain(self):
        """At prefix=1, replaying the insertions must show each inserted
        vertex/face pair had the globally maximal gain at its turn."""
        n = 18
        S = rand_sim(n, 7)
        t = tmfg(S, prefix=1)
        # replay: maintain face set, check each insertion dominates
        faces = {tuple(sorted(f)) for f in [
            (t.seed_vertices[0], t.seed_vertices[1], t.seed_vertices[2]),
            (t.seed_vertices[0], t.seed_vertices[1], t.seed_vertices[3]),
            (t.seed_vertices[0], t.seed_vertices[2], t.seed_vertices[3]),
            (t.seed_vertices[1], t.seed_vertices[2], t.seed_vertices[3]),
        ]}
        remaining = set(range(n)) - {int(v) for v in t.seed_vertices}
        for v, tri in t.insertions:
            tri = tuple(sorted(tri))
            gain = S[tri[0], v] + S[tri[1], v] + S[tri[2], v]
            best = max(S[f[0], u] + S[f[1], u] + S[f[2], u]
                       for f in faces for u in remaining)
            assert gain == pytest.approx(best), f"insertion {v} not greedy"
            faces.remove(tri)
            vx, vy, vz = tri
            faces |= {tuple(sorted((v, vx, vy))), tuple(sorted((v, vy, vz))),
                      tuple(sorted((v, vx, vz)))}
            remaining.discard(v)

    def test_larger_prefix_weight_close(self):
        """Paper Section VII-B: prefix graphs keep 92-100% of the exact
        TMFG edge weight."""
        S = rand_sim(60, 8)
        w1 = tmfg(S, prefix=1).edge_weight_sum(S)
        for prefix in (2, 5, 10, 30):
            wp = tmfg(S, prefix=prefix).edge_weight_sum(S)
            assert wp >= 0.9 * w1
            assert wp <= w1 * 1.02 + 1e-9

    def test_prefix_larger_than_n_single_round_after_start(self):
        n = 20
        t = tmfg(rand_sim(n, 9), prefix=1000)
        # everything insertable goes in very few rounds (conflicts may
        # leave stragglers, but far fewer than n-4 rounds)
        assert t.rounds <= 8


def select_batch_reference(best_v, gain, alive, prefix):
    """``select_batch`` by a full sort: lexsort every live face by
    (-gain, face id), take the first ``prefix``, keep each vertex's first
    face."""
    fid = np.flatnonzero(alive)
    top = fid[np.lexsort((fid, -gain[fid]))[:prefix]]
    _, first = np.unique(best_v[top], return_index=True)
    keep = np.sort(top[first])
    return list(zip(best_v[keep].tolist(), keep.tolist()))


def gains_arrays(gains):
    """GAINS arrays ``(best_v, key)`` indexed by face id from
    ``{face_id: (vertex, gain)}``; faces not listed are dead (key
    ``-inf``)."""
    size = max(gains) + 1
    best_v = np.zeros(size, dtype=np.int64)
    key = np.full(size, -np.inf)
    for fid, (v, g) in gains.items():
        best_v[fid], key[fid] = v, g
    return best_v, key


def tmfg_eager(S, prefix):
    """Algorithm 1 with no shortcut: every round scores every live face
    against all of ``S`` (gain ``S[a] + S[b] + S[c]`` over the sorted
    corners, best remaining vertex by first occurrence of the max) and
    selects with ``select_batch_reference``. Returns the sorted edges,
    the insertions and the round count."""
    n = len(S)
    seed = [int(v) for v in np.argsort(-S.sum(axis=1), kind="stable")[:4]]
    v1, v2, v3, v4 = seed
    faces = [tuple(sorted(f)) for f in ((v1, v2, v3), (v1, v2, v4),
                                        (v1, v3, v4), (v2, v3, v4))]
    alive = [True] * 4
    edges = {tuple(sorted((a, b))) for i, a in enumerate(seed)
             for b in seed[i + 1:]}
    remaining = [v for v in range(n) if v not in seed]
    insertions, rounds = [], 0
    while remaining:
        rem = np.array(remaining)
        best_v = np.zeros(len(faces), dtype=np.int64)
        gain = np.zeros(len(faces))
        for fid, (a, b, c) in enumerate(faces):
            if alive[fid]:
                g = S[a, rem] + S[b, rem] + S[c, rem]
                best_v[fid], gain[fid] = rem[g.argmax()], g.max()
        rounds += 1
        for v, fid in select_batch_reference(best_v, gain, np.array(alive),
                                             prefix):
            vx, vy, vz = faces[fid]
            edges |= {(min(v, u), max(v, u)) for u in (vx, vy, vz)}
            faces += [tuple(sorted((v, vx, vy))), tuple(sorted((v, vy, vz))),
                      tuple(sorted((v, vx, vz)))]
            alive[fid] = False
            alive += [True] * 3
            insertions.append((v, (vx, vy, vz)))
            remaining.remove(v)
    return sorted(edges), insertions, rounds


@pytest.mark.parametrize("prefix", [1, 2, 3, 7, None], ids=str)
@pytest.mark.parametrize("decimals", [None, 1], ids=["random", "ties"])
def test_matches_eager_reference(prefix, decimals):
    """``tmfg`` re-scores a stale face only when its old gain can still
    reach the round's cut; every round of the eager reference re-scores
    every live face. Edges, insertions and rounds must be equal, with
    heavy gain ties when ``S`` is rounded (``prefix=None`` means n). Many
    small inputs have rounds with fewer than ``prefix`` fresh faces, where
    every stale face must be re-scored."""
    cases = ([(9, s) for s in range(40)] + [(16, s) for s in range(10)]
             + [(31, 0), (64, 0), (64, 1)])
    for n, seed in cases:
        S = rand_sim(n, 100 + seed)
        if decimals is not None:
            S = np.round(S, decimals)
        p = n if prefix is None else prefix
        t = tmfg(S, prefix=p)
        edges, insertions, rounds = tmfg_eager(S, p)
        assert t.edges.tolist() == [list(e) for e in edges], (n, seed)
        assert t.insertions == insertions, (n, seed)
        assert t.rounds == rounds, (n, seed)


class TestSelectBatch:
    def test_top_prefix_only(self):
        gains = gains_arrays({0: (7, 1.0), 1: (8, 3.0), 2: (9, 2.0)})
        batch = select_batch(*gains, 2)
        assert batch == [(9, 2), (8, 1)] or batch == [(8, 1), (9, 2)]
        assert sorted(batch, key=lambda p: p[1]) == batch

    def test_vertex_conflict_keeps_best_face(self):
        gains = gains_arrays({0: (7, 1.0), 1: (7, 3.0), 2: (9, 2.0)})
        batch = select_batch(*gains, 3)
        assert (7, 1) in batch and (9, 2) in batch and len(batch) == 2

    def test_vertex_conflict_tie_smallest_face(self):
        gains = gains_arrays({3: (7, 2.0), 1: (7, 2.0)})
        batch = select_batch(*gains, 2)
        assert batch == [(7, 1)]

    def test_gain_tie_smallest_face_first(self):
        gains = gains_arrays({5: (1, 2.0), 2: (3, 2.0), 9: (4, 2.0)})
        batch = select_batch(*gains, 2)
        assert {fid for _, fid in batch} == {2, 5}

    @pytest.mark.parametrize("prefix", [1, 2, 7, 1000])
    def test_matches_sorted_reference(self, prefix):
        """Randomized against a full (-gain, face id) sort of the live
        faces: heavy gain ties, vertex conflicts, dead faces (key -inf)
        and no live face at all."""
        rng = np.random.default_rng(prefix)
        for case in range(300):
            size = int(rng.integers(1, 60))
            values = rng.normal(size=int(rng.integers(2, 4)))
            gain = rng.choice(values, size)
            best_v = rng.integers(0, max(1, size // 3), size)
            alive = rng.random(size) < rng.choice([0.0, 0.3, 0.8, 1.0])
            key = np.where(alive, gain, -np.inf)
            assert (select_batch(best_v, key, prefix)
                    == select_batch_reference(best_v, gain, alive, prefix)), case


def tmfg_digest(t):
    """sha256 over everything a TMFG run decides: edges, rounds,
    insertions and the bubble tree."""
    h = hashlib.sha256()
    tree = t.tree
    for part in (t.edges.tolist(), t.rounds, t.insertions, tree.bubbles,
                 tree.parent, tree.children, tree.sep_triangle, tree.root):
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n,seed,prefix,decimals,expected", [
    (30, 0, 1, None,
     "e0ffb5bd0deb86045dd1f82dddb212c0f5024d90e0cf9106f22d8d6581b09d05"),
    (60, 1, 4, None,
     "6fffa504f13359f0ddb09b39a4e1ee69f4a6748ad4bb682ec667e1efe691b146"),
    (90, 2, 10, None,
     "82b71247f995a6277e01dce1c3e66bb0d286f447bc382d2f9d90f60ac5c92f94"),
    (60, 3, 1000, None,  # prefix larger than n
     "6ac26e2de136ff37211c64354d8ff395328ae3664a40dc49b58b5bc7cdbdae23"),
    (70, 5, 3, 1,  # heavy ties in gains, best vertices and face order
     "db47efdb4333ae252bbd246bfaceb7e92ae4a5824bab024ce396ff8359c7de52"),
], ids=["30-0-1", "60-1-4", "90-2-10", "60-3-1000", "ties-70-5-3"])
def test_pinned_output(n, seed, prefix, decimals, expected):
    """Bit identity: the TMFG of each case (one of them tie-heavy) keeps
    the digest pinned here, so any change to selection, tie-breaking or
    scoring order shows."""
    S = rand_sim(n, seed)
    if decimals is not None:
        S = np.round(S, decimals)
    assert tmfg_digest(tmfg(S, prefix=prefix)) == expected
