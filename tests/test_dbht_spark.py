"""DBHT Spark SQL scores, the reference for the driver's assignment:
every aggregation is oracle-checked against DuckDB, the driver's bubble
assignment equals the argmax of the Spark SQL chi' scores, and its L-bar
group decisions equal the argmin of the Spark SQL L-bar scores."""
import numpy as np
import pandas as pd
import pytest

from repro.core.dbht import assign_vertices, tmfg_apsp
from repro.core.tmfg import tmfg
from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.oracle import assert_equivalent
from repro.spark.apsp_spark import apsp_df
from repro.spark.dbht_spark import (bubble_denominators, chi_prime_scores,
                                    chi_scores, lbar_scores, membership_df)
from repro.spark.similarity import sim_df_from_matrix


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(0)
    n = 40
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    t = tmfg(S, prefix=4)
    dist = tmfg_apsp(D, t)
    return S, D, t, dist


@pytest.fixture(scope="module")
def relations(spark, case):
    S, D, t, dist = case
    mem = membership_df(spark, t)
    sim = sim_df_from_matrix(spark, S)
    mem_pdf = mem.toPandas()
    sim_pdf = sim.toPandas()
    return mem, sim, mem_pdf, sim_pdf


class TestOracleSQL:
    def test_chi_scores(self, spark, relations):
        mem, sim, mem_pdf, sim_pdf = relations
        got = chi_scores(mem, sim)
        assert_equivalent(
            got,
            """
            SELECT m1.bubble AS bubble, m2.v AS v, SUM(s.w) AS chi
            FROM mem m1
            JOIN mem m2 ON m1.bubble = m2.bubble AND m1.v <> m2.v
            JOIN sim s ON m1.v = s.i AND m2.v = s.j
            GROUP BY 1, 2
            """,
            mem=mem_pdf,
            sim=sim_pdf,
        )

    def test_bubble_denominators(self, spark, relations):
        mem, sim, mem_pdf, sim_pdf = relations
        got = bubble_denominators(mem, sim)
        assert_equivalent(
            got,
            """
            SELECT m1.bubble AS bubble, SUM(s.w) AS den
            FROM mem m1
            JOIN mem m2 ON m1.bubble = m2.bubble AND m1.v < m2.v
            JOIN sim s ON m1.v = s.i AND m2.v = s.j
            GROUP BY 1
            """,
            mem=mem_pdf,
            sim=sim_pdf,
        )

    def test_chi_prime_scores(self, spark, relations):
        mem, sim, mem_pdf, sim_pdf = relations
        got = chi_prime_scores(mem, sim)
        assert_equivalent(
            got,
            """
            WITH num AS (
                SELECT m1.bubble AS bubble, m2.v AS v, SUM(s.w) AS num
                FROM mem m1
                JOIN mem m2 ON m1.bubble = m2.bubble AND m1.v <> m2.v
                JOIN sim s ON m1.v = s.i AND m2.v = s.j
                GROUP BY 1, 2
            ), den AS (
                SELECT m1.bubble AS bubble, SUM(s.w) AS den
                FROM mem m1
                JOIN mem m2 ON m1.bubble = m2.bubble AND m1.v < m2.v
                JOIN sim s ON m1.v = s.i AND m2.v = s.j
                GROUP BY 1
            )
            SELECT num.bubble AS bubble, num.v AS v, num.num / den.den AS chi2
            FROM num JOIN den ON num.bubble = den.bubble
            """,
            mem=mem_pdf,
            sim=sim_pdf,
        )

    def test_lbar_scores(self, spark, case):
        S, D, t, dist = case
        n = t.n
        rng = np.random.default_rng(1)
        cand_pdf = pd.DataFrame({
            "v": rng.integers(0, n, 12),
            "bubble": rng.integers(0, 3, 12),
        }).drop_duplicates()
        vb0_pdf = pd.DataFrame({
            "bubble": rng.integers(0, 3, 10),
            "u": rng.integers(0, n, 10),
        }).drop_duplicates()
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        dist_pdf = pd.DataFrame({
            "src": ii.ravel(), "dst": jj.ravel(), "dist": dist.ravel()
        })
        cand = spark.createDataFrame(cand_pdf, schema="v long, bubble long")
        vb0 = spark.createDataFrame(vb0_pdf, schema="bubble long, u long")
        w = D[t.edges[:, 0], t.edges[:, 1]]
        ddf = apsp_df(spark, n, t.edges, w)
        got = lbar_scores(cand, vb0, ddf)
        assert_equivalent(
            got,
            """
            SELECT c.v AS v, c.bubble AS bubble, AVG(d.dist) AS lbar
            FROM cand c
            JOIN vb0 b ON c.bubble = b.bubble
            JOIN dist d ON b.u = d.src AND c.v = d.dst
            GROUP BY 1, 2
            """,
            cand=cand_pdf,
            vb0=vb0_pdf,
            dist=dist_pdf,
        )


class TestAssignmentEquivalence:
    @pytest.mark.parametrize("seed,prefix,clustered", [
        (0, 1, False), (1, 4, False), (2, 10, False), (0, 1, True),
    ], ids=["0-1", "1-4", "2-10", "clustered-0-1"])
    def test_matches_driver(self, spark, seed, prefix, clustered):
        """Each vertex's driver bubble is its argmax over the Spark SQL
        chi' rows, and each vertex in no converging bubble has as its
        driver group the argmin over the Spark SQL L-bar rows of its
        candidates; ties to the smaller bubble id. The random inputs have
        one converging bubble; the clustered one has several."""
        if clustered:
            ds = latent_curve_dataset("clustered", 80, 100, 4, noise=0.3,
                                      shared=0.2, outlier_frac=0.0,
                                      seed=seed)
            S, D = correlation_matrices(ds.X)
        else:
            rng = np.random.default_rng(seed)
            S = rng.random((50, 50))
            S = (S + S.T) / 2
            np.fill_diagonal(S, 1.0)
            D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
        n = len(S)
        t = tmfg(S, prefix=prefix)
        ref = assign_vertices(S, t.tree, t.edges, tmfg_apsp(D, t))
        chi2 = chi_prime_scores(membership_df(spark, t),
                                sim_df_from_matrix(spark, S)).toPandas()
        best = (chi2.sort_values(["v", "chi2", "bubble"],
                                 ascending=[True, False, True])
                .drop_duplicates("v"))
        assert np.array_equal(best["v"].to_numpy(), np.arange(n))
        assert np.array_equal(best["bubble"].to_numpy(), ref.bubble)

        # L-bar candidates of the vertices the chi pass left unassigned
        tree = t.tree
        cvg = [int(b) for b in ref.converging]
        chi_pass = {v for b in cvg for v in tree.bubbles[b]}
        vb0 = [(int(ref.group[u]), u) for u in sorted(chi_pass)]
        nonempty = sorted({b for b, _ in vb0})
        mem = tree.vertex_memberships(n)
        R = tree.reachable_converging()
        fallback = sorted(set(range(n)) - chi_pass)
        cand = []
        for v in fallback:
            reach = {cvg[k] for b in mem[v] for k in np.flatnonzero(R[b])}
            cand += [(v, b) for b in sorted(reach & set(nonempty)) or nonempty]
        if clustered:
            assert len(cand) > len(fallback)  # some vertex has a choice
        w = D[t.edges[:, 0], t.edges[:, 1]]
        lbar = lbar_scores(
            spark.createDataFrame(pd.DataFrame(cand, columns=["v", "bubble"]),
                                  schema="v long, bubble long"),
            spark.createDataFrame(pd.DataFrame(vb0, columns=["bubble", "u"]),
                                  schema="bubble long, u long"),
            apsp_df(spark, n, t.edges, w)).toPandas()
        best = (lbar.sort_values(["v", "lbar", "bubble"])
                .drop_duplicates("v"))
        assert best["v"].tolist() == fallback
        assert np.array_equal(best["bubble"].to_numpy(), ref.group[fallback])
