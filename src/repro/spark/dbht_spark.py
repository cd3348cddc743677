"""DBHT vertex assignment and hierarchy as Spark SQL dataflow (Algorithm 4).

The attachment scores are genuine Catalyst join/aggregate plans:

* ``chi(v, b)   = SUM w(u, v)  over u in bubble b``  — membership
  self-join + join with the similarity relation + groupBy-sum (Lines
  8-11);
* ``L-bar(v, b) = AVG l_D(u, v) over u in V_b^0``    — candidate (vertex,
  converging-bubble) pairs joined with the assigned-vertices and APSP
  relations (Lines 14-17);
* ``chi'(v, b)  = chi(v, b) / SUM w(u', v') over pairs in b`` (Lines
  18-23).

Argmax/argmin per vertex use a window ordered by (score desc/asc, bubble
asc); scores are rounded to 12 decimals so aggregation order cannot flip
a comparison, and the driver reference (``repro.core.dbht``) rounds the
same way — tests assert identical assignments, and each aggregation is
checked against DuckDB via the oracle.

Tree-shaped O(n) steps (edge directions, reachability) run on the driver:
a Spark job per pointer-chase would be pure overhead, and the paper itself
reports this step's cost as negligible after its optimization.

The per-subgroup complete linkage (Lines 25-28) fans out via
``applyInPandas`` — subgroups are independent, mirroring the paper's
parallel-for.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.dbht import Assignments, assignment_inputs
from repro.core.linkage import hac
from repro.core.tmfg import TMFGResult

_ROUND = 12


# ------------------------------------------------------------ input relations
def membership_df(spark: SparkSession, t: TMFGResult) -> DataFrame:
    """Relation (bubble, v): vertex v belongs to bubble (4 rows per bubble)."""
    rows = [(b, int(v)) for b, verts in enumerate(t.tree.bubbles) for v in verts]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["bubble", "v"]), schema="bubble long, v long"
    )


# ----------------------------------------------------------------- SQL steps
def chi_scores(mem: DataFrame, sim: DataFrame) -> DataFrame:
    """chi(v, b) = sum of similarity from v to the other members of b."""
    m1 = mem.alias("m1")
    m2 = mem.alias("m2")
    pairs = m1.join(m2, on="bubble").filter(F.col("m1.v") != F.col("m2.v"))
    joined = pairs.join(
        sim,
        (F.col("m1.v") == F.col("i")) & (F.col("m2.v") == F.col("j")),
    )
    return (
        joined.groupBy(F.col("bubble"), F.col("m2.v").alias("v"))
        .agg(F.round(F.sum("w"), _ROUND).alias("chi"))
    )


def bubble_denominators(mem: DataFrame, sim: DataFrame) -> DataFrame:
    """Total intra-bubble edge weight: sum of w over the 6 edges of each
    4-clique bubble."""
    m1 = mem.alias("m1")
    m2 = mem.alias("m2")
    pairs = m1.join(m2, on="bubble").filter(F.col("m1.v") < F.col("m2.v"))
    joined = pairs.join(
        sim,
        (F.col("m1.v") == F.col("i")) & (F.col("m2.v") == F.col("j")),
    )
    return joined.groupBy("bubble").agg(F.sum("w").alias("den"))


def chi_prime_scores(mem: DataFrame, sim: DataFrame) -> DataFrame:
    """chi'(v, b) = chi(v, b) normalized by b's total edge weight."""
    num = chi_scores(mem, sim).withColumnRenamed("chi", "num")
    den = bubble_denominators(mem, sim)
    return num.join(den, on="bubble").select(
        "bubble", "v",
        F.round(F.col("num") / F.col("den"), _ROUND).alias("chi2"),
    )


def lbar_scores(cand: DataFrame, vb0: DataFrame, dist: DataFrame) -> DataFrame:
    """L-bar(v, b) = mean shortest-path distance from v to V_b^0.

    ``cand`` is (v, bubble) candidate pairs; ``vb0`` is (bubble, u) the
    first-pass assignment; ``dist`` is (src, dst, dist) APSP rows.
    """
    # (v, bubble, u) is small (candidates x assigned vertices); broadcast
    # it against the n^2-row APSP relation so ``dist`` never shuffles.
    small = cand.join(vb0, on="bubble")
    joined = dist.join(
        F.broadcast(small),
        (F.col("u") == F.col("src")) & (F.col("v") == F.col("dst")),
    )
    return (
        joined.groupBy("v", "bubble")
        .agg(F.round(F.avg("dist"), _ROUND).alias("lbar"))
    )


def _argbest(df: DataFrame, score: str, ascending: bool) -> DataFrame:
    """One (v, bubble) row per v: best score, ties to the smallest bubble."""
    order = [F.col(score).asc() if ascending else F.col(score).desc(),
             F.col("bubble").asc()]
    w = Window.partitionBy("v").orderBy(*order)
    return (
        df.withColumn("rn", F.row_number().over(w))
        .filter(F.col("rn") == 1)
        .select("v", "bubble")
    )


# ------------------------------------------------------------ full assignment
def assign_vertices_spark(spark: SparkSession, S: np.ndarray, t: TMFGResult,
                          sim: DataFrame, dist_df: DataFrame) -> Assignments:
    """Lines 4-23 of Algorithm 4 with the scores computed in Spark SQL.

    ``sim`` is the long-format similarity relation (i, j, w) and
    ``dist_df`` the APSP relation (src, dst, dist). The L-bar candidates
    come from ``repro.core.dbht.assignment_inputs``, shared with the
    driver path.
    """
    tree = t.tree
    if tree.down is None:
        tree.compute_directions(S, t.edges)
    n = t.n
    cvg = tree.converging_bubbles()
    mem = membership_df(spark, t)

    # ---- first pass: vertices inside converging bubbles, by max chi
    cvg_df = spark.createDataFrame(
        pd.DataFrame({"bubble": [int(b) for b in cvg]}), schema="bubble long"
    )
    chi_cvg = chi_scores(mem, sim).join(cvg_df, on="bubble")
    first = _argbest(chi_cvg, "chi", ascending=False).collect()
    group = np.full(n, -1, dtype=np.int64)
    for r in first:
        group[int(r.v)] = int(r.bubble)

    # ---- unassigned vertices: min L-bar over their candidate bubbles
    vb0_map, cand_rows, _ = assignment_inputs(S, t, group)
    if cand_rows:
        cand = spark.createDataFrame(
            pd.DataFrame(cand_rows, columns=["v", "bubble"]),
            schema="v long, bubble long",
        )
        vb0_rows = [(b, int(u)) for b, us in vb0_map.items() for u in us]
        vb0 = spark.createDataFrame(
            pd.DataFrame(vb0_rows, columns=["bubble", "u"]),
            schema="bubble long, u long",
        )
        second = _argbest(lbar_scores(cand, vb0, dist_df), "lbar",
                          ascending=True).collect()
        for r in second:
            group[int(r.v)] = int(r.bubble)

    # ---- second level: bubble assignment by max chi' over all bubbles
    third = _argbest(chi_prime_scores(mem, sim), "chi2",
                     ascending=False).collect()
    bubble = np.full(n, -1, dtype=np.int64)
    for r in third:
        bubble[int(r.v)] = int(r.bubble)
    return Assignments(group=group, bubble=bubble, converging=cvg)


# ---------------------------------------------------------- subgroup linkage
_LINKAGE_SCHEMA = ("g long, q long, r long, left double, right double, "
                   "dist double, size double")


def subgroup_linkages_spark(spark: SparkSession, assign: Assignments,
                            dist: np.ndarray
                            ) -> Dict[Tuple[int, int], np.ndarray]:
    """Per-subgroup complete linkage fanned out via ``applyInPandas``.

    Returns {(group, bubble): Z} for every subgroup with >= 2 members;
    each Z is over the subgroup's members sorted ascending (the same
    convention the driver path uses).
    """
    n = len(assign.group)
    pdf = pd.DataFrame({
        "g": assign.group, "q": assign.bubble, "v": np.arange(n),
    })
    counts = pdf.groupby(["g", "q"])["v"].transform("size")
    pdf = pdf[counts >= 2]
    if len(pdf) == 0:
        return {}
    b_dist = spark.sparkContext.broadcast(dist)

    def link(key, sub):
        members = np.sort(sub["v"].to_numpy())
        Z = hac(b_dist.value[np.ix_(members, members)], "complete")
        m = len(Z)
        return pd.DataFrame({
            "g": np.full(m, key[0]), "q": np.full(m, key[1]),
            "r": np.arange(m), "left": Z[:, 0], "right": Z[:, 1],
            "dist": Z[:, 2], "size": Z[:, 3],
        })

    try:
        out = (
            spark.createDataFrame(pdf, schema="g long, q long, v long")
            .groupBy("g", "q")
            .applyInPandas(link, _LINKAGE_SCHEMA)
            .toPandas()
        )
    finally:
        b_dist.unpersist()
    result: Dict[Tuple[int, int], np.ndarray] = {}
    for (g, q), sub in out.groupby(["g", "q"]):
        sub = sub.sort_values("r")
        result[(int(g), int(q))] = sub[["left", "right", "dist", "size"]].to_numpy()
    return result
