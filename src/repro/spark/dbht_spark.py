"""DBHT attachment scores as Spark SQL plans (Algorithm 4, lines 8-23).

These plans are the independent, oracle-checked reference for the
driver's vertex assignment (``repro.core.dbht.assign_vertices``), which
both pipelines run: a Spark assignment lost to the driver at every size
measured (EXPERIMENTS.md, DBHT placement). Tests check each plan against
DuckDB via the oracle, and the driver's chi' decisions against the argmax
of :func:`chi_prime_scores`.

The scores are genuine Catalyst join/aggregate plans:

* ``chi(v, b)   = SUM w(u, v)  over u in bubble b``  — membership
  self-join + join with the similarity relation + groupBy-sum (Lines
  8-11); this is the raw sum, which the driver divides by the bubble's
  edge count ``3(|b|-2)`` (6 on every TMFG bubble), and the numerator of
  chi';
* ``L-bar(v, b) = AVG l_D(u, v) over u in V_b^0``    — candidate (vertex,
  converging-bubble) pairs joined with the assigned-vertices relation and
  the APSP rows, exploded into (src, dst, dist) pairs (Lines 14-17);
* ``chi'(v, b)  = chi(v, b) / SUM w(u', v') over pairs in b`` (Lines
  18-23).

Scores are rounded to 12 decimals so aggregation order cannot flip a
comparison; the driver rounds the same way.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

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
    first-pass assignment; ``dist`` is the (src, dist array) APSP relation
    of ``repro.spark.apsp_spark.apsp_df``, one distance row per source.
    """
    pairs = dist.select("src", F.posexplode("dist").alias("dst", "dist"))
    # (v, bubble, u) is small (candidates x assigned vertices); broadcast
    # it against the n^2 exploded APSP pairs so they never shuffle.
    small = cand.join(vb0, on="bubble")
    joined = pairs.join(
        F.broadcast(small),
        (F.col("u") == F.col("src")) & (F.col("v") == F.col("dst")),
    )
    return (
        joined.groupBy("v", "bubble")
        .agg(F.round(F.avg("dist"), _ROUND).alias("lbar"))
    )
