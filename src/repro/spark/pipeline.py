"""End-to-end PAR-TDBHT pipeline with the paper's step-timing breakdown.

``par_tdbht`` mirrors the paper's PAR-TDBHT: parallel TMFG construction,
distributed APSP, Spark SQL vertex assignments, and distributed subgroup
linkage, returning the dendrogram plus per-step wall times keyed exactly
like Figure 5: ``tmfg``, ``apsp``, ``bubble-tree`` (directions +
assignments), ``hierarchy``.

``seq_tdbht`` is the SEQ-TDBHT analog: the same algorithms on the driver
with no Spark involvement (numpy reference implementations throughout).

``partitions`` throttles available parallelism (tasks <= partitions in
local mode), standing in for the paper's thread-count knob in the
scalability experiment (Figure 4) — see DESIGN.md substitutions.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from pyspark.sql import SparkSession

from repro.core import dbht as dbht_mod
from repro.core.dbht import DBHTResult
from repro.core.tmfg import TMFGResult, tmfg
from repro.spark.apsp_spark import apsp_df
from repro.spark.dbht_spark import assign_vertices_spark, subgroup_linkages_spark
from repro.spark.similarity import sim_df_from_matrix
from repro.spark.tmfg_spark import tmfg_spark


# Rounds cap above which the per-round Spark job latency (~0.3 s in local
# mode) would dominate TMFG construction; beyond it ``par_tdbht`` keeps the
# TMFG on the driver (see EXPERIMENTS.md, TMFG placement).
SPARK_TMFG_MAX_ROUNDS = 150


@dataclass
class TimedRun:
    """A clustering run plus its per-step wall-times (seconds) and whether
    its TMFG was built on Spark."""

    tmfg: TMFGResult
    result: DBHTResult
    times: Dict[str, float]
    spark_tmfg: bool = False

    @property
    def total(self) -> float:
        return sum(self.times.values())


def par_tdbht(spark: SparkSession, S: np.ndarray, D: np.ndarray,
              prefix: int = 10, partitions: Optional[int] = None,
              spark_tmfg: Optional[bool] = None) -> TimedRun:
    """Parallel TMFG + DBHT (PAR-TDBHT). ``spark_tmfg`` places the TMFG:
    ``None`` (default) re-scores faces on Spark only when the TMFG takes
    at most about ``SPARK_TMFG_MAX_ROUNDS`` rounds, ``(n - 4) / prefix``;
    ``False`` keeps it on the driver, ``True`` on Spark. The rest stays
    distributed either way."""
    if spark_tmfg is None:
        spark_tmfg = len(S) - 4 <= SPARK_TMFG_MAX_ROUNDS * prefix
    times: Dict[str, float] = {}
    # ``partitions`` also throttles the shuffle stages (joins/aggregations)
    # so the knob bounds total parallelism, like the paper's thread count.
    old_shuffle = spark.conf.get("spark.sql.shuffle.partitions")
    if partitions is not None:
        spark.conf.set("spark.sql.shuffle.partitions", str(partitions))
    dist_df = None
    try:
        t0 = time.monotonic()
        if spark_tmfg:
            t = tmfg_spark(spark, S, prefix=prefix, partitions=partitions)
        else:
            t = tmfg(S, prefix=prefix)
        times["tmfg"] = time.monotonic() - t0

        t0 = time.monotonic()
        w = D[t.edges[:, 0], t.edges[:, 1]]
        dist_df = apsp_df(spark, t.n, t.edges, w, partitions=partitions)
        dist_df.persist()
        pdf = dist_df.toPandas()  # one distributed APSP, reused as matrix
        dist = np.full((t.n, t.n), np.inf)
        dist[pdf["src"].to_numpy(), pdf["dst"].to_numpy()] = pdf["dist"].to_numpy()
        times["apsp"] = time.monotonic() - t0

        t0 = time.monotonic()
        t.tree.compute_directions(S, t.edges)
        # restrict the similarity relation to TMFG edges: bubbles are
        # cliques, so the chi joins never touch non-edge pairs
        sim = sim_df_from_matrix(spark, S, edges=t.edges)
        assign = assign_vertices_spark(spark, S, t, sim, dist_df)
        times["bubble-tree"] = time.monotonic() - t0

        t0 = time.monotonic()
        sub_Z = subgroup_linkages_spark(spark, assign, dist)
        dendro = dbht_mod.build_hierarchy(assign, dist, subgroup_Z=sub_Z)
        times["hierarchy"] = time.monotonic() - t0
    finally:
        if dist_df is not None:
            dist_df.unpersist()
        spark.conf.set("spark.sql.shuffle.partitions", old_shuffle)
    return TimedRun(tmfg=t, result=DBHTResult(dendrogram=dendro,
                                              assignments=assign, apsp=dist),
                    times=times, spark_tmfg=spark_tmfg)


def seq_tdbht(S: np.ndarray, D: np.ndarray, prefix: int = 1) -> TimedRun:
    """Sequential TMFG + DBHT on the driver (SEQ-TDBHT analog)."""
    times: Dict[str, float] = {}
    t0 = time.monotonic()
    t = tmfg(S, prefix=prefix)
    times["tmfg"] = time.monotonic() - t0

    t0 = time.monotonic()
    dist = dbht_mod.tmfg_apsp(D, t)
    times["apsp"] = time.monotonic() - t0

    t0 = time.monotonic()
    assign = dbht_mod.assign_vertices(S, t, dist)
    times["bubble-tree"] = time.monotonic() - t0

    t0 = time.monotonic()
    dendro = dbht_mod.build_hierarchy(assign, dist)
    times["hierarchy"] = time.monotonic() - t0
    return TimedRun(tmfg=t, result=DBHTResult(dendrogram=dendro,
                                              assignments=assign, apsp=dist),
                    times=times)
