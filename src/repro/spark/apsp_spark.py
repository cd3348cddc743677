"""Distributed all-pairs shortest paths over the TMFG.

APSP is the DBHT bottleneck (Section VII, runtime decomposition). The
paper runs one Dijkstra per source in parallel; here source vertices are
partitioned across Spark tasks, and each task runs the shared kernel
(``repro.graphs.shortest_paths.apsp``) once per Arrow batch, over the
broadcast edge list, for that batch's block of sources.

The data plane is dense: each source yields one row ``(src, dist)`` whose
``dist`` is its whole distance row as an ``array<double>``, so a collect
moves n rows, not n^2, and the driver stacks them into the matrix. The
sources come from ``spark.range`` with the partition count set at the
source, so the plan has no shuffle and runs as a single Spark job.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.shortest_paths import apsp

DIST_SCHEMA = "src long, dist array<double>"


def apsp_df(spark: SparkSession, n: int, edges: np.ndarray,
            weights: np.ndarray, partitions: int | None = None) -> DataFrame:
    """DataFrame of all-pairs shortest path distances: n rows
    ``(src, dist)``, ``dist`` being the length-n distance row of ``src``.

    The tasks read the edge list from a broadcast, which the returned
    DataFrame carries as ``edges_broadcast``: whoever materialises the
    rows unpersists it afterwards, as :func:`apsp_matrix_spark` does.
    """
    sc = spark.sparkContext
    parts = partitions or sc.defaultParallelism
    b_edges = sc.broadcast((np.asarray(edges, dtype=np.int64),
                            np.asarray(weights, dtype=np.float64)))

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        e, w = b_edges.value
        for pdf in batches:
            src = pdf["src"].to_numpy()
            yield pd.DataFrame({"src": src,
                                "dist": list(apsp(n, e, w, sources=src))})

    sources = spark.range(0, n, 1, parts).toDF("src")
    df = sources.mapInPandas(run, DIST_SCHEMA)
    df.edges_broadcast = b_edges
    return df


def apsp_matrix_spark(spark: SparkSession, n: int, edges: np.ndarray,
                      weights: np.ndarray,
                      partitions: int | None = None) -> np.ndarray:
    """Dense (n, n) APSP matrix collected from :func:`apsp_df`; the edge
    broadcast is released once the rows are back or the collect fails."""
    df = apsp_df(spark, n, edges, weights, partitions)
    try:
        pdf = df.toPandas()
    finally:
        df.edges_broadcast.unpersist()
    # spark.range gives each partition an ascending block of sources and
    # the collect keeps partition order, so row i is source i
    return np.stack(pdf["dist"].to_numpy())
