"""Distributed all-pairs shortest paths over the TMFG.

APSP is the DBHT bottleneck (Section VII, runtime decomposition). The
paper runs one Dijkstra per source in parallel; here the sources are cut
into ``P`` contiguous blocks, one Spark task per block, and each task runs
the shared kernel (``repro.graphs.shortest_paths.apsp``) once, over the
broadcast edge list, for its block of sources.

The data plane is one RDD job: ``sc.range(P, numSlices=P)`` gives task
``i`` its block index, the task returns its dense ``(k, n)`` float64 block
of distance rows, and ``collect`` brings the ``P`` blocks back in
partition order, so concatenating them puts source ``i`` in row ``i``. No
row per source goes through Arrow or pandas; the driver copies ``P``
arrays into one matrix.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.shortest_paths import apsp


def apsp_matrix_spark(spark: SparkSession, n: int, edges: np.ndarray,
                      weights: np.ndarray,
                      partitions: int | None = None) -> np.ndarray:
    """Dense (n, n) APSP matrix from one Spark job of ``partitions``
    (``P``, default ``defaultParallelism``) tasks. Task ``i`` computes the
    distance rows of sources ``i*n//P .. (i+1)*n//P - 1``: the blocks tile
    ``0..n-1`` in order, some empty when ``P > n``. The edge broadcast is
    released once the blocks are back or the job fails."""
    sc = spark.sparkContext
    parts = partitions or sc.defaultParallelism
    b_edges = sc.broadcast((np.asarray(edges, dtype=np.int64),
                            np.asarray(weights, dtype=np.float64)))

    def block(i: int) -> np.ndarray:
        e, w = b_edges.value
        return apsp(n, e, w,
                    sources=range(i * n // parts, (i + 1) * n // parts))

    try:
        blocks = sc.range(parts, numSlices=parts).map(block).collect()
    finally:
        b_edges.unpersist()
    return np.concatenate(blocks)
