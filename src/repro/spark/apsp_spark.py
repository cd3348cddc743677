"""Distributed all-pairs shortest paths over the TMFG.

APSP is the DBHT bottleneck (Section VII, runtime decomposition). The
paper runs one Dijkstra per source in parallel; here the sources are cut
into ``P`` contiguous blocks, one Spark task per block, and each task runs
the shared kernel (``repro.graphs.shortest_paths.apsp``) once, over the
edge list in its closure, for its block of sources.

The data plane is one RDD job: ``sc.range(P, numSlices=P)`` gives task
``i`` its block index, the task returns its dense ``(k, n)`` float64 block
of distance rows, and ``collect`` brings the ``P`` blocks back in
partition order, so concatenating them puts source ``i`` in row ``i``. No
row per source goes through Arrow or pandas; the driver copies ``P``
arrays into one matrix.

The edges ship inside the pickled task closure: 3n - 6 int64 pairs and
float64 weights, 72 bytes per vertex (93 KB at n=1294). No broadcast is
made, so none is left to release when the job fails. Once the pickled
closure passes PySpark's 1 MB command threshold
(``_prepare_for_python_RDD``), at about n = 14,500, PySpark broadcasts the
command itself, tied to the RDD's lifetime.
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
    ``0..n-1`` in order, some empty when ``P > n``."""
    sc = spark.sparkContext
    parts = partitions or sc.defaultParallelism
    e = np.asarray(edges, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)

    def block(i: int) -> np.ndarray:
        return apsp(n, e, w,
                    sources=range(i * n // parts, (i + 1) * n // parts))

    blocks = sc.range(parts, numSlices=parts).map(block).collect()
    return np.concatenate(blocks)
