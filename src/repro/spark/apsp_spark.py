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

Before each task a reused PySpark worker calls
``importlib.invalidate_caches()`` (``worker_util.setup_spark_files``). On
CPython 3.11 that makes every ``zipimport.zipimporter`` re-parse its
archive's whole central directory: the Spark core jar (5,359 entries),
``pyspark.zip`` (1,328) and py4j's zip, once per cached importer, about 0.11 s of each
task on a 4-core x86-64 box against 0.05-0.07 s for the kernel at n=1294
(CPython 3.12 made the call lazy). So each task first runs
``guard_zip_directories``, after which a worker re-reads an archive's
directory only when the file's ``(st_mtime_ns, st_size)`` has changed
(EXPERIMENTS.md, Python task floor). The first task in a fresh worker
still pays once.
"""
from __future__ import annotations

import os
import sys
import zipimport

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.shortest_paths import apsp


def _stamp(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def guard_zip_directories() -> None:
    """Make each cached ``zipimporter``'s ``invalidate_caches`` re-read its
    archive's directory only when the file's ``(st_mtime_ns, st_size)``
    differs from the last read (a vanished file differs from any). The
    stamp starts at install, just after the worker's own invalidation has
    read the directory. Importers already guarded are left as they are, so
    installing twice is a no-op; importers cached later get the guard at
    the next install."""
    for finder in list(sys.path_importer_cache.values()):
        if (isinstance(finder, zipimport.zipimporter)
                and "invalidate_caches" not in vars(finder)):
            finder.invalidate_caches = _guarded(finder)


def _guarded(finder: zipimport.zipimporter):
    reread = finder.invalidate_caches  # the class's method, bound
    seen = _stamp(finder.archive)

    def invalidate_caches() -> None:
        nonlocal seen
        stamp = _stamp(finder.archive)
        if stamp is None or stamp != seen:
            seen = stamp
            reread()

    return invalidate_caches


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
        guard_zip_directories()
        return apsp(n, e, w,
                    sources=range(i * n // parts, (i + 1) * n // parts))

    blocks = sc.range(parts, numSlices=parts).map(block).collect()
    return np.concatenate(blocks)
