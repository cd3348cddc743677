"""Parallel TMFG with Spark as the face re-scoring backend (Algorithm 1).

The construction is the one engine of ``repro.core.tmfg``: GAINS, the
topology and the bubble tree stay on the driver, where a round's
selection is one sort of the live faces and each insertion is O(1)
topology work. Spark runs only the O(n)-per-face step, re-scoring the new
and stale faces of a round (Lines 15-16): the face rows fan out through
``mapInPandas`` over the broadcast similarity matrix, and each task runs
the driver's numpy scoring expression, so the result is bit-identical to
``repro.core.tmfg.tmfg``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.tmfg import TMFGResult, _check_similarity, _construct, _score

_FACE_SCHEMA = "row long, v0 long, v1 long, v2 long"
_SCORE_SCHEMA = "row long, best_v long, gain double"


def _score_fn(bS, remaining: np.ndarray):
    """mapInPandas kernel: best remaining vertex per face row.

    ``remaining`` is a small bool mask shipped in the task closure; the
    similarity matrix rides the broadcast ``bS``.
    """

    def fn(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        S = bS.value
        for pdf in batches:
            best_v, gain = _score(S, pdf[["v0", "v1", "v2"]].to_numpy(),
                                  remaining)
            yield pd.DataFrame({"row": pdf["row"].to_numpy(),
                                "best_v": best_v, "gain": gain})

    return fn


def tmfg_spark(spark: SparkSession, S: np.ndarray, prefix: int = 1,
               partitions: int | None = None) -> TMFGResult:
    """TMFG construction with faces re-scored on Spark; see module
    docstring."""
    S = _check_similarity(S)
    n = S.shape[0]
    sc = spark.sparkContext
    parts = partitions or sc.defaultParallelism
    bS = sc.broadcast(S)

    def score(faces: np.ndarray, remaining: np.ndarray):
        k = len(faces)
        # Partition by workload (each face costs an O(n) argmax): a
        # Python-worker task costs ~100 ms in local mode, so fanning a
        # handful of faces over every core would be pure overhead. ~2M
        # scored entries per task keeps tasks >= the launch cost while
        # still fanning out at large n * prefix.
        tasks = max(1, min(parts, k, k * n // 2_000_000 + 1))
        pdf = pd.DataFrame({"row": np.arange(k), "v0": faces[:, 0],
                            "v1": faces[:, 1], "v2": faces[:, 2]})
        out = (
            spark.createDataFrame(pdf, schema=_FACE_SCHEMA)
            .repartition(tasks)
            .mapInPandas(_score_fn(bS, remaining), _SCORE_SCHEMA)
            .toPandas()
            .sort_values("row")
        )
        return out["best_v"].to_numpy(), out["gain"].to_numpy()

    try:
        return _construct(S, prefix, score)
    finally:
        bS.unpersist()
