"""Distributed Pearson correlation of time series (similarity substrate).

The paper's pipeline starts from the correlation matrix of ``n`` time
series. Here the ``n x n`` matrix is computed as a Spark job: rows are
z-normalized on the driver (O(nL)), the normalized matrix is broadcast,
and row-blocks compute their slice ``Z_block @ Z.T / L`` in parallel via
``mapInPandas``, emitting the long-format ``(i, j, sim, dis)`` DataFrame.
``dis = sqrt(2 (1 - sim))`` is the Mantegna dissimilarity from Section
VII.
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.datasets import znorm

SIM_SCHEMA = "i long, j long, sim double, dis double"


def correlation_df(spark: SparkSession, X: np.ndarray,
                   partitions: int | None = None) -> DataFrame:
    """Long-format correlation DataFrame ``(i, j, sim, dis)``, all pairs
    including the diagonal and both orders (the consumers filter)."""
    X = np.asarray(X, dtype=np.float64)
    n, L = X.shape
    Z = znorm(X)
    sc = spark.sparkContext
    bZ = sc.broadcast(Z)
    parts = partitions or sc.defaultParallelism

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        Zb = bZ.value
        for pdf in batches:
            rows = pdf["i"].to_numpy()
            if len(rows) == 0:
                continue
            block = Zb[rows] @ Zb.T / Zb.shape[1]
            block = np.clip(block, -1.0, 1.0)
            ii = np.repeat(rows, Zb.shape[0])
            jj = np.tile(np.arange(Zb.shape[0]), len(rows))
            sim = block.ravel()
            yield pd.DataFrame({
                "i": ii, "j": jj, "sim": sim,
                "dis": np.sqrt(np.maximum(2.0 * (1.0 - sim), 0.0)),
            })

    ids = spark.range(n).toDF("i").repartition(parts)
    return ids.mapInPandas(compute, SIM_SCHEMA)


def correlation_matrices_spark(spark: SparkSession, X: np.ndarray,
                               partitions: int | None = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Collect the distributed correlation back into dense (S, D)
    matrices with the exact driver-side symmetrization/diagonal fixup
    (used by cross-checks and the small-n code paths)."""
    n = X.shape[0]
    pdf = correlation_df(spark, X, partitions).toPandas()
    S = np.empty((n, n))
    S[pdf["i"].to_numpy(), pdf["j"].to_numpy()] = pdf["sim"].to_numpy()
    np.fill_diagonal(S, 1.0)
    S = 0.5 * (S + S.T)
    D = np.sqrt(np.maximum(2.0 * (1.0 - S), 0.0))
    return S, D


def sim_df_from_matrix(spark: SparkSession, S: np.ndarray) -> DataFrame:
    """Long-format (i, j, w) DataFrame of every off-diagonal pair of a
    dense similarity matrix — the input relation of the DBHT Spark SQL
    scores (``repro.spark.dbht_spark``)."""
    n = S.shape[0]
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = ii != jj
    ii, jj = ii[mask], jj[mask]
    return spark.createDataFrame(pd.DataFrame({"i": ii, "j": jj,
                                               "w": S[ii, jj]}))
