"""The similarity relation of the DBHT Spark SQL reference plans.

``sim_df_from_matrix`` turns a dense similarity matrix into the long
``(i, j, w)`` relation that the χ/χ′/L̄ plans of ``repro.spark.dbht_spark``
read; those plans are checked against DuckDB. The correlation itself is
computed on the driver by ``repro.datasets.correlation_matrices``: on
Crop-lite a Spark version took 1.4-1.5 s warm against 0.04-0.08 s
(EXPERIMENTS.md, TMFG placement).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


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
