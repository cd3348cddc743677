"""End-to-end PAR-TDBHT and SEQ-TDBHT with the paper's step timings.

Both pipelines run the four steps of Figure 5 and time them under its
keys: ``tmfg``, ``apsp``, ``bubble-tree`` (directions + assignments) and
``hierarchy``. They differ only in where the first two run:

* ``par_tdbht`` (PAR-TDBHT) builds the TMFG on the driver or with its
  face re-scoring on Spark, and fans the APSP out over Spark tasks, each
  running the shared APSP kernel for its block of sources;
* ``seq_tdbht`` (SEQ-TDBHT) runs both on the driver.

Vertex assignment and the three-level linkage (Algorithm 4) are
``repro.core.dbht`` on the driver in both: their Spark versions lost at
every size measured (EXPERIMENTS.md, DBHT placement), so the Spark SQL
scores of ``repro.spark.dbht_spark`` are only the DuckDB-checked
reference for the driver's decisions.

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

from repro.core.dbht import (DBHTResult, assign_vertices, build_hierarchy,
                             tmfg_apsp)
from repro.core.tmfg import TMFGResult, tmfg
from repro.spark.apsp_spark import apsp_matrix_spark
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


def _timed(times: Dict[str, float], step: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its wall time stored as ``times[step]``."""
    t0 = time.monotonic()
    out = fn(*args, **kwargs)
    times[step] = time.monotonic() - t0
    return out


def _dbht_steps(S: np.ndarray, t: TMFGResult, dist: np.ndarray,
                times: Dict[str, float], spark_tmfg: bool = False) -> TimedRun:
    """The steps after APSP, the same in both pipelines: vertex assignment
    and hierarchy on the driver."""
    assign = _timed(times, "bubble-tree", assign_vertices, S, t, dist)
    dendro = _timed(times, "hierarchy", build_hierarchy, assign, dist)
    return TimedRun(tmfg=t, result=DBHTResult(dendrogram=dendro,
                                              assignments=assign, apsp=dist),
                    times=times, spark_tmfg=spark_tmfg)


def par_tdbht(spark: SparkSession, S: np.ndarray, D: np.ndarray,
              prefix: int = 10, partitions: Optional[int] = None,
              spark_tmfg: Optional[bool] = None) -> TimedRun:
    """Parallel TMFG + DBHT (PAR-TDBHT). ``spark_tmfg`` places the TMFG:
    ``None`` (default) re-scores faces on Spark only when the TMFG takes
    at most about ``SPARK_TMFG_MAX_ROUNDS`` rounds, ``(n - 4) / prefix``;
    ``False`` keeps it on the driver, ``True`` on Spark. APSP runs on
    Spark either way, assignment and hierarchy on the driver."""
    if spark_tmfg is None:
        spark_tmfg = len(S) - 4 <= SPARK_TMFG_MAX_ROUNDS * prefix
    times: Dict[str, float] = {}
    if spark_tmfg:
        t = _timed(times, "tmfg", tmfg_spark, spark, S, prefix=prefix,
                   partitions=partitions)
    else:
        t = _timed(times, "tmfg", tmfg, S, prefix=prefix)
    w = D[t.edges[:, 0], t.edges[:, 1]]
    dist = _timed(times, "apsp", apsp_matrix_spark, spark, t.n, t.edges, w,
                  partitions=partitions)
    return _dbht_steps(S, t, dist, times, spark_tmfg)


def seq_tdbht(S: np.ndarray, D: np.ndarray, prefix: int = 1) -> TimedRun:
    """Sequential TMFG + DBHT on the driver (SEQ-TDBHT analog)."""
    times: Dict[str, float] = {}
    t = _timed(times, "tmfg", tmfg, S, prefix=prefix)
    dist = _timed(times, "apsp", tmfg_apsp, D, t)
    return _dbht_steps(S, t, dist, times)
