"""End-to-end PAR-TDBHT and SEQ-TDBHT with the paper's step timings.

Both pipelines run the four steps of Figure 5 and time them under its
keys: ``tmfg``, ``apsp``, ``bubble-tree`` (directions + assignments) and
``hierarchy``. They differ only in where APSP runs:

* ``par_tdbht`` (PAR-TDBHT) fans the APSP out over Spark tasks, each
  running the shared APSP kernel for its block of sources;
* ``seq_tdbht`` (SEQ-TDBHT) runs it on the driver.

Every other step is the same driver code in both. The TMFG is
``repro.core.tmfg.tmfg``: a Spark round costs more job latency than a
whole driver TMFG (EXPERIMENTS.md, TMFG placement). Vertex assignment and
the three-level linkage (Algorithm 4) are ``repro.core.dbht``: their Spark
versions lost at every size measured (EXPERIMENTS.md, DBHT placement).

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
                             check_dissimilarity, tmfg_apsp)
from repro.core.tmfg import TMFGResult, tmfg
from repro.spark.apsp_spark import apsp_matrix_spark


@dataclass
class TimedRun:
    """A clustering run plus its per-step wall-times (seconds)."""

    tmfg: TMFGResult
    result: DBHTResult
    times: Dict[str, float]

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
                times: Dict[str, float]) -> TimedRun:
    """The steps after APSP, the same in both pipelines: vertex assignment
    and hierarchy on the driver."""
    assign = _timed(times, "bubble-tree", assign_vertices, S, t.tree, t.edges,
                    dist)
    dendro = _timed(times, "hierarchy", build_hierarchy, assign, dist)
    return TimedRun(tmfg=t, result=DBHTResult(dendrogram=dendro,
                                              assignments=assign, apsp=dist),
                    times=times)


def par_tdbht(spark: SparkSession, S: np.ndarray, D: np.ndarray,
              prefix: int = 10, partitions: Optional[int] = None,
              spark_tmfg: bool = False) -> TimedRun:
    """Parallel TMFG + DBHT (PAR-TDBHT): the TMFG, assignment and
    hierarchy on the driver, APSP on Spark. ``D`` must have the shape of
    ``S``, else ``ValueError``."""
    # Only perfbench/run.py::tmfg_placement still passes this keyword
    # (always False); it goes with that harness function.
    if spark_tmfg:
        raise ValueError("spark_tmfg=True is not supported: par_tdbht "
                         "builds the TMFG on the driver")
    check_dissimilarity(D, np.shape(S))
    times: Dict[str, float] = {}
    t = _timed(times, "tmfg", tmfg, S, prefix=prefix)
    w = D[t.edges[:, 0], t.edges[:, 1]]
    dist = _timed(times, "apsp", apsp_matrix_spark, spark, t.n, t.edges, w,
                  partitions=partitions)
    return _dbht_steps(S, t, dist, times)


def seq_tdbht(S: np.ndarray, D: np.ndarray, prefix: int = 1) -> TimedRun:
    """Sequential TMFG + DBHT on the driver (SEQ-TDBHT analog). ``D``
    must have the shape of ``S``, else ``ValueError``."""
    check_dissimilarity(D, np.shape(S))
    times: Dict[str, float] = {}
    t = _timed(times, "tmfg", tmfg, S, prefix=prefix)
    dist = _timed(times, "apsp", tmfg_apsp, D, t)
    return _dbht_steps(S, t, dist, times)
