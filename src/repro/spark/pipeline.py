"""End-to-end PAR-TDBHT and SEQ-TDBHT with the paper's step timings.

Both pipelines run the four steps of Figure 5 and time them under its
keys: ``tmfg``, ``apsp``, ``bubble-tree`` (directions + assignments) and
``hierarchy``. They differ only in where APSP runs:

* ``par_tdbht`` (PAR-TDBHT) fans the APSP out over Spark tasks, each
  running the shared APSP kernel for its block of sources;
* ``seq_tdbht`` (SEQ-TDBHT) runs it on the driver.

Every other step is the same driver code in both. The TMFG is
``repro.core.tmfg.tmfg``: a Spark round costs more job latency than a
whole driver TMFG (EXPERIMENTS.md, TMFG placement). Then both call
``repro.core.dbht.dbht`` for APSP, vertex assignment and the three-level
linkage (Algorithm 4); PAR-TDBHT passes it the Spark APSP stage. The
assignment and linkage stay on the driver: their Spark versions lost at
every size measured (EXPERIMENTS.md, DBHT placement).

``partitions`` throttles available parallelism (tasks <= partitions in
local mode), standing in for the paper's thread-count knob in the
scalability experiment (Figure 4) — see DESIGN.md substitutions.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from pyspark.sql import SparkSession

from repro.core.dbht import DBHTResult, dbht
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


def _tdbht(S: np.ndarray, D: np.ndarray, prefix: int,
           apsp: Optional[Callable] = None) -> TimedRun:
    """The TMFG on the driver, then ``dbht`` with the APSP stage ``apsp``."""
    t0 = time.monotonic()
    t = tmfg(S, prefix=prefix)
    tmfg_s = time.monotonic() - t0
    res = dbht(S, D, t.tree, t.edges, apsp=apsp)
    return TimedRun(tmfg=t, result=res, times={"tmfg": tmfg_s, **res.times})


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
    return _tdbht(S, D, prefix, functools.partial(
        apsp_matrix_spark, spark, partitions=partitions))


def seq_tdbht(S: np.ndarray, D: np.ndarray, prefix: int = 1) -> TimedRun:
    """Sequential TMFG + DBHT on the driver (SEQ-TDBHT analog). ``D``
    must have the shape of ``S``, else ``ValueError``."""
    return _tdbht(S, D, prefix)
