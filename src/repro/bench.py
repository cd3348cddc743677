"""Shared harness for the evaluation jobs and benchmarks.

One ``run_method`` entry point per method name used in the paper's plots
(PMFG-DBHT, SEQ-TDBHT, PAR-TDBHT-k, COMP, AVG, K-MEANS, K-MEANS-S), each
returning wall time, the ARI at the ground-truth cluster count, and any
extras. ``jobs/table_*.py`` and ``benchmarks/bench_*.py`` are thin
wrappers over this module.
"""
from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from repro.core.dendrogram import from_linkage
from repro.core.generic_dbht import dbht_on_planar_graph
from repro.core.kmeans import kmeans, kmeans_s
from repro.core.linkage import hac
from repro.core.metrics import ari
from repro.core.pmfg import pmfg
from repro.datasets import TSDataset, correlation_matrices, znorm
from repro.spark.pipeline import par_tdbht, seq_tdbht

# Exists only for perfbench/run.py::tmfg_placement, which puts the TMFG on
# Spark when (n - 4) / prefix <= this value: negative, so it reads False
# for every input. It goes with that harness function.
SPARK_TMFG_MAX_ROUNDS = -1


def prepare(ds: TSDataset):
    S, D = correlation_matrices(ds.X)
    return S, D, ds.n_classes


def run_pmfg_dbht(ds: TSDataset, S, D, k, time_budget_s: Optional[float] = None
                  ) -> Optional[Dict]:
    t0 = time.monotonic()
    edges = pmfg(S, time_budget_s=time_budget_s)
    if edges is None:
        return None  # timeout, like the paper's data sets 8/17/18
    res = dbht_on_planar_graph(S, D, edges)
    el = time.monotonic() - t0
    return {"time": el, "ari": ari(ds.y, res.dendrogram.cut_k(k))}


def run_seq_tdbht(ds: TSDataset, S, D, k, prefix: int = 1) -> Dict:
    run = seq_tdbht(S, D, prefix=prefix)
    return {"time": run.total, "ari": ari(ds.y, run.result.dendrogram.cut_k(k)),
            "steps": run.times, "rounds": run.tmfg.rounds}


def run_par_tdbht(spark, ds: TSDataset, S, D, k, prefix: int,
                  partitions: Optional[int] = None) -> Dict:
    run = par_tdbht(spark, S, D, prefix=prefix, partitions=partitions)
    return {"time": run.total, "ari": ari(ds.y, run.result.dendrogram.cut_k(k)),
            "steps": run.times, "rounds": run.tmfg.rounds}


def run_linkage(ds: TSDataset, S, D, k, method: str) -> Dict:
    t0 = time.monotonic()
    labels = from_linkage(hac(D, method), ds.n).cut_k(k)
    return {"time": time.monotonic() - t0, "ari": ari(ds.y, labels)}


def run_kmeans(ds: TSDataset, k, seed: int = 0) -> Dict:
    X = znorm(ds.X)
    t0 = time.monotonic()
    labels, _ = kmeans(X, k, seed=seed)
    return {"time": time.monotonic() - t0, "ari": ari(ds.y, labels)}


def beta_grid(n: int) -> List[int]:
    """The beta sweep for K-MEANS-S (paper tests 10..n)."""
    grid = [10, 20, 40, 80, 160, 320, 640]
    return sorted({min(b, n - 1) for b in grid if b <= max(10, n - 1)})


def run_kmeans_s(ds: TSDataset, k, beta: Optional[int] = None,
                 seed: int = 0) -> Dict:
    """One run at a fixed beta, or (paper protocol) the best over the
    sweep when beta is None."""
    X = znorm(ds.X)
    if beta is not None:
        t0 = time.monotonic()
        labels = kmeans_s(X, k, beta=beta, seed=seed)
        return {"time": time.monotonic() - t0, "ari": ari(ds.y, labels),
                "beta": beta}
    best = None
    t0 = time.monotonic()
    scores = {}
    for b in beta_grid(ds.n):
        labels = kmeans_s(X, k, beta=b, seed=seed)
        scores[b] = ari(ds.y, labels)
        if best is None or scores[b] > best["ari"]:
            best = {"ari": scores[b], "beta": b}
    best["time"] = time.monotonic() - t0
    best["scores"] = scores
    return best


# ------------------------------------------------------------------ reporting
def markdown_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    def fmt(x):
        if isinstance(x, float):
            return f"{x:.3f}"
        return str(x)
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(fmt(x) for x in r) + " |")
    return "\n".join(lines)


def write_result(name: str, text: str) -> str:
    out_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        f.write(text + "\n")
    print(text)
    print(f"\n[written to {path}]")
    return path


def get_spark():
    """Standalone SparkSession for ``spark-submit``/CLI job runs, with the
    conftest fixture's master, driver memory and host. No program stage
    runs Spark SQL, so no SQL setting is made."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '24g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = SparkSession.builder.appName("repro-job").getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s
