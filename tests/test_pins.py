"""Bit identity at benchmark scale: ``seq_tdbht`` on the seed-0 inputs of
the benchmark workloads reproduces the output digests pinned in
``perfbench/pins.json`` (read, never written), and its Crop-lite APSP
matrix equals the frozen per-source Dijkstra. Also the contract between
the program and ``perfbench/run.py``: the way the harness calls
``par_tdbht`` still works and gives SEQ's output."""
import importlib.util
import json
import os

import numpy as np
import pytest

from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.spark.pipeline import par_tdbht, seq_tdbht
from tests import test_shortest_paths

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module: its workload inputs and digest."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def pins():
    with open(os.path.join(PERFBENCH, "pins.json")) as f:
        return json.load(f)


def run_workload(bench, workload):
    ds, prefix = bench.load_inputs(workload, 0)
    S, D = correlation_matrices(ds.X)
    return seq_tdbht(S, D, prefix=prefix), D


@pytest.mark.parametrize("workload", ["seq-crop-p1", "par-ecg-p50"])
def test_seq_tdbht_matches_pin(bench, pins, workload):
    run, _ = run_workload(bench, workload)
    assert bench.digest(run) == pins[workload]["0"]


def test_crop_lite_apsp_matches_dijkstra(bench):
    run, D = run_workload(bench, "seq-crop-p1")
    t = run.tmfg
    w = D[t.edges[:, 0], t.edges[:, 1]]
    expected = test_shortest_paths.TestBitIdentity.reference(t.n, t.edges, w)
    assert np.array_equal(run.result.apsp, expected)


@pytest.fixture(scope="module")
def small():
    ds = latent_curve_dataset("pipe", 60, 80, 4, noise=0.5, shared=0.3,
                              outlier_frac=0.02, seed=0)
    return correlation_matrices(ds.X)


def test_harness_placement_runs_par_tdbht(spark, bench, small):
    S, D = small
    placement = bench.tmfg_placement(len(S), 8)
    par = par_tdbht(spark, S, D, prefix=8, **placement)
    seq = seq_tdbht(S, D, prefix=8)
    assert np.array_equal(par.tmfg.edges, seq.tmfg.edges)
    assert bench.digest(par) == bench.digest(seq)


def test_spark_tmfg_true_raises(spark, small):
    S, D = small
    with pytest.raises(ValueError, match="spark_tmfg"):
        par_tdbht(spark, S, D, prefix=8, spark_tmfg=True)
