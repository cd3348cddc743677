"""End-to-end pipeline: PAR-TDBHT (Spark) vs SEQ-TDBHT (driver) produce
identical dendrograms; timing breakdown keys match Figure 5's steps."""
import numpy as np
import pytest

from repro.core.metrics import ari
from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.spark import pipeline
from repro.spark.pipeline import par_tdbht, seq_tdbht


@pytest.fixture(scope="module")
def data():
    ds = latent_curve_dataset("pipe", 60, 80, 4, noise=0.5, shared=0.3,
                              outlier_frac=0.02, seed=0)
    S, D = correlation_matrices(ds.X)
    return ds, S, D


@pytest.mark.parametrize("prefix", [1, 8])
def test_par_equals_seq(spark, data, prefix):
    ds, S, D = data
    par = par_tdbht(spark, S, D, prefix=prefix, spark_tmfg=(prefix > 1))
    seq = seq_tdbht(S, D, prefix=prefix)
    assert np.array_equal(par.tmfg.edges, seq.tmfg.edges)
    assert np.array_equal(par.result.assignments.group,
                          seq.result.assignments.group)
    assert np.array_equal(par.result.assignments.bubble,
                          seq.result.assignments.bubble)
    assert np.allclose(par.result.dendrogram.merges,
                       seq.result.dendrogram.merges)


def test_times_breakdown_keys(spark, data):
    _, S, D = data
    run = par_tdbht(spark, S, D, prefix=8, spark_tmfg=False)
    assert set(run.times) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}
    assert all(v >= 0 for v in run.times.values())
    assert run.total == pytest.approx(sum(run.times.values()))


def test_quality_on_easy_data(spark, data):
    ds, S, D = data
    run = par_tdbht(spark, S, D, prefix=8, spark_tmfg=False)
    labels = run.result.dendrogram.cut_k(ds.n_classes)
    assert ari(ds.y, labels) > 0.5


def test_partitions_dont_change_result(spark, data):
    _, S, D = data
    a = par_tdbht(spark, S, D, prefix=8, partitions=2, spark_tmfg=False)
    b = par_tdbht(spark, S, D, prefix=8, partitions=12, spark_tmfg=False)
    assert np.allclose(a.result.dendrogram.merges, b.result.dendrogram.merges)


@pytest.mark.parametrize("n,prefix,where", [
    (200, 1, "driver"),  # 196 rounds > SPARK_TMFG_MAX_ROUNDS
    (200, 2, "spark"),
    (60, 1, "spark"),
])
def test_default_tmfg_placement(spark, monkeypatch, n, prefix, where):
    class Placed(Exception):
        pass

    def place(name):
        def fn(*args, **kwargs):
            raise Placed(name)
        return fn

    monkeypatch.setattr(pipeline, "tmfg", place("driver"))
    monkeypatch.setattr(pipeline, "tmfg_spark", place("spark"))
    with pytest.raises(Placed, match=where):
        par_tdbht(spark, np.eye(n), np.eye(n), prefix=prefix)


def test_failure_leaves_nothing_persisted(spark, data, monkeypatch):
    _, S, D = data
    persisted = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persisted().keys())

    def fail(*args, **kwargs):
        raise RuntimeError("assignment failed")

    monkeypatch.setattr(pipeline, "assign_vertices_spark", fail)
    with pytest.raises(RuntimeError, match="assignment failed"):
        par_tdbht(spark, S, D, prefix=8, spark_tmfg=False)
    assert set(persisted().keys()) <= before
