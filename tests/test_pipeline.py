"""End-to-end pipeline: PAR-TDBHT (Spark) vs SEQ-TDBHT (driver) produce
identical dendrograms, also on generated adversarial inputs; timing
breakdown keys match Figure 5's steps."""
import numpy as np
import pytest

from repro.core import dbht as dbht_module
from repro.core.metrics import ari
from repro.datasets import correlation_matrices, latent_curve_dataset
from repro.spark.pipeline import par_tdbht, seq_tdbht


@pytest.fixture(scope="module")
def data():
    ds = latent_curve_dataset("pipe", 60, 80, 4, noise=0.5, shared=0.3,
                              outlier_frac=0.02, seed=0)
    S, D = correlation_matrices(ds.X)
    return ds, S, D


def adversarial(kind, seed=0):
    """(S, D) of a generated input that stresses tie-breaking or precision:
    ``ties`` rounds S to 1 decimal; ``duplicates`` overwrites a third of
    the series with copies of others; ``near-constant`` shrinks a third of
    them to a 1e-9 variation around a large offset."""
    rng = np.random.default_rng(seed)
    X = latent_curve_dataset("adv", 60, 80, 4, noise=0.5, shared=0.3,
                             seed=seed).X
    n = len(X)
    rows = rng.choice(n, n // 3, replace=False)
    if kind == "ties":
        S = np.round(correlation_matrices(X)[0], 1)
        return S, np.sqrt(np.maximum(2.0 * (1.0 - S), 0.0))
    if kind == "duplicates":
        X[rows] = X[rng.integers(0, n, len(rows))]
    elif kind == "near-constant":
        X[rows] = 1e3 * rng.standard_normal((len(rows), 1)) + 1e-9 * X[rows]
    return correlation_matrices(X)


@pytest.mark.parametrize("kind,prefix", [
    pytest.param("latent", 1, id="1"),
    pytest.param("latent", 8, id="8"),
    *(pytest.param(kind, prefix, id=f"{kind}-{prefix}")
      for kind in ("ties", "duplicates", "near-constant") for prefix in (1, 8)),
])
def test_par_equals_seq(spark, data, kind, prefix):
    S, D = data[1:] if kind == "latent" else adversarial(kind)
    seq = seq_tdbht(S, D, prefix=prefix)
    for partitions in (None, 1, 2, 3, 4):
        par = par_tdbht(spark, S, D, prefix=prefix, partitions=partitions)
        assert np.array_equal(par.tmfg.edges, seq.tmfg.edges)
        assert np.array_equal(par.result.assignments.group,
                              seq.result.assignments.group)
        assert np.array_equal(par.result.assignments.bubble,
                              seq.result.assignments.bubble)
        assert np.array_equal(par.result.dendrogram.merges,
                              seq.result.dendrogram.merges)


@pytest.mark.parametrize("grow", [-1, 1])
def test_d_of_another_shape_raises(spark, data, grow):
    """Both pipelines reject a ``D`` whose shape is not ``S``'s: a smaller
    one would fail on an edge index, a larger one silently give the
    weights of another block."""
    _, S, D = data
    n = len(S) + grow
    D = np.pad(D, (0, grow)) if grow > 0 else D[:n, :n]
    with pytest.raises(ValueError, match="shape of S"):
        seq_tdbht(S, D, prefix=8)
    with pytest.raises(ValueError, match="shape of S"):
        par_tdbht(spark, S, D, prefix=8)


def test_times_breakdown_keys(spark, data):
    _, S, D = data
    run = par_tdbht(spark, S, D, prefix=8)
    assert set(run.times) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}
    assert all(v >= 0 for v in run.times.values())
    assert run.total == pytest.approx(sum(run.times.values()))


def test_quality_on_easy_data(spark, data):
    ds, S, D = data
    run = par_tdbht(spark, S, D, prefix=8)
    labels = run.result.dendrogram.cut_k(ds.n_classes)
    assert ari(ds.y, labels) > 0.5


def test_partitions_dont_change_result(spark, data):
    _, S, D = data
    a = par_tdbht(spark, S, D, prefix=8, partitions=2)
    b = par_tdbht(spark, S, D, prefix=8, partitions=12)
    assert np.array_equal(a.result.dendrogram.merges,
                          b.result.dendrogram.merges)


def test_driver_tmfg_runs_only_the_apsp_jobs(spark, data):
    """The APSP collect is par_tdbht's only Spark work: the TMFG,
    assignment and hierarchy run no jobs."""
    _, S, D = data
    sc = spark.sparkContext
    group = "test-par-tdbht-jobs"
    sc.setJobGroup(group, "par_tdbht")
    try:
        par_tdbht(spark, S, D, prefix=8)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # let the listener bus record the jobs that just ended
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    assert 0 < len(jobs) <= 2


def test_failure_leaves_nothing_persisted(spark, data, monkeypatch):
    _, S, D = data
    persisted = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persisted().keys())

    def fail(*args, **kwargs):
        raise RuntimeError("assignment failed")

    monkeypatch.setattr(dbht_module, "assign_vertices", fail)
    with pytest.raises(RuntimeError, match="assignment failed"):
        par_tdbht(spark, S, D, prefix=8)
    assert set(persisted().keys()) <= before
