"""Distributed APSP: matches the driver Dijkstra substrate exactly."""
import numpy as np
import pytest

from repro.core.tmfg import tmfg
from repro.graphs.shortest_paths import apsp
from repro.spark.apsp_spark import apsp_df, apsp_matrix_spark


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(0)
    n = 40
    S = rng.random((n, n))
    S = (S + S.T) / 2
    t = tmfg(S)
    D = np.sqrt(2 * (1 - np.clip(S, -1, 1)))
    w = D[t.edges[:, 0], t.edges[:, 1]]
    return n, t.edges, w


def test_matches_driver(spark, graph):
    """Bit for bit, at the default and every partition count, including
    more partitions than sources (spark.range leaves some empty)."""
    n, edges, w = graph
    expected = apsp(n, edges, w)
    for partitions in (None, 1, 2, 3, 4, n + 17):
        got = apsp_matrix_spark(spark, n, edges, w, partitions=partitions)
        assert np.array_equal(got, expected), partitions


def test_df_shape_and_zero_diag(spark, graph):
    """One dense row per source: n rows, each dist of length n, zero at
    its own source."""
    n, edges, w = graph
    df = apsp_df(spark, n, edges, w)
    pdf = df.toPandas()
    df.edges_broadcast.unpersist()
    assert len(pdf) == n
    assert sorted(pdf["src"]) == list(range(n))
    for src, dist in zip(pdf["src"], pdf["dist"]):
        assert len(dist) == n and dist[src] == 0.0


def test_symmetric(spark, graph):
    n, edges, w = graph
    M = apsp_matrix_spark(spark, n, edges, w)
    assert np.allclose(M, M.T)


def test_partitions_dont_change_result(spark, graph):
    n, edges, w = graph
    a = apsp_matrix_spark(spark, n, edges, w, partitions=2)
    b = apsp_matrix_spark(spark, n, edges, w, partitions=13)
    assert np.array_equal(a, b)


def test_one_spark_job(spark, graph):
    """The sources come straight from spark.range: no shuffle, so one
    collect is one Spark job."""
    n, edges, w = graph
    sc = spark.sparkContext
    group = "test-apsp-matrix-jobs"
    sc.setJobGroup(group, "apsp_matrix_spark")
    try:
        apsp_matrix_spark(spark, n, edges, w, partitions=4)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # let the listener bus record the jobs that just ended
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1


def test_broadcast_released(spark, graph, monkeypatch):
    """apsp_matrix_spark unpersists the edge broadcast of apsp_df, also
    when the collect raises."""
    n, edges, w = graph
    sc = spark.sparkContext
    made, released = [], []
    broadcast = sc.broadcast

    def spy(value):
        b = broadcast(value)
        unpersist = b.unpersist

        def recorded(*args, **kwargs):
            released.append(b)
            unpersist(*args, **kwargs)

        b.unpersist = recorded
        made.append(b)
        return b

    monkeypatch.setattr(sc, "broadcast", spy)
    apsp_matrix_spark(spark, n, edges, w)
    assert len(made) == 1 and released == made

    def fail(self):
        raise RuntimeError("collect failed")

    monkeypatch.setattr(type(spark.range(1)), "toPandas", fail)
    with pytest.raises(RuntimeError, match="collect failed"):
        apsp_matrix_spark(spark, n, edges, w)
    assert len(made) == 2 and released == made
