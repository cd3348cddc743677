"""Distributed APSP: one Spark job of dense source blocks, bit-identical
to the driver kernel."""
import numpy as np
import pytest
from pyspark import RDD

from repro.core.tmfg import tmfg
from repro.graphs.shortest_paths import apsp
from repro.spark.apsp_spark import apsp_matrix_spark


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
    more partitions than sources (some blocks are then empty)."""
    n, edges, w = graph
    expected = apsp(n, edges, w)
    for partitions in (None, 1, 2, 3, 4, n + 17):
        got = apsp_matrix_spark(spark, n, edges, w, partitions=partitions)
        assert np.array_equal(got, expected), partitions


def test_blocks_tile_sources(spark, graph, monkeypatch):
    """The collect returns one dense (k, n) block per task, task i holding
    sources i*n//P .. (i+1)*n//P - 1: zero at its own sources, and the
    blocks tiling 0..n-1 in partition order (empty ones included)."""
    n, edges, w = graph
    collected = []
    collect = RDD.collect

    def spy(self):
        out = collect(self)
        collected.append(out)
        return out

    monkeypatch.setattr(RDD, "collect", spy)
    for parts in (3, n + 17):
        collected.clear()
        M = apsp_matrix_spark(spark, n, edges, w, partitions=parts)
        [blocks] = collected
        assert len(blocks) == parts
        start = 0
        for i, block in enumerate(blocks):
            k = (i + 1) * n // parts - i * n // parts
            assert isinstance(block, np.ndarray) and block.dtype == np.float64
            assert block.shape == (k, n), (parts, i)
            src = np.arange(start, start + k)
            assert np.all(block[np.arange(k), src] == 0.0)
            assert np.array_equal(block, M[start:start + k])
            start += k
        assert start == n


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
    """The block indices come straight from sc.range: no shuffle, so one
    collect is one Spark job of one stage, with one task per block."""
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
    st = sc.statusTracker()
    [job] = st.getJobIdsForGroup(group)
    [stage] = st.getJobInfo(job).stageIds
    info = st.getStageInfo(stage)
    assert info.numTasks == 4 and info.numCompletedTasks == 4


def test_no_broadcast(spark, graph, monkeypatch):
    """The edges ship in the task closure: apsp_matrix_spark makes no
    broadcast, so a failing collect leaves none to release and raises its
    own error unchanged."""
    n, edges, w = graph
    sc = spark.sparkContext
    made = []
    broadcast = sc.broadcast

    def spy(value):
        made.append(value)
        return broadcast(value)

    monkeypatch.setattr(sc, "broadcast", spy)
    apsp_matrix_spark(spark, n, edges, w)
    assert made == []

    error = RuntimeError("collect failed")

    def fail(self):
        raise error

    monkeypatch.setattr(RDD, "collect", fail)
    with pytest.raises(RuntimeError) as raised:
        apsp_matrix_spark(spark, n, edges, w)
    assert raised.value is error
    assert made == []
