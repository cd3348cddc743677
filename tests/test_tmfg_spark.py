"""Spark TMFG: bit-identical to the driver reference for every prefix."""
import numpy as np
import pytest

from repro.core.tmfg import tmfg
from repro.spark.tmfg_spark import tmfg_spark


def rand_sim(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n))
    S = (S + S.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


@pytest.mark.parametrize("n,seed,prefix,decimals", [
    (30, 0, 1, None),
    (60, 1, 4, None),
    (90, 2, 10, None),
    (60, 3, 1000, None),  # prefix larger than n
    (70, 5, 3, 1),  # heavy ties in gains, best vertices and face order
], ids=["30-0-1", "60-1-4", "90-2-10", "60-3-1000", "ties-70-5-3"])
def test_identical_to_driver(spark, n, seed, prefix, decimals):
    S = rand_sim(n, seed)
    if decimals is not None:
        S = np.round(S, decimals)
    ref = tmfg(S, prefix=prefix)
    got = tmfg_spark(spark, S, prefix=prefix)
    assert np.array_equal(got.edges, ref.edges)
    assert got.rounds == ref.rounds
    assert got.insertions == ref.insertions
    assert got.tree.bubbles == ref.tree.bubbles
    assert got.tree.parent == ref.tree.parent
    assert got.tree.children == ref.tree.children
    assert got.tree.sep_triangle == ref.tree.sep_triangle
    assert got.tree.root == ref.tree.root


def test_partitions_dont_change_result(spark):
    S = rand_sim(50, 4)
    a = tmfg_spark(spark, S, prefix=6, partitions=12)
    for partitions in (1, 2, 3, 4):
        b = tmfg_spark(spark, S, prefix=6, partitions=partitions)
        assert np.array_equal(a.edges, b.edges)
        assert a.insertions == b.insertions


def test_at_most_two_jobs_per_round(spark):
    """GAINS stays on the driver: a round costs the re-scoring job alone,
    never per-round state jobs (sort, filter, union, checkpoint)."""
    sc = spark.sparkContext
    group = "test-tmfg-spark-jobs"
    sc.setJobGroup(group, "tmfg_spark jobs per round")
    try:
        t = tmfg_spark(spark, rand_sim(120, 6), prefix=10)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # let the listener bus record the jobs that just ended
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    jobs = sc.statusTracker().getJobIdsForGroup(group)
    assert t.rounds > 1
    assert 0 < len(jobs) <= 2 * t.rounds


def test_invalid_prefix(spark):
    with pytest.raises(ValueError):
        tmfg_spark(spark, rand_sim(10, 0), prefix=0)


def test_non_finite_similarity(spark):
    S = rand_sim(10, 0)
    S[2, 3] = S[3, 2] = np.nan
    with pytest.raises(ValueError, match="S must be finite"):
        tmfg_spark(spark, S)
