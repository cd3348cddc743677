"""Distributed APSP: one Spark job of dense source blocks, bit-identical
to the driver kernel; its tasks re-read a worker's zip archives only when
they change."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pytest
from pyspark import RDD

from repro.core.tmfg import tmfg
from repro.graphs.shortest_paths import apsp
from repro.spark import apsp_spark
from repro.spark.apsp_spark import apsp_matrix_spark, guard_zip_directories


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


def _write_zip(path, modules):
    with zipfile.ZipFile(path, "w") as z:
        for name in modules:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")


@pytest.fixture
def zip_on_path(tmp_path, monkeypatch):
    """A zip archive holding module ``zg_a``, first on ``sys.path`` and
    imported from there. Afterwards the modules, the archive's cached
    importer and every guard installed by the test are removed."""
    archive = str(tmp_path / "mods.zip")
    _write_zip(archive, ["zg_a"])
    monkeypatch.syspath_prepend(archive)
    import zg_a  # noqa: F401
    yield archive
    for name in ("zg_a", "zg_b"):
        sys.modules.pop(name, None)
    sys.path_importer_cache.pop(archive, None)
    for finder in sys.path_importer_cache.values():
        if isinstance(finder, zipimport.zipimporter):
            vars(finder).pop("invalidate_caches", None)


def _count_reads(monkeypatch):
    reads = []
    read = zipimport._read_directory

    def counting(archive):
        reads.append(archive)
        return read(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return reads


def test_guard_rereads_only_changed_archives(zip_on_path, monkeypatch):
    """Once guarded, invalidating the import caches leaves an unchanged
    archive's directory as it is; after the archive is rewritten with a
    new module, the next invalidation re-reads it and the module
    imports."""
    archive = zip_on_path
    finder = sys.path_importer_cache[archive]
    assert isinstance(finder, zipimport.zipimporter)
    reads = _count_reads(monkeypatch)
    importlib.invalidate_caches()
    assert archive in reads  # unguarded, every invalidation re-reads

    guard_zip_directories()
    reads.clear()
    importlib.invalidate_caches()
    assert archive not in reads

    _write_zip(archive, ["zg_a", "zg_b"])
    importlib.invalidate_caches()
    assert reads.count(archive) == 1
    import zg_b
    assert zg_b.NAME == "zg_b"

    reads.clear()
    importlib.invalidate_caches()
    assert archive not in reads


def test_guard_installs_once(zip_on_path, monkeypatch):
    """A second install keeps the first wrapper, so a changed archive is
    re-read once per invalidation."""
    archive = zip_on_path
    finder = sys.path_importer_cache[archive]
    guard_zip_directories()
    wrapper = finder.invalidate_caches
    guard_zip_directories()
    assert finder.invalidate_caches is wrapper
    reads = _count_reads(monkeypatch)
    _write_zip(archive, ["zg_a", "zg_b"])
    finder.invalidate_caches()
    assert reads == [archive]


def test_workers_skip_unchanged_archives(spark):
    """In a Spark task, once the guard is installed, invalidating the
    import caches re-reads none of the worker's zip archives."""

    def probe(_):
        guard_zip_directories()
        reads = []
        read = zipimport._read_directory

        def counting(archive):
            reads.append(archive)
            return read(archive)

        zipimport._read_directory = counting
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        zips = [f for f in sys.path_importer_cache.values()
                if isinstance(f, zipimport.zipimporter)]
        return len(reads), len(zips)

    sc = spark.sparkContext
    [(reads, zips)] = sc.range(1, numSlices=1).map(probe).collect()
    assert zips > 0 and reads == 0


def test_each_task_installs_guard(spark, graph, monkeypatch):
    """The task function installs the guard before its kernel call."""
    n, edges, w = graph
    installs = []
    monkeypatch.setattr(apsp_spark, "guard_zip_directories",
                        lambda: installs.append(True))
    mapped = []
    rdd_map = RDD.map

    def spy(self, f, *args, **kwargs):
        mapped.append(f)
        return rdd_map(self, f, *args, **kwargs)

    monkeypatch.setattr(RDD, "map", spy)
    apsp_matrix_spark(spark, n, edges, w, partitions=2)
    [block] = mapped
    assert np.array_equal(block(0), apsp(n, edges, w, sources=range(n // 2)))
    assert installs == [True]
