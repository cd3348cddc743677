"""Benchmark: Figure 4 scalability — runtime vs partition count (the
local-mode stand-in for thread count) on Crop-lite (n=1294), the largest
data set, matching the paper's choice. The TMFG runs on the driver, so
the sweep isolates the one distributed stage, APSP; the
prefix-parallelism side of Figure 4 is covered by bench_prefix_tmfg.py.
"""
import pytest

from repro.bench import prepare, run_par_tdbht
from repro.datasets import load_ucr_lite

_CACHE = {}


def get_ds():
    if "ds" not in _CACHE:
        ds = load_ucr_lite(17, seed=0)  # Crop-lite, n=1294
        _CACHE["ds"] = (ds, *prepare(ds))
    return _CACHE["ds"]


@pytest.mark.parametrize("partitions", [1, 2, 4, 8, 16])
def test_par_tdbht_partitions(benchmark, spark, partitions):
    ds, S, D, k = get_ds()
    out = {}

    def run():
        out["r"] = run_par_tdbht(spark, ds, S, D, k, prefix=50,
                                 partitions=partitions)

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rounds"] = out["r"]["rounds"]
    benchmark.extra_info["ari"] = round(out["r"]["ari"], 3)
    for step, t in out["r"]["steps"].items():
        benchmark.extra_info[step] = round(t, 3)
