"""Benchmark: TMFG construction alone vs prefix size (the Figure 5 "tmfg"
bars). Both pipelines build the TMFG with this driver engine."""
import pytest

from repro.bench import prepare
from repro.core.tmfg import tmfg
from repro.datasets import load_ucr_lite

_CACHE = {}


def get_S():
    if "S" not in _CACHE:
        ds = load_ucr_lite(6, seed=0)
        S, _, _ = prepare(ds)
        _CACHE["S"] = S
    return _CACHE["S"]


@pytest.mark.parametrize("prefix", [1, 10, 50, 200])
def test_tmfg_driver(benchmark, prefix):
    S = get_S()
    t = benchmark.pedantic(lambda: tmfg(S, prefix=prefix), rounds=1,
                           iterations=1)
    benchmark.extra_info["rounds"] = t.rounds

