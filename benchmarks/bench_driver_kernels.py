"""Step timings of the driver kernels that SEQ-TDBHT and PAR-TDBHT share.

Times, on one input at prefix 1, the five driver steps from raw series to
dendrogram, with the public functions SEQ-TDBHT calls:

* ``correlation``: ``repro.datasets.correlation_matrices``;
* ``tmfg``: ``repro.core.tmfg.tmfg``;
* ``apsp``, ``assignment`` and ``hierarchy``: the step times that
  ``repro.core.dbht.dbht`` reports as ``apsp`` (the driver kernel; PAR
  runs the same kernel in Spark tasks), ``bubble-tree`` (directions and
  assignments) and ``hierarchy``.

The inputs are Crop-lite (``crop``: ``load_ucr_lite(17)``, n=1294) and the
scale inputs ``n4000`` and ``n8000``: ``latent_curve_dataset`` with
Crop-lite's parameters, n=4000 or n=8000 and seed 17. Every repeat runs
the whole chain; the first is an untimed warm-up. The process's peak RSS
covers input generation and every repeat, with one chain's arrays alive at
a time, so run one input per process:

    PYTHONPATH=src python3 benchmarks/bench_driver_kernels.py --input crop

It prints one JSON object: per step the median and quartiles of the wall
times, the peak RSS in MB, and a SHA-256 of each step's output, so two
versions of the program can be compared bit for bit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import time

import numpy as np

from repro.core.dbht import dbht
from repro.core.tmfg import tmfg
from repro.datasets import (UCR_LITE, correlation_matrices,
                            latent_curve_dataset, load_ucr_lite)

STEPS = ("correlation", "tmfg", "apsp", "assignment", "hierarchy")


def load_input(name: str) -> np.ndarray:
    if name == "crop":
        return load_ucr_lite(17, seed=0).X
    n = int(name[1:])
    _, _, length, classes, noise, shared, outliers = UCR_LITE[17]
    return latent_curve_dataset(f"Crop-{n}", n, length, classes,
                                noise=noise, shared=shared,
                                outlier_frac=outliers, seed=17).X


def run_chain(X: np.ndarray):
    """One pass over the five steps: ``(seconds per step, outputs)``."""
    out = {}
    t0 = time.perf_counter()
    S, D = out["correlation"] = correlation_matrices(X)
    t1 = time.perf_counter()
    t = tmfg(S, prefix=1)
    out["tmfg"] = (t.edges, t.seed_vertices)
    t2 = time.perf_counter()
    res = dbht(S, D, t.tree, t.edges)
    out["apsp"] = res.apsp
    out["assignment"] = (res.assignments.group, res.assignments.bubble)
    out["hierarchy"] = res.dendrogram.merges
    times = {"correlation": t1 - t0, "tmfg": t2 - t1,
             "apsp": res.times["apsp"],
             "assignment": res.times["bubble-tree"],
             "hierarchy": res.times["hierarchy"]}
    return times, out


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays if isinstance(arrays, tuple) else (arrays,):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--input", choices=("crop", "n4000", "n8000"),
                    default="crop")
    ap.add_argument("--repeats", type=int, default=9,
                    help="timed passes after one untimed warm-up")
    args = ap.parse_args()
    X = load_input(args.input)
    # the warm-up's outputs are hashed and dropped, so that no more than
    # one chain's arrays are alive at a time
    digests = {s: digest(o) for s, o in run_chain(X)[1].items()}
    runs = [run_chain(X)[0] for _ in range(args.repeats)]
    total = [sum(r.values()) for r in runs]
    print(json.dumps({
        "input": args.input, "n": len(X), "repeats": args.repeats,
        "steps_s": {s: quartiles([r[s] for r in runs]) for s in STEPS},
        "total_s": quartiles(total),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "digests": digests,
    }, indent=1))


if __name__ == "__main__":
    main()
