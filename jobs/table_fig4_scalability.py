"""Figure 4 analog: self-relative speedup vs available parallelism.

The paper sweeps thread counts on 48 cores; in local-mode Spark the
equivalent knob is the number of partitions (tasks <= partitions bounds
concurrency). We sweep partitions for several prefix sizes on the largest
data set (Crop-lite) and report speedup relative to 1 partition, and the
wall time of each pipeline step.

Usage: spark-submit jobs/table_fig4_scalability.py [dataset_id]
"""
import sys

from repro.bench import (get_spark, markdown_table, prepare, run_par_tdbht,
                         write_result)
from repro.datasets import load_ucr_lite

PARTITIONS = [1, 2, 4, 8, 16]
PREFIXES = [1, 50, 200]
STEPS = ["tmfg", "apsp", "bubble-tree", "hierarchy"]  # keys of r["steps"]


def main(did: int):
    spark = get_spark()
    ds = load_ucr_lite(did, seed=0)
    S, D, k = prepare(ds)
    # warm up the JVM / Python workers so the first measured row isn't
    # inflated by one-time startup costs
    run_par_tdbht(spark, ds, S, D, k, prefix=PREFIXES[0])
    rows = []
    for prefix in PREFIXES:
        base = None
        for parts in PARTITIONS:
            r = run_par_tdbht(spark, ds, S, D, k, prefix=prefix,
                              partitions=parts)
            if base is None:
                base = r["time"]
            rows.append((ds.name, prefix, parts, round(r["time"], 3),
                         round(base / r["time"], 2), r["rounds"])
                        + tuple(round(r["steps"][s], 3) for s in STEPS))
    table = markdown_table(
        ["dataset", "prefix", "partitions", "time_s", "speedup", "rounds"]
        + [f"{s}_s" for s in STEPS], rows)
    write_result("table_fig4_scalability.md",
                 "# Fig. 4 (speedup vs parallelism)\n\n" + table)
    spark.stop()


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 17)
