"""Figure 6 analog: clustering quality (ARI) of PAR-TDBHT vs prefix size.

Driver implementations (identical results to the Spark path, tested) so
the full 18-data-set sweep stays fast.

Usage: spark-submit jobs/table_fig6_prefix_ari.py [dataset ids...]
"""
import sys

from repro.bench import markdown_table, prepare, write_result
from repro.core.dbht import dbht
from repro.core.metrics import ari
from repro.core.tmfg import tmfg
from repro.datasets import UCR_LITE, load_ucr_lite

PREFIXES = [1, 2, 5, 10, 30, 50, 200]


def main(dataset_ids):
    rows = []
    for did in dataset_ids:
        ds = load_ucr_lite(did, seed=0)
        S, D, k = prepare(ds)
        aris = []
        for prefix in PREFIXES:
            t = tmfg(S, prefix=prefix)
            res = dbht(S, D, t.tree, t.edges)
            aris.append(round(ari(ds.y, res.dendrogram.cut_k(k)), 3))
        rows.append((did, ds.name, ds.n, *aris))
    table = markdown_table(
        ["ID", "dataset", "n"] + [f"p={p}" for p in PREFIXES], rows)
    write_result("table_fig6_prefix_ari.md",
                 "# Fig. 6 (ARI vs prefix size)\n\n" + table)


if __name__ == "__main__":
    ids = [int(a) for a in sys.argv[1:]] or sorted(UCR_LITE)
    main(ids)
