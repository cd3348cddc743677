"""Figures 10/11 + Section VII-B text: stock-market clustering.

The paper clusters detrended log-returns of 1614 US stocks (ICB sectors
as ground truth) and reports ARI 0.36 for PAR-TDBHT with prefix 30 vs
0.28 for the exact TMFG. We run the same pipeline (including the spectral
embedding preprocessing) on the synthetic factor-model market and print
the ARI per prefix plus the cluster x sector composition.

Usage: spark-submit jobs/table_stocks.py
"""
import numpy as np

from repro.bench import markdown_table, write_result
from repro.core.dbht import dbht
from repro.core.kmeans import spectral_embedding
from repro.core.metrics import ari
from repro.core.tmfg import tmfg
from repro.datasets import (SECTORS, correlation_matrices,
                            detrended_log_returns, stock_market)

PREFIXES = [1, 5, 10, 30, 50]


def cluster_stocks(prefix: int, returns: np.ndarray, k: int):
    """The paper's stock pipeline: spectral embedding of the normalized
    detrended log-returns, Pearson correlation of the embedding, then
    TMFG + DBHT."""
    emb = spectral_embedding(returns, n_components=k, beta=min(60, len(returns) - 1))
    S, D = correlation_matrices(emb)
    t = tmfg(S, prefix=prefix)
    res = dbht(S, D, t.tree, t.edges)
    return res.dendrogram.cut_k(k)


def main():
    prices, sectors = stock_market()
    returns = detrended_log_returns(prices)
    k = len(np.unique(sectors))
    rows = []
    labels_by_prefix = {}
    for prefix in PREFIXES:
        labels = cluster_stocks(prefix, returns, k)
        labels_by_prefix[prefix] = labels
        rows.append((prefix, round(ari(sectors, labels), 3)))
    table = markdown_table(["prefix", "ARI vs sectors"], rows)

    # cluster x sector composition for prefix=30 (the paper's Figure 10)
    labels = labels_by_prefix[30]
    comp_rows = []
    for c in np.unique(labels):
        counts = np.bincount(sectors[labels == c], minlength=len(SECTORS))
        top = np.argsort(-counts)[:3]
        comp_rows.append((int(c), int(counts.sum()),
                          ", ".join(f"{SECTORS[s]}:{counts[s]}"
                                    for s in top if counts[s] > 0)))
    comp = markdown_table(["cluster", "size", "top sectors"], comp_rows)
    write_result(
        "table_stocks.md",
        "# Stocks (Fig. 10/11, Section VII-B)\n\n" + table +
        "\n\n## Cluster composition at prefix=30\n\n" + comp)


if __name__ == "__main__":
    main()
