"""The similarity relation of the DBHT Spark SQL reference plans."""
import numpy as np

from repro.spark.similarity import sim_df_from_matrix


def test_sim_df_from_matrix(spark):
    rng = np.random.default_rng(1)
    S = rng.random((8, 8))
    S = (S + S.T) / 2
    df = sim_df_from_matrix(spark, S)
    assert df.count() == 8 * 7
    pdf = df.toPandas()
    for _, r in pdf.head(10).iterrows():
        assert r["w"] == S[int(r["i"]), int(r["j"])]
