"""Tests for global candidate-embedding pooling (Spark aggregation),
cross-checked against numpy and the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.global_embedding import global_embeddings
from repro.oracle import assert_equivalent

EMB_SCHEMA = T.StructType(
    [
        T.StructField("key", T.StringType()),
        T.StructField("emb", T.ArrayType(T.FloatType())),
    ]
)


@pytest.fixture(scope="module")
def local_embs(spark):
    rng = np.random.default_rng(8)
    rows = []
    for key, n in [("a", 7), ("bb cc", 3), ("d", 1), ("e f g", 12)]:
        for _ in range(n):
            rows.append((key, rng.normal(size=4).astype(np.float32).tolist()))
    pdf = pd.DataFrame(rows, columns=["key", "emb"])
    return pdf, spark.createDataFrame(pdf, schema=EMB_SCHEMA)


class TestGlobalEmbeddings:
    def test_counts(self, local_embs):
        pdf, df = local_embs
        out = global_embeddings(df).toPandas().set_index("key")
        assert out.loc["a", "n_mentions"] == 7
        assert out.loc["d", "n_mentions"] == 1
        assert len(out) == 4

    def test_mean_pooling_matches_numpy(self, local_embs):
        pdf, df = local_embs
        out = global_embeddings(df).toPandas().set_index("key")
        for key, grp in pdf.groupby("key"):
            expect = np.stack(grp["emb"].map(np.asarray)).mean(axis=0)
            assert np.allclose(np.asarray(out.loc[key, "emb"]), expect, atol=1e-5)

    def test_pooled_mean_matches_duckdb_oracle(self, spark, local_embs):
        """Exploded per-dimension means from the Spark pooling must match
        DuckDB computing the same aggregation relationally."""
        pdf, df = local_embs
        pooled = global_embeddings(df)
        exploded = pooled.select(
            "key", F.posexplode("emb").alias("pos", "val")
        ).select("key", "pos", F.round("val", 5).alias("val"))
        flat = pd.DataFrame(
            [
                (r.key, p, float(v))
                for r in pdf.itertuples()
                for p, v in enumerate(r.emb)
            ],
            columns=["key", "pos", "val"],
        )
        assert_equivalent(
            exploded,
            "SELECT key, pos, ROUND(AVG(val), 5) AS val FROM flat GROUP BY key, pos",
            flat=flat,
        )

    def test_single_mention_identity(self, spark):
        pdf = pd.DataFrame([("solo", [1.0, 2.0, 3.0])], columns=["key", "emb"])
        df = spark.createDataFrame(pdf, schema=EMB_SCHEMA)
        out = global_embeddings(df).toPandas()
        assert np.allclose(out["emb"].iloc[0], [1.0, 2.0, 3.0])

