"""Global candidate embeddings (Section V-C): pooling local embeddings.

A candidate's global embedding is the mean of the local embeddings of
all its mentions found in the stream — "it aggregates all contextual
possibilities in which a candidate appears". The pooling itself is
``CandidateBase``'s running (sum, count); this module exposes it for a
DataFrame of mention embeddings, collected to the driver and pooled
there (the candidate table is small).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.candidate_base import CandidateBase

__all__ = ["global_embeddings", "GLOBAL_SCHEMA"]

GLOBAL_SCHEMA = T.StructType(
    [
        T.StructField("key", T.StringType(), False),
        T.StructField("n_mentions", T.LongType(), False),
        T.StructField("emb", T.ArrayType(T.FloatType()), False),
    ]
)


def global_embeddings(local_emb_df: DataFrame) -> DataFrame:
    """``(key, emb)`` mention rows -> ``(key, n_mentions, pooled emb)``."""
    pdf = local_emb_df.select("key", "emb").toPandas()
    embs = np.stack(pdf["emb"].to_numpy()) if len(pdf) else np.zeros((0, 0))
    cb = CandidateBase(embs.shape[1])
    cb.add_mentions(pdf["key"].to_numpy(), embs)
    out = cb.table()[["key", "n_mentions"]].assign(
        emb=[e.tolist() for e in cb.embeddings(cb.keys())]
    )
    return local_emb_df.sparkSession.createDataFrame(out, GLOBAL_SCHEMA)
