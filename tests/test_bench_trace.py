"""The benchmark's layer trace (``perfbench/layers.py``) still runs and
measures the production program. It re-issues the cycle through the
split path (``extract_mentions``, ``collect_local_embeddings``,
``global_embeddings``) and ``CandidateBase.add_mention``, which no cycle
calls, so without this test only a traced bench run would see a break.
The file is loaded by its path, as the benchmark runs it, and is not
edited."""
import importlib.util
import os

import pytest

from repro.core.pipeline import EMDGlobalizer
from repro.local_emd.base import SPAN_COLS
from repro.streaming.job import STREAM_SCHEMA, StreamingGlobalizer, write_stream_batches
from repro.streams import generator as gen
from repro.streams.generator import TWEETS_SCHEMA

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layers.py"
)

VARIANTS = ["chunker_variant", "aguilar_variant"]


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans(mentions) -> list:
    return sorted(map(tuple, mentions[SPAN_COLS + ["key"]].itertuples(index=False)))


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_cycle_emits_the_cycles_mentions(spark, request, layers, variant, d1_small):
    v = request.getfixturevalue(variant)
    tweets_df = spark.createDataFrame(d1_small.tweets.head(600), TWEETS_SCHEMA).cache()
    try:
        final, counts = layers.traced_cycle(spark, v, tweets_df, layers.Tracer())
        expect = EMDGlobalizer(v).run(spark, tweets_df)
    finally:
        tweets_df.unpersist()
    assert len(expect.final_mentions) > 0
    assert _spans(final) == _spans(expect.final_mentions)
    assert counts["global_embedding.candidates"] == len(expect.candidates)


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_replay_emits_the_streams_mentions(spark, request, layers, variant, tmp_path):
    v = request.getfixturevalue(variant)
    paths = write_stream_batches(gen.generate("d1", scale=0.2), str(tmp_path), n_batches=2)
    tracer = layers.Tracer()
    mentions, counts = layers.traced_replay(spark, v, paths, tracer)
    sg = StreamingGlobalizer(v)
    for batch_id, path in enumerate(paths):
        sg.process_batch(spark, spark.read.schema(STREAM_SCHEMA).json(path), batch_id)
    assert counts["pipeline.final_mentions"] == len(mentions) > 0
    assert _spans(mentions) == _spans(sg.all_output_mentions())
    assert counts["global_embedding.candidates"] == len(sg.candidate_base)
    assert tracer.seconds["global_embedding.pool"] > 0
