"""Tests of the benchmark's own helpers. Run with ``python3 -m pytest perfbench``.

None of them starts Spark.
"""
from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pandas as pd
import pytest

import measure

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _mentions(rows):
    return pd.DataFrame(rows, columns=measure.MENTION_COLS)


# ---- summaries -------------------------------------------------------------


def test_summarize_reports_median_and_sample_count():
    s = measure.summarize([3.0, 1.0, 2.0, 10.0])
    assert (s.n, s.median) == (4, 2.5)
    assert s.tail_pct is None and s.tail is None


def test_summarize_reports_only_tails_with_ten_samples_beyond():
    s = measure.summarize(range(1, 101))
    assert (s.n, s.median, s.tail_pct, s.tail) == (100, 50.5, 90.0, 90.0)
    s = measure.summarize(range(1, 1001))
    assert (s.tail_pct, s.tail) == (99.0, 990.0)
    assert measure.summarize(range(99)).tail_pct is None


def test_summarize_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        measure.summarize([])


# ---- metric names and the result line ------------------------------------------


@pytest.mark.parametrize(
    "name", ["cycle_s", "local_emd.tag_s", "setup.fit_s", "p99-latency", "9lives", "a" * 64]
)
def test_valid_metric_names(name):
    assert measure.check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "cycle s", "tag/s", "f1%", "é", "a" * 65, None, 3]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        measure.check_metric_name(name)


def test_declared_metric_names_are_valid_and_unique():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        measure.check_metric_name(n)


def test_result_line_carries_every_declared_metric_with_its_unit():
    line = measure.result_line(True, 3, 0, {"a_s": 1.25, "b": 2}, {"a_s": "s", "b": "count"})
    assert json.loads(line) == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a_s": {"value": 1.25, "unit": "s"}, "b": {"value": 2.0, "unit": "count"}},
    }


@pytest.mark.parametrize(
    "values, attempted, failed",
    [
        ({"a_s": 1.0}, 1, 0),  # missing metric
        ({"a_s": 1.0, "b": 1.0, "c": 1.0}, 1, 0),  # undeclared metric
        ({"a_s": float("nan"), "b": 1.0}, 1, 0),
        ({"a_s": float("inf"), "b": 1.0}, 1, 0),
        ({"a_s": 1.0, "b": 1.0}, 0, 0),  # nothing attempted
        ({"a_s": 1.0, "b": 1.0}, 1, 2),  # more failed than attempted
    ],
)
def test_result_line_rejects_malformed_results(values, attempted, failed):
    with pytest.raises(ValueError):
        measure.result_line(True, attempted, failed, values, {"a_s": "s", "b": "count"})


# ---- digests ----------------------------------------------------------------------


def test_digest_ignores_order_and_duplicates_but_not_content():
    a = _mentions([(1, 0, 2, 1, "x"), (2, 0, 0, 2, "y z")])
    b = _mentions([(2, 0, 0, 2, "y z"), (1, 0, 2, 1, "x"), (1, 0, 2, 1, "x")])
    c = _mentions([(1, 0, 2, 1, "x"), (2, 0, 1, 2, "y z")])
    assert measure.mention_digest(a) == measure.mention_digest(b)
    assert measure.mention_digest(a) != measure.mention_digest(c)


# ---- output checks ----------------------------------------------------------------


def _batch_case():
    mined = _mentions([(1, 0, 0, 1, "x"), (1, 0, 3, 1, "y"), (2, 0, 1, 1, "x")])
    final = mined[mined["key"] == "x"]
    candidates = pd.DataFrame({"key": ["x", "y"], "label": ["entity", "non-entity"]})
    return final, mined, candidates


def test_batch_check_accepts_a_correct_cycle():
    final, mined, candidates = _batch_case()
    assert measure.check_batch_output(final, mined, candidates, 0.5, 0.7) == []


def test_batch_check_rejects_a_final_mention_never_mined():
    final, mined, candidates = _batch_case()
    tampered = pd.concat([final, _mentions([(9, 0, 0, 1, "x")])], ignore_index=True)
    problems = measure.check_batch_output(tampered, mined, candidates, 0.5, 0.7)
    assert problems == ["1 final mentions were never mined"]


def test_batch_check_rejects_a_final_key_not_labelled_entity():
    final, mined, candidates = _batch_case()
    tampered = mined  # emits the non-entity "y" too
    problems = measure.check_batch_output(tampered, mined, candidates, 0.5, 0.7)
    assert problems == ["1 final keys are not labelled entity"]


@pytest.mark.parametrize("global_f1", [0.5, 0.4])
def test_batch_check_rejects_global_f1_not_above_local(global_f1):
    final, mined, candidates = _batch_case()
    problems = measure.check_batch_output(final, mined, candidates, 0.5, global_f1)
    assert len(problems) == 1 and problems[0].startswith("global F1")


def _stream_input():
    return pd.DataFrame({"tweet_id": [1, 2, 3], "sent_id": [0, 0, 0]})


def test_stream_check_accepts_a_correct_replay():
    out = _mentions([(1, 0, 0, 1, "x"), (3, 0, 2, 1, "x")])
    assert measure.check_stream_output([2, 1], out, _stream_input()) == []


def test_stream_check_rejects_lost_or_duplicated_tweets():
    out = _mentions([(1, 0, 0, 1, "x")])
    assert measure.check_stream_output([2], out, _stream_input())
    assert measure.check_stream_output([2, 2], out, _stream_input())


def test_stream_check_rejects_a_mention_of_no_input_tweet():
    out = _mentions([(1, 0, 0, 1, "x"), (7, 0, 0, 1, "x")])
    problems = measure.check_stream_output([3], out, _stream_input())
    assert problems == ["1 emitted mentions reference no input sentence"]


# ---- the harness itself -----------------------------------------------------------


def test_harness_modules_start_no_spark_at_import(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from pyspark import SparkContext

    for mod in ("run", "layers", "workloads"):
        importlib.import_module(mod)
    assert SparkContext._active_spark_context is None


def test_declared_workloads_exist_and_layer_metrics_are_declared(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    traced = {f"{n}_s" for n in layers.LAYERS + layers.SETUP_LAYERS} | set(layers.COUNTS)
    assert traced <= per_layer


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d4-chunker",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
