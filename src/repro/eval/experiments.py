"""Experiment runners: the paper's Tables I-IV, the Fig. 6 ablation and
the Section VI-C error analysis.

Tables III and IV, Fig. 6 and Section VI-C all read one grid of cells:
``run_cells`` runs each (dataset, Local EMD system) cell of the
framework once on the corpora it is handed, and ``table3``, ``table4``,
``ablation`` and ``error_analysis`` build their numbers from the cells
they are handed. ``run_table1`` reads the corpora and no cells,
``run_table2`` the fitted variants. ``run_tables`` renders any subset of
``TABLES`` as text, generating each corpus, fitting each framework
variant and running each cell the named tables need once;
``jobs/run_all.py`` writes that text to files. ``scale``/``d5_scale``
shrink corpora for tests; the full run uses Table I sizes with the D5
classifier stream at 20% (38K -> 7.6K tweets; the candidate
distribution is scale-free, see DESIGN.md).
"""
from __future__ import annotations

import json
from typing import NamedTuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.hire_ner import HireNER
from repro.core.pipeline import (
    EMDGlobalizer,
    FittedVariant,
    GlobalizerResult,
    build_variant,
)
from repro.eval import paper_numbers as paper
from repro.eval.metrics import PRF, score_mentions
from repro.local_emd.aguilar import make_aguilar
from repro.local_emd.bertweet import make_bertweet
from repro.local_emd.np_chunker import NPChunker
from repro.local_emd.twitter_nlp import TwitterNLP
from repro.streams import generator as gen
from repro.streams.generator import TweetDataset

__all__ = [
    "TABLES",
    "Cell",
    "make_system",
    "fitted_variants",
    "generate_datasets",
    "run_cell",
    "run_cells",
    "f1_gain_pct",
    "table3_row",
    "run_table1",
    "run_table2",
    "table3",
    "table4",
    "ablation",
    "error_analysis",
    "run_tables",
]

DEFAULT_D5_SCALE = 0.2

AGUILAR = "Aguilar et al."
STREAMING = ("d1", "d2", "d3", "d4")
TABLE1_DATASETS = (*paper.DATASETS, "d5")

# mention-count bin width of the Section VI-C classifier recall (Fig. 7)
FREQ_BIN_WIDTH = 5

# output-file stem -> (the Local EMD systems whose variants its text
# needs, the datasets whose cells of those systems it reads)
TABLES = {
    "table1": ((), ()),
    "table2": (tuple(paper.SYSTEMS), ()),
    "table3": (tuple(paper.SYSTEMS), tuple(paper.DATASETS)),
    "table4": ((AGUILAR,), tuple(paper.DATASETS)),
    "ablation": ((AGUILAR,), STREAMING),
    "error_analysis": (("BERTweet",), STREAMING),
}


def make_system(name: str):
    """Instantiate one (unfitted) Local EMD system by paper name."""
    voc = gen.default_vocabulary()
    fam = voc.entity_token_familiarity()
    gaz = voc.gazetteer()
    if name == "NP Chunker":
        return NPChunker()
    if name == "TwitterNLP":
        return TwitterNLP(gaz)
    if name == "Aguilar et al.":
        return make_aguilar(fam, gaz)
    if name == "BERTweet":
        return make_bertweet(fam)
    raise ValueError(f"unknown Local EMD system: {name}")


def fitted_variants(
    spark: SparkSession,
    *,
    systems: list | None = None,
    scale: float = 1.0,
    d5_scale: float = DEFAULT_D5_SCALE,
) -> dict:
    """Build (train) the framework variant for each requested system."""
    out: dict = {}
    for name in systems or paper.SYSTEMS:
        out[name] = build_variant(
            spark, make_system(name), scale=scale, d5_scale=d5_scale
        )
    return out


class Cell(NamedTuple):
    """One Globalizer run over a corpus, with its local, mined and final
    mentions scored against the corpus's gold spans."""

    dataset: TweetDataset
    result: GlobalizerResult
    local: PRF
    mined: PRF
    global_: PRF


def run_cell(spark: SparkSession, variant: FittedVariant, dataset: TweetDataset) -> Cell:
    """Run one (variant, dataset) cell and score its local, mined and
    final mentions."""
    tweets_df = dataset.to_spark(spark).cache()
    try:
        result = EMDGlobalizer(variant).run(spark, tweets_df)
    finally:
        tweets_df.unpersist()
    return Cell(
        dataset,
        result,
        score_mentions(result.local_mentions, dataset.gold),
        score_mentions(result.mined_mentions, dataset.gold),
        score_mentions(result.final_mentions, dataset.gold),
    )


def f1_gain_pct(local: PRF, global_: PRF) -> float:
    """Relative F1 gain of Global over Local EMD, in percent."""
    if local.f1 == 0:
        return float("inf")
    return 100.0 * (global_.f1 - local.f1) / local.f1


def table3_row(
    dataset: str,
    system: str,
    local: PRF,
    global_: PRF,
    local_seconds: float,
    global_seconds: float,
) -> dict:
    """Measured counterpart of one Table III row."""
    return {
        "dataset": dataset,
        "system": system,
        "local_P": round(local.precision, 3),
        "local_R": round(local.recall, 3),
        "local_F1": round(local.f1, 3),
        "local_time_s": round(local_seconds, 2),
        "global_P": round(global_.precision, 3),
        "global_R": round(global_.recall, 3),
        "global_F1": round(global_.f1, 3),
        "total_time_s": round(local_seconds + global_seconds, 2),
        "f1_gain_pct": round(f1_gain_pct(local, global_), 1),
        "time_overhead_s": round(global_seconds, 2),
    }


def generate_datasets(names, *, scale: float) -> dict:
    """``{name: TweetDataset}``: each named corpus generated once at
    ``scale``, in first-seen order."""
    return {d: gen.generate(d, scale=scale) for d in dict.fromkeys(names)}


def run_table1(datasets: dict) -> pd.DataFrame:
    """Table I: the statistics of the ``TABLE1_DATASETS`` corpora in
    ``datasets`` vs the paper's legible ones."""
    rows = []
    for name in TABLE1_DATASETS:
        st = datasets[name].stats()
        st["paper_size"] = paper.TABLE1.get(name, {}).get("size")
        rows.append(st)
    return pd.DataFrame(rows)


def run_table2(variants: dict) -> pd.DataFrame:
    """Table II: Entity Classifier validation F1 per instantiation."""
    rows = []
    for name, v in variants.items():
        rows.append(
            {
                "system": name,
                "emb_size": f"{v.emb_dim}+1",
                "val_f1": round(v.clf_history.get("validation_f1", float("nan")), 3),
                "paper_emb_size": paper.TABLE2[name]["emb_size"],
                "paper_val_f1": paper.TABLE2[name]["val_f1"],
                "pe_val_loss": round(v.pe_history["best_val_loss"], 4)
                if v.pe_history
                else None,
            }
        )
    return pd.DataFrame(rows)


def run_cells(spark: SparkSession, variants: dict, pairs: list, datasets: dict) -> dict:
    """Run each ``(dataset, system)`` pair of ``pairs`` once with the
    system's variant on the corpus ``datasets[dataset]``; returns
    ``{(dataset, system): Cell}`` in ``pairs`` order."""
    return {(d, s): run_cell(spark, variants[s], datasets[d]) for d, s in pairs}


def table3(cells: dict) -> pd.DataFrame:
    """Table III: local vs global effectiveness + times, with paper refs."""
    rows = []
    for (ds_name, sys_name), c in cells.items():
        ref = paper.TABLE3.get((ds_name, sys_name), {})
        rows.append(
            {
                **table3_row(
                    ds_name,
                    sys_name,
                    c.local,
                    c.global_,
                    c.result.local_seconds,
                    c.result.global_seconds,
                ),
                "paper_local_F1": ref.get("lF1"),
                "paper_global_F1": ref.get("gF1"),
                "paper_gain_pct": ref.get("gain"),
            }
        )
    return pd.DataFrame(rows)


def table4(
    spark: SparkSession,
    aguilar_variant: FittedVariant,
    cells: dict,
    *,
    scale: float,
    hire_epochs: int = 14,
) -> pd.DataFrame:
    """Table IV: the Aguilar-instantiated Globalizer's cells vs HIRE-NER,
    fitted once on WNUT17-train at ``scale`` and run on each cell's
    dataset."""
    voc = gen.default_vocabulary()
    hire = HireNER(
        aguilar_variant.system.bank, voc.gazetteer(), epochs=hire_epochs
    )
    train = gen.generate("wnut17_train", scale=scale)
    hire.fit(train.tweets, train.gold)
    rows = []
    for (ds_name, _), c in cells.items():
        hire_pred = hire.tag(c.dataset.to_spark(spark)).toPandas()
        hire_prf = score_mentions(hire_pred, c.dataset.gold)
        for sys_name, prf in [("EMD Globalizer", c.global_), ("HIRE-NER", hire_prf)]:
            ref = paper.TABLE4.get((ds_name, sys_name), {})
            rows.append(
                {
                    "dataset": ds_name,
                    "system": sys_name,
                    **prf.row(),
                    "paper_P": ref.get("P"),
                    "paper_R": ref.get("R"),
                    "paper_F1": ref.get("F1"),
                }
            )
    return pd.DataFrame(rows)


def ablation(cells: dict) -> pd.DataFrame:
    """Figure 6 as text: F1 per dataset for local-only,
    +mention-extraction, and the full framework, all three scored from
    one cycle's local, mined and final mentions."""
    return pd.DataFrame(
        [
            {
                "dataset": ds_name,
                "F1_local": round(c.local.f1, 3),
                "F1_mining": round(c.mined.f1, 3),
                "F1_full": round(c.global_.f1, 3),
            }
            for (ds_name, _), c in cells.items()
        ]
    )


def error_analysis(cells: dict) -> dict:
    """Section VI-C numbers over the cells:

    - mentions/entities lost because Local EMD missed *every* mention
      (error class 1: never became a candidate);
    - mentions lost to Entity-Classifier false negatives (error class 2);
    - classifier recall on true entities by mention-frequency bin of
      ``FREQ_BIN_WIDTH`` (Figure 7 as text).
    """
    total_mentions = 0
    total_entities: set = set()
    lost1_mentions = 0
    lost1_entities: set = set()
    lost2_mentions = 0
    lost2_entities: set = set()
    bins: dict = {}
    for (ds_name, _), c in cells.items():
        res = c.result
        gold = c.dataset.gold
        total_mentions += len(gold)
        total_entities.update(gold["eid"])
        seed_keys = set(res.candidates["key"]) if len(res.candidates) else set()
        entity_keys = set(
            res.candidates.loc[res.candidates["label"] == "entity", "key"]
        )
        for eid, grp in gold.groupby("eid"):
            key = grp["key"].iloc[0]
            if key not in seed_keys:
                lost1_mentions += len(grp)
                lost1_entities.add((ds_name, eid))
            elif key not in entity_keys:
                lost2_mentions += len(grp)
                lost2_entities.add((ds_name, eid))
            if key in seed_keys:
                b = (len(grp) - 1) // FREQ_BIN_WIDTH
                hit, tot = bins.get(b, (0, 0))
                bins[b] = (hit + (1 if key in entity_keys else 0), tot + 1)
    return {
        "total_mentions": total_mentions,
        "total_entities": len(total_entities),
        "lost_never_candidate_mentions": lost1_mentions,
        "lost_never_candidate_entities": len(lost1_entities),
        "lost_never_candidate_pct": round(100 * lost1_mentions / total_mentions, 2),
        "lost_classifier_fn_mentions": lost2_mentions,
        "lost_classifier_fn_entities": len(lost2_entities),
        "lost_classifier_fn_pct": round(100 * lost2_mentions / total_mentions, 2),
        "classifier_recall_by_freq_bin": {
            f"{b * FREQ_BIN_WIDTH + 1}-{(b + 1) * FREQ_BIN_WIDTH}": round(h / t, 3)
            for b, (h, t) in sorted(bins.items())
            if t > 0
        },
        "classifier_recall_by_freq_bin_counts": {
            f"{b * FREQ_BIN_WIDTH + 1}-{(b + 1) * FREQ_BIN_WIDTH}": t
            for b, (h, t) in sorted(bins.items())
            if t > 0
        },
    }


def _table3_text(t3: pd.DataFrame) -> str:
    streaming = t3[t3["dataset"].isin(STREAMING)]
    nonstreaming = t3[t3["dataset"].isin(["wnut17", "btc"])]
    summary = [
        f"overall avg F1 gain: {t3['f1_gain_pct'].mean():.2f}% (paper 25.61%)",
        f"streaming avg F1 gain: {streaming['f1_gain_pct'].mean():.2f}% (paper 30.29%)",
        f"non-streaming avg F1 gain: {nonstreaming['f1_gain_pct'].mean():.2f}% (paper 15.53%)",
    ]
    for sys_name, grp in t3.groupby("system"):
        summary.append(f"{sys_name} avg gain: {grp['f1_gain_pct'].mean():.2f}%")
    return t3.to_string(index=False) + "\n\n" + "\n".join(summary)


def _ablation_text(table: pd.DataFrame) -> str:
    base = table["F1_local"].mean()
    mining = 100 * (table["F1_mining"].mean() - base) / base
    full = 100 * (table["F1_full"].mean() - base) / base
    return (
        table.to_string(index=False)
        + f"\n\nmention-extraction gain: {mining:.1f}% (paper ~5.06%)"
        + f"\nfull-framework gain:     {full:.1f}% (paper ~15.36%)"
    )


def run_tables(
    spark: SparkSession,
    names: list,
    *,
    scale: float = 1.0,
    d5_scale: float = DEFAULT_D5_SCALE,
) -> dict:
    """Render the named ``TABLES`` entries as text, ``{name: text}`` in
    ``TABLES`` order. Each variant the named tables need is fitted once
    and each of their cells runs once; an unknown name raises
    ``ValueError`` before any variant is fitted."""
    unknown = sorted(set(names) - set(TABLES))
    if unknown:
        raise ValueError(f"unknown table(s) {unknown}; choose from {list(TABLES)}")
    names = [n for n in TABLES if n in names]
    systems = [s for s in paper.SYSTEMS if any(s in TABLES[n][0] for n in names)]
    variants = (
        fitted_variants(spark, systems=systems, scale=scale, d5_scale=d5_scale)
        if systems
        else {}
    )
    pairs = {n: [(d, s) for d in TABLES[n][1] for s in TABLES[n][0]] for n in names}
    grid = list(dict.fromkeys(p for n in names for p in pairs[n]))
    table1 = TABLE1_DATASETS if "table1" in names else ()
    datasets = generate_datasets([*table1, *(d for d, _ in grid)], scale=scale)
    cells = run_cells(spark, variants, grid, datasets)
    own = {n: {p: cells[p] for p in pairs[n]} for n in names}

    render = {
        "table1": lambda: run_table1(datasets).to_string(index=False),
        "table2": lambda: run_table2(variants).to_string(index=False),
        "table3": lambda: _table3_text(table3(own["table3"])),
        "table4": lambda: table4(
            spark, variants[AGUILAR], own["table4"], scale=scale
        ).to_string(index=False),
        "ablation": lambda: _ablation_text(ablation(own["ablation"])),
        "error_analysis": lambda: json.dumps(
            error_analysis(own["error_analysis"]), indent=2
        ),
    }
    return {n: render[n]() for n in names}
