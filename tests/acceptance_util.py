"""Shared machinery for the acceptance suite.

Corpus-gated criteria read the public data roots from environment
variables; everything here degrades to pytest.skip with download
instructions when a root is missing. Statistics are computed per file in a
process pool and pooled per dataset, so the large releases stay
memory-bounded and wall time stays low; error analyses pair the gold and
system documents of one dataset per worker.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from corefkit import analysis
from corefkit.analysis import (STATISTICS, StatOptions, SumsByKey, pool,
                               pool_groups)
from corefkit.corpora import discover_datasets, pair_datasets
from corefkit.errors import analyze_errors
from corefkit.metrics import document_pairs

COREFUD_ENV = "COREFUD_DATA"
CRAC22_GOLD_ENV = "CRAC22_GOLD"
CRAC22_BASELINE_ENV = "CRAC22_BASELINE"
CRAC22_UFAL_ENV = "CRAC22_UFAL"

_HINTS = {
    COREFUD_ENV: "point it at the extracted public CorefUD 1.1 release",
    CRAC22_GOLD_ENV: "point it at the CorefUD 1.0 dev gold files",
    CRAC22_BASELINE_ENV: "point it at the published baseline dev outputs",
    CRAC22_UFAL_ENV: "point it at the published winning-system dev outputs",
}

_cache: dict = {}


def data_root(env: str) -> Path:
    value = os.environ.get(env)
    if not value:
        pytest.skip(f"{env} is not set; {_HINTS[env]}")
    root = Path(value)
    if not root.exists():
        pytest.skip(f"{env}={value} does not exist")
    return root


def jobs() -> int:
    return min(os.cpu_count() or 1, 8)


def train_datasets():
    root = data_root(COREFUD_ENV)
    datasets = discover_datasets(root, split="train")
    if not datasets:
        pytest.skip(f"no *-corefud-train.conllu files under {root}")
    return datasets


def timed_corpus_statistics():
    """Parse + count the whole training release; returns
    ({dataset: report}, wall seconds)."""
    if "stats" in _cache:
        return _cache["stats"]
    datasets = train_datasets()
    start = time.perf_counter()
    merged = pool_groups({d.name: [d] for d in datasets},
                         analysis.corpus_statistics, jobs())
    _cache["stats"] = (merged, time.perf_counter() - start)
    return _cache["stats"]


# Result key -> (statistic, head rule) of the per-dataset analysis.
_RELEASE_STATS = {
    "head_annotated": ("head-position", "annotated"),
    "head_syntactic": ("head-position", "syntactic"),
    "types": ("mention-types", "annotated"),
    "first": ("first-mention", "annotated"),
    "rankings": ("anaphor-antecedent", "annotated"),
    "competing": ("competing", "annotated"),
}


def _release_partial(corpus) -> SumsByKey:
    wanted = dict(_RELEASE_STATS)
    if corpus.dataset == "en_gum":
        wanted["genre"] = ("genre", "annotated")
    return SumsByKey({key: STATISTICS[stat].compute(corpus, StatOptions(rule))
                      for key, (stat, rule) in wanted.items()})


def release_analysis() -> dict[str, dict]:
    """Gold-annotation statistics per training dataset, computed once."""
    if "analysis" in _cache:
        return _cache["analysis"]
    datasets = train_datasets()
    pooled = pool_groups({d.name: [d] for d in datasets}, _release_partial,
                         jobs())
    per_dataset = {}
    for dataset in datasets:
        info = dict(pooled[dataset.name], dataset=dataset.name,
                    language=dataset.language)
        info["competing_overt"], info["competing_zero"] = info.pop("competing")
        per_dataset[dataset.name] = info
    _cache["analysis"] = per_dataset
    return per_dataset


def by_language(per_dataset: dict[str, dict], key: str) -> dict[str, object]:
    """Pool one per-dataset result across datasets of the same language."""
    return pool((info["language"], info[key]) for info in per_dataset.values())


def _error_task(task):
    gold_files, pred_files, mode = task
    with closing(gold_files.documents()) as gold, \
            closing(pred_files.documents()) as pred:
        return analyze_errors(document_pairs(gold, pred, gold_files.name),
                              mode=mode, dataset=gold_files.name)


def system_error_reports(system_env: str, mode: str) -> dict[str, object]:
    """Error analysis per dataset for one published system."""
    cache_key = ("errors", system_env, mode)
    if cache_key in _cache:
        return _cache[cache_key]
    gold_root = data_root(CRAC22_GOLD_ENV)
    pred_root = data_root(system_env)
    # a gold dataset without a system file raises AlignmentError
    paired = pair_datasets(gold_root, pred_root)
    if not paired:
        pytest.skip(f"no gold dataset under {CRAC22_GOLD_ENV}")
    tasks = [(gold_files, pred_files, mode)
             for _, gold_files, pred_files in paired]
    with ProcessPoolExecutor(max_workers=jobs()) as pool:
        _cache[cache_key] = {report.dataset: report
                             for report in pool.map(_error_task, tasks)}
    return _cache[cache_key]
