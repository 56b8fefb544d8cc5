"""Traced run: per-layer timings and spans around corefkit's layers.

Layers are named by module. Each layer is timed in-process on corpora
parsed afresh for it, so no timing depends on which layers ran before
(``genre_counts`` writes ``Document.genre``; tokens cache their features
and sentences their index on first use). The pipelines then run in-process
through ``cli.main`` twice: untraced, which gives ``cli.*_s``, and with
spans around the public functions listed in ``TRACED``, which gives each
layer's share of its pipeline. The difference between the two is the
tracing overhead. The spans, the per-document CEAFe timings and every
sample are written to one JSON file when the run ends.
"""
from __future__ import annotations

import gc
import inspect
import io
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable

from pipelines import PIPELINES

# Public functions wrapped in spans during the traced pipeline runs. Calls
# made once per candidate span or mention are aggregated, not kept one by one.
TRACED = (
    "corpora.discover_datasets", "corpora.pair_datasets",
    "conllu.parse_file", "conllu.resolve_entities", "conllu.serialize",
    "model.mention_head", "model.span_key",
    "analysis.head_position_stats", "analysis.mention_type_distribution",
    "analysis.antecedent_category_counts", "analysis.first_mention_stats",
    "analysis.entity_size_stats", "analysis.competing_antecedents",
    "analysis.genre_counts", "analysis.corpus_statistics",
    "metrics.score_pairs", "metrics.remapped_cluster_set",
    "metrics.align_mentions", "metrics.muc_counts", "metrics.b_cubed_counts",
    "metrics.ceafe_counts",
    "errors.analyze_errors", "errors.unresolved_entity_details",
    "features.iter_feature_records", "features.export_features",
)
AGGREGATED = {"model.mention_head", "model.span_key"}


class Tracer:
    """Spans kept in memory as (name, start, end, parent index). Every name
    also gets a call count, inclusive time and self time, and every
    (caller, callee) pair of names the callee's inclusive time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.totals: dict[str, list] = {}       # name -> [calls, incl, self]
        self.within: dict[tuple[str, str], float] = {}
        self._stack: list[list] = []            # [name, start, child, index]

    def _enter(self, name: str, record: bool) -> list:
        index = -1
        if record:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._stack[-1][3]
                               if self._stack else -1))
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, new_call: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        took = end - start
        if self._stack:
            caller = self._stack[-1]
            caller[2] += took
            pair = (caller[0], name)
            self.within[pair] = self.within.get(pair, 0.0) + took
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += new_call
        total[1] += took
        total[2] += took - child
        if index >= 0:
            self.spans[index] = (name, start, end, self.spans[index][3])

    def wrap(self, name: str, fn: Callable) -> Callable:
        record = name not in AGGREGATED
        if inspect.isgeneratorfunction(fn):
            # time only what runs inside the generator, resume by resume
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                first = True
                while True:
                    frame = self._enter(name, record and first)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, first)
                        first = False
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            frame = self._enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, True)
        return traced

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def dump(self) -> dict:
        return {"totals": {name: {"calls": c, "inclusive_s": i, "self_s": s}
                           for name, (c, i, s) in self.totals.items()},
                "within": [{"caller": a, "callee": b, "inclusive_s": v}
                           for (a, b), v in self.within.items()],
                "spans": self.spans}


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind every TRACED function, in every corefkit module that holds it,
    to a wrapper recording spans. Returns the function that undoes it."""
    modules = [m for n, m in sys.modules.items()
               if n == "corefkit" or n.startswith("corefkit.")]
    undo = []
    for qualified in TRACED:
        module_name, name = qualified.split(".")
        original = getattr(sys.modules[f"corefkit.{module_name}"], name)
        wrapper = tracer.wrap(qualified, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def uninstall() -> None:
        for module, attr, original in undo:
            setattr(module, attr, original)
    return uninstall


# ------------------------------------------------------------ the corpora

class Corpora:
    """Fresh parses of the workload: per-file gold corpora, per-dataset gold
    corpora (as the CLI loads them) and (gold, system) document pairs."""

    def __init__(self, manifest) -> None:
        self.manifest = manifest

    def files(self):
        from corefkit import parse_file
        from corefkit.corpora import dataset_of

        out = []
        for path_str in self.manifest.files:
            name = dataset_of(Path(path_str))[0]
            out.append(parse_file(path_str, dataset=name,
                                  language=name.split("_", 1)[0]))
        return out

    def datasets(self):
        from corefkit.corpora import discover_datasets
        return [d.load() for d in discover_datasets(self.manifest.gold_root)]

    def pairs(self):
        """(dataset, [(gold document, system document)]) per dataset."""
        from corefkit.corpora import pair_datasets

        out = []
        for name, gold_files, pred_files in pair_datasets(
                self.manifest.gold_root, self.manifest.pred_root):
            pred = {d.doc_id: d for d in pred_files.load().documents}
            out.append((name, [(g, pred[g.doc_id])
                               for g in gold_files.load().documents]))
        return out


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _export_candidates(corpus, width: int) -> list[tuple]:
    out = []
    for document in corpus.documents:
        for sentence in document.sentences:
            surface = sentence.surface_tokens()
            n = len(surface)
            for w in range(1, min(width, n) + 1):
                out.extend(tuple(surface[s:s + w]) for s in range(n - w + 1))
    return out


# ----------------------------------------------------------------- layers

def layer_suite(manifest, corpora: Corpora, counts: dict,
                curve: list) -> dict[str, float]:
    """One timing of every layer, each on corpus state of its own."""
    from corefkit import analysis, conllu, corpora as corpora_mod, features
    from corefkit import metrics, model
    from corefkit import errors as errors_mod
    from corefkit.taxonomy import MentionType

    width = manifest.export_width
    table = features.load_word_order_table(manifest.word_order)
    t: dict[str, float] = {}

    t["corpora.discover_s"] = _timed(lambda: (
        corpora_mod.discover_datasets(manifest.gold_root),
        corpora_mod.pair_datasets(manifest.gold_root, manifest.pred_root)))

    start = time.perf_counter()
    files = corpora.files()
    t["conllu.parse_s"] = time.perf_counter() - start
    counts["conllu.tokens"] = sum(s.n_surface() for c in files
                                  for d in c.documents for s in d.sentences)
    counts["conllu.mentions"] = sum(len(e.mentions) for c in files
                                    for d in c.documents for e in d.entities)
    counts["conllu.entities"] = sum(len(d.entities) for c in files
                                    for d in c.documents)
    t["conllu.serialize_s"] = _timed(
        lambda: [conllu.serialize(c) for c in files])

    documents = [d for c in corpora.files() for d in c.documents]
    t["conllu.decode_s"] = _timed(
        lambda: [conllu.resolve_entities(d) for d in documents])

    for key, annotated in (("model.head_annotated_s", True),
                           ("model.head_syntactic_s", False)):
        mentions = [(m, d) for c in corpora.files() for d in c.documents
                    for e in d.entities for m in e.mentions]
        t[key] = _timed(lambda: [model.mention_head(m, d, annotated)
                                 for m, d in mentions])

    spans = [s for c in corpora.files() for s in _export_candidates(c, width)]
    t["model.span_key_s"] = _timed(lambda: [model.span_key(s) for s in spans])

    def competing(corpus, rule):
        return [analysis.competing_antecedents(corpus, kind, rule)
                for kind in (MentionType.OVERT_PRONOUN,
                             MentionType.ZERO_PRONOUN)]
    statistics_by_name = {
        "head_position": lambda c, r: analysis.head_position_stats(c, r),
        "mention_types": lambda c, r: analysis.mention_type_distribution(c, r),
        "anaphor_antecedent":
            lambda c, r: analysis.antecedent_category_counts(c, r),
        "first_mention": lambda c, r: analysis.first_mention_stats(c, r),
        "entity_size": lambda c, r: analysis.entity_size_stats(c),
        "competing": competing,
        "genre": lambda c, r: analysis.genre_counts(c),
    }
    for name, stat in statistics_by_name.items():
        files = corpora.files()
        t[f"analysis.{name}_s"] = _timed(
            lambda: [stat(c, "annotated") for c in files])
    files = corpora.files()
    t["analysis.corpus_statistics_s"] = _timed(
        lambda: [analysis.corpus_statistics(c) for c in files])
    files = corpora.files()
    t["analysis.syntactic_total_s"] = _timed(
        lambda: [stat(c, "syntactic") for c in files
                 for stat in statistics_by_name.values()])

    for mode in ("exact", "head"):
        pairs = [p for _, ps in corpora.pairs() for p in ps]
        t[f"metrics.align_{mode}_s"] = _timed(
            lambda: [metrics.align_mentions(g, p, mode) for g, p in pairs])
    pairs = [p for _, ps in corpora.pairs() for p in ps]
    start = time.perf_counter()
    cluster_sets = [metrics.remapped_cluster_set(g, p, "exact", "exclude")
                    for g, p in pairs]
    t["metrics.remap_s"] = time.perf_counter() - start
    t["metrics.muc_s"] = _timed(
        lambda: [metrics.muc_counts(g, p) for g, p in cluster_sets])
    t["metrics.b3_s"] = _timed(
        lambda: [metrics.b_cubed_counts(g, p) for g, p in cluster_sets])
    curve.clear()
    for (gold, _), (g, p) in zip(pairs, cluster_sets):
        curve.append((gold.doc_id, len(g.clusters), len(p.clusters),
                      _timed(lambda: metrics.ceafe_counts(g, p))))
    t["metrics.ceafe_s"] = sum(c[3] for c in curve)
    cells = sum(len(g.clusters) * len(p.clusters) for g, p in cluster_sets)
    counts["metrics.ceafe_cells"] = cells
    counts["metrics.max_clusters_per_doc"] = max(
        max(len(g.clusters), len(p.clusters)) for g, p in cluster_sets)
    counts["metrics.ceafe_useful_share"] = _overlapping_pairs(
        cluster_sets) / cells if cells else 0.0

    by_dataset = corpora.pairs()
    t["errors.analyze_s"] = _timed(lambda: [
        errors_mod.analyze_errors(ps, "exact", "links", dataset=name)
        for name, ps in by_dataset])
    pairs = [p for _, ps in corpora.pairs() for p in ps]
    t["errors.details_s"] = _timed(lambda: [
        errors_mod.unresolved_entity_details(g, p, "exact", "links")
        for g, p in pairs])

    datasets = corpora.datasets()
    start = time.perf_counter()
    n_records = sum(sum(1 for _ in features.iter_feature_records(
        c, table, "all_spans", width, "syntactic")) for c in datasets)
    t["features.records_s"] = time.perf_counter() - start
    counts["features.records"] = n_records
    for key, target in (("features.export_s", "all_spans"),
                        ("features.gold_export_s", "gold")):
        datasets = corpora.datasets()
        t[key] = _timed(lambda: [features.export_features(
            c, table, io.StringIO(), io.StringIO(), target, width,
            "syntactic") for c in datasets])
    return t


def _overlapping_pairs(cluster_sets) -> int:
    """Gold/system cluster pairs sharing a mention: the CEAFe cells whose
    similarity is nonzero."""
    total = 0
    for gold, pred in cluster_sets:
        owner = {key: i for i, cluster in enumerate(pred.clusters)
                 for key in cluster}
        total += sum(len({owner[k] for k in cluster if k in owner})
                     for cluster in gold.clusters)
    return total


# -------------------------------------------------------- cli in-process

def _main_quietly(args: list[str]) -> int:
    from corefkit import cli

    with open(os.devnull, "w", encoding="utf-8") as sink, \
            redirect_stdout(sink):
        return cli.main(args)


def cli_runs(manifest, work: Path, traced: bool,
             ) -> dict[str, tuple[float, int, Tracer | None]]:
    """Each pipeline once through cli.main: seconds, exit code and, when
    traced, the pipeline's own tracer."""
    out = {}
    for pipeline in PIPELINES:
        target = work / "cli" / pipeline.name
        shutil.rmtree(target, ignore_errors=True)
        args = pipeline.args(manifest, target)
        tracer = Tracer() if traced else None
        uninstall = install(tracer) if traced else None
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                code = _main_quietly(args)
            else:
                code = tracer.wrap(f"cli.{pipeline.name}", _main_quietly)(args)
        finally:
            if uninstall is not None:
                uninstall()
        out[pipeline.name] = (time.perf_counter() - start, code, tracer)
    return out


# Acceptance shares: (metric, layer, pipeline, enclosing span within it)
SHARES = (
    ("conllu.decode_share_of_validate", "conllu.resolve_entities",
     "validate", "cli.validate"),
    ("metrics.ceafe_share_of_score", "metrics.ceafe_counts", "score_exact",
     "cli.score_exact"),
    ("model.head_share_of_records", "model.mention_head", "export_spans",
     "features.iter_feature_records"),
)


def measure_layers(manifest, work: Path, seconds: float, tally,
                   trace_path: Path) -> dict[str, tuple[float, str]]:
    corpora = Corpora(manifest)
    samples: dict[str, list[float]] = {}
    counts: dict = {}
    curve: list = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for key, value in layer_suite(manifest, corpora, counts,
                                      curve).items():
            samples.setdefault(key, []).append(value)
        plain = cli_runs(manifest, work, traced=False)
        traced = cli_runs(manifest, work, traced=True)
        for name in plain:
            tally.record(None if plain[name][1] == 0 == traced[name][1]
                         else f"in-process {name} failed")
            samples.setdefault(f"cli.{name}_s", []).append(plain[name][0])
        untraced_total = sum(v[0] for v in plain.values())
        overhead = sum(v[0] for v in traced.values()) - untraced_total
        samples.setdefault("trace.overhead_s", []).append(overhead)
        samples.setdefault("trace.overhead_share", []).append(
            overhead / untraced_total)
        for metric, layer, pipeline, enclosing in SHARES:
            tracer = traced[pipeline][2]
            # everything in a pipeline runs within its cli span; any other
            # enclosing span must be the layer's direct traced caller
            part = (tracer.inclusive(layer) if enclosing.startswith("cli.")
                    else tracer.within.get((enclosing, layer), 0.0))
            samples.setdefault(metric, []).append(
                part / tracer.inclusive(enclosing))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - began) > seconds:
            break

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "samples": samples, "counts": counts,
        "ceafe_per_document": [
            {"doc_id": d, "gold_clusters": g, "system_clusters": p,
             "seconds": s} for d, g, p, s in curve],
        "pipelines": {name: v[2].dump() for name, v in traced.items()},
    }) + "\n", encoding="utf-8")

    metrics = {name: (statistics.median(values), _unit(name))
               for name, values in samples.items()}
    for name, value in counts.items():
        metrics[name] = (value, _unit(name))
    return dict(sorted(metrics.items()))


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "share" in name:
        return "ratio"
    return "count"
