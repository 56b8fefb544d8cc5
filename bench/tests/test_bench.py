"""Generator determinism, round-trip of generated corpora, and the span
export count the benchmark checks against."""
from __future__ import annotations

import io
import os
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from corefkit import parse_file, serialize
from corefkit.features import export_features, load_word_order_table
from corpus import WORKLOADS, candidate_spans, generate, read_spans
from pipelines import PIPELINES
from speed import NOMINAL_RATE, CoreMeter


def tiny(name: str):
    """A workload's shape cut down to a few short documents."""
    shape = WORKLOADS[name]
    return replace(shape, datasets=shape.datasets[:2], docs_per_file=2,
                   sentences=(3, 5))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(tmp_path, name):
    generate(tiny(name), 7, tmp_path / "a")
    generate(tiny(name), 7, tmp_path / "b")
    generate(tiny(name), 8, tmp_path / "c")
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_corpora_round_trip(tmp_path, name, seed):
    manifest = generate(tiny(name), seed, tmp_path)
    system_files = sorted(manifest.pred_root.rglob("*.conllu"))
    assert len(system_files) == len(manifest.files)
    for path in [Path(p) for p in manifest.files] + system_files:
        assert serialize(parse_file(path)) == path.read_text(encoding="utf-8")
    for path_str, counts in manifest.files.items():
        corpus = parse_file(path_str)
        intended = read_spans(Path(path_str))
        assert len(corpus.documents) == counts.documents
        for document in corpus.documents:
            decoded = sorted((e.entity_id, m.sent_index,
                              ",".join(t.index for t in m.span))
                             for e in document.entities for m in e.mentions)
            assert decoded == intended[document.doc_id]


def test_every_corner_case_is_generated(tmp_path):
    manifest = generate(WORKLOADS["release"], 3, tmp_path)
    text = "".join(Path(p).read_text(encoding="utf-8")
                   for p in manifest.files)
    documents = [d for p in manifest.files for d in parse_file(p).documents]
    mentions = [(d.doc_id, m) for d in documents for e in d.entities
                for m in e.mentions]
    assert any(m.n_parts > 1 for _, m in mentions)      # discontinuous
    assert any(t.is_empty for _, m in mentions for t in m.span)
    assert "\t_\t_\t_\t_\t_\t_\t_\t_\n" in text     # multiword range
    assert any(e.is_singleton() for d in documents for e in d.entities)
    by_sentence = defaultdict(list)
    for doc_id, m in mentions:
        by_sentence[(doc_id, m.sent_index)].append(
            (m.span[0].order, m.span[-1].order))
    pairs = [(x, y) for ranges in by_sentence.values()
             for x in ranges for y in ranges]
    assert any(a < c and d < b for (a, b), (c, d) in pairs)    # nested
    assert any(a < c <= b < d for (a, b), (c, d) in pairs)     # crossing


def test_span_export_count_formula(tmp_path):
    assert candidate_spans(3, 2) == 3 + 2
    assert candidate_spans(1, 10) == 1
    assert candidate_spans(4, 10) == 4 + 3 + 2 + 1
    manifest = generate(tiny("deep-spans"), 1, tmp_path)
    table = load_word_order_table(manifest.word_order)
    for dataset, paths in manifest.datasets.items():
        records = io.StringIO()
        corpora = [parse_file(p, dataset=dataset,
                              language=dataset.split("_")[0]) for p in paths]
        total = sum(export_features(c, table, records, io.StringIO(),
                                    "all_spans", manifest.export_width)
                    for c in corpora)
        lengths = [s.n_surface() for c in corpora for d in c.documents
                   for s in d.sentences]
        assert total == sum(candidate_spans(n, manifest.export_width)
                            for n in lengths)
        assert total == manifest.total("candidate_spans", dataset)
        assert records.getvalue().count("\n") == total


def test_checks_reject_wrong_export_count(tmp_path):
    manifest = generate(tiny("release"), 2, tmp_path / "corpus")
    out = tmp_path / "out"
    out.mkdir()
    check = {p.name: p.check for p in PIPELINES}["export_gold"]
    for dataset in manifest.datasets:
        (out / f"{dataset}.vocab.tsv").write_text("")
        (out / f"{dataset}.features.jsonl").write_text(
            "{}\n" * manifest.total("mentions", dataset))
    assert check(manifest, out) is None
    first = next(iter(manifest.datasets))
    (out / f"{first}.features.jsonl").write_text("{}\n")
    assert "records" in check(manifest, out)


def test_core_meter_rescales_by_reference_rate(tmp_path):
    cpus = os.sched_getaffinity(0)
    meter = CoreMeter(tmp_path)
    try:
        start = meter.mark()
        end = start
        while end[1] - start[1] < 0.05:
            end = meter.mark()
        rate = (end[0] - start[0]) / (end[1] - start[1])
        assert meter.seconds(2.0, start, end) == pytest.approx(
            2.0 * rate / NOMINAL_RATE)
        # marks too close together keep the rate last seen
        assert meter.seconds(1.0, end, end) == pytest.approx(
            rate / NOMINAL_RATE)
    finally:
        meter.close()
        os.sched_setaffinity(0, cpus)
    assert meter._process.poll() is not None
