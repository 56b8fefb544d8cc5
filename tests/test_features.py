from __future__ import annotations

import io
import json
import logging
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from corefkit import ParseError, features, model, parse_conllu, parse_file
from corefkit.analysis import distance_moments, load_mention_vectors
from corefkit.cli import main
from corefkit.features import (EXPORT_TARGETS, WordOrderError, _span_fields,
                               export_features, iter_feature_records,
                               load_word_order_table, width_bucket)
from corefkit.model import (Corpus, Document, Entity, Mention, Sentence,
                            Token, head_of, span_key)
from support import DATA, make_corpus, tok
from test_heads import documents

WORD_ORDER = {"xx": "SVO", "en": "SVO"}
SPAN_FIELDS = ("width_bucket", "head_upos", "head_deprel", "mention_type",
               "ud_category")
VOCABULARY_FEATURES = SPAN_FIELDS + ("language", "word_order")


def records_of(*args, **kwargs):
    """The records of iter_feature_records(*args, **kwargs), parsed."""
    return [json.loads(line)
            for line in iter_feature_records(*args, **kwargs)]


def span_fields(corpus):
    """The head-and-width fields of the corpus's one gold record."""
    (record,) = records_of(corpus, WORD_ORDER, "gold")
    return tuple(record[name] for name in SPAN_FIELDS)


def test_width_buckets():
    expected = {1: "1", 2: "2", 3: "3", 4: "4", 5: "5-7", 7: "5-7",
                8: "8-15", 15: "8-15", 16: "16-31", 31: "16-31",
                32: "32+", 100: "32+"}
    for n, bucket in expected.items():
        assert width_bucket(n) == bucket


def test_pronoun_subject_features():
    corpus = make_corpus([
        tok(1, "she", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "left", "VERB", 0, "root"),
    ])
    assert span_fields(corpus) == ("1", "PRON", "nsubj", "overt_pronoun",
                                   "S")


def test_six_token_nmod_mention_features():
    corpus = make_corpus([
        tok(1, "roof", "NOUN", 0, "root"),
        tok(2, "of", "ADP", 7, "case", misc="Entity=(e1-x-6-"),
        tok(3, "the", "DET", 7, "det"),
        tok(4, "very", "ADV", 5, "advmod"),
        tok(5, "old", "ADJ", 7, "amod"),
        tok(6, "stone", "NOUN", 7, "compound"),
        tok(7, "castle", "NOUN", 1, "nmod:poss", misc="Entity=e1)"),
    ])
    assert span_fields(corpus) == ("5-7", "NOUN", "nmod", "nominal_noun",
                                   "N")


def test_zero_pronoun_features():
    corpus = make_corpus([
        tok(1, "Llegó", "VERB", 0, "root"),
        tok("1.1", "_", "PRON", "_", "_", deps="1:nsubj",
            misc="Entity=(e1-x-1-)"),
    ])
    assert span_fields(corpus) == ("1", "PRON", "nsubj", "zero_pronoun",
                                   "S")


def test_doc_features_lookup():
    corpus = make_corpus([tok(1, "x", "VERB", 0, "root",
                              misc="Entity=(e1-x-1-)")], language="en")
    corpus.documents[0].language = "en"
    (record,) = records_of(corpus, WORD_ORDER, "gold")
    assert (record["language"], record["word_order"]) == ("en", "SVO")


def test_doc_features_missing_language_is_an_error():
    corpus = make_corpus([tok(1, "x", "VERB", 0, "root")])
    corpus.documents[0].language = "zz"
    with pytest.raises(WordOrderError, match="zz"):
        next(iter_feature_records(corpus, {}, "gold"))


def test_word_order_table_loading(tmp_path):
    table = load_word_order_table(DATA / "word_order.tsv")
    assert table["en"] == "SVO"
    assert table["hu"] == "NoDominant"

    duplicated = tmp_path / "dup.tsv"
    duplicated.write_text("en\tSVO\nen\tSOV\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_word_order_table(duplicated)

    invalid = tmp_path / "bad.tsv"
    invalid.write_text("en\tVERBY\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown word order"):
        load_word_order_table(invalid)


def test_a_word_order_line_of_three_columns_names_its_file_and_line(
        tmp_path):
    path = tmp_path / "orders.tsv"
    path.write_text("# language\torder\nen\tSVO\ncs\tSVO\tfree\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_word_order_table(path)
    assert str(excinfo.value) == f"{path}:3: expected 2 columns, got 3"


def test_gold_mode_one_record_per_mention():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ], [
        tok(1, "He", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "hid", "VERB", 0, "root"),
    ])
    records = records_of(corpus, WORD_ORDER, "gold")
    assert len(records) == 2
    assert [r["entity_id"] for r in records] == ["e1", "e1"]
    assert records[0]["span"] == "1"
    assert records[0]["word_order"] == "SVO"


def test_all_spans_on_four_token_sentence():
    corpus = make_corpus([
        tok(1, "a", "NOUN", 2, "nsubj"),
        tok(2, "b", "VERB", 0, "root"),
        tok(3, "c", "DET", 4, "det"),
        tok(4, "d", "NOUN", 2, "obj"),
    ])
    records = records_of(corpus, WORD_ORDER, "all_spans", max_width=3)
    assert len(records) == 9  # 4 + 3 + 2
    assert "entity_id" not in records[0]


def test_all_spans_counts_match_closed_form():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 12)
        k = rng.randint(1, 6)
        block = [tok(i, f"w{i}", "NOUN", 0 if i == 1 else 1,
                     "root" if i == 1 else "obj")
                 for i in range(1, n + 1)]
        corpus = make_corpus(block)
        records = list(iter_feature_records(corpus, WORD_ORDER, "all_spans",
                                            max_width=k))
        expected = sum(n - w + 1 for w in range(1, min(k, n) + 1))
        assert len(records) == expected


def test_all_spans_skip_empty_nodes():
    corpus = make_corpus([
        tok(1, "Vino", "VERB", 0, "root"),
        tok("1.1", "_", "PRON", "_", "_", deps="1:nsubj"),
        tok(2, "ayer", "ADV", 1, "advmod"),
    ])
    records = records_of(corpus, WORD_ORDER, "all_spans", max_width=2)
    spans = [r["span"] for r in records]
    assert spans == ["1", "2", "1,2"]


def test_export_is_deterministic(basic_corpus):
    table = load_word_order_table(DATA / "word_order.tsv")

    def run():
        records = io.StringIO()
        vocab = io.StringIO()
        count = export_features(basic_corpus, table, records, vocab,
                                target="gold")
        return count, records.getvalue(), vocab.getvalue()

    first = run()
    second = run()
    assert first == second
    assert first[0] == 10  # fixture mention count


def test_span_export_records_the_syntactic_head_rule(basic_corpus):
    table = load_word_order_table(DATA / "word_order.tsv")

    def run(head_rule):
        records, vocab = io.StringIO(), io.StringIO()
        export_features(basic_corpus, table, records, vocab,
                        target="all_spans", max_width=2, head_rule=head_rule)
        return records.getvalue(), vocab.getvalue()

    assert run("annotated") == run("syntactic")
    assert "head=syntactic\n# heads are syntactic" in run("annotated")[1]


def test_vocabulary_is_exactly_the_used_values(basic_corpus):
    table = load_word_order_table(DATA / "word_order.tsv")
    for target in ("gold", "all_spans"):
        records = io.StringIO()
        vocab = io.StringIO()
        export_features(basic_corpus, table, records, vocab, target=target,
                        max_width=4)
        parsed = [json.loads(line) for line in records.getvalue().splitlines()]
        used: dict[str, set[str]] = {}
        for record in parsed:
            for name in ("width_bucket", "head_upos", "head_deprel",
                         "mention_type", "ud_category", "language",
                         "word_order"):
                used.setdefault(name, set()).add(record[name])
        listed: dict[str, set[str]] = {}
        for line in vocab.getvalue().splitlines():
            if line.startswith("#") or line == "feature\tvalue":
                continue
            name, value = line.split("\t")
            listed.setdefault(name, set()).add(value)
        assert listed == used, target


def test_word_order_error_names_language(basic_corpus):
    with pytest.raises(WordOrderError, match="es"):
        list(iter_feature_records(basic_corpus, {"en": "SVO"}, "gold"))


def _per_span_candidates(corpus, max_width):
    """(document, sentence index, span, head) of every run of surface
    tokens, the head from mention_head, one span at a time."""
    for document in corpus.documents:
        for sent_index, sentence in enumerate(document.sentences):
            surface = sentence.surface_tokens()
            n = len(surface)
            for width in range(1, min(max_width, n) + 1):
                for start in range(n - width + 1):
                    span = tuple(surface[start:start + width])
                    head = head_of(Mention("", span,
                                           sentences=document.sentences),
                                   "syntactic")
                    yield document, sent_index, span, head


# The reference for candidate records: _span_fields and span_key on every
# candidate, one span at a time.
def _per_span_records(corpus, word_order_table, max_width):
    for document, sent_index, span, head in _per_span_candidates(corpus,
                                                                 max_width):
        yield {"doc_id": document.doc_id,
               "sent_index": sent_index,
               "span": span_key(span),
               **_span_fields(head, len(span)),
               "language": document.language,
               "word_order": word_order_table[document.language]}


# The reference for gold records: the same on every mention, one at a time.
def _per_mention_records(corpus, word_order_table, head_rule="syntactic"):
    for document in corpus.documents:
        for mention in document.mentions():
            yield {"doc_id": document.doc_id,
                   "sent_index": mention.sent_index,
                   "span": span_key(mention.span),
                   **_span_fields(head_of(mention, head_rule),
                                  len(mention.span)),
                   "language": document.language,
                   "word_order": word_order_table[document.language],
                   "entity_id": mention.entity_id}


def _reference_lines(corpus, word_order_table, target, max_width=10,
                     head_rule="syntactic"):
    """The JSON line of each reference record of the export's target."""
    if target == "gold":
        records = _per_mention_records(corpus, word_order_table, head_rule)
    else:
        records = _per_span_records(corpus, word_order_table, max_width)
    return [json.dumps(record, ensure_ascii=False, separators=(",", ":"))
            + "\n" for record in records]


# The two properties below report a failing example as found, unshrunk:
# shrinking their documents and corpora outlasted ten minutes, where
# finding a failure takes seconds.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate)

# one tag per node position, so a record's head_upos names its head
UPOS = ("NOUN", "PROPN", "PRON", "VERB", "ADJ", "ADV", "DET", "ADP", "AUX",
        "NUM", "CCONJ", "SCONJ", "PART", "INTJ", "PUNCT", "SYM", "X")


@settings(max_examples=300, phases=UNSHRUNK)
@given(documents(), st.integers(1, 8))
def test_candidate_records_match_the_per_span_loop(document, max_width):
    for sentence in document.sentences:
        for token in sentence.tokens:
            token.upos = UPOS[token.order]
    corpus = Corpus(documents=[document])
    table = {"": "SVO"}
    assert (list(iter_feature_records(corpus, table, "all_spans", max_width))
            == _reference_lines(corpus, table, "all_spans", max_width))


# Small pools, so that one field-table key recurs across sentences and
# documents: '_' is no label, and taxonomy knows no 'nolabel'.
POOL_UPOS = ("NOUN", "PRON", "VERB", "_")
POOL_DEPREL = ("nsubj", "nsubj:pass", "obj", "_", "nolabel")


@st.composite
def corpora(draw) -> Corpus:
    """One to three documents of test_heads.documents(), in two languages,
    with pooled UPOS and DEPREL and a few gold mentions of any nodes."""
    corpus = Corpus(documents=draw(st.lists(documents(), min_size=1,
                                            max_size=3)))
    for doc_number, document in enumerate(corpus.documents):
        document.doc_id = f"d{doc_number}"
        document.language = draw(st.sampled_from(("xx", "yy")))
        for sentence in document.sentences:
            for token in sentence.tokens:
                token.upos = draw(st.sampled_from(POOL_UPOS))
                token.deprel = draw(st.sampled_from(POOL_DEPREL))
        for entity_number in range(draw(st.integers(0, 3))):
            tokens = draw(st.sampled_from(document.sentences)).tokens
            start = draw(st.integers(0, len(tokens) - 1))
            end = draw(st.integers(start, len(tokens) - 1))
            entity_id = f"e{entity_number}"
            document.entities.append(Entity(entity_id, [Mention(
                entity_id, tuple(tokens[start:end + 1]),
                sentences=document.sentences)]))
    return corpus


@settings(max_examples=200, phases=UNSHRUNK)
@given(corpora(), st.integers(1, 8))
def test_one_field_table_serves_every_sentence_and_document(corpus,
                                                            max_width):
    table = {"xx": "SVO", "yy": "SOV"}
    for target in EXPORT_TARGETS:
        records, vocab = io.StringIO(), io.StringIO()
        export_features(corpus, table, records, vocab, target, max_width)
        assert records.getvalue() == "".join(
            _reference_lines(corpus, table, target, max_width))
        written = records.getvalue().splitlines()
        # the sidecar rows are the values the written lines hold, each
        # once, by feature in record order and then sorted
        used: dict[str, set[str]] = {}
        for record in map(json.loads, written):
            for name in VOCABULARY_FEATURES:
                used.setdefault(name, set()).add(record[name])
        rows = vocab.getvalue().splitlines()
        header = rows.index("feature\tvalue")
        assert rows[header + 1:] == [f"{name}\t{value}"
                                     for name in VOCABULARY_FEATURES
                                     for value in sorted(used.get(name, ()))]


def _fixture_corpus():
    """Every document of the fixtures, language ''."""
    return Corpus(documents=[
        document for path in sorted(DATA.rglob("*.conllu"))
        for document in parse_file(path).documents])


def _count_span_fields(monkeypatch):
    """The (head, width) of each _span_fields call from now on."""
    calls = []

    def counted(head, width):
        calls.append((head, width))
        return _span_fields(head, width)

    monkeypatch.setattr(features, "_span_fields", counted)
    return calls


def test_span_fields_run_once_per_candidate_head_key(monkeypatch):
    corpus = _fixture_corpus()
    keys = {(head.upos, head.deprel, width_bucket(len(span)))
            for _, _, span, head in _per_span_candidates(corpus, 10)}
    calls = _count_span_fields(monkeypatch)
    count = export_features(corpus, {"": "SVO"}, io.StringIO(),
                            io.StringIO(), "all_spans", 10)
    assert len(calls) == len(keys)
    assert count > 2 * len(keys)


@pytest.mark.parametrize("head_rule", ["syntactic", "annotated"])
def test_span_fields_run_once_per_gold_head_key(monkeypatch, head_rule):
    corpus = _fixture_corpus()
    heads = [(head_of(mention, head_rule), len(mention.span))
             for document in corpus.documents
             for mention in document.mentions()]
    # a zero pronoun: its label is its first enhanced relation
    assert any(head.is_empty for head, _ in heads)
    keys = {(head.is_empty, head.upos, head.effective_deprel(),
             width_bucket(width)) for head, width in heads}
    calls = _count_span_fields(monkeypatch)
    count = export_features(corpus, {"": "SVO"}, io.StringIO(),
                            io.StringIO(), "gold", 10, head_rule)
    assert count == len(heads)
    assert len(calls) == len(keys) < len(heads)


def test_an_unknown_label_heading_only_candidates_warns_once(monkeypatch,
                                                             caplog):
    # no gold mention: the label reaches ud_category through the table only
    monkeypatch.setattr(model, "warned_relations", set())
    sentence = [tok(1, "a", "NOUN", 2, "amod"),
                tok(2, "b", "NOUN", 3, "frobnicate:sub"),
                tok(3, "c", "VERB", 0, "root")]
    corpus = make_corpus(sentence, sentence)
    records = io.StringIO()
    with caplog.at_level(logging.WARNING):
        export_features(corpus, WORD_ORDER, records, io.StringIO(),
                        "all_spans", 2)
    headed = [record for record in map(json.loads,
                                       records.getvalue().splitlines())
              if record["head_deprel"] == "frobnicate"]
    assert [r["span"] for r in headed] == ["2", "1,2"] * 2
    assert {r["ud_category"] for r in headed} == {"T"}
    assert [r.getMessage() for r in caplog.records] == [
        "unknown dependency relation 'frobnicate' mapped to category T"]


def _candidate_heads(corpus, max_width=3):
    """span key -> head UPOS of every candidate record, checked against the
    per-span loop."""
    lines = list(iter_feature_records(corpus, WORD_ORDER, "all_spans",
                                      max_width))
    assert lines == _reference_lines(corpus, WORD_ORDER, "all_spans",
                                     max_width)
    return {r["span"]: r["head_upos"] for r in map(json.loads, lines)}


def test_a_sentence_with_a_cycle_is_a_parse_error():
    # 2 and 3 govern each other, so no candidate of 1,2,3 would have its
    # parent outside the span; the walk from 1 closes at 2
    with pytest.raises(ParseError) as excinfo:
        make_corpus([
            tok(1, "a", "PRON", 2, "nsubj"),
            tok(2, "b", "VERB", 3, "ccomp"),
            tok(3, "c", "NOUN", 2, "obj"),
            tok(4, "d", "ADV", 0, "root"),
        ])
    assert str(excinfo.value) == "<input>:5: token 2 is on a head cycle"


def test_candidate_heads_in_a_sentence_with_an_unknown_parent():
    # built without the parser, which rejects a head past the sentence end
    tokens = [Token(index=str(i), form=upos.lower(), lemma=upos.lower(),
                    upos=upos, xpos="_", feats_raw="_", head=head,
                    deprel=deprel, deps_raw="_", misc_raw="_",
                    is_empty=False, sent_index=0, order=i - 1)
              for i, (upos, head, deprel) in enumerate(
                  [("NOUN", 2, "nmod"), ("ADJ", 7, "amod"),
                   ("VERB", 0, "root")], start=1)]
    heads = _candidate_heads(Corpus(documents=[Document(
        "toy-doc1", [Sentence(tokens=tokens)], language="xx")]))
    assert heads["1,2"] == "ADJ"
    assert heads["2,3"] == "VERB"
    assert heads["1,2,3"] == "VERB"


def test_written_lines_are_the_json_of_the_records(tmp_path):
    escaped = tmp_path / "escaped.conllu"
    escaped.write_text(
        (DATA / "basic.conllu").read_text(encoding="utf-8")
        .replace("# newdoc id = ", '# newdoc id = dóc"\\')
        .replace("Entity=(e1-", 'Entity=(ë"\\1-')
        .replace("Entity=e1)", 'Entity=ë"\\1)'),
        encoding="utf-8")
    corpus = parse_file(escaped, dataset="fixture", language="es")
    doc_ids = [d.doc_id for d in corpus.documents]
    entity_ids = [e.entity_id for d in corpus.documents for e in d.entities]
    assert any('dóc"\\' in d for d in doc_ids)
    assert 'ë"\\1' in entity_ids
    # The parser admits no such token index, so this document is built by
    # hand: its doc id, language, word order, token indices, UPOS and
    # entity id each hold a quote, a backslash, a non-ASCII letter and a
    # control character.
    odd = '"\\é\x01'
    tokens = [Token(index=f"{i}{odd}", form="w", lemma="w",
                    upos=f"NOUN{odd}", xpos="_", feats_raw="_", head=head,
                    deprel=deprel, deps_raw="_", misc_raw="_",
                    is_empty=False, sent_index=0, order=i - 1)
              for i, (head, deprel) in enumerate(
                  [(2, "nsubj"), (0, "root"), (2, "obj")], start=1)]
    sentences = [Sentence(tokens=tokens)]
    corpus.documents.append(Document(
        f"doc{odd}", sentences, [Entity(f"e{odd}", [Mention(
            f"e{odd}", tuple(tokens[:2]), sentences=sentences)])],
        language=f"xx{odd}"))
    table = {**load_word_order_table(DATA / "word_order.tsv"),
             f"xx{odd}": f"SVO{odd}"}
    for target, head_rule in (("gold", "syntactic"), ("gold", "annotated"),
                              ("all_spans", "syntactic"),
                              ("all_spans", "annotated")):
        records = io.StringIO()
        export_features(corpus, table, records, io.StringIO(), target, 4,
                        head_rule)
        assert records.getvalue() == "".join(_reference_lines(
            corpus, table, target, 4, head_rule)), (target, head_rule)


@pytest.mark.parametrize("target", ["gold", "all_spans"])
def test_export_reads_records_through_the_module_attribute(basic_corpus,
                                                           monkeypatch,
                                                           target):
    # bench/layers.py traces the span export by rebinding the module's
    # iter_feature_records and divides by the time spent in it
    table = load_word_order_table(DATA / "word_order.tsv")
    calls = []

    def replacement(*args):
        calls.append(args[2])
        yield from iter_feature_records(*args)

    monkeypatch.setattr(features, "iter_feature_records", replacement)
    count = export_features(basic_corpus, table, io.StringIO(),
                            io.StringIO(), target, 2)
    assert calls == [target]
    assert count > 0


# ------------------------------------------- mentions that cross sentences

# Sentence 1 is nodes 1-3, sentence 2 nodes 1-3. e1 runs from node 1 of
# sentence 1 to node 3 of sentence 2; e2 is node 1 of sentence 1 and node 3
# of sentence 2; e3 is nodes 1 and 3 of sentence 1. e2 and e3 each have a
# second mention in sentence 2.
CROSSING = "\n".join([
    "# newdoc id = cross-doc1", "# global.Entity = eid-etype-head-other",
    "# sent_id = cross-s1",
    tok(1, "a", misc="Entity=(e1-x-1-(e2[1/2]-y-1-)(e3[1/2]-z-1-)"),
    tok(2, "b", head=1, deprel="nmod"),
    tok(3, "c", head=1, deprel="nmod", misc="Entity=(e3[2/2])"), "",
    "# sent_id = cross-s2",
    tok(1, "d", misc="Entity=(e2-y-1-)"),
    tok(2, "e", head=1, deprel="nmod", misc="Entity=(e3-z-1-)"),
    tok(3, "f", head=1, deprel="nmod", misc="Entity=(e2[2/2])e1)"), "", ""])
CROSSING_KEYS = {"e1": [(0, "1,2,3+1:1,2,3")], "e2": [(0, "1+1:3"), (1, "1")],
                 "e3": [(0, "1+3"), (1, "2")]}


def test_a_run_in_a_later_sentence_is_keyed_by_its_sentence_offset(
        tmp_path):
    path = tmp_path / "en_cross.conllu"
    path.write_text(CROSSING, encoding="utf-8")
    (document,) = parse_file(path).documents
    assert {e.entity_id: [(m.sent_index, span_key(m.span))
                          for m in e.mentions]
            for e in document.entities} == CROSSING_KEYS
    assert main(["export-features", str(path), "--out", str(tmp_path),
                 "--word-order", str(DATA / "word_order.tsv")]) == 0
    lines = (tmp_path / "en_cross.features.jsonl").read_text(
        encoding="utf-8").splitlines()
    exported: dict[str, list] = {}
    for record in map(json.loads, lines):
        exported.setdefault(record["entity_id"], []).append(
            (record["sent_index"], record["span"]))
    assert exported == CROSSING_KEYS


def test_mentions_that_differ_only_in_sentence_get_their_own_vectors(
        tmp_path):
    # "1+3" of sentence 1 would also be e2's key without the offset: the
    # vector file would repeat it and the two mentions share one vector
    corpus = parse_conllu(CROSSING)
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("".join(
        f"cross-doc1\t{sent}\t{key}\t{x}\t{y}\n" for sent, key, x, y in [
            (0, "1,2,3+1:1,2,3", 0, 0), (0, "1+1:3", 0, 0), (1, "1", 3, 4),
            (0, "1+3", 0, 0), (1, "2", 6, 8)]), encoding="utf-8")
    loaded = load_mention_vectors(vectors)
    assert loaded[("cross-doc1", 0, "1+1:3")] == (0.0, 0.0)
    assert loaded[("cross-doc1", 1, "2")] == (6.0, 8.0)
    # e2's pair is 5 apart and e3's 10; e1 is a singleton
    assert distance_moments(corpus, loaded)[:2] == (2, 15)
