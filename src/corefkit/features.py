"""Span- and document-level feature records for model training.

Emits one JSON-lines record per span (gold mentions, or all contiguous
candidate spans up to a width cap) with the head-derived categorical
features and the document's language/word-order, plus a TSV vocabulary
sidecar listing every categorical value the records hold. Heads follow
head_rule: syntactic (parent outside the span, the default) or annotated
(the mention's own head, Mention.head). Candidate spans carry no
annotation, so their heads are always syntactic. The sidecar header records
the rule the records followed.

A candidate's syntactic head is the running minimum of (depth, position)
while the span grows by one token, so each candidate costs O(1).

A record is its JSON line, built from cached text: a prefix per sentence,
the quoted span key and an end per language and fields key. A fields key
holds all the head-and-width fields read (whether the head is an empty
node, its UPOS and label, the width bucket), so they are worked out once
per language and key. Tests pin each line to ``json.dumps`` of a record
built field by field, one span at a time.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .conllu import ParseError, open_text
from .model import DataError, Document, Sentence, Token, head_of, span_key
from .taxonomy import base_relation, classify_mention_type, ud_category

WORD_ORDERS = ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV", "NoDominant")

EXPORT_TARGETS = ("gold", "all_spans")

_FEATURE_NAMES = ("width_bucket", "head_upos", "head_deprel", "mention_type",
                  "ud_category", "language", "word_order")

_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def width_bucket(n_tokens: int) -> str:
    if n_tokens <= 4:
        return str(n_tokens)
    if n_tokens <= 7:
        return "5-7"
    if n_tokens <= 15:
        return "8-15"
    if n_tokens <= 31:
        return "16-31"
    return "32+"


class WordOrderError(KeyError, DataError):
    """A document's language has no word-order entry."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


def load_word_order_table(path: str | Path) -> dict[str, str]:
    """Read the two-column (language, order) TSV; '#' lines are comments.
    Malformed lines, and a file that is not UTF-8, raise ParseError naming
    the file and line."""
    table: dict[str, str] = {}
    filename = str(path)
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"expected 2 columns, got {len(fields)}",
                                 filename, line_no)
            language, order = fields
            if language in table:
                raise ParseError(f"duplicate language {language!r}",
                                 filename, line_no)
            if order not in WORD_ORDERS:
                raise ParseError(f"unknown word order {order!r}",
                                 filename, line_no)
            table[language] = order
    return table


def _span_fields(head: Token, width: int) -> dict:
    """The fields of a record that follow from its head and width."""
    deprel = head.effective_deprel()
    return {"width_bucket": width_bucket(width),
            "head_upos": head.upos,
            "head_deprel": base_relation(deprel) if deprel else "_",
            "mention_type": classify_mention_type(head).value,
            "ud_category": ud_category(deprel).name}


def _candidate_rows(sentence: Sentence, max_width: int,
                    ) -> Iterator[tuple[int, Iterable[tuple[str, Token]]]]:
    """Each width up to max_width with the (span key, syntactic head) of
    every run of that many surface tokens, leftmost run first."""
    # The syntactic head of a run is its shallowest token, leftmost on a
    # tie (see mention_head). Surface ids are consecutive, so a run's key
    # is its ids comma-joined. Each run grows by one token per width.
    surface = sentence.surface_tokens()
    n = len(surface)
    depths = [sentence.depth(token.order) for token in surface]
    keys = [token.index for token in surface]
    heads = list(surface)
    head_depths = list(depths)
    for width in range(1, min(max_width, n) + 1):
        n_runs = n - width + 1
        if width > 1:
            for start in range(n_runs):
                end = start + width - 1
                keys[start] += "," + surface[end].index
                if depths[end] < head_depths[start]:
                    heads[start] = surface[end]
                    head_depths[start] = depths[end]
        yield width, zip(keys[:n_runs], heads)


def iter_feature_records(corpus: Iterable[Document],
                         word_order_table: dict[str, str],
                         target: str = "gold", max_width: int = 10,
                         head_rule: str = "syntactic",
                         vocabulary: dict[str, set] | None = None,
                         ) -> Iterator[str]:
    """Yield one record's JSON line per span, newline included, as
    ``json.dumps(record, ensure_ascii=False, separators=(",", ":"))``
    writes it, in deterministic document order: gold mentions in document
    order, candidate spans per sentence by width and then by start. corpus
    is a Corpus or any stream of documents, read one document at a time;
    nothing of a document is held once its last line is out.

    Given vocabulary, a dict from feature name to a set of values, every
    feature value the lines hold is added to it."""
    if target not in EXPORT_TARGETS:
        raise ValueError(f"unknown export target {target!r}")
    if vocabulary is None:
        vocabulary = {}
    # The JSON text of a record after its span, per language (which fixes
    # the word order) and then per fields key: up to the entity id's value
    # (gold) or to the line's end. A fields key holds everything
    # _span_fields reads from a head and width; few keys exist. A gold head
    # may be an empty node, whose label is its first enhanced relation. A
    # candidate head is a surface token, so its UPOS and DEPREL suffice.
    ends_of: dict[str, dict[tuple, str]] = {}
    close = ',"entity_id":' if target == "gold" else "}\n"

    def end_of(head: Token, width: int, language: str,
               word_order: str) -> str:
        end = {**_span_fields(head, width), "language": language,
               "word_order": word_order}
        for name, value in end.items():
            vocabulary.setdefault(name, set()).add(value)
        return "," + _ENCODER.encode(end)[1:-1] + close

    for document in corpus:
        doc_id = document.doc_id
        language = document.language
        word_order = word_order_table.get(language)
        if word_order is None:
            raise WordOrderError(
                f"no word order configured for language {language!r} "
                f"(document {doc_id!r})")
        ends = ends_of.setdefault(language, {})
        # '{"doc_id":…,"sent_index":'
        doc_head = _ENCODER.encode({"doc_id": doc_id})[:-1] + \
            ',"sent_index":'
        if target == "gold":
            for mention in document.mentions():
                head = head_of(mention, head_rule)
                width = len(mention.span)
                fields_key = (head.is_empty, head.upos,
                              head.effective_deprel(), width_bucket(width))
                end = ends.get(fields_key)
                if end is None:
                    end = ends[fields_key] = end_of(head, width, language,
                                                    word_order)
                yield (f'{doc_head}{mention.sent_index},"span":'
                       + encode_basestring(span_key(mention.span)) + end
                       + encode_basestring(mention.entity_id) + "}\n")
        else:
            for sent_index, sentence in enumerate(document.sentences):
                prefix = f'{doc_head}{sent_index},"span":'
                for width, candidates in _candidate_rows(sentence, max_width):
                    bucket = width_bucket(width)
                    for key, head in candidates:
                        fields_key = (head.upos, head.deprel, bucket)
                        end = ends.get(fields_key)
                        if end is None:
                            end = ends[fields_key] = end_of(
                                head, width, language, word_order)
                        yield prefix + encode_basestring(key) + end
        # nothing of the document is held while the next one is parsed
        document = mention = sentence = candidates = None


def export_features(corpus: Iterable[Document],
                    word_order_table: dict[str, str],
                    records_out: TextIO, vocab_out: TextIO,
                    target: str = "gold", max_width: int = 10,
                    head_rule: str = "syntactic") -> int:
    """Write the JSONL record stream and the vocabulary sidecar.

    The lines are those iter_feature_records yields; the sidecar lists
    every feature value they hold.
    Returns the number of records written. Output is a pure function of
    the inputs: two runs produce identical bytes.
    """
    if target == "all_spans":
        head_rule = "syntactic"  # the only rule candidate spans can follow
    vocabulary: dict[str, set] = {name: set() for name in _FEATURE_NAMES}
    write = records_out.write
    count = 0
    for count, line in enumerate(iter_feature_records(
            corpus, word_order_table, target, max_width, head_rule,
            vocabulary), start=1):
        write(line)
    vocab_out.write("# categorical feature vocabulary; values observed in "
                    "the exported records\n")
    vocab_out.write(f"# target={target}"
                    + (f" max_width={max_width}" if target == "all_spans"
                       else "")
                    + f" head={head_rule}\n")
    if head_rule == "syntactic":
        vocab_out.write("# heads are syntactic (parent outside the span); "
                        "a trained scorer may substitute attention-derived "
                        "heads\n")
    vocab_out.write("feature\tvalue\n")
    for name, values in vocabulary.items():
        for value in sorted(values):
            vocab_out.write(f"{name}\t{value}\n")
    return count
