"""Span- and document-level feature records for model training.

Emits one JSON-lines record per span (gold mentions, or all contiguous
candidate spans up to a width cap) with the head-derived categorical
features and the document's language/word-order, plus a TSV vocabulary
sidecar listing every categorical value that occurs. Heads follow
head_rule: syntactic (parent outside the span, the default) or annotated
(the head resolved at parse time). Candidate spans carry no annotation, so
their heads are always syntactic. The sidecar header records the rule the
records followed.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, TextIO

from .model import Corpus, Mention, Token, head_of, span_key
from .taxonomy import base_relation, classify_mention_type, ud_category

WORD_ORDERS = ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV", "NoDominant")

EXPORT_TARGETS = ("gold", "all_spans")

_FEATURE_NAMES = ("width_bucket", "head_upos", "head_deprel", "mention_type",
                  "ud_category", "language", "word_order")


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


class WordOrderError(KeyError):
    """A document's language has no word-order entry."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


def load_word_order_table(path: str | Path) -> dict[str, str]:
    """Read the two-column (language, order) TSV; '#' lines are comments."""
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{line_no}: expected 2 columns, "
                                 f"got {len(fields)}")
            language, order = fields
            if language in table:
                raise ValueError(f"{path}:{line_no}: duplicate language "
                                 f"{language!r}")
            if order not in WORD_ORDERS:
                raise ValueError(f"{path}:{line_no}: unknown word order "
                                 f"{order!r}")
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


def iter_feature_records(corpus: Corpus, word_order_table: dict[str, str],
                         target: str = "gold", max_width: int = 10,
                         head_rule: str = "syntactic") -> Iterator[dict]:
    """Yield one record per span in deterministic document order."""
    if target not in EXPORT_TARGETS:
        raise ValueError(f"unknown export target {target!r}")
    for document in corpus.documents:
        language = document.language
        word_order = word_order_table.get(language)
        if word_order is None:
            raise WordOrderError(
                f"no word order configured for language {language!r} "
                f"(document {document.doc_id!r})")
        if target == "gold":
            for mention in document.mentions():
                head = head_of(mention, document, head_rule)
                yield {"doc_id": document.doc_id,
                       "sent_index": mention.sent_index,
                       "span": span_key(mention.span),
                       **_span_fields(head, len(mention.span)),
                       "language": language, "word_order": word_order,
                       "entity_id": mention.entity_id}
        else:
            for sent_index, sentence in enumerate(document.sentences):
                surface = sentence.surface_tokens()
                n = len(surface)
                for width in range(1, min(max_width, n) + 1):
                    for start in range(n - width + 1):
                        span = tuple(surface[start:start + width])
                        head = head_of(Mention("", span), document,
                                       "syntactic")
                        yield {"doc_id": document.doc_id,
                               "sent_index": sent_index,
                               "span": span_key(span),
                               **_span_fields(head, width),
                               "language": language,
                               "word_order": word_order}


def export_features(corpus: Corpus, word_order_table: dict[str, str],
                    records_out: TextIO, vocab_out: TextIO,
                    target: str = "gold", max_width: int = 10,
                    head_rule: str = "syntactic") -> int:
    """Write the JSONL record stream and the vocabulary sidecar.

    Returns the number of records written. Output is a pure function of the
    inputs: two runs produce identical bytes.
    """
    if target == "all_spans":
        head_rule = "syntactic"  # the only rule candidate spans can follow
    vocabulary: dict[str, set[str]] = {name: set() for name in _FEATURE_NAMES}
    count = 0
    for record in iter_feature_records(corpus, word_order_table, target,
                                       max_width, head_rule):
        for name in _FEATURE_NAMES:
            vocabulary[name].add(record[name])
        records_out.write(json.dumps(record, ensure_ascii=False,
                                     separators=(",", ":")) + "\n")
        count += 1
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
    for name in _FEATURE_NAMES:
        for value in sorted(vocabulary[name]):
            vocab_out.write(f"{name}\t{value}\n")
    return count
