"""Error analysis of system output against gold coreference.

Starting from gold entities whose links the system completely missed
(recall zero), drill down: how many have exactly two mentions, how many of
those mentions were never detected, what the undetected mentions look like,
and how many sentences apart the two mentions are when both were detected
but left unlinked.

One record, `ErrorReport`, holds every count of one dataset: the
non-singleton, unresolved and two-mention entities, the distance buckets,
and the undetected mentions' number, short, multi-token and pre-modified
counts, summed token length and mention types. Its ratio columns are
properties over those counts, and reports of several documents or datasets
pool with `+`, which adds every field after the dataset label.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from .metrics import align_mentions, overlaps
from .model import (UNRESOLVED_DEFINITIONS, Document, Entity, Mention, Record,
                    span_key)
from .reports import ratio
from .taxonomy import classify_mention_type, is_premodified

DISTANCE_BUCKETS = ("0", "1", "2", "3+")


def unresolved_entities(gold: Document, pred: Document,
                        alignment: dict[Mention, Mention],
                        definition: str = "links") -> list[Entity]:
    """Non-singleton gold entities, in gold order, for which the system
    recovered nothing, given the alignment of system to gold mentions
    (metrics.align_mentions); a system mention that claimed a gold mention
    stands for it.

    links (default): no system cluster holds two or more of the entity's
    mentions, so the entity has no MUC-correct link (MUC recall zero).
    membership: no system cluster holds any of them.
    """
    if definition not in UNRESOLVED_DEFINITIONS:
        raise ValueError(f"unknown definition {definition!r}")
    entities = [e for e in gold.entities if not e.is_singleton()]
    rows, _ = overlaps([e.mentions for e in entities],
                       [[alignment[m] for m in e.mentions if m in alignment]
                        for e in pred.entities])
    least = 2 if definition == "links" else 1  # matches in one cluster
    return [e for e, row in zip(entities, rows)
            if max(row.values(), default=0) < least]


class ErrorReport(Record):
    """Aggregated error analysis for one dataset (one gold/system pair)."""

    __slots__ = ("dataset", "n_entities", "n_unresolved", "n_two_mention",
                 "distance_buckets", "n_undetected", "n_short",
                 "n_multi_token", "n_premodified", "undetected_length",
                 "undetected_types")

    def __init__(self, dataset: str, n_entities: int = 0,
                 n_unresolved: int = 0, n_two_mention: int = 0,
                 distance_buckets: Counter | None = None,
                 n_undetected: int = 0, n_short: int = 0,
                 n_multi_token: int = 0, n_premodified: int = 0,
                 undetected_length: int = 0,
                 undetected_types: Counter | None = None) -> None:
        self.dataset = dataset
        self.n_entities = n_entities  # non-singleton gold entities
        self.n_unresolved = n_unresolved
        self.n_two_mention = n_two_mention
        # sentence distance between the two mentions of each two-mention
        # entity whose mentions were both detected but never linked
        self.distance_buckets = (Counter() if distance_buckets is None
                                 else distance_buckets)
        # the two-mention entities' undetected mentions; a short one has
        # one or two tokens
        self.n_undetected = n_undetected
        self.n_short = n_short
        self.n_multi_token = n_multi_token
        self.n_premodified = n_premodified
        self.undetected_length = undetected_length
        self.undetected_types = (Counter() if undetected_types is None
                                 else undetected_types)

    @property
    def unresolved_pct(self) -> Fraction | None:
        return ratio(self.n_unresolved, self.n_entities, 100)

    @property
    def two_mention_pct(self) -> Fraction | None:
        return ratio(self.n_two_mention, self.n_unresolved, 100)

    @property
    def undetected_pct(self) -> Fraction | None:
        return ratio(self.n_undetected, 2 * self.n_two_mention, 100)

    @property
    def short_pct(self) -> Fraction | None:
        return ratio(self.n_short, self.n_undetected, 100)

    @property
    def premodified_pct(self) -> Fraction | None:
        return ratio(self.n_premodified, self.n_multi_token, 100)

    @property
    def premodified_share_of_all(self) -> Fraction | None:
        return ratio(self.n_premodified, self.n_undetected)

    @property
    def mean_undetected_length(self) -> Fraction | None:
        return ratio(self.undetected_length, self.n_undetected)

    def __add__(self, other: "ErrorReport") -> "ErrorReport":
        """Pooled report, labelled like this one: the constructor takes the
        fields in slot order, and each one after dataset adds."""
        return ErrorReport(self.dataset, *(
            mine + theirs for mine, theirs
            in zip(self._values()[1:], other._values()[1:])))


def analyze_document(gold: Document, pred: Document, mode: str = "exact",
                     definition: str = "links",
                     details: list[dict] | None = None) -> ErrorReport:
    """Run the full error-analysis pipeline on one document pair. When a
    details list is given, one diagnostic record per unresolved entity is
    appended to it from the same alignment."""
    alignment = align_mentions(gold, pred, mode)
    detected = set(alignment.values())
    unresolved = unresolved_entities(gold, pred, alignment, definition)
    if details is not None:
        details.extend(_entity_details(gold, unresolved, detected))
    two_mention = [e for e in unresolved if len(e.mentions) == 2]
    report = ErrorReport(
        gold.dataset,
        n_entities=sum(1 for e in gold.entities if not e.is_singleton()),
        n_unresolved=len(unresolved), n_two_mention=len(two_mention))
    for entity in two_mention:
        first, second = entity.mentions
        if first in detected and second in detected:
            distance = second.sent_index - first.sent_index
            report.distance_buckets[str(distance) if distance < 3
                                    else "3+"] += 1
            continue
        for mention in entity.mentions:
            if mention in detected:
                continue
            head = mention.head
            report.undetected_types[classify_mention_type(head)] += 1
            report.n_undetected += 1
            length = len(mention.span)
            report.undetected_length += length
            if length <= 2:
                report.n_short += 1
            if length > 1:
                report.n_multi_token += 1
            if is_premodified(mention, head):
                report.n_premodified += 1
    return report


def analyze_errors(pairs: Iterable[tuple[Document, Document]],
                   mode: str = "exact", definition: str = "links",
                   dataset: str = "",
                   details: list[dict] | None = None) -> ErrorReport:
    """Pool the error analysis of aligned document pairs into one report
    labelled with dataset, appending per-entity detail records to details
    when it is given. No pairs give an empty report."""
    report = ErrorReport(dataset)
    for gold, pred in pairs:
        report += analyze_document(gold, pred, mode, definition, details)
        del gold, pred  # the pair goes before the next one is parsed
    return report


def unresolved_entity_details(gold: Document, pred: Document,
                              mode: str = "exact",
                              definition: str = "links") -> list[dict]:
    """Per-entity diagnostic records for the JSON detail dump."""
    details: list[dict] = []
    analyze_document(gold, pred, mode, definition, details)
    return details


def _entity_details(gold: Document, unresolved: list[Entity],
                    detected: set[Mention]) -> list[dict]:
    return [{
        "doc_id": gold.doc_id,
        "entity_id": entity.entity_id,
        "n_mentions": len(entity.mentions),
        "diagnosis": ("missing_link" if detected.issuperset(entity.mentions)
                      else "undetected_mentions"),
        "mentions": [{
            "sent_index": mention.sent_index,
            "span": span_key(mention.span),
            "text": " ".join(t.form for t in mention.span),
            "type": classify_mention_type(mention.head).value,
            "detected": mention in detected,
        } for mention in entity.mentions],
    } for entity in unresolved]
