"""Coreference evaluation: MUC, B³, CEAFe, CoNLL F1, macro average.

Each metric is computed from cumulative numerator/denominator counts so
document pairs can be pooled into one dataset score, matching the usual
scorer behavior. Cluster alignment for CEAFe is the exact optimal one-to-one
assignment, not a greedy approximation.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Hashable, Iterable

from scipy.optimize import linear_sum_assignment

from .model import Corpus, Document, Mention

MATCH_MODES = ("exact", "head")
SINGLETON_POLICIES = ("include", "exclude")


class AlignmentError(ValueError):
    """Gold and system documents cannot be aligned."""


def document_pairs(gold: Corpus,
                   pred: Corpus) -> list[tuple[Document, Document]]:
    """(gold, system) documents of one dataset paired by doc id, in gold
    order. Every gold document needs exactly one system document and every
    system document a gold one; otherwise AlignmentError names the first
    that does not pair."""
    name = gold.dataset
    pred_docs = {d.doc_id: d for d in pred.documents}
    if len(pred_docs) != len(pred.documents):
        raise AlignmentError(f"{name}: duplicate doc ids in system output")
    pairs = []
    for document in gold.documents:
        match = pred_docs.pop(document.doc_id, None)
        if match is None:
            raise AlignmentError(f"{name}: system output misses document "
                                 f"{document.doc_id!r}")
        pairs.append((document, match))
    if pred_docs:
        extra = next(iter(pred_docs))
        raise AlignmentError(f"{name}: system output has unknown document "
                             f"{extra!r}")
    return pairs


@dataclass(frozen=True)
class Scores:
    precision: float
    recall: float
    f1: float


def _prf(p_num: float, p_den: float, r_num: float, r_den: float) -> Scores:
    precision = p_num / p_den if p_den > 0 else 0.0
    recall = r_num / r_den if r_den > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return Scores(precision, recall, f1)


@dataclass
class ClusterSet:
    """Disjoint clusters of hashable mention keys."""

    clusters: list[frozenset[Hashable]]
    singleton_policy: str = "include"

    def __post_init__(self) -> None:
        if self.singleton_policy not in SINGLETON_POLICIES:
            raise ValueError(f"unknown singleton policy "
                             f"{self.singleton_policy!r}")
        clusters = [frozenset(c) for c in self.clusters if c]
        if self.singleton_policy == "exclude":
            clusters = [c for c in clusters if len(c) > 1]
        seen: set[Hashable] = set()
        for cluster in clusters:
            if seen & cluster:
                raise ValueError("clusters are not pairwise disjoint")
            seen |= cluster
        self.clusters = clusters

    @property
    def mentions(self) -> set[Hashable]:
        return {key for cluster in self.clusters for key in cluster}


def align_mentions(gold: Document, pred: Document,
                   mode: str = "exact") -> dict[Mention, Mention]:
    """Match system mentions to gold mentions; each gold is claimed at most
    once, system mentions in span-length order for determinism.

    exact: identical span token sets. head: the system span contains the
    gold head and is contained in the gold span.
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown match mode {mode!r}")
    if gold.doc_id != pred.doc_id:
        raise AlignmentError(f"document ids differ: {gold.doc_id!r} vs "
                             f"{pred.doc_id!r}")
    gold_shape = [s.n_surface() for s in gold.sentences]
    pred_shape = [s.n_surface() for s in pred.sentences]
    if gold_shape != pred_shape:
        raise AlignmentError(
            f"sentence segmentation differs in document {gold.doc_id!r}: "
            f"{len(gold_shape)} sentences vs {len(pred_shape)}"
            if len(gold_shape) != len(pred_shape) else
            f"token counts per sentence differ in document {gold.doc_id!r}")

    gold_mentions = gold.mentions()
    pred_mentions = pred.mentions()
    claimed: set[int] = set()
    alignment: dict[Mention, Mention] = {}

    if mode == "exact":
        by_span: dict[frozenset, list[Mention]] = {}
        for mention in gold_mentions:
            span = frozenset(t.pos for t in mention.span)
            by_span.setdefault(span, []).append(mention)
        for mention in sorted(pred_mentions,
                              key=lambda m: (len(m.span), m.start, m.end)):
            span = frozenset(t.pos for t in mention.span)
            for candidate in by_span.get(span, ()):
                if id(candidate) not in claimed:
                    claimed.add(id(candidate))
                    alignment[mention] = candidate
                    break
        return alignment

    by_head: dict[tuple[int, int], list[Mention]] = {}
    for mention in gold_mentions:
        by_head.setdefault(mention.head.pos, []).append(mention)
    for mention in sorted(pred_mentions,
                          key=lambda m: (len(m.span), m.start, m.end)):
        span = {t.pos for t in mention.span}
        candidates = []
        for pos in span:
            for candidate in by_head.get(pos, ()):
                if id(candidate) in claimed:
                    continue
                if span <= {t.pos for t in candidate.span}:
                    candidates.append(candidate)
        if candidates:
            best = min(candidates,
                       key=lambda m: (len(m.span), m.start, m.end))
            claimed.add(id(best))
            alignment[mention] = best
    return alignment


def _partition_count(cluster: frozenset, membership: dict) -> int:
    """Number of blocks the other side's clusters split this cluster into,
    unmatched mentions counting as their own blocks."""
    blocks = set()
    singletons = 0
    for key in cluster:
        other = membership.get(key)
        if other is None:
            singletons += 1
        else:
            blocks.add(other)
    return len(blocks) + singletons


def _membership(clusters: Iterable[frozenset]) -> dict:
    return {key: index for index, cluster in enumerate(clusters)
            for key in cluster}


def muc_counts(gold: ClusterSet, pred: ClusterSet) -> tuple[int, int, int, int]:
    gold_membership = _membership(gold.clusters)
    pred_membership = _membership(pred.clusters)
    r_num = sum(len(c) - _partition_count(c, pred_membership)
                for c in gold.clusters)
    r_den = sum(len(c) - 1 for c in gold.clusters)
    p_num = sum(len(c) - _partition_count(c, gold_membership)
                for c in pred.clusters)
    p_den = sum(len(c) - 1 for c in pred.clusters)
    return (p_num, p_den, r_num, r_den)


def muc(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Link-based metric of Vilain et al.: minimum missing/extra links."""
    return _prf(*muc_counts(gold, pred))


def b_cubed_counts(gold: ClusterSet,
                   pred: ClusterSet) -> tuple[float, int, float, int]:
    gold_by_key = {key: cluster for cluster in gold.clusters for key in cluster}
    pred_by_key = {key: cluster for cluster in pred.clusters for key in cluster}
    r_num = 0.0
    r_den = 0
    for cluster in gold.clusters:
        for key in cluster:
            r_den += 1
            other = pred_by_key.get(key)
            if other:
                r_num += len(cluster & other) / len(cluster)
    p_num = 0.0
    p_den = 0
    for cluster in pred.clusters:
        for key in cluster:
            p_den += 1
            other = gold_by_key.get(key)
            if other:
                p_num += len(cluster & other) / len(cluster)
    return (p_num, p_den, r_num, r_den)


def b_cubed(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Mention-based metric of Bagga & Baldwin: per-mention cluster overlap."""
    return _prf(*b_cubed_counts(gold, pred))


def _phi(a: frozenset, b: frozenset) -> float:
    return 2 * len(a & b) / (len(a) + len(b))


def ceafe_counts(gold: ClusterSet,
                 pred: ClusterSet) -> tuple[float, int, float, int]:
    if not gold.clusters or not pred.clusters:
        return (0.0, len(pred.clusters), 0.0, len(gold.clusters))
    similarity = [[_phi(g, p) for p in pred.clusters] for g in gold.clusters]
    rows, cols = linear_sum_assignment(similarity, maximize=True)
    best = sum(similarity[r][c] for r, c in zip(rows, cols))
    return (best, len(pred.clusters), best, len(gold.clusters))


def ceafe(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Entity-based metric of Luo: optimal one-to-one cluster alignment
    under the similarity 2|K∩R| / (|K|+|R|)."""
    return _prf(*ceafe_counts(gold, pred))


@dataclass(frozen=True)
class ScoreReport:
    muc: Scores
    b_cubed: Scores
    ceafe: Scores
    match_mode: str = "exact"
    singleton_policy: str = "include"

    @property
    def conll_f1(self) -> float:
        return (self.muc.f1 + self.b_cubed.f1 + self.ceafe.f1) / 3


def macro_average(values: list[float]) -> float:
    """Unweighted mean over datasets."""
    if not values:
        raise ValueError("macro average of an empty list")
    return sum(values) / len(values)


def remapped_cluster_set(gold: Document, pred: Document, mode: str,
                         singleton_policy: str,
                         ) -> tuple[ClusterSet, ClusterSet]:
    """Gold and system cluster sets over shared keys: system mentions are
    replaced by their aligned gold mention, unmatched ones keep a key of
    their own."""
    alignment = align_mentions(gold, pred, mode)
    gold_ids: dict[int, tuple] = {}
    gold_clusters = []
    for entity in gold.entities:
        cluster = set()
        for mention in entity.mentions:
            key = ("g", len(gold_ids))
            gold_ids[id(mention)] = key
            cluster.add(key)
        gold_clusters.append(frozenset(cluster))
    pred_clusters = []
    unmatched = 0
    for entity in pred.entities:
        cluster = set()
        for mention in entity.mentions:
            matched = alignment.get(mention)
            if matched is not None:
                cluster.add(gold_ids[id(matched)])
            else:
                cluster.add(("p", unmatched))
                unmatched += 1
        pred_clusters.append(frozenset(cluster))
    return (ClusterSet(gold_clusters, singleton_policy),
            ClusterSet(pred_clusters, singleton_policy))


def score_pairs(pairs: Iterable[tuple[Document, Document]],
                mode: str = "exact",
                singleton_policy: str = "exclude") -> ScoreReport:
    """Score aligned (gold, system) document pairs, summing the MUC, B³ and
    CEAFe counts of every pair before computing the scores."""
    totals = [(0.0, 0.0, 0.0, 0.0)] * 3
    for gold, pred in pairs:
        gold_set, pred_set = remapped_cluster_set(gold, pred, mode,
                                                  singleton_policy)
        counts = (muc_counts(gold_set, pred_set),
                  b_cubed_counts(gold_set, pred_set),
                  ceafe_counts(gold_set, pred_set))
        totals = [tuple(map(add, total, part))
                  for total, part in zip(totals, counts)]
    return ScoreReport(*(_prf(*total) for total in totals), mode,
                       singleton_policy)
