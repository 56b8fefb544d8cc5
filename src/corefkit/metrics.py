"""Coreference evaluation: MUC, B³, CEAFe, CoNLL F1, macro average.

Each metric is computed from cumulative numerator/denominator counts so
document pairs can be pooled into one dataset score, matching the usual
scorer behavior. Cluster alignment for CEAFe is the exact optimal one-to-one
assignment, not a greedy approximation. Only clusters that share a mention
have a similarity above zero, so it is solved exactly and separately on each
connected component of the gold/system overlap graph, in plain Python.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Hashable, Iterable, Iterator, NamedTuple

from .model import (MATCH_MODES, SINGLETON_POLICIES, DataError, Document,
                    Mention, Record)
from .reports import ratio


class AlignmentError(ValueError, DataError):
    """Gold and system documents cannot be aligned."""


def document_pairs(gold: Iterable[Document], pred: Iterable[Document],
                   dataset: str = "") -> Iterator[tuple[Document, Document]]:
    """(gold, system) documents of one dataset paired by doc id, in gold
    order, each pair yielded as soon as both are read. Gold order drives
    the walk: a system document read before its gold one is held by id
    until then, so system output in gold order is held one document at a
    time, and only ids are kept to find repeats. No reference to a yielded
    pair is kept: once the caller drops it, both documents are freed before
    the next pair is parsed. Every gold document needs exactly one system
    document and every system document a gold one; otherwise AlignmentError
    names dataset and the first fault the walk meets. Closing the two
    streams is left to whoever opened them."""
    pred = iter(pred)
    early: dict[str, Document] = {}  # system documents read ahead, by id
    gold_ids: set[str] = set()
    pred_ids: set[str] = set()

    def next_pred() -> Document | None:
        document = next(pred, None)
        if document is not None:
            if document.doc_id in pred_ids:
                raise AlignmentError(
                    f"{dataset}: duplicate doc ids in system output")
            pred_ids.add(document.doc_id)
        return document

    for document in gold:
        doc_id = document.doc_id
        if doc_id in gold_ids:
            raise AlignmentError(f"{dataset}: duplicate doc ids in gold")
        gold_ids.add(doc_id)
        match = early.pop(doc_id, None)
        while match is None:
            match = next_pred()
            if match is None:
                raise AlignmentError(f"{dataset}: system output misses "
                                     f"document {doc_id!r}")
            if match.doc_id != doc_id:
                early[match.doc_id] = match
                match = None
        yield document, match
        del document, match  # not held while the next pair is parsed
    # gold is done: each system document left, early or not, lacks gold;
    # the first is named once the rest is checked for repeats
    extra = next(iter(early), None)
    early.clear()
    while (document := next_pred()) is not None:
        if extra is None:
            extra = document.doc_id
        del document  # not held while the next one is parsed
    if extra is not None:
        raise AlignmentError(f"{dataset}: system output has unknown document "
                             f"{extra!r}")


class Scores(NamedTuple):
    precision: Fraction
    recall: Fraction
    f1: Fraction


def _prf(p_num: Fraction, p_den: int, r_num: Fraction, r_den: int) -> Scores:
    precision = ratio(p_num, p_den) or Fraction(0)
    recall = ratio(r_num, r_den) or Fraction(0)
    f1 = ratio(2 * precision * recall, precision + recall) or Fraction(0)
    return Scores(precision, recall, f1)


class ClusterSet(Record):
    """Disjoint clusters of hashable mention keys; empty ones are dropped.
    Singletons are kept: remapped_cluster_set applies the singleton
    policy."""

    __slots__ = ("clusters",)

    def __init__(self, clusters: Iterable[Iterable[Hashable]]) -> None:
        clusters = [frozenset(c) for c in clusters if c]
        seen: set[Hashable] = set()
        for cluster in clusters:
            if seen & cluster:
                raise ValueError("clusters are not pairwise disjoint")
            seen |= cluster
        self.clusters = clusters


def _extent(mention: Mention) -> tuple:
    return (len(mention.span), mention.start, mention.end)


def align_mentions(gold: Document, pred: Document,
                   mode: str = "exact") -> dict[Mention, Mention]:
    """Match system mentions to gold mentions. A node is named by its
    sentence and CoNLL-U id, so an empty node that only one side has
    matches nothing and moves no other node.

    Each system mention, in (length, start, end) order, claims the free
    gold mention of least (length, start, end) that its mode allows; ties
    go to the first found. exact allows the same node set (ties: document
    order). head allows a gold mention that contains the system span and
    whose head lies in it (ties: the head first in the system span).
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

    exact = mode == "exact"
    nodes_of: dict[Mention, frozenset] = {}
    index: dict[Hashable, list[Mention]] = {}
    for mention in gold.mentions():
        nodes = nodes_of[mention] = frozenset(
            [(t.sent_index, t.index) for t in mention.span])
        if exact:
            key = nodes
        else:
            head = mention.head
            key = (head.sent_index, head.index)
        index.setdefault(key, []).append(mention)
    claimed: set[Mention] = set()
    alignment: dict[Mention, Mention] = {}
    for mention in sorted(pred.mentions(), key=_extent):
        nodes = frozenset([(t.sent_index, t.index) for t in mention.span])
        if exact:
            candidates = index.get(nodes, ())
        else:
            candidates = [g for t in mention.span
                          for g in index.get((t.sent_index, t.index), ())
                          if nodes <= nodes_of[g]]
        free = [g for g in candidates if g not in claimed]
        if free:
            best = free[0] if len(free) == 1 else min(free, key=_extent)
            claimed.add(best)
            alignment[mention] = best
    return alignment


Overlap = list[dict[int, int]]  # per cluster: {other side's index: shared}


def overlaps(clusters: Iterable[Iterable[Hashable]],
             other: list[Iterable[Hashable]]) -> tuple[Overlap, Overlap]:
    """The overlap rows of clusters and of other (its transpose), from one
    membership pass over other. Keys of one side only are not counted."""
    membership = {key: index for index, cluster in enumerate(other)
                  for key in cluster}
    rows: Overlap = []
    cols: Overlap = [{} for _ in other]
    for row, cluster in enumerate(clusters):
        shared: dict[int, int] = {}
        for key in cluster:
            index = membership.get(key)
            if index is not None:
                shared[index] = shared.get(index, 0) + 1
        for index, count in shared.items():
            cols[index][row] = count
        rows.append(shared)
    return rows, cols


def _muc_side(overlap: Overlap, clusters: list[frozenset]) -> tuple[int, int]:
    """Correct and total links: a cluster of n keys that the other side
    splits into b blocks (an unmatched key is a block of its own) has
    n - b of its n - 1 links right."""
    correct = sum(sum(shared.values()) - len(shared) for shared in overlap)
    return correct, sum(len(c) - 1 for c in clusters)


def muc_counts(gold: ClusterSet, pred: ClusterSet) -> tuple[int, int, int, int]:
    gold_rows, pred_rows = overlaps(gold.clusters, pred.clusters)
    return (*_muc_side(pred_rows, pred.clusters),
            *_muc_side(gold_rows, gold.clusters))


def muc(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Link-based metric of Vilain et al.: minimum missing/extra links."""
    return _prf(*muc_counts(gold, pred))


def _b_cubed_side(overlap: Overlap,
                  clusters: list[frozenset]) -> tuple[Fraction, int]:
    """Sum over the keys of |K∩R| / |K|, where K is the key's cluster and R
    the other side's cluster holding it: Σ_R |K∩R|² / |K| per cluster K."""
    squares: dict[int, int] = {}
    for cluster, shared in zip(clusters, overlap):
        size = len(cluster)
        squares[size] = squares.get(size, 0) + sum(
            count * count for count in shared.values())
    return (sum(Fraction(n, size) for size, n in squares.items()),
            sum(len(c) for c in clusters))


def b_cubed_counts(gold: ClusterSet,
                   pred: ClusterSet) -> tuple[Fraction, int, Fraction, int]:
    gold_rows, pred_rows = overlaps(gold.clusters, pred.clusters)
    return (*_b_cubed_side(pred_rows, pred.clusters),
            *_b_cubed_side(gold_rows, gold.clusters))


def b_cubed(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Mention-based metric of Bagga & Baldwin: per-mention cluster overlap."""
    return _prf(*b_cubed_counts(gold, pred))


def _max_assignment(weights: list[list[float]]) -> list[int]:
    """Column of each row in a one-to-one assignment of maximal total weight,
    for a dense matrix with no more rows than columns. Shortest augmenting
    paths (Jonker-Volgenant, as laid out by Crouse 2016), one row at a time
    on the negated weights; ties go the same way as in that description."""
    cost = [[-w for w in row] for row in weights]
    n_cols = len(cost[0])
    u = [0.0] * len(cost)
    v = [0.0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    path = [-1] * n_cols
    for current in range(len(cost)):
        shortest = [math.inf] * n_cols
        scanned_rows = []
        scanned_cols = []
        remaining = list(range(n_cols - 1, -1, -1))
        min_val = 0.0
        row = current
        sink = -1
        while sink < 0:
            scanned_rows.append(row)
            row_cost = cost[row]
            u_row = u[row]
            lowest = math.inf
            index = -1
            for it, col in enumerate(remaining):
                reduced = min_val + row_cost[col] - u_row - v[col]
                if reduced < shortest[col]:
                    path[col] = row
                    shortest[col] = reduced
                if (shortest[col] < lowest
                        or shortest[col] == lowest and row4col[col] < 0):
                    lowest = shortest[col]
                    index = it
            min_val = lowest
            col = remaining[index]
            if row4col[col] < 0:
                sink = col
            else:
                row = row4col[col]
            scanned_cols.append(col)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[current] += min_val
        for row in scanned_rows:
            if row != current:
                u[row] += min_val - shortest[col4row[row]]
        for col in scanned_cols:
            v[col] -= min_val - shortest[col]
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == current:
                break
    return col4row


def _component_matches(rows: list[int], cols: list[int],
                       phi: dict[tuple[int, int], float],
                       ) -> Iterator[tuple[int, int]]:
    """(gold, system) pairs of an optimal alignment of one overlap
    component, given its ascending gold and system cluster indices."""
    if len(rows) == 1:
        yield rows[0], max(cols, key=lambda c: phi.get((rows[0], c), 0.0))
    elif len(cols) == 1:
        yield max(rows, key=lambda r: phi.get((r, cols[0]), 0.0)), cols[0]
    elif len(rows) <= len(cols):
        weights = [[phi.get((r, c), 0.0) for c in cols] for r in rows]
        for r, c in zip(rows, _max_assignment(weights)):
            yield r, cols[c]
    else:
        weights = [[phi.get((r, c), 0.0) for r in rows] for c in cols]
        for c, r in zip(cols, _max_assignment(weights)):
            yield rows[r], c


def ceafe_counts(gold: ClusterSet,
                 pred: ClusterSet) -> tuple[Fraction, int, Fraction, int]:
    """Only clusters that share a key have φ > 0, so the optimal alignment
    is solved separately on each connected component of the gold/system
    overlap graph. The matched φ are summed exactly."""
    shared_of, golds_of = overlaps(gold.clusters, pred.clusters)
    phi = {(g, p): 2 * n / (len(gold.clusters[g]) + len(pred.clusters[p]))
           for g, shared in enumerate(shared_of) for p, n in shared.items()}
    matched: dict[int, int] = {}  # |K|+|R| -> Σ 2|K∩R| of matched pairs
    done = [False] * len(gold.clusters)
    for start, shared in enumerate(shared_of):
        if done[start] or not shared:
            continue
        rows, cols = {start}, set()
        frontier = [start]
        while frontier:
            for p in shared_of[frontier.pop()]:
                if p not in cols:
                    cols.add(p)
                    for g in golds_of[p]:
                        if g not in rows:
                            rows.add(g)
                            frontier.append(g)
        for g in rows:
            done[g] = True
        for g, p in _component_matches(sorted(rows), sorted(cols), phi):
            if p in shared_of[g]:
                size = len(gold.clusters[g]) + len(pred.clusters[p])
                matched[size] = matched.get(size, 0) + 2 * shared_of[g][p]
    best = sum(Fraction(n, size) for size, n in matched.items())
    return (best, len(pred.clusters), best, len(gold.clusters))


def ceafe(gold: ClusterSet, pred: ClusterSet) -> Scores:
    """Entity-based metric of Luo: optimal one-to-one cluster alignment
    under the similarity 2|K∩R| / (|K|+|R|)."""
    return _prf(*ceafe_counts(gold, pred))


class ScoreReport(NamedTuple):
    muc: Scores
    b_cubed: Scores
    ceafe: Scores

    @property
    def conll_f1(self) -> Fraction:
        return (self.muc.f1 + self.b_cubed.f1 + self.ceafe.f1) / 3


def macro_average(values: list[Fraction]) -> Fraction:
    """Unweighted mean over datasets."""
    if not values:
        raise ValueError("macro average of an empty list")
    return sum(values) / len(values)


def remapped_cluster_set(gold: Document, pred: Document, mode: str,
                         singleton_policy: str,
                         ) -> tuple[ClusterSet, ClusterSet]:
    """Gold and system cluster sets keyed by mention: a system mention that
    aligned to a gold mention is replaced by it, an unmatched one stands
    for itself. Under 'exclude', singleton entities of either side are
    dropped before alignment, so that a mention the policy ignores can
    neither claim a gold mention nor be claimed."""
    if singleton_policy not in SINGLETON_POLICIES:
        raise ValueError(f"unknown singleton policy {singleton_policy!r}")
    if singleton_policy == "exclude":
        gold, pred = (Document(d.doc_id, d.sentences,
                               [e for e in d.entities if not e.is_singleton()],
                               d.language, d.dataset)
                      for d in (gold, pred))
    alignment = align_mentions(gold, pred, mode)
    return (ClusterSet([frozenset(e.mentions) for e in gold.entities]),
            ClusterSet([frozenset(alignment.get(m, m) for m in e.mentions)
                        for e in pred.entities]))


def score_pairs(pairs: Iterable[tuple[Document, Document]],
                mode: str = "exact",
                singleton_policy: str = "exclude") -> ScoreReport | None:
    """Score aligned (gold, system) document pairs, summing the MUC, B³ and
    CEAFe counts of every pair before computing the scores. No pairs have
    no score: None."""
    totals = None
    for gold, pred in pairs:
        gold_set, pred_set = remapped_cluster_set(gold, pred, mode,
                                                  singleton_policy)
        counts = (muc_counts(gold_set, pred_set),
                  b_cubed_counts(gold_set, pred_set),
                  ceafe_counts(gold_set, pred_set))
        # the pair goes before the next one is parsed
        del gold, pred, gold_set, pred_set
        totals = counts if totals is None else [
            tuple(map(add, total, part)) for total, part in zip(totals, counts)]
    return None if totals is None else ScoreReport(
        *(_prf(*total) for total in totals))
