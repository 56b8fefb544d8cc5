"""Corpus statistics over gold coreference annotations, and the pooling
and tables of the `stats` and `analyze` subcommands, the only ones that
import this module.

No operation changes the Corpus it reads; each returns exact counts (see
reports.StatRow), so per-dataset results can be pooled into language-level
views. Heads are the mentions' own (Mention.head), which follow the
annotated head attribute when present; pass head_rule="syntactic" to force
the parent-outside-span rule everywhere (see model.head_of).

`STATISTICS` holds the functions of each `analyze --stat` choice (see
`Statistic`). Its compute functions call the statistics through this
module's globals, so rebinding one (as a tracer does) reaches them.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from .conllu import ParseError, open_text
from .model import (DEFAULT_GENRE_PATTERN, Corpus, DataError, Mention, Record,
                    Token, head_of, mention_key)
from .reports import DatasetReport, StatRow, fixed, ratio, tsv
from .taxonomy import (MentionType, UdCategory, classify_mention_type,
                       is_premodified, ud_category)

if TYPE_CHECKING:
    from .corpora import DatasetFiles


def head_position_stats(corpus: Corpus,
                        head_rule: str = "annotated") -> DatasetReport:
    """Share of pre-modified mentions, over multi-token mentions (primary)
    and over all mentions (companion denominator)."""
    premodified = 0
    multi_token = 0
    total = 0
    for document in corpus.documents:
        for entity in document.entities:
            for mention in entity.mentions:
                total += 1
                if len(mention.span) > 1:
                    multi_token += 1
                    head = head_of(mention, head_rule)
                    if is_premodified(mention, head):
                        premodified += 1
    return DatasetReport(corpus.dataset, "head_position", [
        StatRow("premodified_of_multitoken", premodified, multi_token),
        StatRow("premodified_of_all", premodified, total),
    ])


def mention_type_distribution(corpus: Corpus,
                              head_rule: str = "annotated") -> DatasetReport:
    counts: Counter[MentionType] = Counter()
    total = 0
    for document in corpus.documents:
        for entity in document.entities:
            for mention in entity.mentions:
                head = head_of(mention, head_rule)
                counts[classify_mention_type(head)] += 1
                total += 1
    return DatasetReport(corpus.dataset, "mention_types", [
        StatRow(mtype.value, counts[mtype], total) for mtype in MentionType
    ])


def antecedent_category_counts(
        corpus: Corpus, head_rule: str = "annotated",
) -> dict[MentionType, Counter[UdCategory]]:
    """Antecedent-category counters for every anaphor type at once."""
    counts: dict[MentionType, Counter[UdCategory]] = {
        mtype: Counter() for mtype in MentionType}
    for document in corpus.documents:
        for entity in document.entities:
            antecedent_head: Token | None = None
            for mention in entity.mentions:
                head = head_of(mention, head_rule)
                if antecedent_head is not None:
                    category = ud_category(antecedent_head.effective_deprel())
                    counts[classify_mention_type(head)][category] += 1
                antecedent_head = head
    return counts


def first_mention_stats(corpus: Corpus,
                        head_rule: str = "annotated") -> DatasetReport:
    """Over non-singleton entities: how often the first mention is the
    longest one (ties count), and how often it is a nominal or proper noun."""
    non_singleton = 0
    first_longest = 0
    first_nominal = 0
    for document in corpus.documents:
        for entity in document.entities:
            if entity.is_singleton():
                continue
            non_singleton += 1
            first, *rest = entity.mentions
            if len(first.span) >= max(len(m.span) for m in rest):
                first_longest += 1
            head = head_of(first, head_rule)
            if classify_mention_type(head) in (MentionType.NOMINAL_NOUN,
                                               MentionType.PROPER_NOUN):
                first_nominal += 1
    return DatasetReport(corpus.dataset, "first_mention", [
        StatRow("first_is_longest", first_longest, non_singleton),
        StatRow("first_is_nominal_or_proper", first_nominal, non_singleton),
    ])


def entity_size_stats(corpus: Corpus) -> DatasetReport:
    entities = 0
    mentions = 0
    non_singleton = 0
    non_singleton_mentions = 0
    for document in corpus.documents:
        for entity in document.entities:
            entities += 1
            mentions += len(entity.mentions)
            if not entity.is_singleton():
                non_singleton += 1
                non_singleton_mentions += len(entity.mentions)
    return DatasetReport(corpus.dataset, "entity_size", [
        StatRow("mentions_per_entity", mentions, entities, "mean"),
        StatRow("mentions_per_entity_excl_singletons",
                non_singleton_mentions, non_singleton, "mean"),
    ])


class CompetingAntecedentStats(NamedTuple):
    """Ambiguity of pronominal anaphors: how many pronouns can be examined
    (gender+number marked, closest antecedent within one sentence) and how
    many agreeing non-coreferent mentions compete in that window."""

    kind: MentionType
    n_pronouns: int
    n_valid: int
    total_competitors: int

    @property
    def valid_fraction(self) -> Fraction | None:
        return ratio(self.n_valid, self.n_pronouns)

    @property
    def mean_competitors(self) -> Fraction | None:
        return ratio(self.total_competitors, self.n_valid)

    def __add__(self, other: "CompetingAntecedentStats",
                ) -> "CompetingAntecedentStats":
        if other.kind is not self.kind:
            raise ValueError("cannot pool stats for different pronoun kinds")
        return CompetingAntecedentStats(self.kind, *(
            mine + theirs for mine, theirs in zip(self[1:], other[1:])))


def competing_antecedents(corpus: Corpus, kind: MentionType,
                          head_rule: str = "annotated",
                          ) -> CompetingAntecedentStats:
    """Count agreeing competitor mentions for overt or zero pronoun anaphors.

    A pronoun is a valid examination when its head carries both Gender and
    Number and its closest antecedent starts in the same or the immediately
    preceding sentence. Competitors are mentions of other entities starting
    before the anaphor within that two-sentence window whose head agrees in
    both features.
    """
    if kind not in (MentionType.OVERT_PRONOUN, MentionType.ZERO_PRONOUN):
        raise ValueError(f"kind must be a pronoun type, got {kind}")
    n_pronouns = 0
    n_valid = 0
    total_competitors = 0
    for document in corpus.documents:
        by_sentence: dict[int, list[tuple[Mention, str, Token]]] = defaultdict(list)
        headed = []
        for entity in document.entities:
            heads = [head_of(m, head_rule) for m in entity.mentions]
            headed.append((entity, heads))
            for mention, head in zip(entity.mentions, heads):
                by_sentence[mention.sent_index].append(
                    (mention, entity.entity_id, head))
        for entity, heads in headed:
            previous: Mention | None = None
            for mention, head in zip(entity.mentions, heads):
                antecedent = previous
                previous = mention
                if classify_mention_type(head) is not kind:
                    continue
                n_pronouns += 1
                gender = head.feats.get("Gender")
                number = head.feats.get("Number")
                if gender is None or number is None:
                    continue
                if antecedent is None:
                    continue
                distance = mention.sent_index - antecedent.sent_index
                if not 0 <= distance <= 1:
                    continue
                n_valid += 1
                for sent in (mention.sent_index - 1, mention.sent_index):
                    for other, other_entity, other_head in by_sentence.get(sent, ()):
                        if other_entity == entity.entity_id:
                            continue
                        if not other.start < mention.start:
                            continue
                        if (other_head.feats.get("Gender") == gender
                                and other_head.feats.get("Number") == number):
                            total_competitors += 1
    return CompetingAntecedentStats(kind, n_pronouns, n_valid,
                                    total_competitors)


def genre_counts(corpus: Corpus,
                 genre_pattern: str = DEFAULT_GENRE_PATTERN,
                 ) -> tuple[Counter[str], Counter[str]]:
    """Personal-pronoun and surface-token counts per genre. Genre comes from
    the document id; documents that do not match go under 'unknown'."""
    extract = re.compile(genre_pattern)
    pronouns: Counter[str] = Counter()
    tokens: Counter[str] = Counter()
    for document in corpus.documents:
        match = extract.search(document.doc_id)
        genre = match.group(1) if match and match.group(1) else "unknown"
        for sentence in document.sentences:
            for token in sentence.tokens:
                if token.is_empty:
                    continue
                tokens[genre] += 1
                if (token.upos == "PRON"
                        and token.feats.get("PronType") == "Prs"):
                    pronouns[genre] += 1
    return pronouns, tokens


def genre_rates(pronouns: Counter[str], tokens: Counter[str],
                ) -> list[tuple[str, Fraction | None]]:
    return [(genre, ratio(pronouns[genre], tokens[genre], 8000))
            for genre in sorted(tokens)]


def corpus_statistics(corpus: Corpus) -> DatasetReport:
    """Size overview: documents, sentences per document, surface tokens per
    sentence, entities, mentions, mentions per entity."""
    n_docs = len(corpus.documents)
    n_sents = sum(len(d.sentences) for d in corpus.documents)
    n_tokens = sum(s.n_surface() for d in corpus.documents
                   for s in d.sentences)
    n_entities = sum(len(d.entities) for d in corpus.documents)
    n_mentions = sum(len(e.mentions) for d in corpus.documents
                     for e in d.entities)
    return DatasetReport(corpus.dataset, "corpus_statistics", [
        StatRow("documents", n_docs, 1, "count"),
        StatRow("sentences_per_document", n_sents, n_docs, "mean"),
        StatRow("tokens_per_sentence", n_tokens, n_sents, "mean"),
        StatRow("entities", n_entities, 1, "count"),
        StatRow("mentions", n_mentions, 1, "count"),
        StatRow("mentions_per_entity", n_mentions, n_entities, "mean"),
    ])


class MissingVectorError(KeyError, DataError):
    """A non-singleton mention has no embedding vector."""

    def __init__(self, keys: list[tuple[str, int, str]]):
        self.keys = keys
        shown = ", ".join(repr(k) for k in keys[:5])
        more = f" (+{len(keys) - 5} more)" if len(keys) > 5 else ""
        super().__init__(f"missing vectors for {len(keys)} mentions: "
                         f"{shown}{more}")

    def __reduce__(self):
        # rebuilt from its keys, not its message, when it leaves a worker
        return type(self), (self.keys,)

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class MentionVectors(NamedTuple):
    """Externally computed mention embeddings, keyed by
    (doc_id, sentence index, span key)."""

    vectors: dict[tuple[str, int, str], tuple[float, ...]]
    dimension: int


def load_mention_vectors(path: str | Path) -> MentionVectors:
    """Read a vectors TSV: doc_id, sentence index, span key, then the vector
    components. '#' lines are comments. Malformed lines, a repeated key,
    and a file that is not UTF-8 raise ParseError naming the file and
    line."""
    vectors: dict[tuple[str, int, str], tuple[float, ...]] = {}
    dimension: int | None = None
    filename = str(path)
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 4:
                raise ParseError(f"expected at least 4 columns, got "
                                 f"{len(fields)}", filename, line_no)
            try:
                sent_index = int(fields[1])
            except ValueError:
                sent_index = -1
            # only the text export-features writes, str() of a count, so
            # that one sentence has one key: no sign, space, underscore,
            # leading zero or non-ASCII digit
            if sent_index < 0 or str(sent_index) != fields[1]:
                raise ParseError(f"sentence index {fields[1]!r} is not an "
                                 f"integer", filename, line_no)
            try:
                vector = tuple(float(x) for x in fields[3:])
            except ValueError:
                raise ParseError("non-numeric component", filename,
                                 line_no) from None
            if not all(math.isfinite(x) for x in vector):
                raise ParseError("non-finite component", filename, line_no)
            # twice the norm bounds the distance to any accepted vector
            bound = 2 * math.hypot(*vector)
            if not math.isfinite(bound * bound):
                raise ParseError("vector norm too large", filename, line_no)
            if dimension is None:
                dimension = len(vector)
            elif len(vector) != dimension:
                raise ParseError(f"dimension {len(vector)} != {dimension}",
                                 filename, line_no)
            key = (fields[0], sent_index, fields[2])
            if key in vectors:
                raise ParseError(f"duplicate key {key!r}", filename, line_no)
            vectors[key] = vector
    return MentionVectors(vectors, dimension or 0)


def distance_moments(corpus: Corpus, vectors: MentionVectors,
                     ) -> tuple[int, Fraction, Fraction]:
    """(pair count, sum of distances, sum of squared distances) over all
    within-entity mention pairs; exact, so pooling across corpora with +
    does not depend on how the documents are split into files."""
    missing: list[tuple[str, int, str]] = []
    count = 0
    total = 0
    total_sq = 0
    for document in corpus.documents:
        for entity in document.entities:
            if entity.is_singleton():
                continue
            keyed = []
            for mention in entity.mentions:
                key = mention_key(mention, document.doc_id)
                vector = vectors.vectors.get(key)
                if vector is None:
                    missing.append(key)
                else:
                    keyed.append(vector)
            for i in range(len(keyed)):
                for j in range(i + 1, len(keyed)):
                    # a finite float is a whole multiple of 2**-1074, its
                    # square of 2**-2148: the sums count those units
                    units, power = math.dist(keyed[i], keyed[j]) \
                        .as_integer_ratio()
                    shift = 1075 - power.bit_length()
                    count += 1
                    total += units << shift
                    total_sq += (units * units) << (2 * shift)
    if missing:
        raise MissingVectorError(missing)
    return count, Fraction(total, 1 << 1074), Fraction(total_sq, 1 << 2148)


def moments_to_mean_variance(count: int, total: Fraction, total_sq: Fraction,
                             ) -> tuple[Fraction | None, Fraction | None]:
    """Mean and variance, exact; None for both when there are no pairs."""
    mean = ratio(total, count)
    if mean is None:
        return None, None
    return mean, ratio(total_sq, count) - mean * mean


# ---------------------------------------------------- partial results, tables

class Sums(tuple):
    """Partial result that pools with + position by position."""

    def __add__(self, other: tuple) -> "Sums":
        return Sums(a + b for a, b in zip(self, other, strict=True))


class SumsByKey(dict):
    """Partial result that pools with + key by key."""

    def __add__(self, other: dict) -> "SumsByKey":
        return SumsByKey({key: value + other[key]
                          for key, value in self.items()})


class StatOptions(NamedTuple):
    head_rule: str = "annotated"
    genre_pattern: str = DEFAULT_GENRE_PATTERN
    vectors: MentionVectors | None = None


class Table(Record):
    """The rows of one pooled statistic, from which its TSV, JSON and figure
    data are all rendered. Cells hold exact values: `formats` gives a
    column's TSV text (default str). `keys` are the columns naming a row in
    figure data and `figure` the columns it exports; a table without keys
    has one row and renders as one JSON object."""

    __slots__ = ("columns", "rows", "keys", "figure", "formats")

    def __init__(self, columns: tuple[str, ...], rows: list[tuple],
                 keys: tuple[str, ...] = (), figure: tuple[str, ...] = (),
                 formats: dict[str, Callable] | None = None) -> None:
        self.columns = columns
        self.rows = rows
        self.keys = keys
        self.figure = figure
        self.formats = {} if formats is None else formats

    def _text(self, column: str, value) -> str:
        return self.formats.get(column, str)(value)

    def to_tsv(self) -> str:
        return tsv(self.columns, ([self._text(c, v) for c, v
                                   in zip(self.columns, row)]
                                  for row in self.rows))

    def as_json(self) -> list[dict] | dict:
        records = [dict(zip(self.columns, row)) for row in self.rows]
        return records if self.keys else records[0]

    def figure_rows(self) -> list[tuple[str, str]]:
        out = []
        for row in self.rows:
            cells = dict(zip(self.columns, row))
            name = [str(cells[k]) for k in self.keys]
            for column in self.figure:
                key = name + [column] if len(self.figure) > 1 else name
                out.append((":".join(key), self._text(column, cells[column])))
        return out


# ------------------------------------------ one statistic's partial result

def head_position(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return head_position_stats(corpus, options.head_rule)


def mention_types(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return mention_type_distribution(corpus, options.head_rule)


def anaphor_antecedent(corpus: Corpus, options: StatOptions) -> SumsByKey:
    return SumsByKey(antecedent_category_counts(corpus, options.head_rule))


def first_mention(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return first_mention_stats(corpus, options.head_rule)


def entity_size(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return entity_size_stats(corpus)


def competing(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(competing_antecedents(corpus, kind, options.head_rule)
                for kind in (MentionType.OVERT_PRONOUN,
                             MentionType.ZERO_PRONOUN))


def genre(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(genre_counts(corpus, options.genre_pattern))


def semantic_distance(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(distance_moments(corpus, options.vectors))


# ------------------------------------------- one pooled statistic's table

def labelled(report: DatasetReport, name: str) -> DatasetReport:
    return DatasetReport(name, report.statistic, report.rows)


def ranking_table(counts: dict, name: str) -> Table:
    rows = []
    for mtype in MentionType:
        ranking = sorted(counts[mtype].items(),
                         key=lambda kv: (-kv[1], kv[0].name))
        rows += [(mtype.value, rank, category.name, count)
                 for rank, (category, count) in enumerate(ranking, start=1)]
    return Table(("anaphor_type", "rank", "category", "count"), rows,
                 keys=("anaphor_type", "category"), figure=("count",))


def competing_table(stats: tuple, name: str) -> Table:
    rows = [(s.kind.value, s.n_pronouns, s.n_valid,
             ratio(s.n_valid, s.n_pronouns, 100), s.mean_competitors)
            for s in stats]
    percent = ("valid_pct", "mean_competitors")
    return Table(("kind", "pronouns", "valid") + percent, rows,
                 keys=("kind",), figure=percent,
                 formats=dict.fromkeys(percent, fixed))


def genre_table(counts: tuple, name: str) -> Table:
    return Table(("genre", "pronouns_per_8000"), genre_rates(*counts),
                 keys=("genre",), figure=("pronouns_per_8000",),
                 formats={"pronouns_per_8000": fixed})


def distance_table(moments: tuple, name: str) -> Table:
    mean, variance = moments_to_mean_variance(*moments)
    return Table(("pairs", "mean", "variance"),
                 [(moments[0], mean, variance)], figure=("mean", "variance"),
                 formats=dict.fromkeys(("mean", "variance"),
                                       partial(fixed, decimals=6)))


class Statistic(NamedTuple):
    """One `analyze --stat` choice. `compute` gives the partial result of
    one parsed file; the partials of a group pool with +. `table` turns a
    pooled result and its group name into what the reports render."""

    compute: Callable[[Corpus, StatOptions], Any]
    table: Callable[[Any, str], Table | DatasetReport]


# The one registry of statistics, keyed by model.STATISTICS in its order.
STATISTICS: dict[str, Statistic] = {
    "head-position": Statistic(head_position, labelled),
    "mention-types": Statistic(mention_types, labelled),
    "anaphor-antecedent": Statistic(anaphor_antecedent, ranking_table),
    "first-mention": Statistic(first_mention, labelled),
    "entity-size": Statistic(entity_size, labelled),
    "competing": Statistic(competing, competing_table),
    "genre": Statistic(genre, genre_table),
    "semantic-distance": Statistic(semantic_distance, distance_table),
}


# ------------------------------------------------------------------ pooling

def compute_stats(corpus: Corpus, stats: tuple[str, ...],
                  options: StatOptions) -> Sums:
    """Partial results of the named statistics on one parsed file."""
    return Sums(STATISTICS[stat].compute(corpus, options) for stat in stats)


def pool(items: Iterable[tuple[str, Any]]) -> dict[str, Any]:
    """Pool (group, partial result) pairs with +, in the order given."""
    pooled: dict[str, Any] = {}
    for group, part in items:
        pooled[group] = pooled[group] + part if group in pooled else part
    return pooled


def _map_files(worker, jobs_args: list, jobs: int) -> list:
    if jobs <= 1 or len(jobs_args) <= 1:
        return [worker(a) for a in jobs_args]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(jobs_args))) \
            as executor:
        return list(executor.map(worker, jobs_args))


def _load_and_compute(one_file: DatasetFiles, compute: Callable) -> Any:
    return compute(one_file.load())


def pool_groups(groups: dict[str, list[DatasetFiles]], compute: Callable,
                jobs: int) -> dict[str, Any]:
    """Parse every file of every group, compute its partial result and pool
    the partials of each group in file order; groups come out sorted."""
    owned = [(group, one_file) for group in sorted(groups)
             for dataset in groups[group] for one_file in dataset.per_file()]
    parts = _map_files(partial(_load_and_compute, compute=compute),
                       [one_file for _, one_file in owned], jobs)
    return pool(zip([group for group, _ in owned], parts))
