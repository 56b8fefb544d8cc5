"""The `stats` and `analyze` subcommands: each parsed file's partial results,
pooled per group with +, and the tables the reports render from them.

Only these two subcommands import this module. `cli.STATISTICS` names each
`analyze --stat` choice and reaches its compute and table functions here by
name at call time; they in turn call `analysis` through its module
attribute, so rebinding one (as a tracer does) reaches them.
"""
from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from . import analysis
from .cli import STATISTICS, _datasets, _emit, _json
from .model import DEFAULT_GENRE_PATTERN, Corpus, Record
from .reports import DatasetReport, fixed, ratio, tsv
from .taxonomy import MentionType

if TYPE_CHECKING:
    from .analysis import MentionVectors
    from .corpora import DatasetFiles


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
    return analysis.head_position_stats(corpus, options.head_rule)


def mention_types(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return analysis.mention_type_distribution(corpus, options.head_rule)


def anaphor_antecedent(corpus: Corpus, options: StatOptions) -> SumsByKey:
    return SumsByKey(analysis.antecedent_category_counts(corpus,
                                                         options.head_rule))


def first_mention(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return analysis.first_mention_stats(corpus, options.head_rule)


def entity_size(corpus: Corpus, options: StatOptions) -> DatasetReport:
    return analysis.entity_size_stats(corpus)


def competing(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(analysis.competing_antecedents(corpus, kind,
                                               options.head_rule)
                for kind in (MentionType.OVERT_PRONOUN,
                             MentionType.ZERO_PRONOUN))


def genre(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(analysis.genre_counts(corpus, options.genre_pattern))


def semantic_distance(corpus: Corpus, options: StatOptions) -> Sums:
    return Sums(analysis.distance_moments(corpus, options.vectors))


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
    return Table(("genre", "pronouns_per_8000"),
                 analysis.genre_rates(*counts), keys=("genre",),
                 figure=("pronouns_per_8000",),
                 formats={"pronouns_per_8000": fixed})


def distance_table(moments: tuple, name: str) -> Table:
    mean, variance = analysis.moments_to_mean_variance(*moments)
    return Table(("pairs", "mean", "variance"),
                 [(moments[0], mean, variance)], figure=("mean", "variance"),
                 formats=dict.fromkeys(("mean", "variance"),
                                       partial(fixed, decimals=6)))


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


# ------------------------------------------------------------- subcommands

def cmd_stats(args) -> int:
    pooled = pool_groups({d.name: [d] for d in _datasets(args)},
                         analysis.corpus_statistics, args.jobs)
    reports = list(pooled.values())
    if args.format == "json":
        _emit(args, "stats.json", _json([r.as_json() for r in reports]))
        return 0
    header = ["dataset"] + [row.key for row in reports[0].rows]
    _emit(args, "stats.tsv", tsv(header, (
        [report.dataset] + [row.rendered() for row in report.rows]
        for report in reports)))
    return 0


def cmd_analyze(args) -> int:
    stats = tuple(dict.fromkeys(args.stat or (
        name for name, s in STATISTICS.items() if not s.needs_vectors)))
    datasets = _datasets(args)
    vectors = (analysis.load_mention_vectors(args.vectors) if args.vectors
               else None)
    groups: dict[str, list[DatasetFiles]] = {}
    for dataset in datasets:
        key = dataset.language if args.by_language else dataset.name
        groups.setdefault(key, []).append(dataset)
    options = StatOptions(args.head_rule, args.genre_pattern, vectors)
    pooled = pool_groups(groups, partial(compute_stats, stats=stats,
                                         options=options), args.jobs)

    figure_rows: list[tuple[str, ...]] = []
    for group, results in pooled.items():
        for stat, result in zip(stats, results):
            table = STATISTICS[stat].table(result, group)
            _emit(args, f"{group}.{stat}.{args.format}",
                  _json(table.as_json()) if args.format == "json"
                  else table.to_tsv(), header=True)
            figure_rows += [(stat, group, key, value)
                            for key, value in table.figure_rows()]
    if args.figure_data:
        _emit(args, "figure_data.tsv",
              tsv(("statistic", "dataset", "key", "value"), figure_rows),
              header=True)
    return 0
