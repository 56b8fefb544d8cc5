"""What the `stats` and `analyze` subcommands share, and only they import:
the `--jobs` map of a task over one-file datasets, whose results pool per
group with +, and the size report of a count, which `stats` prints and
`analysis.corpus_statistics` returns.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from .reports import DatasetReport, StatRow

if TYPE_CHECKING:
    from .corpora import DatasetFiles, DocumentCount


def size_report(dataset: str, count: DocumentCount) -> DatasetReport:
    """The corpus_statistics report of a count: documents, sentences per
    document, surface tokens per sentence, entities, mentions, mentions per
    entity."""
    return DatasetReport(dataset, "corpus_statistics", [
        StatRow("documents", count.documents, 1, "count"),
        StatRow("sentences_per_document", count.sentences, count.documents,
                "mean"),
        StatRow("tokens_per_sentence", count.tokens, count.sentences, "mean"),
        StatRow("entities", count.entities, 1, "count"),
        StatRow("mentions", count.mentions, 1, "count"),
        StatRow("mentions_per_entity", count.mentions, count.entities,
                "mean"),
    ])


def pool(items: Iterable[tuple[str, Any]]) -> dict[str, Any]:
    """Pool (group, partial result) pairs with +, in the order given."""
    pooled: dict[str, Any] = {}
    for group, part in items:
        pooled[group] = pooled[group] + part if group in pooled else part
    return pooled


def pool_files(groups: dict[str, list[DatasetFiles]],
               task: Callable[[DatasetFiles], Any], jobs: int,
               ) -> dict[str, Any]:
    """Run task on each file of every group, as a one-file dataset, and
    pool the results of each group with + in file order; groups come out
    sorted. With jobs above 1 and more than one file, the tasks run in a
    pool of at most jobs worker processes, one per file, and task and files
    are pickled to them."""
    owned = [(group, one_file) for group in sorted(groups)
             for dataset in groups[group] for one_file in dataset.per_file()]
    files = [one_file for _, one_file in owned]
    if jobs <= 1 or len(files) <= 1:
        results = [task(one_file) for one_file in files]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(files))) \
                as executor:
            results = list(executor.map(task, files))
    return pool(zip([group for group, _ in owned], results))
