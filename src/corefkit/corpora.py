"""Locating and loading dataset files from a CorefUD-style directory tree.

Release layouts keep one directory per dataset with files named like
``ca_ancora-corefud-train.conllu``; system-output dumps are often flat
directories of ``<dataset>.conllu`` files. Both are handled: files are
grouped by the dataset name embedded in the filename.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from . import conllu
from .model import SPLITS, Corpus, Document, Record

_CANONICAL = re.compile(
    rf"^(?P<dataset>[A-Za-z0-9_.]+?)-corefud-(?P<split>{'|'.join(SPLITS)})$")


def dataset_of(path: Path) -> tuple[str, str | None]:
    """Dataset name and split encoded in a file name, if recognizable."""
    match = _CANONICAL.match(path.stem)
    if match:
        return match.group("dataset"), match.group("split")
    return path.stem, None


class DatasetFiles(Record):
    """The files of one dataset, sorted; the one reader of a dataset. Each
    file is read in that order with the dataset's name and language, through
    `conllu.iter_documents` as bound when it runs: `documents` yields the
    documents one at a time, `load` collects them into one corpus.
    `per_file` splits it into one-file datasets."""

    __slots__ = ("name", "files")

    def __init__(self, name: str, files: list[Path] | None = None) -> None:
        self.name = name
        self.files = sorted(files or ())

    @property
    def language(self) -> str:
        return self.name.split("_", 1)[0]

    def per_file(self) -> list[DatasetFiles]:
        return [DatasetFiles(self.name, [path]) for path in self.files]

    def documents(self) -> Iterator[Document]:
        """The documents of load(), each parsed when it is asked for; the
        file being read stays open until the generator ends or is closed."""
        for path in self.files:
            yield from conllu.iter_documents(path, dataset=self.name,
                                             language=self.language)

    def load(self) -> Corpus:
        return Corpus(list(self.documents()), self.name, self.language)


def discover_datasets(root: str | Path, split: str | None = None,
                      keep_unsplit: bool = False) -> list[DatasetFiles]:
    """Find .conllu files under root, or root itself when it is a file, and
    group them by dataset name.

    With split set, only canonical ``*-corefud-<split>.conllu`` files are
    kept, and with keep_unsplit also files whose name carries no split;
    otherwise every .conllu file counts.
    """
    root = Path(root)
    kept = {split, None} if keep_unsplit else {split}
    grouped: dict[str, list[Path]] = {}
    for path in [root] if root.is_file() else root.rglob("*.conllu"):
        name, file_split = dataset_of(path)
        if split is not None and file_split not in kept:
            continue
        grouped.setdefault(name, []).append(path)
    return [DatasetFiles(name, grouped[name]) for name in sorted(grouped)]


def pair_datasets(gold_root: str | Path, pred_root: str | Path,
                  split: str | None = None,
                  ) -> list[tuple[str, DatasetFiles, DatasetFiles]]:
    """Each gold dataset, in name order, with the system files of the same
    dataset name. A gold dataset without a system file raises
    metrics.AlignmentError; system datasets without gold are ignored. With
    split set, system files named for another split are dropped; those
    whose name carries no split, like flat ``<dataset>.conllu`` dumps, are
    kept."""
    gold = discover_datasets(gold_root, split)
    pred = {d.name: d for d in discover_datasets(pred_root, split,
                                                 keep_unsplit=True)}
    for dataset in gold:
        if dataset.name not in pred:
            from .metrics import AlignmentError
            raise AlignmentError(
                f"{dataset.name}: no system output file under {pred_root}")
    return [(d.name, d, pred[d.name]) for d in gold]
