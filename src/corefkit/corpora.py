"""Locating and loading dataset files from a CorefUD-style directory tree.

Release layouts keep one directory per dataset with files named like
``ca_ancora-corefud-train.conllu``; system-output dumps are often flat
directories of ``<dataset>.conllu`` files. Both are handled: files are
grouped by the dataset name embedded in the filename.
"""
from __future__ import annotations

import re
from pathlib import Path

from .conllu import parse_file
from .model import SPLITS, Corpus, Record

_CANONICAL = re.compile(
    rf"^(?P<dataset>[A-Za-z0-9_.]+?)-corefud-(?P<split>{'|'.join(SPLITS)})$")


def dataset_of(path: Path) -> tuple[str, str | None]:
    """Dataset name and split encoded in a file name, if recognizable."""
    match = _CANONICAL.match(path.stem)
    if match:
        return match.group("dataset"), match.group("split")
    return path.stem, None


class DatasetFiles(Record):
    __slots__ = ("name", "files")

    def __init__(self, name: str, files: list[Path] | None = None) -> None:
        self.name = name
        self.files = [] if files is None else files

    @property
    def language(self) -> str:
        return self.name.split("_", 1)[0]

    def load(self) -> Corpus:
        corpus = Corpus(dataset=self.name, language=self.language)
        for path in sorted(self.files):
            part = parse_file(path, dataset=self.name,
                              language=self.language)
            corpus.documents.extend(part.documents)
        return corpus


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
    grouped: dict[str, DatasetFiles] = {}
    for path in [root] if root.is_file() else sorted(root.rglob("*.conllu")):
        name, file_split = dataset_of(path)
        if split is not None and file_split not in kept:
            continue
        grouped.setdefault(name, DatasetFiles(name)).files.append(path)
    return [grouped[name] for name in sorted(grouped)]


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
