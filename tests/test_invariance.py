"""Reports that must not depend on how a dataset's documents are laid out.
On generated gold of two or three documents, reordering the documents, or
splitting them over two files of one dataset, leaves every byte that
`stats`, `analyze`, `score` and `errors` print as it was; and gold scored
against itself scores 1 in every column. `stats` counts what `validate`
counts file by file, and reports what `analysis.corpus_statistics` reports
of the parsed files, whatever the number of workers. Each command runs
in-process through cli.main."""
from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from corefkit import parse_file
from corefkit.analysis import corpus_statistics
from corefkit.cli import _json, main
from corefkit.model import HEAD_RULES, Corpus
from strategies import generated, seeds, shapes

_FORMATS = ("tsv", "json")


def _printed(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([str(arg) for arg in argv]) == 0, argv
    return out.getvalue()


def _reports(gold: Path, pred: Path) -> list[str]:
    """What each command prints for the gold root (and the system root
    pred): `errors --detail` lists entities in document order, so it is
    left out."""
    runs = [("stats", gold, "--format", f) for f in _FORMATS]
    runs += [("analyze", gold, "--head-rule", rule, "--format", f,
              "--figure-data") for rule in HEAD_RULES for f in _FORMATS]
    runs += [(command, "--gold", gold, "--pred", pred, "--format", f)
             for command in ("score", "errors") for f in _FORMATS]
    return [_printed(*argv) for argv in runs]


def _write(path: Path, documents: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(documents), encoding="utf-8")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes(documents=(2, 3)), seeds)
def test_reports_do_not_depend_on_the_layout_and_gold_scores_one(shape,
                                                                 seed):
    with generated(shape, seed) as manifest:
        (path,) = map(Path, manifest.files)
        # each document opens with its own # newdoc and # global.Entity
        documents = re.split(r"(?m)^(?=# newdoc)",
                             path.read_text(encoding="utf-8"))[1:]
        assert len(documents) == shape.docs_per_file
        assert all("\n# global.Entity = " in d for d in documents)
        root = manifest.gold_root.parent
        _write(root / "reordered" / path.name, documents[::-1])
        # one dataset in two files, read in name order: dev, then train
        _write(root / "split" / path.name.replace("-train.", "-dev."),
               documents[:1])
        _write(root / "split" / path.name, documents[1:])

        expected = _reports(manifest.gold_root, manifest.pred_root)
        for layout in ("reordered", "split"):
            assert _reports(root / layout, manifest.pred_root) == expected, \
                layout

        # with no entity of two mentions, no metric has a link to score
        if any(len(e.mentions) > 1 for d in parse_file(path).documents
               for e in d.entities):
            header, *rows = _printed("score", "--gold", path, "--pred",
                                     path).splitlines()
            assert header.startswith("dataset\t") and len(rows) == 2
            for row in rows:
                assert {cell for cell in row.split("\t")[1:] if cell} \
                    == {"1.000000"}, row


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes(documents=(2, 3)), seeds)
def test_stats_pools_what_validate_counts_per_file(shape, seed):
    with generated(shape, seed) as manifest:
        (path,) = map(Path, manifest.files)
        text = path.read_text(encoding="utf-8")
        second = text.index("# newdoc", 1)
        # the generated dataset in two files, and a copy of it in one
        root = manifest.gold_root.parent / "files"
        _write(root / path.name.replace("-train.", "-dev."), [text[:second]])
        _write(root / path.name, [text[second:]])
        _write(root / "zz_copy-corefud-train.conllu", [text])
        files = {}  # dataset -> its files, in the order they are read
        for one in sorted(root.iterdir()):
            files.setdefault(one.name.split("-")[0], []).append(one)

        totals = {name: dict.fromkeys(("documents", "sentences",
                                       "mentions"), 0) for name in files}
        for line in _printed("validate", root).splitlines():
            ok, one, *counts = line.split("\t")
            assert ok == "ok"
            for key, value in (c.split("=") for c in counts):
                totals[Path(one).name.split("-")[0]][key] += int(value)
        reports = [corpus_statistics(Corpus(
            [d for one in paths for d in parse_file(one).documents], name))
            for name, paths in sorted(files.items())]
        assert [totals[r.dataset] for r in reports] == [
            {"documents": r.row("documents").numerator,
             "sentences": r.row("sentences_per_document").numerator,
             "mentions": r.row("mentions").numerator} for r in reports]

        for jobs in ("1", "2"):
            printed = _printed("stats", root, "--jobs", jobs, "--format",
                               "json")
            assert printed == _json([r.as_json() for r in reports])
            header, *rows = (line.split("\t") for line in _printed(
                "stats", root, "--jobs", jobs).splitlines())
            assert [dict(zip(header, row)) for row in rows] == [
                {"dataset": r.dataset,
                 **{row.key: row.rendered() for row in r.rows}}
                for r in reports]
