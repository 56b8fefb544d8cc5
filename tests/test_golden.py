"""Byte-for-byte snapshots of the `analyze` and `stats` reports.

Each case runs the command line in-process on the fixtures and compares its
stdout with a file under tests/data/golden/. After a deliberate change to a
report, regenerate the snapshots and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import io
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from corefkit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
VECTORS = str(DATA / "vectors.tsv")
ALL_STATS = tuple(arg for stat in (
    "head-position", "mention-types", "anaphor-antecedent", "first-mention",
    "entity-size", "competing", "genre", "semantic-distance")
    for arg in ("--stat", stat))

# Snapshot name -> arguments. "{data}" is tests/data (datasets basic and
# en_pairset, the latter in two files); "{release}" holds two datasets of
# one language, xx_alpha and xx_gamma, each a copy of basic.conllu, which
# the vectors file covers.
CASES = {
    "analyze.tsv": ("analyze", "{data}"),
    "analyze.json": ("analyze", "{data}", "--format", "json"),
    "analyze-by-language.tsv": ("analyze", "{data}", "--by-language"),
    "analyze-by-language.json": ("analyze", "{data}", "--by-language",
                                 "--format", "json"),
    "analyze-syntactic.tsv": ("analyze", "{data}", "--head-rule",
                              "syntactic"),
    "analyze-release.tsv": ("analyze", "{release}", "--vectors", VECTORS,
                            *ALL_STATS),
    "analyze-release.json": ("analyze", "{release}", "--vectors", VECTORS,
                             "--format", "json", *ALL_STATS),
    "analyze-release-by-language.tsv": (
        "analyze", "{release}", "--vectors", VECTORS, "--by-language",
        *ALL_STATS),
    "analyze-release-by-language.json": (
        "analyze", "{release}", "--vectors", VECTORS, "--by-language",
        "--format", "json", *ALL_STATS),
    "figure-data.tsv": ("analyze", "{data}", "--figure-data"),
    "figure-data-release-by-language.tsv": (
        "analyze", "{release}", "--vectors", VECTORS, "--by-language",
        "--figure-data", *ALL_STATS),
    "stats.tsv": ("stats", "{data}"),
    "stats.json": ("stats", "{data}", "--format", "json"),
}


def make_release(root: Path) -> Path:
    basic = (DATA / "basic.conllu").read_bytes()
    for dataset in ("xx_alpha", "xx_gamma"):
        directory = root / f"CorefUD_{dataset}"
        directory.mkdir(parents=True)
        (directory / f"{dataset}-corefud-train.conllu").write_bytes(basic)
    return root


def run(args: tuple[str, ...], release: Path) -> bytes:
    argv = [a.format(data=DATA, release=release) for a in args]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    return make_release(tmp_path_factory.mktemp("release"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot(name, release):
    assert run(CASES[name], release) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["figure-data.tsv",
                                  "figure-data-release-by-language.tsv"])
def test_analyze_jobs_do_not_change_output(name, release):
    args = CASES[name]
    assert run(args + ("--jobs", "2"), release) == run(args, release)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp())
    try:
        for name, args in CASES.items():
            release = make_release(scratch / name)
            (GOLDEN / name).write_bytes(run(args, release))
    finally:
        shutil.rmtree(scratch)
