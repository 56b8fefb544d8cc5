"""Byte-for-byte snapshots of the `analyze`, `stats`, `score` and `errors`
reports and of the `export-features` files, and a snapshot of the parsed
model of every CoNLL-U fixture.

Each case runs the command line in-process on the fixtures and compares its
stdout, or the files it writes, with snapshots under tests/data/golden/.
After a deliberate change to a report, regenerate the snapshots and review
the diff:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import io
import json
import re
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable

import pytest

from corefkit import Token, parse_file
from corefkit.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
VECTORS = str(DATA / "vectors.tsv")
WORD_ORDER = str(DATA / "word_order.tsv")
ALL_STATS = tuple(arg for stat in (
    "head-position", "mention-types", "anaphor-antecedent", "first-mention",
    "entity-size", "competing", "genre", "semantic-distance")
    for arg in ("--stat", stat))

# Snapshot name -> arguments. "{data}" is tests/data (datasets basic and
# en_pairset, the latter in two files); "{release}" holds two datasets of
# one language, xx_alpha and xx_gamma, each a copy of basic.conllu, which
# the vectors file covers. "{gold}" and "{pred}" pair two datasets:
# en_pairset from tests/data/score, and xx_alpha (basic.conllu) scored
# against itself, so that the macro and average rows pool two datasets.
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
    "score-exact-exclude.tsv": ("score", "--gold", "{gold}", "--pred",
                                "{pred}"),
    "score-exact-exclude.json": ("score", "--gold", "{gold}", "--pred",
                                 "{pred}", "--format", "json"),
    "score-head-exclude.tsv": ("score", "--gold", "{gold}", "--pred",
                               "{pred}", "--match", "head"),
    "score-head-exclude.json": ("score", "--gold", "{gold}", "--pred",
                                "{pred}", "--match", "head", "--format",
                                "json"),
    "score-head-include.tsv": ("score", "--gold", "{gold}", "--pred",
                               "{pred}", "--match", "head",
                               "--singletons", "include"),
    "score-head-include.json": ("score", "--gold", "{gold}", "--pred",
                                "{pred}", "--match", "head",
                                "--singletons", "include", "--format",
                                "json"),
    "errors-exact-links.tsv": ("errors", "--gold", "{gold}", "--pred",
                               "{pred}", "--detail"),
    "errors-exact-links.json": ("errors", "--gold", "{gold}", "--pred",
                                "{pred}", "--detail", "--format", "json"),
    "errors-head-membership.tsv": ("errors", "--gold", "{gold}", "--pred",
                                   "{pred}", "--detail", "--mode", "head",
                                   "--definition", "membership"),
    "errors-head-membership.json": ("errors", "--gold", "{gold}", "--pred",
                                    "{pred}", "--detail", "--mode", "head",
                                    "--definition", "membership",
                                    "--format", "json"),
    # "{emptied}" and "{moved}" are copies of tests/data's CoNLL-U files
    # with edited Entity head fields (see make_inputs)
    "analyze-heads-emptied.tsv": ("analyze", "{emptied}"),
    "analyze-heads-emptied-syntactic.tsv": ("analyze", "{emptied}",
                                            "--head-rule", "syntactic"),
    "analyze-heads-moved.tsv": ("analyze", "{moved}"),
    "analyze-heads-moved-syntactic.tsv": ("analyze", "{moved}",
                                          "--head-rule", "syntactic"),
    "score-head-heads-emptied.tsv": (
        "score", "--gold", "{emptied}/score/gold", "--pred",
        "{emptied}/score/pred", "--match", "head"),
    "score-head-heads-moved.tsv": (
        "score", "--gold", "{moved}/score/gold", "--pred",
        "{moved}/score/pred", "--match", "head"),
    "errors-head-heads-emptied.tsv": (
        "errors", "--gold", "{emptied}/score/gold", "--pred",
        "{emptied}/score/pred", "--mode", "head", "--detail"),
    "errors-head-heads-moved.tsv": (
        "errors", "--gold", "{moved}/score/gold", "--pred",
        "{moved}/score/pred", "--mode", "head", "--detail"),
    # "{shrunk}" is the system file of tests/data/score with two mentions
    # shrunk inside their gold mentions (see SHRUNK_SPANS), scored against
    # the gold file as it is and against its "{moved}" copy
    "score-head-shrunk.tsv": (
        "score", "--gold", "{data}/score/gold", "--pred", "{shrunk}",
        "--match", "head"),
    "score-head-shrunk-heads-moved.tsv": (
        "score", "--gold", "{moved}/score/gold", "--pred", "{shrunk}",
        "--match", "head"),
    "errors-head-shrunk.tsv": (
        "errors", "--gold", "{data}/score/gold", "--pred", "{shrunk}",
        "--mode", "head", "--detail"),
    "errors-head-shrunk-heads-moved.tsv": (
        "errors", "--gold", "{moved}/score/gold", "--pred", "{shrunk}",
        "--mode", "head", "--detail"),
}

# Snapshot directory -> export-features arguments. Each directory holds the
# .features.jsonl and .vocab.tsv of both datasets under "{export}":
# es_basic, which is basic.conllu with "The" annotated as the head of "The
# old castle" (so the two head rules pick different heads; it also has an
# empty node, a multiword-token range and a discontinuous mention), and
# en_pairset, the gold file from tests/data/score.
EXPORTS = {
    "export-gold-syntactic": ("--target", "gold", "--head-rule",
                              "syntactic"),
    "export-gold-annotated": ("--target", "gold", "--head-rule",
                              "annotated"),
    "export-spans": ("--target", "spans", "--max-width", "3"),
}


# Every Entity head field of the fixtures names the syntactic head, so on
# them the two head rules agree and no command walks a head chain. Two
# edited copies tell the rules apart: "{emptied}" has every head field
# emptied, so each head of a longer mention is found on the tree, and
# "{moved}" has head fields that name another token of the span.
HEAD_FIELD = re.compile(rb"(\([^()|-]+-[^()|-]*-)[0-9]+")
MOVED_HEADS = (
    (b"(e1-thing-3-", b"(e1-thing-1-"),          # The old castle: The
    (b"(e11-place-2-", b"(e11-place-1-"),        # el castillo: el
    (b"(e12[1/2]-thing-2-", b"(e12[1/2]-thing-1-"),  # la torre ... alta: la
    (b"(g1-person-2-", b"(g1-person-1-"),        # gold: the man: the
    (b"(g2-animal-2-", b"(g2-animal-1-"),        # gold: a dog: a
    (b"(s2-person-2-", b"(s2-person-1-"),        # system: the man: the
)


# Every system mention of tests/data/score has the span of a gold mention,
# so there head matching never depends on which token a gold head is. The
# "{shrunk}" copy shrinks two system mentions inside their gold mentions:
# "the man" to "man", which holds the gold head, and "a dog" to "a", which
# holds the head that "{moved}" gives it instead.
SHRUNK_SPANS = (
    (b"\tEntity=(s2-person-2-\n", b"\t_\n"),            # the
    (b"\tEntity=s2)\n", b"\tEntity=(s2-person-1-)\n"),   # man
    (b"\tEntity=(s3-animal-2-\n", b"\tEntity=(s3-animal-1-)\n"),  # a
    (b"\tEntity=s3)|SpaceAfter=No", b"\tSpaceAfter=No"),  # dog
)


def empty_heads(text: bytes) -> bytes:
    return HEAD_FIELD.sub(rb"\1", text)


def move_heads(text: bytes) -> bytes:
    for old, new in MOVED_HEADS:
        text = text.replace(old, new)
    return text


def shrink_spans(text: bytes) -> bytes:
    for old, new in SHRUNK_SPANS:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def copy_fixtures(root: Path, edit: Callable[[bytes], bytes]) -> Path:
    """tests/data's CoNLL-U files copied under root, each edited."""
    for path in DATA.rglob("*.conllu"):
        target = root / path.relative_to(DATA)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(edit(path.read_bytes()))
    return root


def make_inputs(root: Path) -> dict[str, Path]:
    """The placeholders of CASES, built under root."""
    basic = (DATA / "basic.conllu").read_bytes()
    release = root / "release"
    for dataset in ("xx_alpha", "xx_gamma"):
        directory = release / f"CorefUD_{dataset}"
        directory.mkdir(parents=True)
        (directory / f"{dataset}-corefud-train.conllu").write_bytes(basic)
    gold, pred = root / "gold", root / "pred"
    shutil.copytree(DATA / "score" / "gold", gold)
    shutil.copytree(DATA / "score" / "pred", pred)
    (gold / "xx_alpha-corefud-dev.conllu").write_bytes(basic)
    (pred / "xx_alpha.conllu").write_bytes(basic)
    export = root / "export"
    export.mkdir()
    (export / "es_basic.conllu").write_bytes(basic.replace(
        b"Entity=(e1-thing-3-", b"Entity=(e1-thing-1-"))
    shutil.copy(DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu",
                export)
    shrunk = root / "shrunk"
    shrunk.mkdir()
    (shrunk / "en_pairset.conllu").write_bytes(shrink_spans(
        (DATA / "score" / "pred" / "en_pairset.conllu").read_bytes()))
    return dict(data=DATA, release=release, gold=gold, pred=pred,
                export=export, shrunk=shrunk,
                emptied=copy_fixtures(root / "emptied", empty_heads),
                moved=copy_fixtures(root / "moved", move_heads))


TOKEN_FIELDS = [name for name in Token.__slots__ if not name.startswith("_")]
MODEL = GOLDEN / "parsed-model.json"


def parsed_model() -> dict:
    """Every fixture's parsed model as JSON values, by path under
    tests/data: each token's fields; each sentence's comments, ranges and
    first line; each mention's span ids, part count, attributes and head id.
    A node id is [sentence index, CoNLL-U id]."""
    def node_id(token: Token) -> list:
        return [token.sent_index, token.index]

    return {path.relative_to(DATA).as_posix(): [
        {"doc_id": document.doc_id,
         "sentences": [{"comments": sentence.comments,
                        "mwt_ranges": sentence.mwt_ranges,
                        "first_line": sentence.first_line,
                        "tokens": [[getattr(token, name)
                                    for name in TOKEN_FIELDS]
                                   for token in sentence.tokens]}
                       for sentence in document.sentences],
         "entities": [{"entity_id": entity.entity_id,
                       "mentions": [{"span": [node_id(t) for t in m.span],
                                     "n_parts": m.n_parts,
                                     "attributes": m.attributes,
                                     "head": node_id(m.head)}
                                    for m in entity.mentions]}
                      for entity in document.entities]}
        for document in parse_file(path).documents]
        for path in sorted(DATA.rglob("*.conllu"))}


def model_json() -> str:
    return json.dumps({"token_fields": TOKEN_FIELDS, "files": parsed_model()},
                      ensure_ascii=False, indent=1) + "\n"


def run(args: tuple[str, ...], inputs: dict[str, Path]) -> bytes:
    argv = [a.format(**inputs) for a in args]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def export(args: tuple[str, ...], inputs: dict[str, Path],
           out: Path) -> dict[str, bytes]:
    """The files export-features writes under out, by name."""
    assert run(("export-features", "{export}", "--word-order", WORD_ORDER,
                "--out", str(out)) + args, inputs) == b""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def snapshot(name: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted((GOLDEN / name).iterdir())}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_snapshot(name, inputs):
    assert run(CASES[name], inputs) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_snapshot(name, inputs, tmp_path):
    assert export(EXPORTS[name], inputs, tmp_path) == snapshot(name)


def test_export_snapshots_of_the_two_head_rules_differ():
    syntactic = snapshot("export-gold-syntactic")
    annotated = snapshot("export-gold-annotated")
    name = "es_basic.features.jsonl"
    assert syntactic[name] != annotated[name]


def test_emptied_head_fields_analyze_as_the_syntactic_rule(inputs):
    annotated = run(CASES["analyze-heads-emptied.tsv"], inputs)
    syntactic = run(CASES["analyze-heads-emptied-syntactic.tsv"], inputs)
    assert annotated == syntactic
    assert annotated == (GOLDEN / "analyze-syntactic.tsv").read_bytes()


def test_moved_head_fields_analyze_apart_under_the_two_rules(inputs):
    annotated = run(CASES["analyze-heads-moved.tsv"], inputs)
    syntactic = run(CASES["analyze-heads-moved-syntactic.tsv"], inputs)
    assert annotated != syntactic
    # the syntactic rule ignores head fields
    assert syntactic == (GOLDEN / "analyze-syntactic.tsv").read_bytes()


@pytest.mark.parametrize("command", ["score", "errors"])
def test_shrunk_system_spans_follow_the_gold_heads(command, inputs):
    # with the gold heads as they are, "man" claims "the man" and "a"
    # claims nothing; with the moved heads, "a" claims "a dog" instead
    as_is = run(CASES[f"{command}-head-shrunk.tsv"], inputs)
    moved = run(CASES[f"{command}-head-shrunk-heads-moved.tsv"], inputs)
    assert as_is != moved


def test_parsed_model_matches_snapshot():
    assert model_json() == MODEL.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["figure-data.tsv",
                                  "figure-data-release-by-language.tsv"])
def test_analyze_jobs_do_not_change_output(name, inputs):
    args = CASES[name]
    assert run(args + ("--jobs", "2"), inputs) == run(args, inputs)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    MODEL.write_text(model_json(), encoding="utf-8")
    scratch = Path(tempfile.mkdtemp())
    try:
        for name, args in CASES.items():
            inputs = make_inputs(scratch / name)
            (GOLDEN / name).write_bytes(run(args, inputs))
        for name, args in EXPORTS.items():
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            (GOLDEN / name).mkdir()
            inputs = make_inputs(scratch / name)
            for file_name, data in export(args, inputs,
                                          scratch / name / "out").items():
                (GOLDEN / name / file_name).write_bytes(data)
    finally:
        shutil.rmtree(scratch)
