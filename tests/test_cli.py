from __future__ import annotations

import concurrent.futures
import gc
import json
import logging
import os
import pickle
import re
import subprocess
import sys
import weakref
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import corefkit
from corefkit import conllu, errors, metrics, taxonomy
from corefkit.analysis import MissingVectorError, corpus_statistics
from corefkit.cli import CliError, _json, main
from corefkit.conllu import ParseError
from corefkit.corpora import DatasetFiles, discover_datasets
from corefkit.features import WordOrderError
from corefkit.metrics import AlignmentError
from corefkit.model import (MATCH_MODES, SINGLETON_POLICIES,
                            UNRESOLVED_DEFINITIONS, DataError)
from corefkit.reports import StatRow
from corefkit.stats import pool_groups
from support import (DATA, FRESH_ENV, WeakDocument, documents_text,
                     generated_pair, tok, watch_parses)

GOLD_DIR = str(DATA / "score" / "gold")
PRED_DIR = str(DATA / "score" / "pred")
WORD_ORDER = str(DATA / "word_order.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "--no-such-flag"])
    assert excinfo.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "basic.conllu"))
    assert code == 0
    assert out.startswith("ok\t")
    assert "mentions=10" in out


def test_validate_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tnot\tenough\tcolumns\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(tmp_path))
    assert code == 2
    assert "bad.conllu:1" in err


def test_validate_non_utf8_names_the_line_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.conllu"
    bad.write_bytes("\n".join(["# sent_id = s1", tok(1, "Hola"),
                               tok(2, "Caf\xe9", head=1, deprel="obj"),
                               "", ""]).encode("latin-1"))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err == (f"corefkit: error: {bad}:3: byte 0xe9 is not UTF-8 "
                   "(invalid continuation byte)\n")


def test_validate_split_without_files_names_the_split(capsys):
    code, _, err = run(capsys, "validate", str(DATA), "--split", "test")
    assert code == 2
    assert err == (f"corefkit: error: no .conllu files of split 'test' "
                   f"under {DATA}\n")
    code, out, _ = run(capsys, "validate", str(DATA), "--split", "dev")
    assert code == 0
    assert out.startswith("ok\t")


@pytest.mark.parametrize("command", ["validate", "stats", "analyze"])
def test_commands_hold_one_file_at_a_time(tmp_path, capsys, monkeypatch,
                                          command):
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.conllu").write_text(text, encoding="utf-8")
    read = corefkit.conllu.iter_documents
    files = []  # each file the command read
    parsed = []  # a weak reference to each document it was given

    def watched_read(path, **kwargs):
        assert all(ref() is None for ref in parsed), "a document is alive"
        files.append(path)
        for document in read(path, **kwargs):
            watched = WeakDocument(document.doc_id, document.sentences,
                                   document.entities, document.language,
                                   document.dataset)
            parsed.append(weakref.ref(watched))
            yield watched
    monkeypatch.setattr(corefkit.conllu, "iter_documents", watched_read)
    code, out, _ = run(capsys, command, str(tmp_path))
    assert code == 0 and len(files) == 3
    if command == "validate":
        assert out.count("ok\t") == 3
    assert len(parsed) == 6


def _reversed_documents(text: str) -> str:
    """text with its documents in reverse order."""
    starts = [m.start() for m in re.finditer(r"^# newdoc", text, re.M)]
    return "".join(text[a:b] for a, b in reversed(list(
        zip(starts, starts[1:] + [len(text)]))))


@pytest.fixture
def many_documents(tmp_path):
    """Gold: the dataset es_many in two files of four documents each.
    System: the same eight documents in one flat file, in gold order
    (in-order/) and in reverse order (reversed/)."""
    gold = [documents_text(range(2)), documents_text(range(2, 4))]
    (tmp_path / "gold").mkdir()
    for split, text in zip(("dev", "train"), gold):
        (tmp_path / "gold" / f"es_many-corefud-{split}.conllu").write_text(
            text, "utf-8")
    for name, text in (("in-order", "".join(gold)),
                       ("reversed", _reversed_documents("".join(gold)))):
        (tmp_path / name).mkdir()
        (tmp_path / name / "es_many.conllu").write_text(text, "utf-8")
    return tmp_path


@pytest.mark.parametrize("command", [
    ["validate", "{gold}"],
    ["score", "--gold", "{gold}", "--pred", "{in_order}"],
    ["score", "--gold", "{gold}", "--pred", "{reversed}", "--match", "head"],
    ["errors", "--gold", "{gold}", "--pred", "{in_order}", "--detail"],
    ["errors", "--gold", "{gold}", "--pred", "{reversed}"],
    ["export-features", "{gold}", "--word-order", WORD_ORDER, "--out",
     "{out}"],
    ["export-features", "{gold}", "--word-order", WORD_ORDER, "--out",
     "{out}", "--target", "spans"],
], ids=["validate", "score", "score-head-reversed", "errors",
        "errors-reversed", "export-gold", "export-spans"])
def test_streaming_commands_hold_one_gold_document(
        many_documents, capsys, monkeypatch, command):
    sides, most_alive = watch_parses(monkeypatch)
    argv = [arg.format(gold=many_documents / "gold",
                       in_order=many_documents / "in-order",
                       reversed=many_documents / "reversed",
                       out=many_documents / "out") for arg in command]
    assert run(capsys, *argv)[0] == 0
    assert sides.count("gold") == 8
    # when a gold document is parsed, no earlier one is alive
    assert most_alive["gold"] == 0
    if "{in_order}" in command:
        assert most_alive["in-order"] == 0
    if "{reversed}" in command:  # every other system document came early
        assert most_alive["reversed"] == 7


@pytest.mark.parametrize("command", [
    ["score"], ["score", "--match", "head", "--format", "json"],
    ["errors", "--detail"], ["errors", "--mode", "head", "--format", "json"],
], ids=["score", "score-head-json", "errors", "errors-head-json"])
def test_system_documents_out_of_gold_order_still_pair(
        many_documents, capsys, command):
    reports = [run(capsys, *command, "--gold", str(many_documents / "gold"),
                   "--pred", str(many_documents / order))
               for order in ("in-order", "reversed")]
    assert reports[0][0] == 0 and reports[0][1]
    assert reports[1] == reports[0]


@pytest.mark.parametrize("command", ["score", "errors"])
@pytest.mark.parametrize("fault", ["alignment", "parse"])
def test_a_run_stopped_mid_dataset_leaves_no_file_open(
        many_documents, capsys, monkeypatch, command, fault):
    gold, pred = many_documents / "gold", many_documents / "in-order"
    if fault == "parse":  # in the last gold document
        path = gold / "es_many-corefud-train.conllu"
        path.write_text(path.read_text("utf-8") + "1\tx\n", "utf-8")
    else:  # a sentence fewer in the system's fifth document
        path = pred / "es_many.conllu"
        text = path.read_text("utf-8")
        fifth = text.index("# newdoc id = 2-fixture-doc1")
        cut = text.index("# sent_id", text.index("# sent_id", fifth) + 1)
        path.write_text(text[:cut] + text[text.index("# newdoc", cut):],
                        "utf-8")
    opened = []

    def recorded_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(conllu, "open", recorded_open, raising=False)
    # Keeping the run's exception keeps every frame it passed through, and
    # so every stream those frames hold, as a reference cycle would with
    # the collector off: the files must be closed all the same.
    kept = []
    module, name = ((metrics, "score_pairs") if command == "score"
                    else (errors, "analyze_errors"))
    consume = getattr(module, name)

    def keeping(*args, **kwargs):
        try:
            return consume(*args, **kwargs)
        except DataError as exc:
            kept.append(exc)
            raise
    monkeypatch.setattr(module, name, keeping)
    code, out, err = run(capsys, command, "--gold", str(gold),
                         "--pred", str(pred))
    assert (code, out) == (2, "")
    assert isinstance(kept[0], ParseError if fault == "parse"
                      else AlignmentError), err
    assert len(opened) == 3  # both gold files and the system file
    assert [handle.closed for handle in opened] == [True] * 3
    kept.clear()


def _in_process_pool(monkeypatch) -> list[int]:
    """Make every pool map in-process what it would send to its workers,
    pickled; returns the size of each pool started from now on."""
    started = []

    class Executor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(pickle.loads(pickle.dumps(fn)),
                       [pickle.loads(pickle.dumps(item)) for item in items])

    # stats._map_files imports the pool class when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    return started


@pytest.fixture
def two_file_dataset(tmp_path):
    """Gold and system directories, each holding the dataset es_basic (the
    documents of basic.conllu) in two files."""
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    second = text.index("# newdoc", 1)
    for side in ("gold", "pred"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "es_basic-corefud-train.conllu").write_text(
            text[:second], "utf-8")
        (tmp_path / side / "es_basic-corefud-dev.conllu").write_text(
            text[second:], "utf-8")
    return tmp_path


def _watch_reads(monkeypatch) -> list[tuple[str, str, dict]]:
    """(side, file name, keywords) of each file the one reader,
    conllu.iter_documents, is asked for from now on."""
    read, reads = conllu.iter_documents, []

    def watched(path, **kwargs):
        reads.append((Path(path).parent.name, Path(path).name, kwargs))
        return read(path, **kwargs)
    monkeypatch.setattr(conllu, "iter_documents", watched)
    return reads


def _reads_of(*sides: str) -> list[tuple[str, str, dict]]:
    return [(side, f"es_basic-corefud-{split}.conllu",
             {"dataset": "es_basic", "language": "es"})
            for side in sides for split in ("dev", "train")]


@pytest.mark.parametrize("command, sides", [
    (["validate", "{gold}"], ["gold"]),
    (["stats", "{gold}"], ["gold"]),
    (["stats", "{gold}", "--jobs", "2"], ["gold"]),
    (["analyze", "{gold}"], ["gold"]),
    (["analyze", "{gold}", "--jobs", "2"], ["gold"]),
    (["score", "--gold", "{gold}", "--pred", "{pred}"], ["gold", "pred"]),
    (["errors", "--gold", "{gold}", "--pred", "{pred}"], ["gold", "pred"]),
    (["export-features", "{gold}", "--word-order", WORD_ORDER, "--out",
      "{out}"], ["gold"]),
], ids=["validate", "stats", "stats-jobs-2", "analyze", "analyze-jobs-2",
        "score", "errors", "export-features"])
def test_every_command_reads_each_file_once_sorted_and_labelled(
        two_file_dataset, capsys, monkeypatch, command, sides):
    started = _in_process_pool(monkeypatch)
    reads = _watch_reads(monkeypatch)
    argv = [arg.format(gold=two_file_dataset / "gold",
                       pred=two_file_dataset / "pred",
                       out=two_file_dataset / "out") for arg in command]
    assert run(capsys, *argv)[0] == 0
    # score and errors read gold and system files in step; each side in turn
    assert sorted(reads, key=lambda read: sides.index(read[0])) \
        == _reads_of(*sides)
    assert started == ([2] if "--jobs" in command else [])


def test_a_dataset_sorts_its_files_and_loads_them_in_that_order(
        two_file_dataset, monkeypatch):
    files = sorted((two_file_dataset / "gold").iterdir(), reverse=True)
    dataset = DatasetFiles("es_basic", files)
    assert dataset.files == files[::-1]
    assert [one.files for one in dataset.per_file()] == \
        [[path] for path in files[::-1]]
    reads = _watch_reads(monkeypatch)
    corpus = dataset.load()
    assert reads == _reads_of("gold")
    assert (corpus.dataset, corpus.language) == ("es_basic", "es")
    parts = [conllu.parse_file(path) for path in files[::-1]]
    assert [d.doc_id for d in corpus.documents] == \
        [d.doc_id for part in parts for d in part.documents]


def test_split_filters_a_file_input(capsys):
    path = DATA / "basic.conllu"  # its name carries no split
    code, out, err = run(capsys, "validate", str(path), "--split", "test")
    assert code == 2
    assert out == ""
    assert err == (f"corefkit: error: no .conllu files of split 'test' "
                   f"under {path}\n")
    path = Path(GOLD_DIR) / "en_pairset-corefud-dev.conllu"
    code, out, _ = run(capsys, "validate", str(path), "--split", "dev")
    assert code == 0
    assert out.startswith("ok\t")


@pytest.mark.parametrize("command", ["score", "errors"])
def test_pairing_split_drops_system_files_of_other_splits(tmp_path, capsys,
                                                          command):
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    for root in (gold, pred):
        root.mkdir()
        (root / "xx-corefud-dev.conllu").write_text(text, "utf-8")
    (pred / "xx-corefud-train.conllu").write_text(
        text.replace("# newdoc id = ", "# newdoc id = train-"), "utf-8")
    code, out, _ = run(capsys, command, "--gold", str(gold),
                       "--pred", str(pred), "--split", "dev")
    assert code == 0
    _, dev_only, _ = run(capsys, command, "--gold", str(gold),
                         "--pred", str(gold))
    assert out == dev_only


@pytest.mark.parametrize("command", ["score", "errors"])
def test_pairing_split_without_gold_files_names_the_split(capsys, command):
    code, out, err = run(capsys, command, "--gold", GOLD_DIR,
                         "--pred", PRED_DIR, "--split", "test")
    assert code == 2
    assert out == ""
    assert err == (f"corefkit: error: no .conllu files of split 'test' "
                   f"under {GOLD_DIR}\n")
    code, out, _ = run(capsys, command, "--gold", GOLD_DIR,
                       "--pred", PRED_DIR, "--split", "dev")
    assert code == 0
    assert out.startswith("dataset\t")


@pytest.mark.parametrize("command", ["score", "errors"])
def test_a_gold_dataset_without_system_file_exits_2(tmp_path, capsys,
                                                     command):
    for path in Path(GOLD_DIR).iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "xx_other.conllu").write_bytes(
        (DATA / "basic.conllu").read_bytes())
    code, out, err = run(capsys, command, "--gold", str(tmp_path),
                         "--pred", PRED_DIR)
    assert code == 2
    assert out == ""
    assert err == (f"corefkit: error: xx_other: no system output file "
                   f"under {PRED_DIR}\n")


def test_pair_datasets_requires_a_system_file_for_every_gold_dataset(
        tmp_path):
    from corefkit.corpora import pair_datasets
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    for root, names in ((gold, ("xx_b", "xx_a", "xx_c")),
                        (pred, ("xx_b", "xx_d"))):
        root.mkdir()
        for name in names:
            (root / f"{name}.conllu").touch()
    for missing in ("xx_a", "xx_c"):  # the first in name order
        with pytest.raises(AlignmentError, match=(
                f"^{missing}: no system output file under "
                f"{re.escape(str(pred))}$")):
            pair_datasets(gold, pred)
        (pred / f"{missing}.conllu").touch()
    # every gold dataset, in name order; the system-only xx_d is ignored
    assert [(name, g.files, p.files)
            for name, g, p in pair_datasets(gold, pred)] == [
        (name, [gold / f"{name}.conllu"], [pred / f"{name}.conllu"])
        for name in ("xx_a", "xx_b", "xx_c")]


@pytest.mark.parametrize("command", ["score", "errors"])
def test_a_scoring_run_walks_each_tree_once(monkeypatch, capsys, command):
    from corefkit import corpora
    roots = []
    discover = corpora.discover_datasets

    def counted(root, *args, **kwargs):
        roots.append(str(root))
        return discover(root, *args, **kwargs)
    monkeypatch.setattr(corpora, "discover_datasets", counted)
    code, _, _ = run(capsys, command, "--gold", GOLD_DIR, "--pred", PRED_DIR)
    assert code == 0
    assert roots == [GOLD_DIR, PRED_DIR]


@pytest.mark.parametrize("sidecar", ["vectors", "word-order"])
def test_non_utf8_sidecar_names_the_line_and_exits_2(tmp_path, capsys,
                                                    sidecar):
    path = tmp_path / "sidecar.tsv"
    first = ("fixture-doc1\t1\t1\t4.0\t6.0" if sidecar == "vectors"
             else "es\tSVO")
    path.write_bytes((first + "\n# caf\xe9\n").encode("latin-1"))
    if sidecar == "vectors":
        argv = ["analyze", str(DATA / "basic.conllu"), "--stat",
                "semantic-distance", "--vectors", str(path)]
    else:
        argv = ["export-features", str(DATA / "basic.conllu"),
                "--word-order", str(path), "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (f"corefkit: error: {path}:2: byte 0xe9 is not UTF-8 "
                   "(invalid continuation byte)\n")


@pytest.mark.parametrize("reader", ["conllu", "vectors", "word-order"])
def test_a_byte_order_mark_is_named_and_exits_2(tmp_path, capsys, reader):
    source = {"conllu": DATA / "basic.conllu",
              "vectors": DATA / "vectors.tsv",
              "word-order": DATA / "word_order.tsv"}[reader]
    path = tmp_path / f"bom{source.suffix}"
    argv = {"conllu": ["validate", str(path)],
            "vectors": ["analyze", str(DATA / "basic.conllu"), "--stat",
                        "semantic-distance", "--vectors", str(path)],
            "word-order": ["export-features", str(DATA / "score" / "gold"),
                           "--word-order", str(path),
                           "--out", str(tmp_path / "out")]}[reader]
    path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"corefkit: error: {path}:1: file starts with a UTF-8 "
                   "byte-order mark; save it without one\n")
    # the same file without the mark reads
    path.write_bytes(source.read_bytes())
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["validate", "{missing}"],
    ["score", "--gold", "{missing}", "--pred", PRED_DIR],
], ids=["validate", "score"])
def test_a_nonexistent_input_path_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "nowhere"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"corefkit: error: input path {missing} does not exist\n"


def test_missing_input_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("COREFUD_DATA", raising=False)
    code, _, err = run(capsys, "stats")
    assert code == 2
    assert "COREFUD_DATA" in err


def test_env_var_default_root(capsys, monkeypatch):
    monkeypatch.setenv("COREFUD_DATA", GOLD_DIR)
    code, out, _ = run(capsys, "stats")
    assert code == 0
    assert "en_pairset" in out


def test_stats_tsv(capsys):
    code, out, _ = run(capsys, "stats", GOLD_DIR)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dataset\tdocuments")
    assert lines[1].split("\t")[:2] == ["en_pairset", "1"]


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", GOLD_DIR, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["dataset"] == "en_pairset"
    rows = {r["key"]: r for r in payload[0]["rows"]}
    assert rows["mentions"]["numerator"] == 6


def _basic_stats(tmp_path: Path) -> tuple[str, list[str]]:
    return (DATA / "basic.conllu").read_text(encoding="utf-8"), ["stats"]


def _three_distances(tmp_path: Path) -> tuple[str, list[str]]:
    """Three documents with one two-mention entity each, whose mention
    vectors lie 0.1, 0.2 and 0.3 apart: float sums of these depend on the
    order in which they are added."""
    lines, vectors = [], []
    for n in (1, 2, 3):
        lines += [f"# newdoc id = d{n}", f"# sent_id = d{n}-s1",
                  tok(1, "Pat", "PROPN", 2, "nsubj", misc="Entity=(e1-p-1-)"),
                  tok(2, "saw", "VERB"),
                  tok(3, "herself", "PRON", 2, "obj", misc="Entity=(e1-p-1-)"),
                  ""]
        vectors += [f"d{n}\t0\t1\t0.0", f"d{n}\t0\t3\t0.{n}"]
    path = tmp_path / "vectors.tsv"
    path.write_text("\n".join(vectors) + "\n", "utf-8")
    return "\n".join(lines) + "\n", ["analyze", "--stat", "semantic-distance",
                                     "--vectors", str(path)]


@pytest.mark.parametrize("case", [_basic_stats, _three_distances],
                         ids=["stats", "semantic-distance"])
def test_stats_json_does_not_depend_on_the_file_split(tmp_path, capsys,
                                                      case):
    text, command = case(tmp_path)
    second = text.index("# newdoc", 1)
    whole, split = tmp_path / "whole", tmp_path / "split"
    whole.mkdir()
    split.mkdir()
    (whole / "xx_basic-corefud-train.conllu").write_text(text, "utf-8")
    (split / "xx_basic-corefud-train.conllu").write_text(text[:second],
                                                         "utf-8")
    (split / "xx_basic-corefud-dev.conllu").write_text(text[second:],
                                                       "utf-8")
    code, one_file, _ = run(capsys, *command, str(whole), "--format", "json")
    assert code == 0
    _, two_files, _ = run(capsys, *command, str(split), "--format", "json")
    assert one_file == two_files


def test_stats_jobs_do_not_change_output(capsys):
    _, sequential, _ = run(capsys, "stats", str(DATA))
    _, parallel, _ = run(capsys, "stats", str(DATA), "--jobs", "3")
    assert sequential == parallel


def test_jobs_beyond_the_file_count_start_one_worker_per_file(
        capsys, monkeypatch):
    started = _in_process_pool(monkeypatch)
    _, capped, _ = run(capsys, "stats", str(DATA), "--jobs", "64")
    _, sequential, _ = run(capsys, "stats", str(DATA))
    assert started == [3]  # basic.conllu and the two en_pairset files
    assert capped == sequential


def test_analyze_writes_deterministic_files(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code, _, _ = run(capsys, "analyze", GOLD_DIR, "--out", str(out),
                         "--figure-data")
        assert code == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "en_pairset.head-position.tsv" in names
    assert "figure_data.tsv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analyze_stdout_single_stat(capsys):
    code, out, _ = run(capsys, "analyze", GOLD_DIR, "--stat",
                       "mention-types")
    assert code == 0
    assert "## en_pairset.mention-types.tsv" in out
    assert "overt_pronoun" in out


def test_analyze_semantic_distance_requires_vectors(capsys):
    # a usage error, like its mirror: --vectors without the statistic
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", GOLD_DIR, "--stat", "semantic-distance"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.endswith(
        "error: analyze: --stat semantic-distance needs --vectors\n")


def test_analyze_missing_vectors_same_error_with_jobs(capsys):
    errs = []
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "analyze", str(DATA), "--stat",
                           "semantic-distance", "--vectors",
                           str(DATA / "vectors.tsv"), "--jobs", jobs)
        assert code == 2
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0] == (
        "corefkit: error: missing vectors for 5 mentions: "
        "('pair-doc1', 0, '1'), ('pair-doc1', 1, '1'), "
        "('pair-doc1', 2, '2,3'), ('pair-doc1', 0, '3,4'), "
        "('pair-doc1', 2, '5')\n")


@pytest.mark.parametrize("line, problem", [
    ("fixture-doc1\t0\t1,2,3", "expected at least 4 columns, got 3"),
    ("fixture-doc1\tx\t1,2,3\t1.0\t2.0", "sentence index 'x' is not an "
                                          "integer"),
    *((f"fixture-doc1\t{index}\t1,2,3\t1.0\t2.0",
       f"sentence index {index!r} is not an integer")
      for index in ("+1", " 1", "01", "0_1", "\u0661", "-1", "")),
    ("fixture-doc1\t0\t1,2,3\t1.0\tx", "non-numeric component"),
    ("fixture-doc1\t0\t1,2,3\t1.0\tnan", "non-finite component"),
    ("fixture-doc1\t0\t1,2,3\t1.0\tinf", "non-finite component"),
    ("fixture-doc1\t0\t1,2,3\t1e160\t0.0", "vector norm too large"),
    ("fixture-doc1\t0\t1,2,3\t1.0", "dimension 1 != 2"),
    ("fixture-doc1\t1\t1\t104.0\t6.0",
     "duplicate key ('fixture-doc1', 1, '1')"),
], ids=["columns", "sentence-index", "index-plus", "index-space",
        "index-leading-zero", "index-underscore", "index-arabic-indic-digit",
        "index-negative", "index-empty", "non-numeric", "nan", "inf",
        "norm", "dimension", "duplicate"])
def test_analyze_malformed_vectors_exit_2(tmp_path, capsys, line, problem):
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("# doc, sentence, span, components\n"
                       "fixture-doc1\t1\t1\t4.0\t6.0\n" + line + "\n",
                       encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(DATA / "basic.conllu"),
                         "--stat", "semantic-distance", "--vectors",
                         str(vectors))
    assert code == 2
    assert out == ""
    assert err == f"corefkit: error: {vectors}:3: {problem}\n"


def test_semantic_distance_over_no_pairs_has_no_value(tmp_path, capsys):
    # The only entity is a singleton, so there is no pair to average over:
    # n/a and null, like every other ratio with nothing to divide by.
    corpus = tmp_path / "single.conllu"
    corpus.write_text("# newdoc id = d1\n# sent_id = d1-s1\n"
                      + tok(1, "Rex", "PROPN", misc="Entity=(e1-x-1-)")
                      + "\n\n", encoding="utf-8")
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("# doc, sentence, span, components\n",
                       encoding="utf-8")
    argv = ("analyze", str(corpus), "--stat", "semantic-distance",
            "--vectors", str(vectors))
    code, out, err = run(capsys, *argv, "--figure-data")
    assert (code, err) == (0, "")
    assert out == ("## single.semantic-distance.tsv\n"
                   "pairs\tmean\tvariance\n0\tn/a\tn/a\n"
                   "## figure_data.tsv\n"
                   "statistic\tdataset\tkey\tvalue\n"
                   "semantic-distance\tsingle\tmean\tn/a\n"
                   "semantic-distance\tsingle\tvariance\tn/a\n")
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out.split("\n", 1)[1]) == {
        "pairs": 0, "mean": None, "variance": None}


def test_analyze_by_language_pools(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA), "--stat", "entity-size",
                       "--by-language")
    assert code == 0
    # both fixture datasets have unknown-prefix names; pooling still runs
    assert "mentions_per_entity" in out


def test_score_identity_is_one(capsys):
    code, out, _ = run(capsys, "score", "--gold", GOLD_DIR,
                       "--pred", GOLD_DIR)
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split("\t")[0] == "en_pairset"
    assert lines[1].split("\t")[-1] == "1.000000"
    assert lines[-1].startswith("macro\t")
    assert lines[-1].endswith("1.000000")


def test_score_fixture_pair_values(capsys):
    code, out, _ = run(capsys, "score", "--gold", GOLD_DIR,
                       "--pred", PRED_DIR)
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[0] == "en_pairset"
    muc_p, muc_r, muc_f1 = row[1:4]
    assert (muc_p, muc_r, muc_f1) == ("0.500000", "0.333333", "0.400000")
    assert row[-1] == f"{(0.4 + 39 / 71 + 0.65) / 3:.6f}"


# A pronoun dropped after "saw": the gold file has it as empty node 2.1, the
# system output does not. No mention contains it, and the mentions after it
# are the same on both sides.
_DROPPED = [
    "# newdoc id = d1", "# global.Entity = eid-etype-head-other",
    "# sent_id = s1",
    tok(1, "Pat", "PROPN", 2, "nsubj", misc="Entity=(e1-person-1-)"),
    tok(2, "saw", "VERB", 0, "root"),
    tok("2.1", "_", "PRON", "_", "_", deps="2:obj"),
    tok(3, "the", "DET", 4, "det", misc="Entity=(e2-animal-2-"),
    tok(4, "dog", "NOUN", 2, "obj", misc="Entity=e2)"), "",
    "# sent_id = s2",
    tok(1, "She", "PRON", 2, "nsubj", misc="Entity=(e1-person-1-)"),
    tok(2, "fed", "VERB", 0, "root"),
    tok(3, "it", "PRON", 2, "obj", misc="Entity=(e2-animal-1-)"), "", ""]


def test_an_empty_node_only_gold_has_moves_no_mention(tmp_path, capsys):
    for side, lines in (("gold", _DROPPED),
                        ("pred", [x for x in _DROPPED
                                  if not x.startswith("2.1\t")])):
        (tmp_path / side).mkdir()
        (tmp_path / side / "xx_drop.conllu").write_text(
            "\n".join(lines), encoding="utf-8")
    dirs = ("--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred"))
    for mode in ("exact", "head"):
        code, out, _ = run(capsys, "score", *dirs, "--match", mode)
        assert code == 0
        assert out.splitlines()[1].split("\t")[-1] == "1.000000"
        code, out, _ = run(capsys, "errors", *dirs, "--mode", mode)
        assert code == 0
        header, row = (line.split("\t") for line in out.splitlines()[:2])
        assert dict(zip(header, row))["unresolved_pct"] == "0.00"


def test_score_json(capsys):
    code, out, _ = run(capsys, "score", "--gold", GOLD_DIR,
                       "--pred", PRED_DIR, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["datasets"][0]["dataset"] == "en_pairset"
    assert payload["macro_conll_f1"] == pytest.approx((0.4 + 39/71 + 0.65) / 3)


def test_json_writes_an_exact_value_as_its_nearest_float_and_nothing_else():
    assert _json({"recall": Fraction(13, 30), "none": None}) == \
        '{\n  "recall": 0.43333333333333335,\n  "none": null\n}\n'
    with pytest.raises(TypeError):
        _json({"keys": {1, 2}})


def test_a_stat_row_stays_exact_until_the_json_writer(capsys):
    assert StatRow("n", 5, 1, "count").as_json()["value"] == Fraction(5)
    assert StatRow("x", 0, 0).as_json()["value"] is None
    reports = pool_groups({d.name: [d] for d in discover_datasets(DATA)},
                          corpus_statistics, 1).values()
    payload = [report.as_json() for report in reports]
    assert {type(row["value"]) for report in payload
            for row in report["rows"]} == {Fraction}
    golden = (DATA / "golden" / "stats.json").read_text(encoding="utf-8")
    assert _json(payload) == golden
    assert run(capsys, "stats", str(DATA), "--format", "json")[1] == golden


def test_score_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "score", "--gold", GOLD_DIR,
                      "--pred", PRED_DIR)
    _, second, _ = run(capsys, "score", "--gold", GOLD_DIR,
                       "--pred", PRED_DIR)
    assert first == second


@pytest.mark.parametrize("argv", [
    ("validate", str(DATA)),
    ("stats", str(DATA)),
    ("score", "--gold", GOLD_DIR, "--pred", PRED_DIR, "--match", "exact"),
], ids=["validate", "stats", "score-exact"])
def test_commands_that_print_no_head_resolve_none(capsys, monkeypatch, argv):
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def no_head(*args, **kwargs):
        raise AssertionError("a head was resolved")
    monkeypatch.setattr(corefkit.model, "mention_head", no_head)
    assert run(capsys, *argv)[:2] == (0, expected)


@pytest.mark.parametrize("argv", [
    ("validate", str(DATA)),
    ("stats", str(DATA)),
    ("score", "--gold", GOLD_DIR, "--pred", PRED_DIR, "--match", "exact"),
    ("export-features", GOLD_DIR, "--word-order", WORD_ORDER, "--out",
     "{out}", "--target", "spans"),
], ids=["validate", "stats", "score-exact", "export-spans"])
def test_commands_that_read_no_attribute_build_none(tmp_path, capsys,
                                                    monkeypatch, argv):
    def outputs(out):
        code, printed, _ = run(capsys, *(a.format(out=out) for a in argv))
        return code, printed, {path.name: path.read_bytes()
                               for path in sorted(out.glob("*"))}
    expected = outputs(tmp_path / "first")
    assert expected[0] == 0

    def no_attributes(*args, **kwargs):
        raise AssertionError("a mention's attributes were built")
    monkeypatch.setattr(corefkit.model, "bracket_attributes", no_attributes)
    assert outputs(tmp_path / "second") == expected


# ------------------------------------------- runs in a fresh interpreter
#
# The test process has imported every corefkit module already, so what a
# subcommand loads, and how an error from a module it loads late is
# reported, shows only in a new interpreter.

# Runs main on its arguments, then prints the loaded module names as the
# last line of stderr and exits with main's code.
_PROBE = ("import json, sys\n"
          "from corefkit.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "sys.stdout.flush()\n"
          "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
          "sys.exit(code)\n")


def fresh(*argv) -> subprocess.CompletedProcess:
    """`python -m corefkit argv` in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "corefkit", *argv],
                          env=FRESH_ENV, capture_output=True, text=True,
                          timeout=120)


def fresh_modules(*argv) -> set[str]:
    """The modules a new interpreter holds after main(argv) returned 0."""
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          env=FRESH_ENV, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1]))


def test_score_imports_neither_scipy_nor_numpy():
    modules = fresh_modules("score", "--gold", GOLD_DIR, "--pred", PRED_DIR)
    assert "scipy" not in modules and "numpy" not in modules


# The corefkit modules each subcommand loads besides the package itself:
# cli and model always, the parser stack only to read a corpus, and the
# statistics, with the stats and analyze code, only when some are computed.
_VALIDATE = {"cli", "model", "corpora", "conllu"}
_STATISTICS = _VALIDATE | {"analysis", "reports", "stats", "taxonomy"}


@pytest.mark.parametrize("argv, loaded, pool", [
    (["taxonomy"], {"cli", "model", "reports", "taxonomy"}, False),
    (["validate", str(DATA)], _VALIDATE, False),
    (["stats", str(DATA)], _STATISTICS, False),
    (["analyze", str(DATA)], _STATISTICS, False),
    (["score", "--gold", GOLD_DIR, "--pred", PRED_DIR],
     _VALIDATE | {"metrics", "reports"}, False),
    (["errors", "--gold", GOLD_DIR, "--pred", PRED_DIR],
     _VALIDATE | {"metrics", "errors", "reports", "taxonomy"}, False),
    (["export-features", GOLD_DIR, "--word-order", WORD_ORDER, "--out",
      "{tmp}"], _VALIDATE | {"features", "taxonomy"}, False),
    (["stats", str(DATA), "--jobs", "2"], _STATISTICS, True),
    (["analyze", str(DATA), "--jobs", "2"], _STATISTICS, True),
    (["stats", GOLD_DIR, "--jobs", "2"], _STATISTICS, False),
], ids=["taxonomy", "validate", "stats", "analyze", "score", "errors",
        "export-features", "stats-jobs", "analyze-jobs",
        "stats-jobs-one-file"])
def test_subcommand_imports_only_what_it_runs(tmp_path, argv, loaded, pool):
    modules = fresh_modules(*(a.format(tmp=tmp_path) for a in argv))
    assert {m for m in modules if m.startswith("corefkit")} == \
        {"corefkit"} | {f"corefkit.{name}" for name in loaded}
    # the stats and analyze code compiles only in their processes
    assert ("corefkit.stats" in modules) is (argv[0] in ("stats", "analyze"))
    # the process pool, and multiprocessing with it, only when one starts
    assert ("concurrent.futures.process" in modules) is pool
    assert ("multiprocessing" in modules) is pool
    # no corefkit class comes from the data-class decorator, and a command
    # that computes no number loads no Fraction
    assert "dataclasses" not in modules
    if argv[0] in ("taxonomy", "validate"):
        assert "fractions" not in modules
    # logging loads with the first record, and no fixture run emits one;
    # a pool loads it through concurrent.futures
    if not pool:
        assert "logging" not in modules


def _score_without_the_document(tmp_path):
    (tmp_path / "en_pairset.conllu").write_text("", encoding="utf-8")
    return ["score", "--gold", GOLD_DIR, "--pred", str(tmp_path)]


def _export_without_the_language(tmp_path):
    (tmp_path / "orders.tsv").write_text("zz\tSOV\n", encoding="utf-8")
    return ["export-features", GOLD_DIR, "--word-order",
            str(tmp_path / "orders.tsv"), "--out", str(tmp_path / "out")]


def _vectors_without_the_keys(tmp_path):
    return ["analyze", str(DATA), "--stat", "semantic-distance",
            "--vectors", str(DATA / "vectors.tsv")]


def _malformed_token_line(tmp_path):
    (tmp_path / "bad.conllu").write_text("1\tnot\tenough\tcolumns\n",
                                         encoding="utf-8")
    return ["validate", str(tmp_path / "bad.conllu")]


@pytest.mark.parametrize("make_argv, message", [
    (_score_without_the_document,
     "en_pairset: system output misses document 'pair-doc1'"),
    (_export_without_the_language,
     "no word order configured for language 'en' (document 'pair-doc1')"),
    (_vectors_without_the_keys, "missing vectors for 5 mentions: "),
    (_malformed_token_line, "bad.conllu:1: "),
], ids=["AlignmentError", "WordOrderError", "MissingVectorError",
        "ParseError"])
def test_data_error_of_a_late_module_exits_2(tmp_path, make_argv, message):
    done = fresh(*make_argv(tmp_path))
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("corefkit: error: ")
    assert message in done.stderr
    assert "Traceback" not in done.stderr


def test_analyze_jobs_print_the_same_bytes_in_a_fresh_process():
    sequential = fresh("analyze", str(DATA), "--jobs", "1")
    parallel = fresh("analyze", str(DATA), "--jobs", "2")
    assert sequential.returncode == parallel.returncode == 0
    assert sequential.stdout == parallel.stdout != ""


_SUBCOMMANDS = ("validate", "stats", "analyze", "score", "errors",
                "export-features", "taxonomy")
_PAIR = ("--gold", GOLD_DIR, "--pred", PRED_DIR)
_EXPORT = ("export-features", GOLD_DIR, "--word-order", WORD_ORDER,
           "--out", "{out}")


@contextmanager
def _unconfigured_logging():
    """The root logger without handlers, as in a new interpreter, so that
    main's logging.basicConfig takes effect; the handlers come back after."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    try:
        yield
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


def _written(out: Path) -> dict[str, bytes]:
    return ({path.name: path.read_bytes() for path in sorted(out.iterdir())}
            if out.exists() else {})


# Each run once in-process and once in a new interpreter: a module that
# only a late branch imports is already loaded in the test process.
@pytest.mark.parametrize("argv", [
    ("--help",),
    *((name, "--help") for name in _SUBCOMMANDS),
    ("stats", str(DATA), "--format", "json"),
    ("stats", str(DATA), "--out", "{out}"),
    ("stats", str(DATA), "--jobs", "2"),
    ("analyze", str(DATA), "--format", "json"),
    ("analyze", str(DATA), "--figure-data", "--out", "{out}"),
    ("analyze", str(DATA), "--jobs", "2"),
    ("analyze", str(DATA / "basic.conllu"), "--stat", "semantic-distance",
     "--vectors", str(DATA / "vectors.tsv")),
    ("score", *_PAIR),
    ("score", *_PAIR, "--format", "json"),
    ("errors", *_PAIR, "--detail"),
    ("errors", *_PAIR, "--detail", "--format", "json"),
    _EXPORT,
    (*_EXPORT, "--target", "spans", "--max-width", "3"),
    ("taxonomy", "--out", "{out}"),
], ids=["help", *(f"{name}-help" for name in _SUBCOMMANDS), "stats-json",
        "stats-out", "stats-jobs", "analyze-json", "analyze-figure-data",
        "analyze-jobs", "analyze-semantic-distance", "score-tsv",
        "score-json", "errors-detail-tsv", "errors-detail-json",
        "export-gold", "export-spans", "taxonomy-out"])
def test_a_fresh_process_runs_like_main_in_process(tmp_path, capsys,
                                                   monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", FRESH_ENV["COLUMNS"])
    here, there = tmp_path / "in-process", tmp_path / "fresh"
    with _unconfigured_logging():
        try:
            code = main([arg.format(out=here) for arg in argv])
        except SystemExit as exc:  # --help
            code = exc.code
    captured = capsys.readouterr()
    done = fresh(*(arg.format(out=there) for arg in argv))
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, captured.out, captured.err)
    assert code == 0 and (captured.out or _written(here))
    assert _written(there) == _written(here)


def _doc_ids_twice(tmp_path):
    twice = tmp_path / "twice.conllu"
    twice.write_text((DATA / "basic.conllu").read_text(encoding="utf-8") * 2,
                     encoding="utf-8")
    return ["validate", str(twice)], "".join(
        f"WARNING corefkit.conllu: {twice}: duplicated doc id '{doc_id}'\n"
        for doc_id in ("fixture-doc1", "fixture-doc2"))


def _an_unknown_deprel(tmp_path):
    # "castle", the head of "The old castle", is the antecedent of "It"
    (tmp_path / "en_x-corefud-dev.conllu").write_text(
        (DATA / "basic.conllu").read_text(encoding="utf-8").replace(
            "4\tnsubj\t_\tEntity=e1)", "4\tfrobnicate\t_\tEntity=e1)"),
        encoding="utf-8")
    return ["analyze", str(tmp_path), "--stat", "anaphor-antecedent"], (
        "WARNING corefkit.taxonomy: unknown dependency relation "
        "'frobnicate' mapped to category T\n")


def _a_warning_then_the_count(tmp_path):
    _, warning = _an_unknown_deprel(tmp_path)
    return ["export-features", str(tmp_path), "--word-order", WORD_ORDER,
            "--out", str(tmp_path / "out")], \
        warning + "INFO corefkit: en_x: 10 records\n"


# No other command line in these tests emits a log record, so these pin how
# one prints: logging configured on the first record, in a fresh process as
# in main run in-process.
@pytest.mark.parametrize("make_argv", [
    _doc_ids_twice, _an_unknown_deprel, _a_warning_then_the_count,
], ids=["duplicated-doc-ids", "unknown-deprel", "export-count"])
def test_a_warning_prints_the_same_in_a_fresh_process(tmp_path, capsys,
                                                      monkeypatch, make_argv):
    monkeypatch.setattr(taxonomy, "_warned_labels", set())
    argv, stderr = make_argv(tmp_path)
    with _unconfigured_logging():
        code = main(argv)
    captured = capsys.readouterr()
    done = fresh(*argv)
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, captured.out, captured.err) == (0, captured.out, stderr)


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("validate", str(DATA)),
    ("taxonomy",),
    ("score", *_PAIR),
], ids=["validate", "taxonomy", "score"])
def test_a_closed_stdout_exits_141_without_a_message(argv, buffered):
    # A buffered stdout fails only when it is flushed, an unbuffered one at
    # the first write; both end the same way, as `corefkit ... | head` does.
    env = {k: v for k, v in FRESH_ENV.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "corefkit", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("error, base", [
    (CliError("no input"), Exception),
    (ParseError("malformed HEAD value 'x'", "a.conllu", 3), ValueError),
    (AlignmentError("xx: duplicate doc ids in gold"), ValueError),
    (MissingVectorError([("doc", 0, "1,2")]), KeyError),
    (WordOrderError("no word order configured for language 'zz'"), KeyError),
], ids=["CliError", "ParseError", "AlignmentError", "MissingVectorError",
        "WordOrderError"])
def test_data_errors_share_one_base_and_survive_pickling(error, base):
    copy = pickle.loads(pickle.dumps(error))
    assert isinstance(error, DataError) and isinstance(error, base)
    assert type(copy) is type(error)
    assert str(copy) == str(error)


def test_errors_tsv_and_detail(tmp_path, capsys):
    code, _, _ = run(capsys, "errors", "--gold", GOLD_DIR,
                     "--pred", PRED_DIR, "--detail", "--out", str(tmp_path))
    assert code == 0
    table = (tmp_path / "errors.tsv").read_text(encoding="utf-8")
    lines = table.splitlines()
    assert lines[0].split("\t")[0] == "dataset"
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert row["dataset"] == "en_pairset"
    assert row["unresolved_pct"] == "50.00"
    assert row["two_mention_pct"] == "100.00"
    assert row["undetected_pct"] == "0.00"
    assert lines[2].startswith("average\t")
    detail = json.loads((tmp_path / "errors_detail.json")
                        .read_text(encoding="utf-8"))
    assert detail[0]["entity_id"] == "g2"
    assert detail[0]["diagnosis"] == "missing_link"


def test_errors_on_a_dataset_without_documents(tmp_path, capsys):
    for side in ("gold", "pred"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "xx_empty.conllu").write_text("", encoding="utf-8")
    code, out, err = run(capsys, "errors", "--gold", str(tmp_path / "gold"),
                         "--pred", str(tmp_path / "pred"), "--detail")
    assert (code, err) == (0, "")
    assert out == ("dataset\tunresolved_pct\ttwo_mention_pct\tundetected_pct"
                   "\tshort_pct\tpremodified_pct\tmean_undetected_length\n"
                   "xx_empty" + "\tn/a" * 6 + "\n"
                   "average" + "\tn/a" * 6 + "\n"
                   "[]\n")


def test_score_on_a_dataset_without_documents(tmp_path, capsys):
    for side in ("gold", "pred"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "xx_empty.conllu").write_text("", encoding="utf-8")
    gold, pred = str(tmp_path / "gold"), str(tmp_path / "pred")
    code, out, err = run(capsys, "score", "--gold", gold, "--pred", pred)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["xx_empty" + "\tn/a" * 10,
                                    "macro" + "\t" * 9 + "\tn/a"]
    _, out, _ = run(capsys, "score", "--gold", gold, "--pred", pred,
                    "--format", "json")
    empty = {"precision": None, "recall": None, "f1": None}
    assert json.loads(out)["datasets"] == [
        {"dataset": "xx_empty", "muc": empty, "b_cubed": empty,
         "ceafe": empty, "conll_f1": None}]
    assert json.loads(out)["macro_conll_f1"] is None

    # Next to a scored dataset, the empty one leaves macro alone.
    for side, source in (("gold", GOLD_DIR), ("pred", PRED_DIR)):
        for path in Path(source).iterdir():
            (tmp_path / side / path.name).write_bytes(path.read_bytes())
    _, out, _ = run(capsys, "score", "--gold", gold, "--pred", pred)
    rows = [line.split("\t") for line in out.splitlines()]
    assert [row[0] for row in rows] == ["dataset", "en_pairset", "xx_empty",
                                        "macro"]
    assert rows[3][-1] == rows[1][-1] == f"{(0.4 + 39 / 71 + 0.65) / 3:.6f}"


@pytest.mark.parametrize("command", ["score", "errors"])
@pytest.mark.parametrize("side, edit, message", [
    ("pred", lambda pred: "",
     "en_pairset: system output misses document 'pair-doc1'"),
    ("pred", lambda pred: pred + pred.replace("pair-doc1", "pair-doc2"),
     "en_pairset: system output has unknown document 'pair-doc2'"),
    ("pred", lambda pred: pred + pred,
     "en_pairset: duplicate doc ids in system output"),
    ("gold", lambda gold: gold + gold,
     "en_pairset: duplicate doc ids in gold"),
    ("pred", lambda pred: pred.partition("# sent_id = pair-s3")[0],
     "sentence segmentation differs in document 'pair-doc1': "
     "3 sentences vs 2"),
], ids=["missing", "unknown", "duplicate", "gold-duplicate", "sentences"])
def test_unpaired_documents_exit_2(tmp_path, capsys, command, side, edit,
                                   message):
    dirs = {"gold": GOLD_DIR, "pred": str(tmp_path)}
    source = DATA / "score" / "pred" / "en_pairset.conllu"
    if side == "gold":
        dirs = {"gold": str(tmp_path), "pred": PRED_DIR}
        source = DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu"
    (tmp_path / source.name).write_text(
        edit(source.read_text(encoding="utf-8")), encoding="utf-8")
    code, out, err = run(capsys, command, "--gold", dirs["gold"],
                         "--pred", dirs["pred"])
    assert (code, out) == (2, "")
    assert err == f"corefkit: error: {message}\n"


def test_export_features_requires_out(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["export-features", GOLD_DIR, "--word-order",
              str(DATA / "word_order.tsv")])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("argv", [
    ["validate", GOLD_DIR, "--format", "json"],
    ["validate", GOLD_DIR, "--out", "{out}"],
    ["taxonomy", "--format", "json"],
    ["export-features", GOLD_DIR, "--word-order", WORD_ORDER,
     "--out", "{out}", "--format", "json"],
], ids=["validate-format", "validate-out", "taxonomy-format",
        "export-features-format"])
def test_options_without_effect_are_rejected(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(out=out) for arg in argv])
    assert excinfo.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", GOLD_DIR, "--genre-pattern", "^fix"],
     "argument --genre-pattern: regex '^fix' has no group"),
    (["analyze", GOLD_DIR, "--genre-pattern", "("],
     "argument --genre-pattern: invalid regex '('"),
    (["export-features", GOLD_DIR, "--word-order", WORD_ORDER,
      "--out", "{out}", "--target", "spans", "--max-width", "0"],
     "argument --max-width: expected a positive integer, got '0'"),
    (["export-features", GOLD_DIR, "--word-order", WORD_ORDER,
      "--out", "{out}", "--target", "spans", "--head-rule", "annotated"],
     "--head-rule annotated needs --target gold"),
    (["stats", GOLD_DIR, "--jobs", "0"],
     "argument --jobs: expected a positive integer, got '0'"),
    (["analyze", GOLD_DIR, "--jobs", "-3"],
     "argument --jobs: expected a positive integer, got '-3'"),
    (["stats", GOLD_DIR, "--jobs", "two"],
     "argument --jobs: expected a positive integer, got 'two'"),
    (["analyze", str(DATA / "basic.conllu"), "--jobs", "\u0662"],
     "argument --jobs: expected a positive integer, got '\u0662'"),
    (["export-features", GOLD_DIR, "--word-order", WORD_ORDER,
      "--out", "{out}", "--target", "spans", "--max-width", "\u0662"],
     "argument --max-width: expected a positive integer, got '\u0662'"),
    (["analyze", GOLD_DIR, "--stat", "entity-size", "--vectors",
      "{out}/vectors.tsv"],
     "--vectors is only read by semantic-distance"),
], ids=["genre-pattern-without-group", "genre-pattern-invalid",
        "max-width-0", "spans-annotated-head", "jobs-0", "jobs-negative",
        "jobs-not-a-number", "jobs-arabic-indic-digit",
        "max-width-arabic-indic-digit", "vectors-without-semantic-distance"])
def test_bad_option_values_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(out=out) for arg in argv])
    assert excinfo.value.code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_export_features_writes_records(tmp_path, capsys):
    code, _, _ = run(capsys, "export-features", GOLD_DIR,
                     "--word-order", str(DATA / "word_order.tsv"),
                     "--out", str(tmp_path))
    assert code == 0
    records = (tmp_path / "en_pairset.features.jsonl").read_text("utf-8")
    assert len(records.splitlines()) == 6
    vocab = (tmp_path / "en_pairset.vocab.tsv").read_text("utf-8")
    assert "word_order\tSVO" in vocab


def test_export_features_unknown_language_exits_2(tmp_path, capsys):
    table = tmp_path / "orders.tsv"
    table.write_text("zz\tSOV\n", encoding="utf-8")
    code, _, err = run(capsys, "export-features", GOLD_DIR,
                       "--word-order", str(table), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert err == ("corefkit: error: no word order configured for language "
                   "'en' (document 'pair-doc1')\n")


def test_failed_export_removes_the_files_of_every_dataset(tmp_path,
                                                         capsys):
    # en_pairset is exported before zz_other fails on its language
    gold = (DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu")
    root = tmp_path / "release"
    root.mkdir()
    _release(root, en_pairset=gold.read_bytes(), zz_other=gold.read_bytes())
    out = tmp_path / "out"
    code, _, err = run(capsys, "export-features", str(root),
                       "--word-order", WORD_ORDER, "--out", str(out))
    assert code == 2
    assert err.endswith("corefkit: error: no word order configured for "
                        "language 'zz' (document 'pair-doc1')\n")
    assert list(out.iterdir()) == []


def test_taxonomy_dump(capsys):
    code, out, _ = run(capsys, "taxonomy")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "category\tname\trelations"
    assert len(lines) == 13
    assert lines[1] == "S\tcore arguments_subject\tnsubj"


def _release(root, **datasets):
    for name, content in datasets.items():
        (root / f"{name}-corefud-train.conllu").write_bytes(content)
    return str(root)


def test_analyze_by_language_json_labels_pooled_reports(tmp_path, capsys):
    basic = (DATA / "basic.conllu").read_bytes()
    root = _release(tmp_path, xx_alpha=basic, xx_gamma=basic)
    code, out, _ = run(capsys, "analyze", root, "--stat", "entity-size",
                       "--by-language", "--format", "json")
    assert code == 0
    header, body = out.split("\n", 1)
    assert header == "## xx.entity-size.json"
    assert json.loads(body)["dataset"] == "xx"


def test_analyze_json_writes_utf8(tmp_path, capsys):
    text = "\n".join(["# newdoc id = cs_žurnál", "# sent_id = s1",
                      tok(1, "on", "PRON", 0, "root", feats="PronType=Prs"),
                      "", ""])
    root = _release(tmp_path, cs_x=text.encode("utf-8"))
    _, tsv, _ = run(capsys, "analyze", root, "--stat", "genre")
    code, out, _ = run(capsys, "analyze", root, "--stat", "genre",
                       "--format", "json")
    assert code == 0
    assert "žurnál\t8000.00" in tsv
    assert '"genre": "žurnál"' in out
    assert "\\u" not in out


def test_analyze_repeated_stat_runs_once(capsys):
    code, out, _ = run(capsys, "analyze", GOLD_DIR, "--stat", "genre",
                       "--stat", "entity-size", "--stat", "genre",
                       "--figure-data")
    assert code == 0
    headers = [line for line in out.splitlines() if line.startswith("## ")]
    assert headers == ["## en_pairset.genre.tsv",
                       "## en_pairset.entity-size.tsv", "## figure_data.tsv"]
    assert out.count("genre\ten_pairset\t") == 1


# ------------------------------------------------------ oversized numerals
#
# int() refuses numerals of more than 4,300 digits by default; each of
# these used to end in that ValueError's traceback.

_HUGE = "1" * 5000


def _empty_node(index, deps="1:nsubj"):
    return "\t".join((index, "_", "_", "PRON", "_", "_", "_", "_", deps, "_"))


@pytest.mark.parametrize("command, block, line, problem", [
    ("validate", lambda n: [tok(1, "a", head=n)], 3, "malformed HEAD value"),
    ("validate", lambda n: [f"1-{n}\t_\t_\t_\t_\t_\t_\t_\t_\t_",
                            tok(1, "a"), tok(2, "b", head=1, deprel="dep")],
     3, "non-monotonic token range"),
    ("validate", lambda n: [tok(1, "a"), _empty_node(f"1.{n}")], 4,
     "non-monotonic empty-node index"),
    ("validate", lambda n: [tok(1, "a", misc=f"Entity=(e1[1/{n}]-x-1-)")],
     3, "invalid part index"),
    ("validate", lambda n: [tok(1, "a"), _empty_node("1.1", f"{n}:nsubj")],
     4, "empty node 1.1 DEPS head"),
    # an annotated head falls back to the syntactic head, as 'x' does
    ("analyze", lambda n: [tok(1, "a", misc=f"Entity=(e1-x-{n}-"),
                           tok(2, "b", head=1, deprel="dep",
                               misc="Entity=e1)")], None, None),
], ids=["head", "range-end", "empty-node-index", "part-count", "deps-head",
        "annotated-head"])
def test_an_oversized_numeral_is_a_parse_error_or_falls_back(
        tmp_path, capsys, command, block, line, problem):
    def run_on(numeral):
        path = tmp_path / "big.conllu"
        path.write_text("\n".join(["# newdoc id = d", "# sent_id = s1",
                                   *block(numeral), "", ""]),
                        encoding="utf-8")
        return path, run(capsys, command, str(path))

    path, (code, out, err) = run_on(_HUGE)
    if problem is None:
        assert (code, out, err) == run_on("x")[1]
        assert code == 0
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"corefkit: error: {path}:{line}: {problem} ")


# -------------------------------------------------------------- collector
#
# main runs with the cyclic collector off: a parsed corpus holds no
# reference cycle, so a collection would only re-walk every Token.

def _fixture_runs(root: Path) -> dict[str, tuple[str, ...]]:
    """One command line per subcommand that reads a corpus, on the fixtures
    copied under root."""
    gold, pred = root / "score" / "gold", root / "score" / "pred"
    pair = ("--gold", str(gold), "--pred", str(pred))
    export = ("export-features", str(gold), "--word-order", WORD_ORDER,
              "--out", str(root / "export"))
    return {
        "validate": ("validate", str(root / "basic.conllu")),
        "stats": ("stats", str(root / "basic.conllu")),
        "analyze": ("analyze", str(root / "basic.conllu")),
        "score-exact": ("score", *pair),
        "score-head": ("score", *pair, "--match", "head"),
        "errors": ("errors", *pair, "--detail"),
        "export-gold": export,
        "export-spans": (*export, "--target", "spans"),
    }


def _copy_fixtures(root: Path, copies: int = 1) -> Path:
    """basic.conllu and the score pair under root, each document repeated
    copies times under new doc ids."""
    for name in ("basic.conllu", "score/gold/en_pairset-corefud-dev.conllu",
                 "score/pred/en_pairset.conllu"):
        documents = (DATA / name).read_text(encoding="utf-8").split(
            "# newdoc id = ")[1:]
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("".join(
            f"# newdoc id = copy{k}-{document}" for document in documents
            for k in range(copies)), encoding="utf-8")
    return root


@contextmanager
def _collector(enabled: bool):
    """The cyclic collector switched on or off; its state comes back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


_RUNS = list(_fixture_runs(Path()))  # their names


@pytest.mark.parametrize("name", _RUNS)
def test_main_runs_no_collection(tmp_path, capsys, name):
    argv = _fixture_runs(_copy_fixtures(tmp_path))[name]
    during_main: list[int] = []

    def record(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)  # the frame whose allocation collects
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if frame is not None:
            during_main.append(info["generation"])
    thresholds = gc.get_threshold()
    gc.callbacks.append(record)
    gc.set_threshold(1)  # with the collector on, every allocation collects
    try:
        with _collector(True):
            assert main(list(argv)) == 0
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(record)
    assert during_main == []


def _raise_in_command(args):
    raise RuntimeError("a fault in a command")


# the ways a run of main ends
_ENDINGS = [
    (("validate", str(DATA / "basic.conllu")), 0),
    (("validate", str(DATA / "no-such-file.conllu")), 2),
    (("validate", "--no-such-flag"), SystemExit),
    (("analyze", str(DATA), "--vectors", str(DATA / "vectors.tsv")),
     SystemExit),
    (("taxonomy", "--help"), SystemExit),
    (("validate", str(DATA / "basic.conllu")), RuntimeError),
]
_ENDING_IDS = ["success", "data-error", "usage-error", "parser-error", "help",
               "exception"]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, outcome", _ENDINGS, ids=_ENDING_IDS)
def test_main_gives_the_collector_back_as_it_found_it(
        capsys, monkeypatch, enabled, argv, outcome):
    with _collector(enabled):
        _end_main(monkeypatch, argv, outcome)
        assert gc.isenabled() is enabled


def _end_main(monkeypatch, argv: tuple[str, ...], outcome) -> None:
    """Run main on argv and check that it ends with outcome: an exit code,
    or an exception that a RuntimeError outcome raises in the command."""
    if outcome is RuntimeError:
        monkeypatch.setattr("corefkit.cli.cmd_validate", _raise_in_command)
    if isinstance(outcome, int):
        assert main(list(argv)) == outcome
    else:
        with pytest.raises(outcome):
            main(list(argv))


@pytest.mark.parametrize("argv, outcome", _ENDINGS, ids=_ENDING_IDS)
def test_main_gives_the_logging_hook_back(capsys, monkeypatch, argv,
                                          outcome):
    def callers_hook():
        raise AssertionError("main's run called its caller's hook")
    monkeypatch.setattr(corefkit.model, "before_first_record", callers_hook)
    _end_main(monkeypatch, argv, outcome)
    assert corefkit.model.before_first_record is callers_hook


@pytest.mark.parametrize("name", [*_RUNS, "taxonomy"])
def test_main_freezes_nothing_and_gives_the_collector_back(tmp_path, capsys,
                                                           name):
    # only a process's entry freezes what its run leaves, after main
    argv = {**_fixture_runs(_copy_fixtures(tmp_path)),
            "taxonomy": ("taxonomy",)}[name]
    for enabled in (True, False):
        with _collector(enabled):
            frozen = gc.get_freeze_count()
            assert main(list(argv)) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == \
                (frozen, enabled)


def _garbage_after(argv: tuple[str, ...]) -> int:
    """The number of unreachable objects a run of main leaves, with the
    collector off before, during and after it."""
    with _collector(False):
        gc.collect()
        assert main(list(argv)) == 0
        return gc.collect()


@pytest.mark.parametrize("name", _RUNS)
def test_a_run_leaves_the_same_cyclic_garbage_on_a_larger_corpus(
        tmp_path, capsys, name):
    # a reference cycle made per document, token or mention would leak
    # while the collector is off; the cycles of argparse's parsers and
    # json's encoder are the same on any corpus
    once = _fixture_runs(_copy_fixtures(tmp_path / "once"))[name]
    thrice = _fixture_runs(_copy_fixtures(tmp_path / "thrice", 3))[name]
    _garbage_after(once)  # imports and caches of a first run
    assert _garbage_after(thrice) == _garbage_after(once)


# ------------------------------------------- document order and file split

def _documents(path: Path) -> list[str]:
    head, *documents = re.split(r"(?m)^(?=# newdoc)",
                                path.read_text(encoding="utf-8"))
    assert head == "" and len(documents) == 4
    return documents


@pytest.fixture(scope="module")
def arrangements(tmp_path_factory) -> dict[str, tuple[str, str]]:
    """(gold dir, system dir) of one corpus in three arrangements: as
    generated, with its documents reversed, and split over two files."""
    root = generated_pair(tmp_path_factory.mktemp("generated"))
    name = "en_synth-corefud-train.conllu"
    sides = {"gold": root / "gold" / "en_synth" / name,
             "pred": root / "pred" / name}
    out = {"generated": (str(root / "gold"), str(root / "pred"))}
    for arrangement in ("reversed", "two-files"):
        dirs = []
        for side, path in sides.items():
            docs = _documents(path)
            target = root / arrangement / side
            target.mkdir(parents=True)
            if arrangement == "reversed":
                files = {name: docs[::-1]}
            else:
                files = {name: docs[:2],
                         name.replace("train", "dev"): docs[2:]}
            for file_name, part in files.items():
                (target / file_name).write_text("".join(part),
                                                encoding="utf-8")
            dirs.append(str(target))
        out[arrangement] = tuple(dirs)
    return out


def _pair_commands(gold: str, pred: str) -> list[list[str]]:
    pair = ["--gold", gold, "--pred", pred]
    return ([["score", *pair, "--match", match, "--singletons", singletons]
             for match in MATCH_MODES for singletons in SINGLETON_POLICIES]
            + [["errors", *pair, "--mode", mode, "--definition", definition]
               for mode in MATCH_MODES
               for definition in UNRESOLVED_DEFINITIONS])


def _gold_commands(gold: str, pred: str) -> list[list[str]]:
    return [["stats", gold], ["analyze", gold],
            ["analyze", gold, "--head-rule", "syntactic"]]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("commands", [_pair_commands, _gold_commands],
                         ids=["score-errors", "stats-analyze"])
@pytest.mark.parametrize("arrangement", ["reversed", "two-files"])
def test_reports_do_not_depend_on_document_order_or_file_split(
        arrangements, capsys, commands, arrangement, fmt):
    # Per-entity detail lists entities in document order, so it is left out.
    for generated, arranged in zip(commands(*arrangements["generated"]),
                                   commands(*arrangements[arrangement])):
        code, expected, err = run(capsys, *generated, "--format", fmt)
        assert (code, err) == (0, "")
        _, out, _ = run(capsys, *arranged, "--format", fmt)
        assert out == expected, generated


# ------------------------------------------------ parents set by the parse

@pytest.mark.parametrize("command", [
    ["analyze", "{gold}"],
    ["score", "--gold", "{gold}", "--pred", "{pred}", "--match", "head"],
    ["errors", "--gold", "{gold}", "--pred", "{pred}"],
    ["export-features", "{gold}", "--word-order", "{order}", "--out",
     "{out}", "--target", "spans"],
], ids=["analyze", "score-head", "errors", "export-spans"])
def test_commands_that_read_heads_compute_no_parents_after_the_parse(
        arrangements, capsys, monkeypatch, tmp_path, command):
    # the generated corpus has mentions without a head attribute, so these
    # commands walk head chains
    gold, pred = arrangements["generated"]
    argv = [arg.format(gold=gold, pred=pred, out=tmp_path,
                       order=Path(gold).parent / "word_order.tsv")
            for arg in command]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    parse_stream = conllu._parse_stream
    parent_positions = corefkit.model.parent_positions
    parsing, computed = [], []

    def parse(*args):  # the parse runs while its generator does
        documents = parse_stream(*args)
        while True:
            parsing.append(True)
            try:
                document = next(documents, None)
            finally:
                parsing.pop()
            if document is None:
                return
            yield document

    def positions(tokens):
        if not parsing:
            raise AssertionError("parent positions computed after the parse")
        computed.append(tokens)
        return parent_positions(tokens)
    monkeypatch.setattr(conllu, "_parse_stream", parse)
    monkeypatch.setattr(conllu, "parent_positions", positions)
    monkeypatch.setattr(corefkit.model, "parent_positions", positions)
    assert run(capsys, *argv)[:2] == (0, expected)
    assert computed  # by the parser
