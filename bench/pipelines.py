"""The corefkit pipelines as users run them, with checks on their outputs.

Each pipeline is one ``corefkit <subcommand>`` process with ``--jobs 1``
semantics (the default), started from the single benchmark process. A check
returns an error message, or None when the output is correct.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import signal
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from corpus import Manifest, read_spans

PROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Pipeline:
    name: str
    args: Callable[[Manifest, Path], list[str]]   # after "corefkit"
    check: Callable[[Manifest, Path], str | None] | None


@dataclass
class Outcome:
    exit_code: int
    wall_s: float
    cpu_s: float        # user + system time of the process
    peak_rss_mb: float


def _score_args(match: str, singletons: str):
    def args(m: Manifest, out: Path) -> list[str]:
        return ["score", "--gold", str(m.gold_root), "--pred",
                str(m.pred_root), "--match", match, "--singletons",
                singletons]
    return args


def _export_args(target: str):
    def args(m: Manifest, out: Path) -> list[str]:
        width = ["--max-width", str(m.export_width)] if target == "spans" \
            else []
        return ["export-features", str(m.gold_root), "--word-order",
                str(m.word_order), "--out", str(out), "--target", target,
                *width]
    return args


# ----------------------------------------------------------------- checks

def _stdout(out: Path) -> str:
    return (out / "stdout").read_text(encoding="utf-8")


def _check_validate(m: Manifest, out: Path) -> str | None:
    want = {f"ok\t{path}\tdocuments={c.documents}\tsentences={c.sentences}"
            f"\tmentions={c.mentions}" for path, c in m.files.items()}
    got = set(_stdout(out).splitlines())
    if got != want:
        return f"validate: {len(want - got)} of {len(want)} file lines wrong"
    return None


def _tsv_rows(text: str) -> dict[str, dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split("\t")
    return {cells[0]: dict(zip(header, cells))
            for cells in (line.split("\t") for line in lines[1:])}


def _check_stats(m: Manifest, out: Path) -> str | None:
    rows = _tsv_rows(_stdout(out))
    for dataset in m.datasets:
        row = rows.get(dataset)
        per_sentence = m.total("tokens", dataset) / m.total("sentences",
                                                            dataset)
        want = {"documents": str(m.total("documents", dataset)),
                "entities": str(m.total("entities", dataset)),
                "mentions": str(m.total("mentions", dataset)),
                "tokens_per_sentence": f"{per_sentence:.2f}"}
        if row is None or any(row.get(k) != v for k, v in want.items()):
            return f"stats: counts of {dataset} differ from the corpus"
    return None


ANALYZE_STATS = ("head-position", "mention-types", "anaphor-antecedent",
                 "first-mention", "entity-size", "competing", "genre")


def _sections(text: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("## "):
            current = sections.setdefault(line[3:], [])
        elif current is not None:
            current.append(line)
    return {k: "\n".join(v) for k, v in sections.items()}


def _check_analyze(m: Manifest, out: Path) -> str | None:
    sections = _sections(_stdout(out))
    for dataset in m.datasets:
        for stat in ANALYZE_STATS:
            if f"{dataset}.{stat}.tsv" not in sections:
                return f"analyze: no {stat} report for {dataset}"
        mentions = str(m.total("mentions", dataset))
        types = _tsv_rows(sections[f"{dataset}.mention-types.tsv"])
        if any(row["denominator"] != mentions for row in types.values()):
            return f"analyze: mention-types of {dataset} miss mentions"
        size = _tsv_rows(sections[f"{dataset}.entity-size.tsv"])
        row = size["mentions_per_entity"]
        if (row["numerator"], row["denominator"]) != (
                mentions, str(m.total("entities", dataset))):
            return f"analyze: entity-size of {dataset} miscounts"
    return None


_SCORE_COLUMNS = ("muc_p", "muc_r", "muc_f1", "b3_p", "b3_r", "b3_f1",
                  "ceafe_p", "ceafe_r", "ceafe_f1", "conll_f1")


def _score_rows(text: str) -> dict[str, dict[str, str]]:
    rows = _tsv_rows(text)
    rows.pop("macro", None)
    return rows


def _check_score(m: Manifest, out: Path) -> str | None:
    rows = _score_rows(_stdout(out))
    if set(rows) != set(m.datasets):
        return "score: datasets missing from the report"
    for dataset, row in rows.items():
        values = [float(row[c]) for c in _SCORE_COLUMNS]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"score: {dataset} has a score outside [0, 1]"
        if not 0.0 < float(row["conll_f1"]) < 1.0:
            return f"score: perturbed output of {dataset} scores " \
                   f"{row['conll_f1']}"
    return None


def _split_errors(text: str) -> tuple[dict[str, dict[str, str]], list]:
    table, _, detail = text.partition("\n[")
    return _tsv_rows(table), json.loads("[" + detail)


def _check_errors(m: Manifest, out: Path) -> str | None:
    rows, details = _split_errors(_stdout(out))
    if set(rows) != set(m.datasets) | {"average"}:
        return "errors: datasets missing from the report"
    for dataset in m.datasets:
        if not 0.0 < float(rows[dataset]["unresolved_pct"]) <= 100.0:
            return f"errors: unresolved_pct of {dataset} out of range"
    if not details or any(d["diagnosis"] not in ("undetected_mentions",
                                                 "missing_link")
                          for d in details):
        return "errors: detail records missing or malformed"
    return None


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _check_export(count_attr: str):
    def check(m: Manifest, out: Path) -> str | None:
        for dataset in m.datasets:
            records = out / f"{dataset}.features.jsonl"
            if not (out / f"{dataset}.vocab.tsv").exists() \
                    or not records.exists():
                return f"export: no output for {dataset}"
            got = _count_lines(records)
            want = m.total(count_attr, dataset)
            if got != want:
                return f"export: {dataset} has {got} records, want {want}"
        return None
    return check


PIPELINES = (
    Pipeline("validate",
             lambda m, out: ["validate", str(m.gold_root)], _check_validate),
    Pipeline("stats",
             lambda m, out: ["stats", str(m.gold_root)], _check_stats),
    Pipeline("analyze",
             lambda m, out: ["analyze", str(m.gold_root), "--head-rule",
                             "annotated"], _check_analyze),
    Pipeline("analyze_syntactic",
             lambda m, out: ["analyze", str(m.gold_root), "--head-rule",
                             "syntactic"], _check_analyze),
    Pipeline("score_exact", _score_args("exact", "exclude"), _check_score),
    Pipeline("score_head", _score_args("head", "include"), _check_score),
    Pipeline("errors",
             lambda m, out: ["errors", "--gold", str(m.gold_root), "--pred",
                             str(m.pred_root), "--detail"], _check_errors),
    Pipeline("export_gold", _export_args("gold"), _check_export("mentions")),
    Pipeline("export_spans", _export_args("spans"),
             _check_export("candidate_spans")),
)
TAXONOMY = Pipeline("taxonomy", lambda m, out: ["taxonomy"], None)


# -------------------------------------------------------------- processes

def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str], out: Path, env: dict[str, str]) -> Outcome:
    """Run ``corefkit <args>`` with stdout and stderr in files under out;
    times cover the whole process, interpreter start-up included."""
    out.mkdir(parents=True, exist_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out / "stdout"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out / "stderr"), flags, 0o644)]
    argv = [sys.executable, "-m", "corefkit", *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, os.kill,
                               (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return Outcome(os.waitstatus_to_exitcode(status), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def report_digests(out: Path) -> dict[str, str]:
    """sha256 of every report a pipeline wrote: stdout and output files."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
            if path.is_file() and path.name != "stderr"}


# ------------------------------------------------------ in-process checks

ROUNDTRIP_PASSES = 3


def roundtrip(manifest: Manifest) -> tuple[float, str | None]:
    """Library parse_file -> serialize -> byte comparison on every gold file,
    ROUNDTRIP_PASSES times over. Returns the CPU seconds it took and an
    error. Decoded spans are compared with the generator's intended spans
    outside the timing."""
    from corefkit import parse_file, serialize

    elapsed = 0.0
    # the same collector state for every sample, whatever ran before
    gc.collect()
    for path_str in list(manifest.files) * ROUNDTRIP_PASSES:
        path = Path(path_str)
        expected = path.read_bytes()
        start = time.process_time()
        corpus = parse_file(path)
        same = serialize(corpus).encode("utf-8") == expected
        elapsed += time.process_time() - start
        if not same:
            return elapsed, f"roundtrip: {path.name} does not serialize back"
        intended = read_spans(path)
        for document in corpus.documents:
            decoded = sorted(
                (e.entity_id, mention.sent_index,
                 ",".join(t.index for t in mention.span))
                for e in document.entities for mention in e.mentions)
            if decoded != intended.get(document.doc_id, []):
                return elapsed, (f"roundtrip: decoded spans of "
                                 f"{document.doc_id} differ from intended")
    return elapsed, None


def run_cli(args: list[str]) -> tuple[int, str]:
    from corefkit import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(args)
    return code, buffer.getvalue()


def self_checks(manifest: Manifest) -> list[str | None]:
    """Gold scored against itself is perfect, and leaves nothing
    unresolved. One result per check."""
    gold = str(manifest.gold_root)
    results: list[str | None] = []
    for match, singletons in (("exact", "exclude"), ("head", "include")):
        code, text = run_cli(["score", "--gold", gold, "--pred", gold,
                              "--match", match, "--singletons", singletons])
        values = [row[c] for row in _score_rows(text).values()
                  for c in _SCORE_COLUMNS] if code == 0 else []
        ok = values and all(v == "1.000000" for v in values)
        results.append(None if ok else
                       f"self-score {match}/{singletons} is not 1.000000")
    code, text = run_cli(["errors", "--gold", gold, "--pred", gold,
                          "--detail"])
    ok = code == 0
    if ok:
        rows, details = _split_errors(text)
        ok = (not details and
              all(row["unresolved_pct"] == "0.00" for row in rows.values()))
    results.append(None if ok else "self-errors report unresolved entities")
    return results
