"""Command-line interface: one executable, one subcommand per pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 141 (128 + SIGPIPE)
when the reader of stdout closed it before the report was written. All
reports are deterministic: percentages with 2 decimals, scores with 6,
fixed ordering. Logs go to stderr only; the COREFUD_DATA environment
variable supplies the default corpus root. Every subcommand reads its
datasets through `corpora.DatasetFiles`. `validate`, `score`, `errors` and
`export-features` take each document as its parse ends and keep no
reference to it once they are done with it, so they hold one document per
side at a time: the one being parsed, or the one being used (`score` and
`errors` also hold the system documents that come before their gold turn).
`stats` and `analyze` parse one-file datasets, one at a time or as `--jobs`
tasks.

Start-up is most of a run on small inputs, so at import this module loads
only `model`, whose constants name the choices of every option. Every other
corefkit module, `json`, `fractions` and the process pool are imported by
the code that uses them, and each process compiles only what its
subcommand runs: `taxonomy` reads no corpus, `validate` computes no
statistic, and the stats and analyze code (pooling, tables, the two
commands' bodies) is in `stats`, which only those two subcommands import;
`STATISTICS` reaches it by name at call time. No corefkit class comes from
the data-class decorator (the rule is in `model`), so no run loads
`inspect`, `ast` and `dis`; with the generated class code gone, each
corefkit module body runs in 0.3-1.2 ms where it took 1-4 ms. `logging`
(about 6 ms with what it loads) is loaded only when a run emits its first
record, a warning of the parser or the taxonomy: they log through
`model.warn`, and `main` sets the hook that configures logging on that
first record. `export-features` writes its count lines to stderr itself,
so a run that warns of nothing loads no `logging`.

`main` runs with the cyclic garbage collector off and restores the state it
found: a parsed corpus holds no reference cycle, and a test pins the cyclic
garbage of a run to a constant. Forked `--jobs` workers inherit the off
state; library calls leave the collector alone. With no collection, a
document stream that a traceback cycle kept alive would keep its file
open, so each command closes the streams it opens however it ends.

A process's entry (`corefkit.__main__.entry`, which `python -m corefkit`
and the `corefkit` script run) calls `gc.freeze()` once `main` has
returned, so the interpreter's collections at shutdown skip every object
the run leaves, 6-10 ms of a process that would only re-walk the loaded
modules. That is safe because nothing is left to flush through a cycle:
every file a command writes is closed before `main` returns, and atexit
handlers, the flush of the standard streams and reference-count frees
still run. `main` itself never freezes, so tests and library callers get
their collector back as they gave it.
"""
from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from . import model
from .model import (DEFAULT_GENRE_PATTERN, HEAD_RULES, MATCH_MODES,
                    SINGLETON_POLICIES, SPLITS, UNRESOLVED_DEFINITIONS,
                    DataError)

if TYPE_CHECKING:
    from .corpora import DatasetFiles
    from .model import Corpus
    from .reports import DatasetReport
    from .stats import StatOptions, Table


class CliError(DataError):
    """Data-level failure found by the command line itself."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not (text.isdigit() and text.isascii()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _genre_pattern(text: str) -> str:
    try:
        groups = re.compile(text).groups
    except re.error as exc:
        raise argparse.ArgumentTypeError(
            f"invalid regex {text!r}: {exc}") from None
    if groups == 0:
        raise argparse.ArgumentTypeError(
            f"regex {text!r} has no group to extract the genre")
    return text


def _existing(path: str) -> Path:
    resolved = Path(path)
    if not resolved.exists():
        raise CliError(f"input path {resolved} does not exist")
    return resolved


def _no_files(root: Path, split: str | None) -> CliError:
    of_split = f" of split {split!r}" if split else ""
    return CliError(f"no .conllu files{of_split} under {root}")


def _datasets(args) -> list[DatasetFiles]:
    from .corpora import discover_datasets
    given = args.input or os.environ.get("COREFUD_DATA")
    if not given:
        raise CliError("no input given and COREFUD_DATA is not set")
    root = _existing(given)
    datasets = discover_datasets(root, args.split)
    if not datasets:
        raise _no_files(root, args.split)
    return datasets


def _emit(args, name: str, text: str, header: bool = False) -> None:
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(f"## {name}\n{text}" if header else text)


def _json(payload) -> str:
    import json
    from fractions import Fraction

    def exact(value):  # json's hook: a Fraction becomes its nearest float
        if isinstance(value, Fraction):
            return float(value)
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return json.dumps(payload, indent=2, ensure_ascii=False,
                      default=exact) + "\n"


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    for dataset in _datasets(args):
        for one_file in dataset.per_file():
            n_documents = n_sentences = n_mentions = 0
            for document in one_file.documents():
                n_documents += 1
                n_sentences += len(document.sentences)
                n_mentions += sum(len(e.mentions) for e in document.entities)
                del document  # freed before the next one is parsed
            print(f"ok\t{one_file.files[0]}\tdocuments={n_documents}"
                  f"\tsentences={n_sentences}\tmentions={n_mentions}")
    return 0


# ------------------------------------------------------- stats and analyze

class Statistic(NamedTuple):
    """One `analyze --stat` choice. `compute` gives the partial result of
    one parsed file; the partials of a group pool with +. `table` turns a
    pooled result and its group name into what the reports render."""

    compute: Callable[[Corpus, StatOptions], Any]
    table: Callable[[Any, str], Table | DatasetReport]
    needs_vectors: bool = False


def _late(name: str) -> Callable:
    """The function `name` of the `stats` module, looked up when called, so
    that the module loads only when `stats` or `analyze` runs."""
    def call(*args):
        from . import stats
        return getattr(stats, name)(*args)
    return call


# The one registry of statistics: the parser reads its names, and `stats`
# computes and renders each entry through the functions named here.
STATISTICS: dict[str, Statistic] = {
    "head-position": Statistic(_late("head_position"), _late("labelled")),
    "mention-types": Statistic(_late("mention_types"), _late("labelled")),
    "anaphor-antecedent": Statistic(_late("anaphor_antecedent"),
                                    _late("ranking_table")),
    "first-mention": Statistic(_late("first_mention"), _late("labelled")),
    "entity-size": Statistic(_late("entity_size"), _late("labelled")),
    "competing": Statistic(_late("competing"), _late("competing_table")),
    "genre": Statistic(_late("genre"), _late("genre_table")),
    "semantic-distance": Statistic(_late("semantic_distance"),
                                   _late("distance_table"),
                                   needs_vectors=True),
}


# ------------------------------------------------------------------- score

def _per_dataset(args, consume: Callable[[str, Iterator], Any]) -> list:
    """consume(dataset, its (gold, system) document pairs) for each gold
    dataset of corpora.pair_datasets, in order. The pairs are parsed as
    consume takes them, and the files they are read from are closed however
    consume ends."""
    from contextlib import closing

    from . import metrics
    from .corpora import pair_datasets
    gold, pred = _existing(args.gold), _existing(args.pred)
    paired = pair_datasets(gold, pred, args.split)
    if not paired:
        raise _no_files(gold, args.split)
    results = []
    for name, gold_files, pred_files in paired:
        with closing(gold_files.documents()) as gold_documents, \
                closing(pred_files.documents()) as pred_documents:
            results.append(consume(name, metrics.document_pairs(
                gold_documents, pred_documents, name)))
    return results


_METRICS = ("muc", "b_cubed", "ceafe")
_SCORE_COLUMNS = ("dataset", "muc_p", "muc_r", "muc_f1", "b3_p", "b3_r",
                  "b3_f1", "ceafe_p", "ceafe_r", "ceafe_f1", "conll_f1")


def cmd_score(args) -> int:
    from . import metrics
    from .reports import fixed, tsv
    # A dataset without documents has no score: n/a, and no part in macro.
    rows = _per_dataset(args, lambda name, pairs: (name, metrics.score_pairs(
        pairs, args.match, args.singletons)))
    scored = [r.conll_f1 for _, r in rows if r is not None]
    macro = metrics.macro_average(scored) if scored else None

    def metric(r: metrics.ScoreReport | None, name: str) -> dict:
        return (dict.fromkeys(("precision", "recall", "f1"))
                if r is None else getattr(r, name)._asdict())
    datasets = [{"dataset": name, **{m: metric(r, m) for m in _METRICS},
                 "conll_f1": None if r is None else r.conll_f1}
                for name, r in rows]
    if args.format == "json":
        _emit(args, "scores.json", _json({
            "datasets": datasets, "macro_conll_f1": macro,
            "match": args.match, "singletons": args.singletons}))
        return 0
    lines = []
    for d in datasets:
        values = [v for m in _METRICS for v in d[m].values()] + [d["conll_f1"]]
        lines.append([d["dataset"]] + [fixed(v, 6) for v in values])
    lines.append(["macro"] + [""] * 9 + [fixed(macro, 6)])
    _emit(args, "scores.tsv", tsv(_SCORE_COLUMNS, lines))
    return 0


# ------------------------------------------------------------------ errors

_ERROR_COLUMNS = ("unresolved_pct", "two_mention_pct", "undetected_pct",
                  "short_pct", "premodified_pct", "mean_undetected_length")


def cmd_errors(args) -> int:
    from . import errors
    from .reports import fixed, ratio, tsv
    want_detail = args.detail or bool(args.out)
    details: list[dict] = []
    reports = _per_dataset(args, lambda name, pairs: errors.analyze_errors(
        pairs, args.mode, args.definition, dataset=name,
        details=details if want_detail else None))

    if args.format == "json":
        payload = [dict(dataset=r.dataset,
                        **{c: getattr(r, c) for c in _ERROR_COLUMNS},
                        undetected_types={t.value: n for t, n in sorted(
                            r.undetected_types.items(),
                            key=lambda kv: kv[0].value)},
                        distance_buckets={b: r.distance_buckets[b]
                                          for b in errors.DISTANCE_BUCKETS})
                   for r in reports]
        _emit(args, "errors.json", _json(payload))
    else:
        lines = [[r.dataset] + [fixed(getattr(r, c)) for c in _ERROR_COLUMNS]
                 for r in reports]
        # each column's unweighted mean over the datasets that have a value
        present = [[v for r in reports if (v := getattr(r, c)) is not None]
                   for c in _ERROR_COLUMNS]
        lines.append(["average"] + [fixed(ratio(sum(values), len(values)))
                                    for values in present])
        _emit(args, "errors.tsv", tsv(("dataset",) + _ERROR_COLUMNS, lines))
    if want_detail:
        _emit(args, "errors_detail.json", _json(details))
    return 0


# -------------------------------------------------------- export-features

def cmd_export_features(args) -> int:
    from contextlib import closing

    from . import features
    datasets = _datasets(args)
    table = features.load_word_order_table(args.word_order)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = "all_spans" if args.target == "spans" else "gold"
    written: list[Path] = []
    try:
        for dataset in datasets:
            records_path = out_dir / f"{dataset.name}.features.jsonl"
            vocab_path = out_dir / f"{dataset.name}.vocab.tsv"
            written += (records_path, vocab_path)
            with open(records_path, "w", encoding="utf-8") as records_out, \
                    open(vocab_path, "w", encoding="utf-8") as vocab_out, \
                    closing(dataset.documents()) as documents:
                count = features.export_features(
                    documents, table, records_out, vocab_out, target=target,
                    max_width=args.max_width, head_rule=args.head_rule)
            print(f"INFO corefkit: {dataset.name}: {count} records",
                  file=sys.stderr)
    except BaseException:
        # a failed run leaves no file behind, not even of the datasets
        # it finished, since those would look like a complete export
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return 0


# ---------------------------------------------------------------- taxonomy

def cmd_taxonomy(args) -> int:
    from . import taxonomy
    from .reports import tsv
    _emit(args, "taxonomy.tsv", tsv(("category", "name", "relations"),
                                    taxonomy.category_table()))
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corefkit",
                     description="Corpus analysis, scoring, error analysis "
                                 "and feature export for CorefUD data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def inputs(p):
        p.add_argument("input", nargs="?",
                       help="corpus file or directory "
                            "(default: $COREFUD_DATA)")
        p.add_argument("--split", choices=SPLITS,
                       help="restrict to canonical release files "
                            "of one split")

    def report(p):
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    def gold_and_system(p):
        p.add_argument("--gold", required=True)
        p.add_argument("--pred", required=True)
        p.add_argument("--split", choices=SPLITS)

    p = sub.add_parser("validate", help="parse inputs and check invariants")
    inputs(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="corpus size statistics per dataset")
    inputs(p)
    report(p)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=_late("cmd_stats"))

    p = sub.add_parser("analyze", help="gold-annotation statistics")
    inputs(p)
    report(p)
    p.add_argument("--stat", action="append", choices=list(STATISTICS),
                   help="statistic to compute (repeatable; default: all "
                        "except " + ", ".join(
                            name for name, s in STATISTICS.items()
                            if s.needs_vectors) + ")")
    p.add_argument("--head-rule", choices=HEAD_RULES, default="annotated")
    p.add_argument("--by-language", action="store_true",
                   help="pool datasets of the same language")
    p.add_argument("--genre-pattern", type=_genre_pattern,
                   default=DEFAULT_GENRE_PATTERN,
                   help="regex with one group extracting the genre "
                        "from doc ids")
    p.add_argument("--vectors", help="mention-vector TSV "
                                     "(for semantic-distance)")
    p.add_argument("--figure-data", action="store_true",
                   help="also emit plot-ready long-format TSV")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=_late("cmd_analyze"))

    p = sub.add_parser("score", help="MUC/B3/CEAFe/CoNLL F1 of system "
                                     "output against gold")
    gold_and_system(p)
    report(p)
    p.add_argument("--match", choices=MATCH_MODES, default="exact")
    p.add_argument("--singletons", choices=SINGLETON_POLICIES,
                   default="exclude")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("errors", help="error analysis of unresolved gold "
                                      "entities")
    gold_and_system(p)
    report(p)
    p.add_argument("--mode", choices=MATCH_MODES, default="exact")
    p.add_argument("--definition", choices=UNRESOLVED_DEFINITIONS,
                   default="links")
    p.add_argument("--detail", action="store_true",
                   help="also dump per-entity JSON diagnostics")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("export-features",
                       help="emit span/document feature records")
    inputs(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--word-order", required=True,
                   help="two-column TSV: language, dominant word order")
    p.add_argument("--target", choices=("gold", "spans"), default="gold")
    p.add_argument("--max-width", type=_positive_int, default=10,
                   help="maximum candidate span width (spans target)")
    p.add_argument("--head-rule", choices=("syntactic", "annotated"),
                   default="syntactic")
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("taxonomy",
                       help="dump the relation-to-category mapping")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=cmd_taxonomy)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; a usage error or
    --help raises SystemExit. The cyclic collector is off for the run (see
    above), and logging is configured on the run's first record; both come
    back as they were, however the run ends."""
    enabled = gc.isenabled()
    hook = model.before_first_record
    gc.disable()
    model.before_first_record = _configure_logging
    try:
        return _run(argv)
    finally:
        model.before_first_record = hook
        if enabled:
            gc.enable()


def _configure_logging() -> None:
    import logging
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "export-features" and (args.target, args.head_rule) \
            == ("spans", "annotated"):
        parser.error("export-features: --head-rule annotated needs --target "
                     "gold; candidate spans carry no annotated head")
    # --vectors is given exactly when a statistic asked for reads it
    if args.command == "analyze" and bool(args.vectors) != any(
            STATISTICS[stat].needs_vectors for stat in args.stat or ()):
        parser.error("analyze: --vectors is only read by semantic-distance"
                     if args.vectors else
                     "analyze: --stat semantic-distance needs --vectors")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # Nobody reads stdout, so nothing is reported; what is still
        # buffered goes to devnull, or the interpreter's last flush fails.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DataError, OSError) as exc:
        print(f"corefkit: error: {exc}", file=sys.stderr)
        return 2
