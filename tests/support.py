"""Shared helpers of the tests: the fixture directory, a fresh
interpreter's environment and builders of CoNLL-U input. A module of its
own, since pytest keeps one module named conftest at a time and
bench/tests has a conftest.py too."""
from __future__ import annotations

import dataclasses
import functools
import importlib.util
import os
import sys
import weakref
from pathlib import Path

import corefkit
from corefkit import conllu, parse_conllu
from corefkit.model import Document, Sentence, parse_kv_items

DATA = Path(__file__).parent / "data"

# The environment of a new interpreter that imports this corefkit. argparse
# wraps help text at $COLUMNS, else at the width of a terminal.
FRESH_ENV = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(corefkit.__file__).resolve().parent.parent),
                  os.environ.get("PYTHONPATH")])))


def tok(index, form, upos="NOUN", head=0, deprel="root", feats="_",
        misc="_", deps="_", lemma=None, xpos="_"):
    """One CoNLL-U token line."""
    return "\t".join((str(index), form, lemma if lemma is not None else form,
                      upos, xpos, feats, str(head), deprel, deps, misc))


def node(sentence, index):
    """The node of a sentence with the given CoNLL-U id."""
    (found,) = [t for t in sentence.tokens if t.index == index]
    return found


def misc_value(token, name):
    """The value of the first MISC item called name, None for an item
    without '=' or when there is none: the reference for the parser's own
    Entity lookup."""
    for key, value in parse_kv_items(token.misc_raw):
        if key == name:
            return value
    return None


def make_corpus(*sentence_blocks, dataset="toy", language="xx",
                doc_id="toy-doc1"):
    """Build a one-document corpus out of token-line blocks."""
    lines = [f"# newdoc id = {doc_id}",
             "# global.Entity = eid-etype-head-other"]
    for i, block in enumerate(sentence_blocks, start=1):
        lines.append(f"# sent_id = {doc_id}-s{i}")
        lines.extend(block)
        lines.append("")
    return parse_conllu("\n".join(lines) + "\n", dataset=dataset,
                        language=language)


def corpus_signature(corpus):
    """Structural digest used by round-trip equality tests."""
    return tuple(
        (doc.doc_id,
         tuple((tuple(s.comments),
                tuple(t.line() for t in s.tokens),
                tuple(s.mwt_ranges)) for s in doc.sentences),
         tuple((e.entity_id,
                tuple((tuple(t.index for t in m.span), m.sent_index,
                       m.n_parts, tuple(sorted(m.attributes.items())))
                      for m in e.mentions))
               for e in doc.entities))
        for doc in corpus.documents)


@functools.cache
def bench_corpus():
    """The benchmark's corpus generator, bench/corpus.py, loaded as a
    module of its own (only read here, never changed)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses look their module up
    try:
        spec.loader.exec_module(corpus)
    finally:
        del sys.modules[spec.name]
    return corpus


def generated_pair(root: Path) -> Path:
    """A four-document gold/system pair of one dataset, from the benchmark's
    corpus generator."""
    corpus = bench_corpus()
    shape = dataclasses.replace(corpus.WORKLOADS["release"],
                                datasets=("en_synth",), files_per_dataset=1,
                                docs_per_file=4)
    corpus.generate(shape, 5, root)
    return root


def documents_text(copies: range) -> str:
    """basic.conllu once per number in copies, each copy's doc ids prefixed
    with its number."""
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    return "".join(text.replace("# newdoc id = ", f"# newdoc id = {k}-")
                   for k in copies)


class WeakDocument(Document):  # the model classes take no weak reference
    __slots__ = ("__weakref__",)


class WeakSentence(Sentence):
    __slots__ = ("__weakref__",)


def watch_parses(monkeypatch) -> tuple[list[str], dict[str, int]]:
    """From now on conllu parses each document as a WeakDocument of
    WeakSentences. Returns the name of the directory of the file of each
    document parsed, in order, and per such name the most earlier documents
    of that directory of which anything, the document or one of its
    sentences, was alive when one of them reached resolve_entities, the
    last step of its parse."""
    resolve = conllu.resolve_entities
    parsed: list[tuple[str, list[weakref.ref]]] = []
    sides: list[str] = []
    most_alive: dict[str, int] = {}

    def watched_resolve(document, filename="", layout=None):
        side = Path(filename).parent.name
        alive = sum(1 for s, refs in parsed
                    if s == side and any(ref() is not None for ref in refs))
        most_alive[side] = max(most_alive.get(side, 0), alive)
        parsed.append((side, [weakref.ref(document)] + [
            weakref.ref(sentence) for sentence in document.sentences]))
        sides.append(side)
        return resolve(document, filename, layout)
    monkeypatch.setattr(conllu, "Document", WeakDocument)
    monkeypatch.setattr(conllu, "Sentence", WeakSentence)
    monkeypatch.setattr(conllu, "resolve_entities", watched_resolve)
    return sides, most_alive
