"""Hypothesis strategies over the benchmark's corpus generator, which knows
the mention spans it meant its Entity brackets to encode: a drawn shape and
seed give a small gold/system corpus on disk, and the gold's intended spans
are the oracle of the decoding tests. bench/corpus.py is only read."""
from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from hypothesis import strategies as st

from support import bench_corpus

_SHARES = st.floats(0.0, 1.0)


@st.composite
def shapes(draw, documents: tuple[int, int] = (1, 2)):
    """A bench/corpus.Shape of one dataset, one file and a number of
    documents in the inclusive range given, each of at most six short
    sentences, with every corner case of the format (nested, crossing and
    discontinuous mentions, empty nodes, multiword tokens, singletons,
    annotated heads) drawn at some rate."""
    corpus = bench_corpus()
    fewest = draw(st.integers(1, 4))
    shortest = draw(st.integers(2, 8))  # a multiword token needs two nodes
    return corpus.Shape(
        datasets=(draw(st.sampled_from(sorted(corpus.WORD_ORDER)))
                  + "_synth",),
        files_per_dataset=1, docs_per_file=draw(st.integers(*documents)),
        sentences=(fewest, fewest + draw(st.integers(0, 2))),
        tokens=(shortest, shortest + draw(st.integers(0, 8))),
        chain=draw(_SHARES),
        mentions_per_sentence=draw(st.floats(0.0, 6.0)),
        max_mention_width=draw(st.integers(1, 6)),
        nested=draw(st.floats(0.0, 0.5)), crossing=draw(st.floats(0.0, 0.3)),
        discontinuous=draw(st.floats(0.0, 0.5)),
        empty_nodes=draw(st.floats(0.0, 1.5)), mwt=draw(st.floats(0.0, 1.0)),
        singletons=draw(_SHARES), join=draw(_SHARES),
        annotated_heads=draw(_SHARES), export_width=2)


seeds = st.integers(0, 2**32 - 1)


@contextmanager
def generated(shape, seed: int) -> Iterator:
    """The Manifest of the corpus that shape and seed give, written to a
    temporary directory that is removed when the block ends. Its gold files
    are the keys of .files, the system files lie under .pred_root."""
    with tempfile.TemporaryDirectory() as root:
        yield bench_corpus().generate(shape, seed, Path(root))


def intended_spans(gold_path: str | Path
                   ) -> dict[str, list[tuple[str, int, str]]]:
    """Per document id, the sorted (entity id, sentence index, comma-joined
    node ids) that the generator meant the gold file to encode."""
    return bench_corpus().read_spans(Path(gold_path))
