"""Per-sentence parent positions and head-chain depths, checked against a
plain walk to the root on arbitrary forests: heads that name no node, empty
nodes attached through DEPS, spans across sentences. The parser rejects a
head cycle; a hand-built one raises ValueError. Heads are resolved lazily,
from the mention alone, and kept on it, so a run resolves each mention's
head at most once."""
from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import model, parse_file
from corefkit.analysis import antecedent_category_counts, competing_antecedents
from corefkit.cli import STATISTICS, StatOptions, main
from corefkit.model import (HEAD_RULES, ROOT, UNKNOWN, Document, Mention,
                            Sentence, Token, head_of, mention_head)
from corefkit.taxonomy import MentionType
from support import DATA, make_corpus, tok

FIXTURES = sorted(DATA.rglob("*.conllu"))


def _reference_depth(token: Token, sentence: Sentence) -> int:
    """Hops to the root, one walk per call; cycles and unknown parents
    count as the hops taken plus the number of nodes."""
    by_index = {t.index: t for t in sentence.tokens}
    depth = 0
    seen = {id(token)}
    current = token
    while True:
        parent_id = current.parent_id()
        if parent_id is None:
            return depth
        parent = by_index.get(parent_id)
        if parent is None or id(parent) in seen:
            return depth + len(sentence.tokens)
        seen.add(id(parent))
        current = parent
        depth += 1


def _reference_head(span: tuple[Token, ...], document: Document) -> Token:
    """Parent-outside-span rule with one root walk per candidate."""
    if len(span) == 1:
        return span[0]
    in_span = {id(t) for t in span}
    candidates = []
    for token in span:
        sentence = document.sentences[token.sent_index]
        by_index = {t.index: t for t in sentence.tokens}
        parent_id = token.parent_id()
        parent = by_index.get(parent_id) if parent_id is not None else None
        if parent is None or id(parent) not in in_span:
            candidates.append((_reference_depth(token, sentence),
                               (token.sent_index, token.order), token))
    if not candidates:
        return span[0]
    return min(candidates, key=lambda c: (c[0], c[1]))[2]


def _node(index: str, head: int | None, deps: str, is_empty: bool) -> Token:
    return Token(index=index, form=index, lemma=index, upos="X", xpos="_",
                 feats_raw="_", head=head, deprel="dep", deps_raw=deps,
                 misc_raw="_", is_empty=is_empty)


@st.composite
def sentences(draw) -> list[Token]:
    """Surface nodes 1..n with an empty node after some of them, forming a
    forest. A surface head is a token earlier in a random order, the root,
    '_' or an id past the end; an empty node's DEPS names a surface id, the
    root, an unknown id, nothing, or an earlier empty node."""
    n = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(1, n + 1)))
    heads = {i: draw(st.one_of(st.none(),
                               st.sampled_from([0, *rank[:k], n + 1, n + 2])))
             for k, i in enumerate(rank)}
    tokens: list[Token] = []
    for i in range(1, n + 1):
        tokens.append(_node(str(i), heads[i], "_", False))
        if draw(st.booleans()):
            tokens.append(_node(f"{i}.1", None, "", True))
    ids = [str(i) for i in range(1, n + 1)]
    for token in tokens:
        if token.is_empty:
            parent = draw(st.sampled_from(ids + ["0", "9.9", "_"]))
            token.deps_raw = "_" if parent == "_" else f"{parent}:dep"
            ids.append(token.index)
    return tokens


@st.composite
def documents(draw) -> Document:
    document = Document(doc_id="d", sentences=[
        Sentence(tokens=draw(sentences()))
        for _ in range(draw(st.integers(1, 3)))])
    for sent_index, sentence in enumerate(document.sentences):
        for order, token in enumerate(sentence.tokens):
            token.sent_index = sent_index
            token.order = order
    return document


@settings(max_examples=300)
@given(documents(), st.randoms(use_true_random=False))
def test_parents_and_depths_match_a_root_walk(document, random):
    for sentence in document.sentences:
        position = {t.index: i for i, t in enumerate(sentence.tokens)}
        expected = [ROOT if t.parent_id() is None
                    else position.get(t.parent_id(), UNKNOWN)
                    for t in sentence.tokens]
        assert sentence.parents() == expected
        # depths are filled on demand, so ask in any order
        order = list(range(len(sentence.tokens)))
        random.shuffle(order)
        for i in order:
            assert sentence.depth(i) == _reference_depth(sentence.tokens[i],
                                                         sentence)


@settings(max_examples=300)
@given(documents(), st.data())
def test_syntactic_head_matches_a_root_walk(document, data):
    flat = [t for s in document.sentences for t in s.tokens]
    first = len(document.sentences[0].tokens)
    if first < len(flat) and data.draw(st.booleans()):
        # a span that runs from the first sentence into a later one
        start = data.draw(st.integers(0, first - 1))
        end = data.draw(st.integers(first, len(flat) - 1))
    else:
        start = data.draw(st.integers(0, len(flat) - 1))
        end = data.draw(st.integers(start, len(flat) - 1))
    span = tuple(flat[start:end + 1])
    mention = Mention(entity_id="e", span=span, attributes={"head": "1"})
    assert (mention_head(mention, document, prefer_annotated=False)
            is _reference_head(span, document))


@pytest.mark.parametrize("annotated, forms", [("\u00b2", "ab"),
                                              ("\u0663", "abc")],
                         ids=["superscript-two", "arabic-indic-three"])
def test_an_annotated_head_of_non_ascii_digits_falls_back(annotated, forms):
    # "a" governs every other token, so it is the syntactic head
    n = len(forms)
    document = make_corpus([
        tok(1, "a", "NOUN", 0, "root", misc=f"Entity=(e1-x-{annotated}-"),
        *(tok(i, forms[i - 1], "ADJ", 1, "amod") for i in range(2, n)),
        tok(n, forms[-1], "ADJ", 1, "amod", misc="Entity=e1)"),
    ]).documents[0]
    (mention,) = document.entities[0].mentions
    assert mention.attributes["head"] == annotated
    assert mention.head.form == "a"


def test_a_hand_built_cycle_raises_value_error():
    # the parser rejects this sentence: 2 and 3 govern each other
    tokens = [_node("1", 0, "_", False), _node("2", 3, "_", False),
              _node("3", 2, "_", False)]
    for order, token in enumerate(tokens):
        token.sent_index, token.order = 0, order
    document = Document(doc_id="d", sentences=[Sentence(tokens=tokens)])
    with pytest.raises(ValueError, match="node 2 leads into a head cycle"):
        document.sentences[0].depth(1)
    mention = Mention(entity_id="e", span=tuple(tokens))
    with pytest.raises(ValueError, match="head cycle"):
        mention_head(mention, document, prefer_annotated=False)


def test_parents_are_looked_up_in_their_own_sentence():
    # "c" attaches at position 2 of its sentence; position 2 of the first
    # sentence is in the span, but c's parent is not
    document = make_corpus([
        tok(1, "x", "VERB", 0, "root"),
        tok(2, "y", "NOUN", 1, "obj"),
        tok(3, "a", "NOUN", 2, "nmod", misc="Entity=(e1-x-"),
    ], [
        tok(1, "c", "NOUN", 3, "obj", misc="Entity=e1)"),
        tok(2, "d", "NOUN", 3, "obj"),
        tok(3, "v", "VERB", 0, "root"),
    ]).documents[0]
    (mention,) = document.entities[0].mentions
    head = mention_head(mention, document, prefer_annotated=False)
    assert head.form == "c"
    assert head is _reference_head(mention.span, document)


def _no_head(*args, **kwargs):
    raise AssertionError("a head was resolved")


def test_parsing_resolves_no_head(monkeypatch):
    monkeypatch.setattr(model, "mention_head", _no_head)
    for path in FIXTURES:
        assert parse_file(path).documents


def _count_heads(monkeypatch) -> list[Mention]:
    """The mentions that model.mention_head is called on, from now on."""
    calls = []

    def counted(mention, document, prefer_annotated=True):
        calls.append(mention)
        return mention_head(mention, document, prefer_annotated)
    monkeypatch.setattr(model, "mention_head", counted)
    return calls


def test_a_mention_head_is_resolved_on_first_read_and_kept(monkeypatch):
    calls = _count_heads(monkeypatch)
    for path in FIXTURES:
        for document in parse_file(path).documents:
            for entity in document.entities:
                for mention in entity.mentions:
                    # the sentence list, not the document: no cycle
                    assert mention.sentences is document.sentences
                    assert not calls
                    head = mention.head
                    assert calls == [mention]
                    assert head is mention_head(mention, document)
                    assert mention.head is head
                    assert calls == [mention]
                    calls.clear()


@pytest.mark.parametrize("rule", HEAD_RULES)
def test_head_of_reads_the_mention_alone(rule):
    for path in FIXTURES:
        for document in parse_file(path).documents:
            for mention in document.mentions():
                assert head_of(mention, rule) is mention_head(
                    mention, document, rule == "annotated")


def test_a_pass_over_mentions_resolves_each_head_once(monkeypatch):
    calls = _count_heads(monkeypatch)
    for path in FIXTURES:
        corpus = parse_file(path)
        for count in (
                lambda: antecedent_category_counts(corpus, "syntactic"),
                lambda: competing_antecedents(
                    corpus, MentionType.OVERT_PRONOUN, "syntactic"),
                lambda: competing_antecedents(
                    corpus, MentionType.ZERO_PRONOUN, "syntactic")):
            calls.clear()
            count()
            assert max(Counter(map(id, calls)).values(), default=1) == 1


def test_a_syntactic_analysis_resolves_each_head_once(monkeypatch, capsys):
    calls = _count_heads(monkeypatch)  # holds the mentions, so ids stay
    assert main(["analyze", str(DATA), "--head-rule", "syntactic"]) == 0
    assert calls
    assert max(Counter(map(id, calls)).values()) == 1


def test_no_statistic_resolves_more_heads_than_it_reads(monkeypatch):
    # one head per mention a statistic reads: multi-token mentions for
    # head-position, first mentions of non-singleton entities for
    # first-mention, every mention once per pronoun kind for competing
    entities = [e for path in FIXTURES
                for d in parse_file(path).documents for e in d.entities]
    mentions = [m for e in entities for m in e.mentions]
    reads = {"head-position": sum(len(m.span) > 1 for m in mentions),
             "mention-types": len(mentions),
             "anaphor-antecedent": len(mentions),
             "first-mention": sum(not e.is_singleton() for e in entities),
             "competing": 2 * len(mentions)}
    assert all(reads.values())
    calls = _count_heads(monkeypatch)
    for name, statistic in STATISTICS.items():
        if statistic.needs_vectors:
            continue
        calls.clear()
        for path in FIXTURES:
            statistic.compute(parse_file(path), StatOptions("syntactic"))
        assert len(calls) <= reads.get(name, 0), name
