"""Entity decoding: the spans the benchmark's generator meant to encode,
the order of entities and mentions, ties included, and a mention's
attributes, which are built from its opening bracket on first read."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

import corefkit
from corefkit import parse_conllu, parse_file, serialize
from corefkit.model import Mention
from strategies import generated, intended_spans, seeds, shapes
from support import tok

# -------------------------------------------- the generator as an oracle


def _position(token):
    return (token.sent_index, token.order)


def _key(mention):
    """The (first, last) position a mention is placed by."""
    return (_position(mention.span[0]), _position(mention.span[-1]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes(), seeds)
def test_decoded_spans_are_the_intended_ones_in_document_order(shape, seed):
    with generated(shape, seed) as manifest:
        gold = sorted(map(Path, manifest.files))
        for path in gold + sorted(manifest.pred_root.rglob("*.conllu")):
            corpus = parse_file(path)
            assert serialize(corpus) == path.read_text(encoding="utf-8"), path
            for document in corpus.documents:
                firsts = [(*_key(e.mentions[0]), e.entity_id)
                          for e in document.entities]
                # strictly rising: no entity id twice, none out of order
                assert firsts == sorted(set(firsts)), path
                for entity in document.entities:
                    keys = [_key(m) for m in entity.mentions]
                    assert keys == sorted(keys), (path, entity.entity_id)
            if path in gold:
                intended = intended_spans(path)
                for document in corpus.documents:
                    assert sorted(
                        (e.entity_id, m.sent_index,
                         ",".join(t.index for t in m.span))
                        for e in document.entities for m in e.mentions
                    ) == intended.get(document.doc_id, []), document.doc_id


# ------------------------------------------------------- ties, by hand

def _decoded(*tokens):
    """(entity id, [(node ids, attributes) of each mention]) of each
    entity of a one-sentence document, in decoded order."""
    (document,) = parse_conllu("\n".join([
        "# newdoc id = d1", "# global.Entity = eid-etype-head-other",
        *tokens, "", ""])).documents
    return [(e.entity_id, [([t.index for t in m.span], m.attributes)
                           for m in e.mentions])
            for e in document.entities]


def test_entities_whose_first_mentions_share_a_span_go_by_entity_id():
    # e9 closes first, but "e10" < "e9" as strings
    assert _decoded(
        tok(1, "the", "DET", 2, "det", misc="Entity=(e10-x-2-(e9-y-2-"),
        tok(2, "dog", "NOUN", 0, "root", misc="Entity=e9)e10)"),
    ) == [("e10", [(["1", "2"], {"etype": "x", "head": "2", "other": ""})]),
          ("e9", [(["1", "2"], {"etype": "y", "head": "2", "other": ""})])]


def test_mentions_of_one_span_in_one_entity_go_in_closing_order():
    # the bracket opened last closes first
    assert _decoded(
        tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-1-(e1-x-2-"),
        tok(2, "dog", "NOUN", 0, "root", misc="Entity=e1)e1)"),
    ) == [("e1", [(["1", "2"], {"etype": "x", "head": "2", "other": ""}),
                  (["1", "2"], {"etype": "x", "head": "1", "other": ""})])]


def test_a_discontinuous_mention_is_placed_by_its_first_part():
    # e2's discontinuous mention closes last, at node 5, but starts at
    # node 1: it comes before e2's mention at node 4, and e2 before e1
    assert _decoded(
        tok(1, "a", "NOUN", 0, "root", misc="Entity=(e2[1/2]-x-1-)"),
        tok(2, "b", "NOUN", 1, "nmod", misc="Entity=(e1-y-1-"),
        tok(3, "c", "NOUN", 1, "nmod", misc="Entity=e1)"),
        tok(4, "d", "NOUN", 1, "nmod", misc="Entity=(e2-x-1-)"),
        tok(5, "e", "NOUN", 1, "nmod", misc="Entity=(e2[2/2])"),
    ) == [("e2", [(["1", "5"], {"etype": "x", "head": "1", "other": ""}),
                  (["4"], {"etype": "x", "head": "1", "other": ""})]),
          ("e1", [(["2", "3"], {"etype": "y", "head": "1", "other": ""})])]


# --------------------------------------------------------- attributes

def _mentions(layout, *tokens):
    (document,) = parse_conllu("\n".join([
        "# newdoc id = d1", f"# global.Entity = {layout}", *tokens, "", ""
    ])).documents
    return [m for e in document.entities for m in e.mentions]


_TWO = (tok(1, "Ana", "PROPN", 0, "root",
            misc="Entity=(e1-person-1-Ana-Q)(e2-place"),
        tok(2, "Rio", "PROPN", 1, "flat", misc="Entity=e2)"))


def test_attributes_follow_the_declared_layout_in_its_order():
    ana, rio = _mentions("eid-etype-head-other", *_TWO)
    # the last field keeps any further '-'; missing fields are left out
    assert list(ana.attributes.items()) == [
        ("etype", "person"), ("head", "1"), ("other", "Ana-Q")]
    assert rio.attributes == {"etype": "place"}
    (ana, rio) = _mentions("eid-head-etype", *_TWO)
    assert list(ana.attributes.items()) == [
        ("head", "person"), ("etype", "1-Ana-Q")]


def test_a_one_field_layout_gives_no_attributes():
    mentions = _mentions("eid", tok(1, "Ana", "PROPN", 0, "root",
                                    misc="Entity=(e1)(e2-x)"))
    assert [(m.entity_id, m.attributes) for m in mentions] == [
        ("e1", {}), ("e2-x", {})]


def test_a_discontinuous_mention_takes_its_first_parts_attributes():
    (mention,) = _mentions(
        "eid-etype-head-other",
        tok(1, "a", "NOUN", 0, "root", misc="Entity=(e7[1/2]-x-2-)"),
        tok(2, "b", "NOUN", 1, "nmod"),
        tok(3, "c", "NOUN", 1, "nmod", misc="Entity=(e7[2/2]-y-1-)"))
    assert mention.attributes == {"etype": "x", "head": "2", "other": ""}
    assert mention.head.index == "3"


def test_attributes_are_built_once_per_mention_and_kept_until_assigned():
    ana, rio = _mentions("eid-etype-head-other", *_TWO)
    first = ana.attributes
    assert ana.attributes is first
    assert rio.attributes is not first
    replaced = {"head": "1"}
    ana.attributes = replaced
    assert ana.attributes is replaced
    ana.attributes["etype"] = "person"
    assert ana.attributes == {"head": "1", "etype": "person"}


def test_attributes_are_built_on_first_read_only(monkeypatch):
    ana, rio = _mentions("eid-etype-head-other", *_TWO)
    kept = ana.attributes
    built = []

    def counted(bracket, field_names):
        built.append(bracket)
        return {}
    monkeypatch.setattr(corefkit.model, "bracket_attributes", counted)
    assert ana.attributes is kept
    assert rio.attributes == {}
    assert rio.attributes == {}
    assert built == ["e2-place"]


def test_a_hand_built_mention_keeps_the_attributes_it_is_given(monkeypatch):
    def no_attributes(*args):
        raise AssertionError("attributes built for a hand-built mention")
    monkeypatch.setattr(corefkit.model, "bracket_attributes", no_attributes)
    kept = {"head": "1"}
    assert Mention("e1", (), 1, kept).attributes is kept
    assert Mention("e1", (), attributes=kept).attributes is kept
    with pytest.raises(AssertionError):
        Mention("e1", ()).attributes
