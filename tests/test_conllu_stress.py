"""Decoder stress cases modeled on the messier corners of release data."""
from __future__ import annotations

from corefkit import parse_conllu, serialize
from support import corpus_signature, misc_value, node, tok


def build(lines):
    return "\n".join(lines) + "\n"


STRESS = build([
    "# newdoc id = stress-doc",
    "# global.Entity = eid-etype-head-other",
    "# newpar",
    "# sent_id = stress-s1",
    "# text = Ana and Bo met their neighbours .",
    tok(1, "Ana", "PROPN", 3, "nsubj", feats="Gender=Fem|Number=Sing",
        misc="Entity=(e1-person-1-Ana%20Q.)(e3-person-1-"),
    tok(2, "and", "CCONJ", 3, "cc"),
    tok(3, "Bo", "PROPN", 4, "nsubj", feats="Gender=Masc|Number=Sing",
        misc="Entity=(e2-person-1-)e3)"),
    tok(4, "met", "VERB", 0, "root"),
    tok(5, "their", "PRON", 6, "nmod:poss",
        feats="Number=Plur|Person=3|PronType=Prs",
        misc="Entity=(e3-person-1-)(e4-person-2-"),
    tok(6, "neighbours", "NOUN", 4, "obj", feats="Number=Plur",
        misc="Entity=e4)|SplitAnte=e1<e3,e2<e3"),
    tok(7, ".", "PUNCT", 4, "punct"),
    "",
    "# sent_id = stress-s2",
    "# text = They waved back .",
    tok(1, "They", "PRON", 2, "nsubj", feats="Number=Plur|PronType=Prs",
        misc="Entity=(e4-person-1-)|Bridge=e3<e4"),
    tok(2, "waved", "VERB", 0, "root"),
    tok(3, "back", "ADV", 2, "advmod", misc="SpaceAfter=No"),
    tok(4, ".", "PUNCT", 2, "punct"),
    "",
])

# crossing (interleaved, non-nested) mentions: e1 opens, e2 opens,
# e1 closes, e2 closes
CROSSING = build([
    "# newdoc id = crossing-doc",
    "# global.Entity = eid-etype-head-other",
    "# sent_id = x1",
    tok(1, "a", "NOUN", 0, "root", misc="Entity=(e1-x-1-"),
    tok(2, "b", "NOUN", 1, "nmod", misc="Entity=(e2-x-1-"),
    tok(3, "c", "NOUN", 1, "nmod", misc="Entity=e1)"),
    tok(4, "d", "NOUN", 1, "nmod", misc="Entity=e2)"),
    "",
])

MULTI_HEAD_DEPS = build([
    "# newdoc id = deps-doc",
    "# global.Entity = eid-etype-head-other",
    "# sent_id = d1",
    tok(1, "Vino", "VERB", 0, "root", deps="0:root"),
    tok("1.1", "_", "PRON", "_", "_",
        feats="Gender=Masc|Number=Sing|PronType=Prs",
        deps="1:nsubj|2:nsubj", misc="Entity=(e9-person-1-)"),
    tok(2, "y", "CCONJ", 1, "cc", deps="1:cc"),
    "",
])


def test_stress_round_trip_and_decoding():
    corpus = parse_conllu(STRESS)
    assert serialize(corpus) == STRESS
    document = corpus.documents[0]
    entities = {e.entity_id: e for e in document.entities}
    assert set(entities) == {"e1", "e2", "e3", "e4"}
    # e3 spans Ana..Bo and has a second mention on "their"
    spans = [[t.form for t in m.span] for m in entities["e3"].mentions]
    assert spans == [["Ana", "and", "Bo"], ["their"]]
    assert entities["e1"].mentions[0].attributes["other"] == "Ana%20Q."
    # bridging and split-antecedent annotations survive untouched
    neighbours = node(document.sentences[0], "6")
    assert misc_value(neighbours, "SplitAnte") == "e1<e3,e2<e3"
    assert misc_value(node(document.sentences[1], "1"), "Bridge") == "e3<e4"
    # the paragraph comment is kept in place
    assert "# newpar" in document.sentences[0].comments


def test_crossing_mentions_decode():
    corpus = parse_conllu(CROSSING)
    document = corpus.documents[0]
    spans = {e.entity_id: [t.index for t in e.mentions[0].span]
             for e in document.entities}
    assert spans == {"e1": ["1", "2", "3"], "e2": ["2", "3", "4"]}
    assert serialize(corpus) == CROSSING


def test_empty_node_multiple_enhanced_heads():
    corpus = parse_conllu(MULTI_HEAD_DEPS)
    document = corpus.documents[0]
    sentence = document.sentences[0]
    empty = node(sentence, "1.1")
    # the first enhanced head governs
    assert sentence.parents()[empty.order] == node(sentence, "1").order
    assert empty.effective_deprel() == "nsubj"
    (entity,) = document.entities
    assert entity.mentions[0].head is empty
    assert serialize(corpus) == MULTI_HEAD_DEPS
