from __future__ import annotations

import itertools
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import (ParseError, Token, conllu, parse_conllu, parse_file,
                      resolve_entities, serialize)
from corefkit.conllu import _BRACKET, _ENTITY_ITEM
from corefkit.model import (UNKNOWN, Sentence, mention_head, parse_kv_items,
                            span_key)
from support import (DATA, corpus_signature, documents_text, make_corpus,
                     misc_value, node, tok, watch_parses)
from test_features import corpora


def test_empty_stream_gives_empty_corpus():
    assert parse_conllu("").documents == []


def test_fixture_counts(basic_corpus):
    assert len(basic_corpus.documents) == 2
    doc1, doc2 = basic_corpus.documents
    assert doc1.doc_id == "fixture-doc1"
    assert len(doc1.sentences) == 2
    assert [e.entity_id for e in doc1.entities] == ["e1", "e2", "e4", "e5"]
    assert len(doc2.entities) == 4


def test_comments_and_misc_preserved(basic_corpus):
    sentence = basic_corpus.documents[0].sentences[0]
    assert sentence.comments[0] == "# newdoc id = fixture-doc1"
    assert sentence.sent_id == "doc1-s1"
    assert "# text = The old castle stood on a hill ." in sentence.comments
    hill = node(sentence, "7")
    assert misc_value(hill, "SpaceAfter") == "No"
    assert misc_value(hill, "Entity") == "e2)"


def test_multiword_ranges_kept_but_not_indexed(basic_corpus):
    sentence = basic_corpus.documents[1].sentences[2]
    assert sentence.n_surface() == 5
    assert [t.index for t in sentence.tokens] == ["1", "2", "3", "4", "5"]
    assert sentence.mwt_ranges[0][0] == 1
    assert sentence.mwt_ranges[0][1][1] == "del"


def test_empty_node_parsed(basic_corpus):
    sentence = basic_corpus.documents[1].sentences[0]
    empty = node(sentence, "1.1")
    assert empty.is_empty
    assert empty.head is None
    assert sentence.parents()[empty.order] == node(sentence, "1").order
    assert empty.effective_deprel() == "nsubj"


def test_nested_pair_decodes_to_contained_spans():
    corpus = make_corpus([
        tok(1, "near", "ADP", 4, "case", misc="Entity=(e1-x-4-"),
        tok(2, "the", "DET", 4, "det", misc="Entity=(e2-x-2-"),
        tok(3, "old", "ADJ", 4, "amod", misc="Entity=e2)"),
        tok(4, "gate", "NOUN", 5, "obl"),
        tok(5, "stood", "VERB", 0, "root", misc="Entity=e1)"),
    ])
    entities = corpus.documents[0].entities
    assert len(entities) == 2
    spans = {e.entity_id: [t.index for m in e.mentions for t in m.span]
             for e in entities}
    assert spans == {"e1": ["1", "2", "3", "4", "5"], "e2": ["2", "3"]}
    inner = set(spans["e2"])
    assert inner < set(spans["e1"])
    assert sum(len(e.mentions) for e in entities) == 2


def test_no_entity_annotation_gives_no_entities():
    corpus = make_corpus([tok(1, "Nothing", "NOUN", 0, "root")])
    assert corpus.documents[0].entities == []


def test_single_token_mention():
    corpus = make_corpus([
        tok(1, "We", "PRON", 2, "nsubj"),
        tok(2, "saw", "VERB", 0, "root"),
        tok(3, "it", "PRON", 2, "obj"),
        tok(4, "Rex", "PROPN", 2, "obj", misc="Entity=(e5-person-1-)"),
    ])
    (entity,) = corpus.documents[0].entities
    assert entity.entity_id == "e5"
    assert entity.is_singleton()
    assert [t.index for t in entity.mentions[0].span] == ["4"]


def test_self_closing_bracket_with_a_one_field_layout():
    # the whole bracket is the eid, as it is when opened and closed apart
    corpus = parse_conllu("\n".join([
        "# newdoc id = d1", "# global.Entity = eid",
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x)"),
        tok(2, "Pat", "PROPN", 1, "conj", misc="Entity=(e2-y"),
        tok(3, "Kim", "PROPN", 1, "conj", misc="Entity=e2-y)"), "", ""]))
    entities = corpus.documents[0].entities
    assert [(e.entity_id, [t.index for m in e.mentions for t in m.span])
            for e in entities] == [("e1-x", ["1"]), ("e2-y", ["2", "3"])]


def test_discontinuous_mention_omits_gap_tokens():
    corpus = make_corpus([
        tok(1, "Saw", "VERB", 0, "root"),
        tok(2, "the", "DET", 3, "det", misc="Entity=(e7[1/2]-x-2-"),
        tok(3, "tower", "NOUN", 1, "obj", misc="Entity=e7[1/2])"),
        tok(4, "yesterday", "ADV", 1, "advmod"),
        tok(5, "tall", "ADJ", 3, "amod", misc="Entity=(e7[2/2])"),
    ])
    (entity,) = corpus.documents[0].entities
    (mention,) = entity.mentions
    assert [t.index for t in mention.span] == ["2", "3", "5"]
    assert mention.n_parts == 2
    assert span_key(mention.span) == "2,3+5"


def test_same_entity_nesting_orders_shorter_first():
    corpus = make_corpus([
        tok(1, "a", "DET", 2, "det", misc="Entity=(e1-x-2-(e1-x-2-"),
        tok(2, "b", "NOUN", 5, "nsubj"),
        tok(3, "c", "NOUN", 2, "nmod", misc="Entity=e1)"),
        tok(4, "d", "NOUN", 2, "nmod"),
        tok(5, "e", "VERB", 0, "root", misc="Entity=e1)"),
    ])
    (entity,) = corpus.documents[0].entities
    lengths = [len(m.span) for m in entity.mentions]
    assert lengths == [3, 5]


def test_open_bracket_count_matches_mention_count(basic_corpus):
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    opens = len(re.findall(r"Entity=[^\t\n]*", text))
    opens = sum(value.count("(")
                for value in re.findall(r"Entity=([^\t\n|]+)", text))
    mentions = sum(len(e.mentions) for d in basic_corpus.documents
                   for e in d.entities)
    parts = sum(m.n_parts for d in basic_corpus.documents
                for e in d.entities for m in e.mentions)
    assert opens == parts
    assert mentions == parts - 1  # exactly one two-part mention in fixture


@pytest.mark.parametrize("lines, message", [
    ([tok(1, "a", "NOUN", 0, "root").rsplit("\t", 1)[0]], "columns"),
    ([tok(1, "a", "NOUN", 0, "root"), tok(3, "b", "NOUN", 1, "obj")],
     "non-monotonic"),
    ([tok(1, "a", "NOUN", 9, "nsubj")], "nonexistent"),
    ([tok(1, "a", "NOUN", 0, "root", misc="Entity=e1)")], "without matching"),
    ([tok(1, "a", "NOUN", 0, "root", misc="Entity=(e1-x-1-")], "unbalanced"),
    ([tok("0.2", "_", "PRON", "_", "_", deps="1:nsubj"),
      tok(1, "b", "VERB", 0, "root")], "empty-node"),
    ([tok(1, "a", "VERB", 0, "root", misc="Entity=(e1[2/2])")],
     "part indices"),
    ([tok(1, "a", "VERB", 0, "root", misc="Entity=(e1[1/2]-x-1-"),
      tok(2, "b", "NOUN", 1, "obj", misc="Entity=e1[1/2])")], "part"),
])
def test_malformed_input_raises(lines, message):
    with pytest.raises(ParseError, match=message):
        make_corpus(lines)


def test_error_names_file_and_line(tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly\tfour\tcols\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(bad)
    assert "bad.conllu:1" in str(excinfo.value)


# The second node line of the sentence is line 4, after a range line.
@pytest.mark.parametrize("head", ["+1", "0_1", "01", "1 ", "\u0663", "-1"])
def test_head_other_than_underscore_zero_or_a_number_names_its_line(
        tmp_path, head):
    path = tmp_path / "badhead.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", "1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
        tok(1, "do", "AUX", 2, "aux"), tok(2, "go", "VERB", head, "root"),
        "", ""]), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:4: malformed HEAD value {head!r}"


@pytest.mark.parametrize("index", ["01.1", "00.1", "1.01"])
def test_empty_node_index_with_a_leading_zero_names_its_line(tmp_path,
                                                             index):
    path = tmp_path / "badindex.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", tok(1, "go", "VERB", 0, "root"),
        tok(index, "you", "PRON", "_", "_", deps="1:nsubj"), "", ""]),
        encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:3: malformed token index {index!r}"


def test_out_of_range_head_names_its_own_line(tmp_path):
    path = tmp_path / "badhead.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", "# text = dont go home",
        "1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
        tok(1, "do", "AUX", 2, "aux"),
        tok(2, "go", "VERB", 7, "nmod"),  # line 5
        tok(3, "home", "ADV", 2, "advmod"), "", ""]), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == (f"{path}:5: token 2 head 7 refers to a "
                                  f"nonexistent token (sentence has 3)")


@pytest.mark.parametrize("block, line, message", [
    (["1-3\tdont\t_\t_\t_\t_\t_\t_\t_\t_", tok(1, "do", "AUX", 2, "aux"),
      tok(2, "go", "VERB", 0, "root")], 6,
     "token range 1-3 ends after the last token 2 of its sentence"),
    (["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_", tok(1, "do", "AUX", 2, "aux"),
      tok(2, "go", "VERB", 0, "root"),
      "3-4\thome\t_\t_\t_\t_\t_\t_\t_\t_",
      tok(3, "home", "ADV", 2, "advmod")], 9,
     "token range 3-4 ends after the last token 3 of its sentence"),
    (["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
      "1-3\tdonta\t_\t_\t_\t_\t_\t_\t_\t_", tok(1, "do", "AUX", 2, "aux"),
      tok(2, "go", "VERB", 0, "root"), tok(3, "a", "DET", 2, "det")], 7,
     "non-monotonic token range 1-3"),
], ids=["past-end", "past-end-after-range", "overlap"])
def test_bad_token_range_names_its_own_line(tmp_path, block, line, message):
    path = tmp_path / "badrange.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", tok(1, "Pat", "PROPN", 0, "root"), "",
        "# sent_id = s2", "# text = dont go home", *block, "", ""]),
        encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


# Sentence 2's block starts on line 6, after a range line.
@pytest.mark.parametrize("block, line, message", [
    ([tok(1, "do", "AUX", 1, "aux"), tok(2, "go", "VERB", 0, "root")], 6,
     "token 1 is on a head cycle"),
    (["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_", tok(1, "do", "AUX", 3, "aux"),
      tok(2, "go", "VERB", 3, "ccomp"), tok(3, "home", "ADV", 2, "advmod")],
     9, "token 3 is on a head cycle"),
    (["1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_", tok(1, "do", "AUX", 2, "aux"),
      tok(2, "go", "VERB", 0, "root"),
      tok("2.1", "you", "PRON", "_", "_", deps="2.2:nsubj"),
      tok("2.2", "me", "PRON", "_", "_", deps="2.1:conj|2:obj")],
     9, "token 2.1 is on a head cycle"),
], ids=["self-loop", "surface-after-range", "empty-nodes"])
def test_head_cycle_names_the_line_where_it_closes(tmp_path, block, line,
                                                   message):
    path = tmp_path / "cycle.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", tok(1, "Pat", "PROPN", 0, "root"), "",
        "# sent_id = s2", "# text = dont go home", *block, "", ""]),
        encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("deps, message", [
    ("9:nsubj", "empty node 1.1 DEPS head 9 refers to a nonexistent node"),
    ("1.2:nsubj", "empty node 1.1 DEPS head 1.2 refers to a nonexistent "
                  "node"),
], ids=["surface", "empty"])
def test_an_empty_node_deps_head_naming_no_node_names_its_line(tmp_path,
                                                               deps, message):
    path = tmp_path / "baddeps.conllu"
    path.write_text("\n".join([
        "# sent_id = s1", tok(1, "go", "VERB", 0, "root"),
        tok("1.1", "you", "PRON", "_", "_", deps=deps),
        tok(2, "home", "ADV", 1, "advmod"), "", ""]), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:3: {message}"


# Each sentence holds two faults. The one checked later sits on an earlier
# line, so line order alone would report it. The block starts on line 2.
@pytest.mark.parametrize("block, line, message", [
    ([tok(1, "do", "AUX", 2, "aux"), tok(2, "go", "VERB", 1, "root"),
      tok(3, "home", "ADV", 9, "advmod")], 4,
     "token 3 head 9 refers to a nonexistent token (sentence has 3)"),
    ([tok(1, "go", "VERB", 0, "root"),
      tok("1.1", "you", "PRON", "_", "_", deps="9:nsubj"),
      tok(2, "do", "AUX", 3, "aux"), tok(3, "home", "ADV", 2, "advmod")], 4,
     "token 2 is on a head cycle"),
    ([tok(1, "go", "VERB", 0, "root"),
      tok("1.1", "you", "PRON", "_", "_", deps="1.2:nsubj"),
      tok("1.2", "me", "PRON", "_", "_", deps="1.1:conj"),
      tok(2, "home", "ADV", 1, "advmod"),
      tok("2.1", "it", "PRON", "_", "_", deps="7:obj")], 6,
     "empty node 2.1 DEPS head 7 refers to a nonexistent node"),
], ids=["range-before-surface-cycle", "surface-cycle-before-dangling-deps",
        "dangling-deps-before-empty-cycle"])
def test_of_two_head_faults_the_earlier_check_is_reported(tmp_path, block,
                                                          line, message):
    path = tmp_path / "faults.conllu"
    path.write_text("\n".join(["# sent_id = s1", *block, "", ""]),
                    encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


def _assert_parents_set_by_the_parser(corpus):
    for document in corpus.documents:
        for sentence in document.sentences:
            assert sentence._parents is not None
            assert sentence._parents == Sentence(
                tokens=sentence.tokens).parents()


def test_a_parsed_sentence_holds_its_parent_positions():
    for path in sorted(DATA.rglob("*.conllu")):
        _assert_parents_set_by_the_parser(parse_file(path))


@settings(max_examples=200)
@given(corpora())
def test_parsed_parent_positions_match_the_hand_built_sentence(corpus):
    for document in corpus.documents:
        for sentence in document.sentences:
            text = "\n".join(sentence.lines()) + "\n\n"
            # the strategy draws no cycle, but heads that name no node
            if UNKNOWN in sentence.parents():
                with pytest.raises(ParseError, match="nonexistent"):
                    parse_conllu(text)
                continue
            parsed = parse_conllu(text)
            _assert_parents_set_by_the_parser(parsed)
            assert parsed.documents[0].sentences[0].parents() == \
                sentence.parents()


@pytest.mark.parametrize("lines, line, message", [
    (["# sent_id = s1", tok(1, "go", "VERB", 0, "root"), "# note"], 3,
     "comment line inside token block"),
    (["# sent_id = s1", tok(1, "go", "VERB", 0, "root"), "",
      "# sent_id = s2", "# text = home"], 5,
     "trailing comments without a sentence"),
], ids=["comment-in-block", "trailing-comments"])
def test_misplaced_comments_name_their_line(tmp_path, lines, line, message):
    path = tmp_path / "comments.conllu"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


def test_empty_nodes_may_attach_to_earlier_and_later_empty_nodes():
    corpus = make_corpus([
        tok(1, "go", "VERB", 0, "root"),
        tok("1.1", "you", "PRON", "_", "_", deps="1.2:nsubj"),
        tok("1.2", "me", "PRON", "_", "_", deps="1:obj"),
        tok("1.3", "it", "PRON", "_", "_", deps="1.1:conj",
            misc="Entity=(e1-x-)"),
    ])
    (entity,) = corpus.documents[0].entities
    assert entity.mentions[0].span[0].index == "1.3"


def test_unsupported_entity_layout_names_its_line(tmp_path):
    lines = (DATA / "basic.conllu").read_text(encoding="utf-8").split("\n")
    lines[1] = "# global.Entity = etype-eid-head-other"
    path = tmp_path / "layout.conllu"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == (
        f"{path}:2: unsupported global.Entity layout 'etype-eid-head-other' "
        f"in document 'fixture-doc1' (first field must be eid)")


RANGE_LINE = "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_"
SENTENCE = tok(1, "a", "NOUN", 0, "root")


@pytest.mark.parametrize("text, line", [
    (f"{SENTENCE}\n\n{RANGE_LINE}\n\n", 4),
    (f"{SENTENCE}\n\n{RANGE_LINE}\n", 3),
    (f"{SENTENCE}\n\n{RANGE_LINE}", 3),
    (RANGE_LINE, 1),
    (f"# sent_id = s1\n{RANGE_LINE}", 2),
], ids=["blank-line-after", "end-of-input", "no-final-newline",
        "only-line", "after-a-comment"])
def test_range_lines_without_a_token_line_are_an_error(tmp_path, text,
                                                       line):
    # at the end of the input as well as before a blank line
    path = tmp_path / "range.conllu"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: sentence without token lines"


# The first of two documents declares a layout that is not the default; the
# second leaves it out, as the CoNLL-U Plus global comments allow.
LAYOUT_ONCE = [
    "# newdoc id = d1",
    "# global.Entity = eid-head-etype",
    "# sent_id = d1-s1",
    tok(1, "Ana", "PROPN", 2, "nsubj", misc="Entity=(e1-1-person)"),
    tok(2, "slept", "VERB", 0, "root"),
    "",
    "# newdoc id = d2",
    "# sent_id = d2-s1",
    tok(1, "the", "DET", 2, "det", misc="Entity=(e2-2-animal"),
    tok(2, "dog", "NOUN", 3, "nsubj", misc="Entity=e2)"),
    tok(3, "barked", "VERB", 0, "root"),
    "",
]


def _layout_once(*, doc2_declares: str | None = None) -> str:
    lines = list(LAYOUT_ONCE)
    if doc2_declares is not None:
        lines.insert(7, f"# global.Entity = {doc2_declares}")
    return "\n".join(lines) + "\n"


def test_a_global_entity_layout_holds_to_the_end_of_its_file():
    first, second = parse_conllu(_layout_once()).documents
    (ana,) = first.entities[0].mentions
    (dog,) = second.entities[0].mentions
    assert ana.attributes == {"head": "1", "etype": "person"}
    assert dog.attributes == {"head": "2", "etype": "animal"}
    assert dog.head.form == "dog"
    # repeating the declaration changes nothing
    again = parse_conllu(_layout_once(doc2_declares="eid-head-etype"))
    assert corpus_signature(again)[1][2] == corpus_signature(
        parse_conllu(_layout_once()))[1][2]
    # documents before the first declaration use the CorefUD layout
    lines = _layout_once().split("\n")
    lines.insert(7, lines.pop(1))
    first, second = parse_conllu("\n".join(lines)).documents
    assert first.entities[0].mentions[0].attributes == {
        "etype": "1", "head": "person"}
    assert second.entities[0].mentions[0].attributes == {
        "head": "2", "etype": "animal"}


def test_a_different_later_global_entity_layout_names_its_line(tmp_path):
    path = tmp_path / "layouts.conllu"
    path.write_text(_layout_once(doc2_declares="eid-etype-head-other"),
                    encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == (
        f"{path}:8: global.Entity layout 'eid-etype-head-other' in document "
        f"'d2' differs from the earlier declaration 'eid-head-etype'")


# The file puts token 1 of sentence 1 on line 3, token 1 of sentence 2 on
# line 9 (after the range line 8) and its token 3 on line 12 (after the
# empty node on line 11); misc maps "s<sentence>-<token>" to an Entity value.
@pytest.mark.parametrize("misc, line, message", [
    ({"s2-3": "(e1-x-1-)junk"}, 12,
     "malformed Entity annotation '(e1-x-1-)junk' on token 3 (sentence 2)"),
    ({"s2-3": "e9)"}, 12,
     "Entity close 'e9' without matching open (sentence 2)"),
    ({"s2-1": "(e1-x-1-"}, 9,
     "unbalanced Entity bracket 'e1' opened in sentence 2 never closed "
     "before end of document 'd1'"),
    ({"s2-3": "(e1[3/2]-x-1-)"}, 12, "invalid part index in 'e1[3/2]'"),
    ({"s2-3": "(e1[2/2]-x-1-)"}, 12,
     "unmatched part indices for entity 'e1': got part 2/2"),
    ({"s1-1": "(e1[1/2]-x-1-)", "s2-3": "(e1[1/2]-x-1-)"}, 12,
     "unmatched part indices for entity 'e1': new mention starts while "
     "part 2/2 is expected"),
    ({"s1-1": "(e1[1/2]-x-1-)"}, 3,
     "unmatched part indices for entity 'e1': parts after 1/2 missing at "
     "end of document"),
    # of several faults, the first in token order is reported
    ({"s1-1": "(e1[2/2]-x-1-)", "s2-3": "(e2-x-1-)junk"}, 3,
     "unmatched part indices for entity 'e1': got part 2/2"),
    # brackets before the fault are read first
    ({"s2-3": "e9)junk"}, 12,
     "Entity close 'e9' without matching open (sentence 2)"),
    ({"s2-3": "(e1-x-1-)|Entity=(e2-x-1-)"}, 12,
     "2 Entity items in MISC of token 3 (sentence 2)"),
], ids=["malformed", "close-without-open", "unclosed", "invalid-part",
        "unexpected-part", "part-restarts", "parts-missing", "first-fault",
        "fault-before-junk", "two-entity-items"])
def test_entity_decoding_error_names_line(tmp_path, misc, line, message):
    def entity(key):
        return f"Entity={misc[key]}" if key in misc else "_"

    path = tmp_path / "bad.conllu"
    path.write_text("\n".join([
        "# newdoc id = d1", "# sent_id = s1",
        tok(1, "Pat", "PROPN", 2, "nsubj", misc=entity("s1-1")),
        tok(2, "slept", "VERB", 0, "root"), "",
        "# sent_id = s2", "# text = dont go home",
        "1-2\tdont\t_\t_\t_\t_\t_\t_\t_\t_",
        tok(1, "do", "AUX", 2, "aux", misc=entity("s2-1")),
        tok(2, "go", "VERB", 0, "root"),
        tok("2.1", "you", "PRON", "_", "_", deps="2:nsubj"),
        tok(3, "home", "ADV", 2, "advmod", misc=entity("s2-3")),
        "", ""]), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        parse_file(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("misc, mentions", [
    ("Entity=(e1-x-1-)", 1),
    ("XEntity=(e1-x-1-)", 0),
    ("EntityX=(e1-x-1-)", 0),
    ("Entity|SpaceAfter=No", 0),
    ("SpaceAfter=No|Entity=(e1-x-1-)", 1),
    ("SpaceAfter=No|Entity=", 0),
    ("SpaceAfter=No|Entity", 0),
])
def test_entity_value_is_the_misc_value_of_its_one_entity_item(misc,
                                                               mentions):
    corpus = make_corpus([tok(1, "Rex", "PROPN", 0, "root", misc=misc)])
    (token,) = corpus.documents[0].sentences[0].tokens
    assert bool(misc_value(token, "Entity")) == bool(mentions)
    assert sum(len(e.mentions)
               for e in corpus.documents[0].entities) == mentions


_REFERENCE_BRACKET = re.compile(r"\(([^()]+)\)|\(([^()]+)|([^()]+)\)")


def _reference_brackets(value: str) -> tuple[list[tuple[str, ...]], bool]:
    """The brackets read one after another from the start of value, as
    (self-closing, opening, closing) with "" for the two it is not, and
    whether they cover all of value."""
    brackets, consumed = [], 0
    for match in _REFERENCE_BRACKET.finditer(value):
        if match.start() != consumed:
            break
        consumed = match.end()
        brackets.append(tuple(group or "" for group in match.groups()))
    return brackets, consumed == len(value)


@given(st.text(alphabet="()e1-x[/2]", max_size=14))
def test_brackets_are_read_from_the_start_of_the_value(value):
    found = _BRACKET.findall(value)
    read = [group[:3] for group in
            itertools.takewhile(lambda group: not group[3], found)]
    assert (read, len(read) == len(found)) == _reference_brackets(value)


@given(st.lists(st.sampled_from([
    "Entity=(e1-x-1-)", "Entity", "Entity=", "Entity=a=b", "XEntity=(e2-",
    "EntityX=1", "SpaceAfter=No", "_"]), min_size=1, max_size=3))
def test_entity_items_are_the_misc_items_named_entity(items):
    misc = "|".join(items)
    found = _ENTITY_ITEM.findall(misc)
    assert len(found) == sum(item.partition("=")[0] == "Entity"
                             for item in items)
    if len(found) == 1:
        token = Token(index="1", form="Rex", lemma="Rex", upos="PROPN",
                      xpos="_", feats_raw="_", head=0, deprel="root",
                      deps_raw="_", misc_raw=misc, is_empty=False)
        value = found[0][1:] if found[0] else None
        assert value == misc_value(token, "Entity")


SHARED_COLUMNS = ("index", "upos", "xpos", "feats_raw", "deprel", "deps_raw")


def test_repeated_column_strings_are_shared_within_one_parse():
    def nodes(path):
        return [t for d in parse_file(path).documents
                for s in d.sentences for t in s.tokens]

    path = DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu"
    first = nodes(path)
    for name in SHARED_COLUMNS:
        by_value: dict[str, str] = {}
        for token in first:
            value = getattr(token, name)
            assert value is by_value.setdefault(value, value), name
        assert len(by_value) < len(first), name
    # the strings are shared by one parse only
    second = nodes(path)
    assert [t.line() for t in second] == [t.line() for t in first]
    assert not any(a.upos is b.upos for a, b in zip(first, second)
               if len(a.upos) > 1)


def test_equal_lemmas_are_one_string_within_a_document():
    sentence = [tok(1, "Los", "DET", head=2, deprel="det", lemma="el"),
                tok(2, "perros", head=0, deprel="root", lemma="perro"),
                tok(3, "perro", "NOUN", head=2, deprel="appos")]
    text = "".join(
        (f"# newdoc id = d{k}\n" if i == 1 else "")
        + f"# sent_id = d{k}-s{i}\n" + "\n".join(sentence) + "\n\n"
        for k in (1, 2) for i in (1, 2))
    corpus = parse_conllu(text)
    assert serialize(corpus) == text
    lemmas = [[t.lemma for s in d.sentences for t in s.tokens]
              for d in corpus.documents]
    for document in lemmas:
        assert document == ["el", "perro", "perro"] * 2
        by_text: dict[str, str] = {}
        assert all(lemma is by_text.setdefault(lemma, lemma)
                   for lemma in document)
    # shared by one document only, so a stream's table holds one at a time
    assert not any(a is b for a, b in zip(*lemmas))


def test_iter_documents_keeps_no_document_it_yielded(tmp_path, monkeypatch):
    path = tmp_path / "four.conllu"
    path.write_text(documents_text(range(2)), "utf-8")
    sides, most_alive = watch_parses(monkeypatch)
    documents = conllu.iter_documents(path)
    while next(documents, None) is not None:  # the caller drops each one
        pass
    assert len(sides) == 4 and most_alive == {tmp_path.name: 0}
    kept = list(conllu.iter_documents(path))  # what the caller keeps lives
    assert len(kept) == 4 and most_alive == {tmp_path.name: 3}


def test_redecoding_a_parsed_document_changes_nothing():
    paths = [DATA / "basic.conllu", *sorted(DATA.glob("score/*/*.conllu"))]
    for path in paths:
        for document in parse_file(path).documents:
            nodes = [(t, t.line(), t.sent_index, t.order)
                     for s in document.sentences for t in s.tokens]
            again = resolve_entities(document)
            assert [e.entity_id for e in again] == [
                e.entity_id for e in document.entities], path
            for new, old in zip(again, document.entities):
                assert len(new.mentions) == len(old.mentions)
                for m, n in zip(new.mentions, old.mentions):
                    assert len(m.span) == len(n.span)
                    assert all(a is b for a, b in zip(m.span, n.span))
                    assert m.head is n.head
                    assert (m.entity_id, m.n_parts, m.attributes) == (
                        n.entity_id, n.n_parts, n.attributes)
            assert nodes == [(t, t.line(), t.sent_index, t.order)
                             for s in document.sentences for t in s.tokens]


def test_duplicate_sent_id_warns_not_fatal(caplog):
    lines = ["# newdoc id = d1",
             "# sent_id = s1", tok(1, "a", "VERB", 0, "root"), "",
             "# sent_id = s1", tok(1, "b", "VERB", 0, "root"), ""]
    with caplog.at_level(logging.WARNING):
        corpus = parse_conllu("\n".join(lines) + "\n")
    assert len(corpus.documents[0].sentences) == 2
    assert any("duplicated sent_id" in r.message for r in caplog.records)


def test_roundtrip_byte_identical_on_canonical_fixtures():
    for path in sorted(DATA.rglob("*.conllu")):
        text = path.read_text(encoding="utf-8")
        assert serialize(parse_conllu(text)) == text, path


def test_serialized_file_parses_back(tmp_path, basic_corpus):
    out = tmp_path / "copy.conllu"
    out.write_text(serialize(basic_corpus), encoding="utf-8", newline="\n")
    again = parse_file(out, dataset="fixture", language="es")
    assert serialize(again) == serialize(basic_corpus)


def test_roundtrip_structural_identity():
    for path in sorted(DATA.rglob("*.conllu")):
        first = parse_conllu(path.read_text(encoding="utf-8"))
        second = parse_conllu(serialize(first))
        assert corpus_signature(first) == corpus_signature(second), path


def test_noncanonical_input_still_structurally_stable():
    # CRLF endings and a missing trailing blank line are tolerated; the
    # reserialized form is canonical, so only structural identity holds.
    lines = ["# newdoc id = d1", "# sent_id = s1",
             tok(1, "Word", "NOUN", 0, "root", misc="Entity=(e1-x-1-)")]
    text = "\r\n".join(lines)
    corpus = parse_conllu(text)
    assert len(corpus.documents[0].entities) == 1
    again = parse_conllu(serialize(corpus))
    assert corpus_signature(corpus) == corpus_signature(again)


class TestMentionHead:
    def test_single_token_is_its_own_head(self, basic_corpus):
        entity = basic_corpus.documents[0].entities[0]
        pronoun = entity.mentions[1]
        assert mention_head(pronoun, basic_corpus.documents[0]) is pronoun.span[0]

    def test_head_is_token_attaching_outside(self):
        corpus = make_corpus([
            tok(1, "the", "DET", 3, "det", misc="Entity=(e1-x-3-"),
            tok(2, "first", "ADJ", 3, "amod"),
            tok(3, "floor", "NOUN", 4, "nsubj", misc="Entity=e1)"),
            tok(4, "creaked", "VERB", 0, "root"),
        ])
        document = corpus.documents[0]
        (mention,) = document.entities[0].mentions
        assert mention_head(mention, document, prefer_annotated=False).form \
            == "floor"
        # the annotated head attribute (position 3 in span) agrees
        assert mention_head(mention, document).form == "floor"

    def test_two_outside_roots_pick_leftmost(self):
        corpus = make_corpus([
            tok(1, "saw", "VERB", 0, "root"),
            tok(2, "cats", "NOUN", 1, "obj", misc="Entity=(e1-x-"),
            tok(3, "dogs", "NOUN", 1, "obj", misc="Entity=e1)"),
        ])
        document = corpus.documents[0]
        (mention,) = document.entities[0].mentions
        assert mention_head(mention, document).form == "cats"

    def test_depth_beats_leftmost(self):
        corpus = make_corpus([
            tok(1, "root", "VERB", 0, "root"),
            tok(2, "deep", "NOUN", 4, "nmod", misc="Entity=(e1-x-"),
            tok(3, "shallow", "NOUN", 1, "obj", misc="Entity=e1)"),
            tok(4, "outside", "NOUN", 1, "obl"),
        ])
        document = corpus.documents[0]
        (mention,) = document.entities[0].mentions
        assert mention_head(mention, document).form == "shallow"

    def test_cycle_is_a_parse_error(self):
        # 2 and 3 govern each other, so no token of the mention has its
        # parent outside it
        with pytest.raises(ParseError) as excinfo:
            make_corpus([
                tok(1, "x", "VERB", 0, "root"),
                tok(2, "a", "NOUN", 3, "nmod", misc="Entity=(e1-x-"),
                tok(3, "b", "NOUN", 2, "nmod", misc="Entity=e1)"),
            ])
        assert str(excinfo.value) == "<input>:5: token 2 is on a head cycle"

    def test_annotated_head_attribute_wins_by_default(self):
        corpus = make_corpus([
            tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-1-"),
            tok(2, "house", "NOUN", 3, "nsubj", misc="Entity=e1)"),
            tok(3, "burned", "VERB", 0, "root"),
        ])
        document = corpus.documents[0]
        (mention,) = document.entities[0].mentions
        assert mention_head(mention, document).form == "the"
        assert mention_head(mention, document,
                            prefer_annotated=False).form == "house"

    def test_head_always_in_span(self, basic_corpus):
        for document in basic_corpus.documents:
            for entity in document.entities:
                for mention in entity.mentions:
                    for flag in (True, False):
                        head = mention_head(mention, document, flag)
                        assert head in mention.span

    def test_zero_pronoun_head_is_the_empty_node(self, basic_corpus):
        document = basic_corpus.documents[1]
        zero = document.entities[0].mentions[0]
        head = mention_head(zero, document)
        assert head.is_empty and head.index == "1.1"


@given(st.lists(st.tuples(
    st.text(st.characters(min_codepoint=33, max_codepoint=126,
                          exclude_characters="|=\t"), min_size=1, max_size=8),
    st.one_of(st.none(),
              st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                    exclude_characters="|\t"),
                      min_size=1, max_size=8))), max_size=6))
def test_kv_items_roundtrip(items):
    def render(items):
        if not items:
            return "_"
        return "|".join(k if v is None else f"{k}={v}" for k, v in items)

    rendered = render(items)
    assert render(parse_kv_items(rendered)) == rendered


def test_a_byte_order_mark_is_refused_on_line_1(tmp_path):
    text = "\ufeff" + (DATA / "basic.conllu").read_text(encoding="utf-8")
    with pytest.raises(ParseError, match=r"^<input>:1: file starts with a "
                                         r"UTF-8 byte-order mark"):
        parse_conllu(text)
    path = tmp_path / "bom.conllu"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="byte-order mark") as info:
        parse_file(path)
    assert (info.value.filename, info.value.line) == (str(path), 1)
