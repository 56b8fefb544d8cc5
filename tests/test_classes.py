"""corefkit's classes: each constructor takes its arguments by position and
by keyword, a container default is fresh for every instance, model classes
compare by identity and the other classes by value."""
from __future__ import annotations

import pickle
from collections import Counter
from fractions import Fraction

import pytest

from corefkit.analysis import CompetingAntecedentStats, MentionVectors
from corefkit.cli import Statistic
from corefkit.corpora import DatasetFiles
from corefkit.errors import ErrorReport
from corefkit.metrics import ClusterSet, ScoreReport, Scores
from corefkit.model import Corpus, Document, Entity, Mention, Sentence, Token
from corefkit.reports import DatasetReport, StatRow
from corefkit.stats import Table
from corefkit.taxonomy import MentionType


def _token(**changes) -> Token:
    fields = dict(index="1", form="Rex", lemma="Rex", upos="PROPN", xpos="_",
                  feats_raw="_", head=0, deprel="root", deps_raw="_",
                  misc_raw="_", is_empty=False)
    return Token(**{**fields, **changes})


# (class, its constructor's arguments, the attributes holding a container
# that the constructor made)
_CONTAINER_DEFAULTS = [
    (Sentence, {}, ("comments", "tokens", "mwt_ranges")),
    (Mention, dict(entity_id="e1", span=()), ("attributes",)),
    (Entity, dict(entity_id="e1"), ("mentions",)),
    (Document, dict(doc_id="d1"), ("sentences", "entities")),
    (Corpus, {}, ("documents",)),
    (DatasetFiles, dict(name="en_x"), ("files",)),
    (DatasetReport, dict(dataset="en_x", statistic="s"), ("rows",)),
    (Table, dict(columns=("a",), rows=[]), ("formats",)),
    (ErrorReport, dict(dataset="en_x"),
     ("distance_buckets", "undetected_types")),
]


@pytest.mark.parametrize("cls, kwargs, attributes", _CONTAINER_DEFAULTS,
                         ids=[c.__name__ for c, *_ in _CONTAINER_DEFAULTS])
def test_a_container_default_is_fresh_for_every_instance(cls, kwargs,
                                                         attributes):
    first, second = cls(**kwargs), cls(**kwargs)
    for name in attributes:
        assert getattr(first, name) is not getattr(second, name)
    assert first.__class__.__slots__
    with pytest.raises(AttributeError):
        first.no_such_field = 1


def test_keyword_constructors_keep_their_names_and_defaults():
    token = _token(sent_index=2, order=3)
    assert (token.sent_index, token.order, token.feats) == (2, 3, {})
    assert (_token().sent_index, _token().order) == (-1, -1)
    sentence = Sentence(comments=["# x"], tokens=[token],
                        mwt_ranges=[(0, ("1-2",))], sent_id="s1",
                        first_line=4)
    assert (sentence.comments, sentence.tokens, sentence.sent_id,
            sentence.first_line) == (["# x"], [token], "s1", 4)
    assert (Sentence().sent_id, Sentence().first_line) == (None, 0)
    mention = Mention(entity_id="e1", span=(token,), n_parts=2,
                      attributes={"head": "1"}, sentences=[sentence])
    assert (mention.n_parts, mention.attributes, mention.head) == \
        (2, {"head": "1"}, token)
    assert (Mention("e1", (token,)).n_parts,
            Mention("e1", (token,)).sentences) == (1, None)
    entity = Entity(entity_id="e1", mentions=[mention])
    assert entity.mentions == [mention]
    document = Document(doc_id="d1", sentences=[sentence],
                        entities=[entity], language="en", dataset="en_x")
    assert (document.language, document.dataset) == ("en", "en_x")
    assert (Document("d1").language, Document("d1").dataset) == ("", "")
    corpus = Corpus(documents=[document], dataset="en_x", language="en")
    assert (corpus.documents, corpus.dataset, corpus.language) == \
        ([document], "en_x", "en")
    assert DatasetFiles(name="en_x", files=[]).language == "en"
    row = StatRow(key="k", numerator=1, denominator=4)
    assert (row.kind, row.value) == ("percent", 25)
    report = DatasetReport(dataset="en_x", statistic="s", rows=[row])
    assert report.value("k") == 25
    assert Table(columns=("a",), rows=[(1,)], keys=("a",), figure=("a",),
                 formats={"a": hex}).figure_rows() == [("1", "0x1")]
    assert (Table(("a",), [(1,)]).keys, Table(("a",), [(1,)]).figure) == \
        ((), ())
    assert Statistic(compute=len, table=str).needs_vectors is False
    scores = Scores(precision=1, recall=Fraction(1, 2), f1=Fraction(2, 3))
    assert ScoreReport(muc=scores, b_cubed=scores, ceafe=scores).conll_f1 \
        == Fraction(2, 3)
    assert scores._asdict() == dict(precision=1, recall=Fraction(1, 2),
                                    f1=Fraction(2, 3))
    assert ClusterSet(clusters=[{"a"}, set()]).clusters == [frozenset("a")]
    stats = CompetingAntecedentStats(kind=MentionType.OVERT_PRONOUN,
                                     n_pronouns=2, n_valid=1,
                                     total_competitors=3)
    assert (stats + stats).mean_competitors == 3
    assert stats + stats == (MentionType.OVERT_PRONOUN, 4, 2, 6)
    vectors = MentionVectors(vectors={}, dimension=2)
    assert vectors.dimension == 2
    errors = ErrorReport(dataset="en_x", n_entities=2, n_unresolved=1,
                         n_two_mention=1, distance_buckets=Counter({"0": 1}),
                         n_undetected=2, n_short=1, n_multi_token=1,
                         n_premodified=1, undetected_length=3,
                         undetected_types=Counter())
    assert (errors.unresolved_pct, errors.undetected_pct) == (50, 100)
    assert errors.premodified_share_of_all == Fraction(1, 2)


@pytest.mark.parametrize("make", [
    lambda: _token(_feats={}),
    lambda: Sentence(_parents=[]),
    lambda: Sentence(_depths=[]),
], ids=["Token-_feats", "Sentence-_parents", "Sentence-_depths"])
def test_a_cache_is_no_constructor_keyword(make):
    with pytest.raises(TypeError):
        make()


def test_model_classes_compare_by_identity():
    for make in (_token, Sentence, lambda: Mention("e1", ()),
                 lambda: Entity("e1"), lambda: Document("d1"), Corpus):
        first, second = make(), make()
        assert first != second and first == first
        assert len({first, second}) == 2


def test_records_compare_by_value_and_survive_pickling():
    records = [DatasetFiles("en_x"), DatasetReport("en_x", "s"),
               Table(("a",), [(1,)]), ClusterSet([{"a"}]),
               ErrorReport("en_x", 2, n_undetected=1),
               StatRow("k", 1, 2), Scores(1, 1, 1)]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and copy is not record
        assert repr(copy) == repr(record)
    assert DatasetReport("en_x", "s") != DatasetReport("en_y", "s")
    assert DatasetFiles("en_x") != DatasetReport("en_x", "s")
    with pytest.raises(TypeError):
        hash(DatasetReport("en_x", "s"))
