from __future__ import annotations

import io
from copy import copy
from fractions import Fraction

import pytest

from corefkit import parse_conllu, serialize
from corefkit.analysis import (MentionVectors, MissingVectorError,
                               antecedent_category_counts,
                               competing_antecedents, corpus_statistics,
                               distance_moments, entity_size_stats,
                               first_mention_stats, genre_counts, genre_rates,
                               head_position_stats, load_mention_vectors,
                               mention_type_distribution,
                               moments_to_mean_variance)
from corefkit.cli import STATISTICS
from corefkit.errors import analyze_errors
from corefkit.features import EXPORT_TARGETS, export_features
from corefkit.metrics import MATCH_MODES, score_pairs
from corefkit.model import HEAD_RULES, Corpus, Document, mention_key
from corefkit.stats import StatOptions
from corefkit.taxonomy import MentionType, UdCategory
from support import DATA, make_corpus, tok


def test_head_position_undefined_on_single_token_mentions():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ])
    report = head_position_stats(corpus)
    row = report.row("premodified_of_multitoken")
    assert (row.numerator, row.denominator) == (0, 0)
    assert row.value is None
    assert row.rendered() == "n/a"


def test_head_position_hand_count():
    # one head-final mention, one head-initial, one single token: 1/2
    corpus = make_corpus([
        tok(1, "old", "ADJ", 2, "amod", misc="Entity=(e1-x-2-"),
        tok(2, "walls", "NOUN", 3, "nsubj", misc="Entity=e1)"),
        tok(3, "crumble", "VERB", 0, "root"),
    ], [
        tok(1, "walls", "NOUN", 3, "nsubj", misc="Entity=(e2-x-1-"),
        tok(2, "everywhere", "ADV", 1, "advmod", misc="Entity=e2)"),
        tok(3, "crumble", "VERB", 0, "root", misc="Entity=(e3-x-1-)"),
    ])
    report = head_position_stats(corpus)
    assert report.value("premodified_of_multitoken") == Fraction(50)
    assert report.row("premodified_of_all").denominator == 3


def test_mention_types_single_pronoun_is_100_percent():
    corpus = make_corpus([
        tok(1, "she", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "left", "VERB", 0, "root"),
    ])
    report = mention_type_distribution(corpus)
    assert report.value("overt_pronoun") == Fraction(100)
    total = sum(Fraction(r.numerator, r.denominator) for r in report.rows)
    assert total == 1


def test_mention_type_fractions_sum_to_one(basic_corpus):
    report = mention_type_distribution(basic_corpus)
    assert sum(Fraction(r.numerator, r.denominator)
               for r in report.rows) == 1


def test_singleton_contributes_no_anaphor():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ])
    counts = antecedent_category_counts(corpus)
    assert all(not c for c in counts.values())


def test_ranking_for_pronoun_after_nmod_np():
    # antecedent head "river" bears nmod -> category N
    corpus = make_corpus([
        tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-2-"),
        tok(2, "river", "NOUN", 3, "nmod", misc="Entity=e1)"),
        tok(3, "bank", "NOUN", 4, "nsubj"),
        tok(4, "eroded", "VERB", 0, "root"),
    ], [
        tok(1, "it", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "vanished", "VERB", 0, "root"),
    ])
    counts = antecedent_category_counts(corpus)[MentionType.OVERT_PRONOUN]
    ranking = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].name))
    assert ranking == [(UdCategory.N, 1)]


def test_anaphor_total_matches_mentions_minus_first(basic_corpus):
    counts = antecedent_category_counts(basic_corpus)
    for mtype in MentionType:
        mentions_of_type = 0
        first_of_type = 0
        for document in basic_corpus.documents:
            for entity in document.entities:
                for i, mention in enumerate(entity.mentions):
                    from corefkit.taxonomy import classify_mention_type
                    if classify_mention_type(mention.head) is mtype:
                        mentions_of_type += 1
                        if i == 0:
                            first_of_type += 1
        assert sum(counts[mtype].values()) == mentions_of_type - first_of_type


def test_first_mention_all_singletons_is_na():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ])
    report = first_mention_stats(corpus)
    assert report.value("first_is_longest") is None
    assert report.value("first_is_nominal_or_proper") is None


def test_first_mention_hand_counts():
    # entity e1: first mention 2 tokens (longest, noun head);
    # entity e2: first mention 1 token pronoun, second 2 tokens.
    corpus = make_corpus([
        tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-2-"),
        tok(2, "dog", "NOUN", 3, "nsubj", misc="Entity=e1)"),
        tok(3, "saw", "VERB", 0, "root"),
        tok(4, "him", "PRON", 3, "obj", misc="Entity=(e2-x-1-)"),
    ], [
        tok(1, "it", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "chased", "VERB", 0, "root"),
        tok(3, "the", "DET", 4, "det", misc="Entity=(e2-x-2-"),
        tok(4, "mailman", "NOUN", 2, "obj", misc="Entity=e2)"),
    ])
    report = first_mention_stats(corpus)
    assert report.value("first_is_longest") == Fraction(50)
    assert report.value("first_is_nominal_or_proper") == Fraction(50)


def test_ties_count_as_longest():
    corpus = make_corpus([
        tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-2-"),
        tok(2, "dog", "NOUN", 0, "root", misc="Entity=e1)"),
    ], [
        tok(1, "the", "DET", 2, "det", misc="Entity=(e1-x-2-"),
        tok(2, "dog", "NOUN", 0, "root", misc="Entity=e1)"),
    ])
    report = first_mention_stats(corpus)
    assert report.value("first_is_longest") == Fraction(100)


def test_entity_size_single_entity():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], [
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], [
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], [
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ])
    report = entity_size_stats(corpus)
    assert report.value("mentions_per_entity") == 4
    assert report.value("mentions_per_entity_excl_singletons") == 4


def test_entity_size_with_singleton():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "saw", "VERB", 0, "root"),
        tok(3, "Tom", "PROPN", 2, "obj", misc="Entity=(e2-x-1-)"),
    ], [
        tok(1, "He", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ], [
        tok(1, "He", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "hid", "VERB", 0, "root"),
    ])
    report = entity_size_stats(corpus)
    assert report.value("mentions_per_entity") == 2
    assert report.value("mentions_per_entity_excl_singletons") == 3


FEM = "Gender=Fem|Number=Sing|PronType=Prs"


def _competing_corpus(antecedent_gap=1):
    """Maria ... then an anaphoric 'Ella'; one agreeing competitor (la casa,
    Fem) and one non-agreeing (el coche, Masc)."""
    blocks = [[
        tok(1, "Maria", "PROPN", 2, "nsubj", feats="Gender=Fem|Number=Sing",
            misc="Entity=(e1-person-1-)"),
        tok(2, "vio", "VERB", 0, "root"),
        tok(3, "la", "DET", 4, "det", misc="Entity=(e2-x-2-"),
        tok(4, "casa", "NOUN", 2, "obj", feats="Gender=Fem|Number=Sing",
            misc="Entity=e2)"),
        tok(5, "y", "CCONJ", 7, "cc"),
        tok(6, "el", "DET", 7, "det", misc="Entity=(e3-x-2-"),
        tok(7, "coche", "NOUN", 4, "conj", feats="Gender=Masc|Number=Sing",
            misc="Entity=e3)"),
    ]]
    for _ in range(antecedent_gap - 1):
        blocks.append([tok(1, "Pasó", "VERB", 0, "root")])
    blocks.append([
        tok(1, "Ella", "PRON", 2, "nsubj", feats=FEM,
            misc="Entity=(e1-person-1-)"),
        tok(2, "sonrió", "VERB", 0, "root"),
    ])
    return make_corpus(*blocks)


def test_competing_antecedents_hand_case():
    stats = competing_antecedents(_competing_corpus(),
                                  MentionType.OVERT_PRONOUN)
    assert stats.n_pronouns == 1
    assert stats.n_valid == 1
    assert stats.total_competitors == 1
    assert stats.valid_fraction == 1
    assert stats.mean_competitors == 1


def test_a_candidate_starting_on_the_pronoun_does_not_compete():
    # e3, another entity's mention, starts on the pronoun itself and its
    # head agrees with it, but it does not start before the anaphor
    corpus = make_corpus([
        tok(1, "Maria", "PROPN", 2, "nsubj", feats="Gender=Fem|Number=Sing",
            misc="Entity=(e1-person-1-)"),
        tok(2, "vio", "VERB", 0, "root"),
        tok(3, "la", "DET", 4, "det", misc="Entity=(e2-x-2-"),
        tok(4, "casa", "NOUN", 2, "obj", feats="Gender=Fem|Number=Sing",
            misc="Entity=e2)"),
    ], [
        tok(1, "Ella", "PRON", 2, "nsubj", feats=FEM,
            misc="Entity=(e3-x-1-(e1-person-1-)"),
        tok(2, "sonrió", "VERB", 0, "root", misc="Entity=e3)"),
    ])
    (document,) = corpus.documents
    starts = {e.entity_id: e.mentions[-1].start for e in document.entities}
    assert starts["e3"] == starts["e1"]
    stats = competing_antecedents(corpus, MentionType.OVERT_PRONOUN)
    # Ella twice (e1's anaphor and e3's head); la casa competes
    assert (stats.n_pronouns, stats.n_valid, stats.total_competitors) \
        == (2, 1, 1)


def test_competing_antecedent_too_far_is_invalid():
    stats = competing_antecedents(_competing_corpus(antecedent_gap=2),
                                  MentionType.OVERT_PRONOUN)
    assert stats.n_pronouns == 1
    assert stats.n_valid == 0
    assert stats.mean_competitors is None


def test_pronoun_without_gender_is_invalid():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", feats="Gender=Masc|Number=Sing",
            misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ], [
        tok(1, "they", "PRON", 2, "nsubj", feats="Number=Plur|PronType=Prs",
            misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ])
    stats = competing_antecedents(corpus, MentionType.OVERT_PRONOUN)
    assert stats.n_pronouns == 1
    assert stats.n_valid == 0


def test_competing_zero_pronoun_uses_empty_node_feats():
    corpus = make_corpus([
        tok(1, "Juan", "PROPN", 2, "nsubj", feats="Gender=Masc|Number=Sing",
            misc="Entity=(e1-x-1-)"),
        tok(2, "vino", "VERB", 0, "root"),
        tok(3, "el", "DET", 4, "det", misc="Entity=(e2-x-2-"),
        tok(4, "coche", "NOUN", 2, "obj", feats="Gender=Masc|Number=Sing",
            misc="Entity=e2)"),
    ], [
        tok(1, "Salió", "VERB", 0, "root"),
        tok("1.1", "_", "PRON", "_", "_",
            feats="Gender=Masc|Number=Sing|PronType=Prs", deps="1:nsubj",
            misc="Entity=(e1-x-1-)"),
    ])
    stats = competing_antecedents(corpus, MentionType.ZERO_PRONOUN)
    assert (stats.n_pronouns, stats.n_valid, stats.total_competitors) \
        == (1, 1, 1)


def test_competitors_never_include_own_entity(basic_corpus):
    for kind in (MentionType.OVERT_PRONOUN, MentionType.ZERO_PRONOUN):
        stats = competing_antecedents(basic_corpus, kind)
        assert stats.n_valid <= stats.n_pronouns


def test_genre_rates():
    corpus = parse_conllu("\n".join([
        "# newdoc id = GUM_vlog_hello",
        "# sent_id = v1",
        tok(1, "I", "PRON", 2, "nsubj", feats="Number=Sing|PronType=Prs"),
        tok(2, "tried", "VERB", 0, "root"),
        "",
        "# newdoc id = GUM_academic_dry",
        "# sent_id = a1",
        tok(1, "Results", "NOUN", 2, "nsubj"),
        tok(2, "follow", "VERB", 0, "root"),
        "",
    ]) + "\n")
    rates = dict(genre_rates(*genre_counts(corpus)))
    assert rates["academic"] == 0
    assert rates["vlog"] == Fraction(8000 * 1, 2)


def test_genre_counts_need_both_pron_and_prontype_prs():
    corpus = parse_conllu("\n".join([
        "# newdoc id = GUM_vlog_hello",
        "# sent_id = v1",
        tok(1, "I", "PRON", 2, "nsubj", feats="Number=Sing|PronType=Prs"),
        tok(2, "this", "PRON", 3, "nsubj", feats="PronType=Dem"),
        tok(3, "saw", "VERB", 0, "root"),
        tok(4, "who", "PRON", 3, "obj"),
        tok(5, "my", "DET", 3, "obj", feats="PronType=Prs"),
        "",
    ]) + "\n")
    pronouns, tokens = genre_counts(corpus)
    assert pronouns == {"vlog": 1}
    assert tokens == {"vlog": 5}


def test_genre_unknown_bucket():
    corpus = make_corpus([tok(1, "x", "VERB", 0, "root")], doc_id="nodashes")
    rates = genre_rates(*genre_counts(corpus))
    assert rates == [("unknown", 0)]


def test_corpus_statistics_fixture(basic_corpus):
    report = corpus_statistics(basic_corpus)
    assert report.value("documents") == 2
    assert report.value("sentences_per_document") == 3
    assert report.value("tokens_per_sentence") == Fraction(35, 6)
    assert report.value("entities") == 8
    assert report.value("mentions") == 10
    assert report.value("mentions_per_entity") == Fraction(10, 8)


def test_corpus_statistics_empty():
    report = corpus_statistics(parse_conllu(""))
    assert report.value("documents") == 0
    assert report.value("sentences_per_document") is None
    assert report.row("mentions").rendered() == "0"


def test_semantic_distance_fixture_vectors(basic_corpus):
    vectors = load_mention_vectors(DATA / "vectors.tsv")
    assert vectors.dimension == 2
    mean, variance = moments_to_mean_variance(
        *distance_moments(basic_corpus, vectors))
    assert mean == pytest.approx(5.0)
    assert variance == pytest.approx(0.0)


def test_semantic_distance_three_mentions_hand_computed():
    corpus = make_corpus([
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], [
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], [
        tok(1, "Rex", "PROPN", 0, "root", misc="Entity=(e1-x-1-)"),
    ], doc_id="d1")
    vectors = MentionVectors({
        ("d1", 0, "1"): (0.0, 0.0),
        ("d1", 1, "1"): (3.0, 4.0),
        ("d1", 2, "1"): (0.0, 8.0),
    }, 2)
    mean, variance = moments_to_mean_variance(
        *distance_moments(corpus, vectors))
    # pairwise distances 5, 8, 5
    assert mean == pytest.approx(6.0)
    assert variance == pytest.approx(2.0)


def test_semantic_distance_missing_vector_lists_keys(basic_corpus):
    vectors = MentionVectors({}, 2)
    with pytest.raises(MissingVectorError) as excinfo:
        distance_moments(basic_corpus, vectors)
    assert ("fixture-doc1", 0, "1,2,3") in excinfo.value.keys


def test_all_reports_invariant_under_document_reordering(basic_corpus):
    reversed_corpus = Corpus(documents=list(reversed(basic_corpus.documents)),
                             dataset=basic_corpus.dataset,
                             language=basic_corpus.language)
    for op in (head_position_stats, mention_type_distribution,
               first_mention_stats, entity_size_stats, corpus_statistics):
        assert op(basic_corpus).rows == op(reversed_corpus).rows
    assert (antecedent_category_counts(basic_corpus)
            == antecedent_category_counts(reversed_corpus))
    for kind in (MentionType.OVERT_PRONOUN, MentionType.ZERO_PRONOUN):
        assert (competing_antecedents(basic_corpus, kind)
                == competing_antecedents(reversed_corpus, kind))


def _heads_disagree(text=None):
    """basic.conllu with "The" annotated as head of "The old castle", so
    the annotated and syntactic rules pick different heads."""
    text = text or (DATA / "basic.conllu").read_text(encoding="utf-8")
    return parse_conllu(text.replace("Entity=(e1-thing-3-",
                                     "Entity=(e1-thing-1-"), language="es")


def _corpus_state(corpus):
    return (serialize(corpus),
            [{name: copy(getattr(d, name)) for name in Document.__slots__}
             for d in corpus.documents],
            [[m.head for m in d.mentions()] for d in corpus.documents])


def test_every_statistic_leaves_the_corpus_unchanged():
    corpus = _heads_disagree()
    vectors = MentionVectors({mention_key(m, d.doc_id): (0.0,)
                              for d in corpus.documents
                              for m in d.mentions()}, 1)
    before = _corpus_state(corpus)
    for rule in HEAD_RULES:
        for statistic in STATISTICS.values():
            statistic.compute(corpus, StatOptions(rule, vectors=vectors))
    assert _corpus_state(corpus) == before


def test_scoring_errors_and_export_leave_the_corpora_unchanged():
    gold = _heads_disagree()
    # the system splits castle/It and misses "La", so error analysis reads
    # the heads of undetected and of unlinked mentions
    text = (DATA / "basic.conllu").read_text(encoding="utf-8")
    pred = _heads_disagree(
        text.replace("Entity=(e1-thing-1-)", "Entity=(p1-thing-1-)")
            .replace("Entity=(e10-thing-1-)", "_"))
    pairs = list(zip(gold.documents, pred.documents))
    before = (_corpus_state(gold), _corpus_state(pred))
    for mode in MATCH_MODES:
        score_pairs(pairs, mode, "include")
        details = []
        report = analyze_errors(pairs, mode, details=details)
        assert report.n_undetected and sum(
            report.distance_buckets.values())
        assert details
    for target in EXPORT_TARGETS:
        for rule in HEAD_RULES:
            export_features(gold, {"es": "SVO"}, io.StringIO(),
                            io.StringIO(), target, 4, rule)
    assert (_corpus_state(gold), _corpus_state(pred)) == before


def test_report_addition_pools_counts():
    corpus_a = make_corpus([
        tok(1, "old", "ADJ", 2, "amod", misc="Entity=(e1-x-2-"),
        tok(2, "walls", "NOUN", 0, "root", misc="Entity=e1)"),
    ])
    corpus_b = make_corpus([
        tok(1, "walls", "NOUN", 0, "root", misc="Entity=(e1-x-1-"),
        tok(2, "everywhere", "ADV", 1, "advmod", misc="Entity=e1)"),
    ])
    report_a = head_position_stats(corpus_a)
    pooled = report_a + head_position_stats(corpus_b)
    assert pooled.dataset == report_a.dataset
    assert pooled.value("premodified_of_multitoken") == Fraction(50)
    assert pooled.row("premodified_of_multitoken").denominator == 2
    with pytest.raises(ValueError, match="cannot pool row"):
        report_a + mention_type_distribution(corpus_b)
