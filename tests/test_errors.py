from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from corefkit import errors, metrics, parse_conllu, parse_file, serialize
from corefkit.errors import (ErrorReport, analyze_document, analyze_errors,
                             unresolved_entities, unresolved_entity_details)
from corefkit.metrics import align_mentions, document_pairs
from corefkit.model import MATCH_MODES, UNRESOLVED_DEFINITIONS, Corpus
from corefkit.taxonomy import MentionType
from support import generated_pair, make_corpus, tok


def _doc(corpus):
    return corpus.documents[0]


def test_perfect_output_has_no_unresolved(pair_docs):
    gold, _ = pair_docs
    assert unresolved_entities(gold, gold, align_mentions(gold, gold)) == []
    report = analyze_document(gold, gold)
    assert report.unresolved_pct == 0
    assert report.two_mention_pct is None
    assert report.undetected_pct is None


def test_fixture_pair_error_tree(pair_docs):
    gold, pred = pair_docs
    report = analyze_document(gold, pred)
    # {dog, it} is unresolved (dog in a singleton, it linked to the man);
    # {John, He, man} keeps the John-He link.
    assert report.n_entities == 2
    assert report.unresolved_pct == Fraction(50)
    assert report.two_mention_pct == Fraction(100)
    assert report.undetected_pct == 0
    assert report.distance_buckets == {"2": 1}


@pytest.mark.parametrize("mode", ["exact", "head"])
def test_entity_details_are_those_analyze_errors_appends(pair_docs, mode):
    gold, pred = pair_docs
    appended: list[dict] = []
    analyze_errors([(gold, pred)], mode, details=appended)
    assert appended
    assert unresolved_entity_details(gold, pred, mode) == appended


def test_membership_definition_differs(pair_docs):
    gold, pred = pair_docs
    # "it" was matched into a multi-mention system cluster, so under the
    # membership definition the {dog, it} entity counts as touched.
    alignment = align_mentions(gold, pred)
    assert len(unresolved_entities(gold, pred, alignment, "links")) == 1
    assert unresolved_entities(gold, pred, alignment, "membership") == []


def test_split_mentions_over_singletons_is_unresolved():
    gold = _doc(make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ], [
        tok(1, "He", "PRON", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "hid", "VERB", 0, "root"),
    ]))
    pred = _doc(make_corpus([
        tok(1, "Rex", "PROPN", 2, "nsubj", misc="Entity=(p1-x-1-)"),
        tok(2, "ran", "VERB", 0, "root"),
    ], [
        tok(1, "He", "PRON", 2, "nsubj", misc="Entity=(p2-x-1-)"),
        tok(2, "hid", "VERB", 0, "root"),
    ]))
    unresolved = unresolved_entities(gold, pred, align_mentions(gold, pred))
    assert [e.entity_id for e in unresolved] == ["e1"]


def test_two_mention_breakdown_counts():
    def sentences(e1, e2):
        return ([tok(1, "A", "PROPN", 2, "nsubj", misc=e1),
                 tok(2, "v", "VERB", 0, "root"),
                 tok(3, "B", "PROPN", 2, "obj", misc=e2)],
                [tok(1, "A", "PROPN", 2, "nsubj", misc=e1),
                 tok(2, "v", "VERB", 0, "root"),
                 tok(3, "B", "PROPN", 2, "obj", misc=e2)],
                [tok(1, "B", "PROPN", 0, "root", misc=e2)])

    gold = _doc(make_corpus(*sentences("Entity=(e1-x-1-)",
                                       "Entity=(e2-x-1-)")))
    pred = _doc(make_corpus(*sentences("_", "_")))
    assert analyze_document(gold, gold).two_mention_pct is None
    # both entities are unresolved: e1 has two mentions, e2 has three
    report = analyze_document(gold, pred)
    assert report.n_unresolved == 2
    assert report.n_two_mention == 1
    assert report.two_mention_pct == Fraction(50)


def _undetected_corpus_pair():
    gold = make_corpus([
        tok(1, "A", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "v", "VERB", 0, "root"),
        tok(3, "B", "PROPN", 2, "obj", misc="Entity=(e2-x-1-)"),
    ], [
        tok(1, "A2", "PROPN", 2, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "v", "VERB", 0, "root"),
        tok(3, "B2", "PROPN", 2, "obj", misc="Entity=(e2-x-1-)"),
    ])
    text = serialize(gold)
    kept = text.replace("Entity=(e2-x-1-)", "_") \
               .replace("Entity=(e1-x-1-)", "_", 1) \
               .replace("Entity=(e1-x-1-)", "Entity=(p1-x-1-)")
    pred = parse_conllu(kept)
    return _doc(gold), _doc(pred)


def test_undetected_share_hand_count():
    gold, pred = _undetected_corpus_pair()
    report = analyze_document(gold, pred)
    assert report.n_unresolved == 2
    assert report.two_mention_pct == 100
    assert report.undetected_pct == Fraction(75)
    assert report.n_undetected == 3


def test_all_spans_detected_gives_zero_undetected(pair_docs):
    gold, pred = pair_docs
    report = analyze_document(gold, pred)
    assert report.n_two_mention > 0
    assert report.undetected_pct == 0
    assert report.n_undetected == 0


def test_undetected_profile_single_premodified_mention():
    def sentences(np, pronoun):
        return ([tok(1, "the", "DET", 3, "det", misc=np[0]),
                 tok(2, "old", "ADJ", 3, "amod"),
                 tok(3, "castle", "NOUN", 4, "nsubj", misc=np[1]),
                 tok(4, "fell", "VERB", 0, "root")],
                [tok(1, "It", "PRON", 2, "nsubj", misc=pronoun),
                 tok(2, "crumbled", "VERB", 0, "root")])

    gold = _doc(make_corpus(*sentences(("Entity=(e1-x-3-", "Entity=e1)"),
                                       "Entity=(e1-x-1-)")))
    # the system detects neither the noun phrase nor the pronoun
    pred = _doc(make_corpus(*sentences(("_", "_"), "_")))
    report = analyze_document(gold, pred)
    assert (report.n_two_mention, report.n_undetected) == (1, 2)
    assert report.undetected_types == {MentionType.NOMINAL_NOUN: 1,
                                       MentionType.OVERT_PRONOUN: 1}
    # the one-token pronoun is short and leaves the pre-modified share,
    # which is taken over multi-token mentions only; the share of all
    # undetected mentions counts it
    assert (report.n_short, report.n_multi_token,
            report.n_premodified) == (1, 1, 1)
    assert report.short_pct == 50
    assert report.premodified_pct == 100
    assert report.premodified_share_of_all == Fraction(1, 2)
    assert report.mean_undetected_length == 2
    assert report.distance_buckets == {}


def test_missing_link_same_sentence_bucket_zero():
    corpus = make_corpus([
        tok(1, "Pat", "PROPN", 3, "nsubj", misc="Entity=(e1-x-1-)"),
        tok(2, "saw", "VERB", 0, "root").replace("saw\tsaw\tVERB\t_\t_\t0",
                                                 "saw\tsaw\tVERB\t_\t_\t3"),
        tok(3, "saw", "VERB", 0, "root"),
        tok(4, "Pat", "PROPN", 3, "obj", misc="Entity=(e1-x-1-)"),
    ])
    gold = _doc(corpus)
    # the system detects both mentions but puts them in two clusters
    pred = _doc(parse_conllu(serialize(corpus).replace(
        "Entity=(e1-x-1-)", "Entity=(p1-x-1-)", 1).replace(
        "Entity=(e1-x-1-)", "Entity=(p2-x-1-)")))
    report = analyze_document(gold, pred)
    assert report.n_two_mention == 1
    assert report.n_undetected == 0
    assert report.distance_buckets == {"0": 1}
    # with one of the two mentions undetected, the entity has no bucket
    pred = _doc(parse_conllu(serialize(corpus).replace(
        "Entity=(e1-x-1-)", "_", 1)))
    report = analyze_document(gold, pred)
    assert report.n_undetected == 1
    assert report.distance_buckets == {}


def test_no_predicted_clusters_gives_100_percent_unresolved(pair_docs):
    gold, _ = pair_docs
    import re
    stripped = re.sub(r"Entity=[^\t|\n]+\|?", "", serialize(Corpus(documents=[gold])))
    stripped = stripped.replace("\t\n", "\t_\n")
    pred = _doc(parse_conllu(stripped))
    assert pred.entities == []
    report = analyze_document(gold, pred)
    assert report.unresolved_pct == Fraction(100)
    assert report.undetected_pct == Fraction(100)


def test_cluster_id_renaming_is_invisible(pair_docs):
    gold, pred = pair_docs
    renamed_text = serialize(Corpus(documents=[pred])) \
        .replace("s1", "zz91").replace("s2", "zz92").replace("s3", "zz93")
    renamed = _doc(parse_conllu(renamed_text))
    base = analyze_document(gold, pred)
    other = analyze_document(gold, renamed)
    assert base.unresolved_pct == other.unresolved_pct
    assert base.undetected_types == other.undetected_types
    assert base.distance_buckets == other.distance_buckets


def test_undetected_partition_invariant(pair_docs):
    gold, pred = pair_docs
    report = analyze_document(gold, pred)
    assert report.n_undetected <= 2 * report.n_two_mention
    # detected + undetected partition the two-mention entities' mentions
    both_detected = sum(report.distance_buckets.values())
    assert (2 * both_detected + report.n_undetected
            <= 2 * report.n_two_mention)


def test_error_report_addition_pools(pair_docs):
    gold, pred = pair_docs
    single = analyze_document(gold, pred)
    pooled = analyze_errors([(gold, pred), (gold, pred)], dataset="two")
    assert pooled == ErrorReport("two") + single + single
    assert pooled.n_entities == 2 * single.n_entities
    assert pooled.unresolved_pct == single.unresolved_pct
    empty = analyze_errors([], "head", "membership", dataset="none")
    assert empty == ErrorReport("none")
    assert empty.unresolved_pct is None


def test_pooling_adds_every_field_after_the_label():
    left = ErrorReport("left", 1, 2, 3, Counter({"0": 4}), 5, 6, 7, 8, 9,
                       Counter({MentionType.NOMINAL_NOUN: 10}))
    right = ErrorReport("right", 11, 12, 13, Counter({"0": 14, "3+": 15}),
                        16, 17, 18, 19, 20,
                        Counter({MentionType.NOMINAL_NOUN: 21,
                                 MentionType.OVERT_PRONOUN: 22}))
    pooled = left + right
    assert (pooled.dataset, pooled.n_entities, pooled.n_unresolved,
            pooled.n_two_mention, pooled.distance_buckets,
            pooled.n_undetected, pooled.n_short, pooled.n_multi_token,
            pooled.n_premodified, pooled.undetected_length,
            pooled.undetected_types) == (
        "left", 12, 14, 16, {"0": 18, "3+": 15}, 21, 23, 25, 27, 29,
        {MentionType.NOMINAL_NOUN: 31, MentionType.OVERT_PRONOUN: 22})
    # the operands are left as they were
    assert left == ErrorReport("left", 1, 2, 3, Counter({"0": 4}), 5, 6, 7,
                               8, 9, Counter({MentionType.NOMINAL_NOUN: 10}))


def _unlinked_pair(spans: list[tuple[int, int]], n_sentences: int):
    """A gold document whose entity k has one-token mentions in the two
    sentences spans[k], and a system document that detects every mention
    but links none."""
    blocks = [[] for _ in range(n_sentences)]
    for k, sentences in enumerate(spans):
        for sentence in sentences:
            blocks[sentence].append(f"Entity=(e{k}-x-1-)")
    blocks = [[tok(i, f"N{i}", "PROPN", len(misc) + 1, "nsubj", misc=m)
               for i, m in enumerate(misc, start=1)]
              + [tok(len(misc) + 1, "v", "VERB", 0, "root")]
              for misc in blocks]
    gold = make_corpus(*blocks)
    text = serialize(gold)
    for k in range(len(spans)):
        text = text.replace(f"(e{k}-", f"(p{k}a-", 1) \
                   .replace(f"(e{k}-", f"(p{k}b-", 1)
    return _doc(gold), _doc(parse_conllu(text))


def test_distance_buckets_follow_the_sentence_indices():
    spans = [(1, 1), (1, 2), (2, 4), (2, 5), (3, 8)]  # distances 0 1 2 3 5
    gold, pred = _unlinked_pair(spans, 9)
    reference = Counter()
    for entity in gold.entities:
        first, second = (m.sent_index for m in entity.mentions)
        distance = second - first
        reference["3+" if distance >= 3 else str(distance)] += 1
    assert [tuple(m.sent_index for m in e.mentions)
            for e in gold.entities] == spans
    report = analyze_document(gold, pred)
    assert report.n_two_mention == report.n_unresolved == len(spans)
    assert report.distance_buckets == reference \
        == {"0": 1, "1": 1, "2": 1, "3+": 2}
    assert set(report.distance_buckets) <= set(errors.DISTANCE_BUCKETS)


def _undetected_second_mentions(ks, doc_id):
    """Gold: entity e{k} for each k, a proper noun in two sentences; system:
    only its first mention, as a singleton."""
    blocks = [[tok(1, f"A{k}", "PROPN", 2, "nsubj",
                   misc=f"Entity=(e{k}-x-1-)"), tok(2, "v", "VERB", 0, "root")]
              for k in ks for _ in range(2)]
    gold = make_corpus(*blocks, doc_id=doc_id)
    text = serialize(gold)
    for k in ks:
        text = text.replace(f"Entity=(e{k}-x-1-)", f"Entity=(p{k}-x-1-)", 1) \
                   .replace(f"Entity=(e{k}-x-1-)", "_")
    return _doc(gold), _doc(parse_conllu(text))


def test_pooled_reports_equal_one_run_over_the_concatenated_documents():
    pooled = analyze_errors([_undetected_second_mentions([k], f"doc{k}")
                             for k in range(3)], dataset="toy")
    whole = analyze_document(*_undetected_second_mentions(range(3), "doc"))
    assert pooled == whole
    assert whole.n_undetected == 3
    (mention_type,) = whole.undetected_types
    assert pooled.undetected_types == {mention_type: 3}


# ------------------------------------------- the unresolved-entity rule

def reference_unresolved(gold, pred, alignment, definition):
    """The rule counted on its own: the system cluster of each claimed gold
    mention, then one Counter of those clusters per gold entity."""
    cluster_of = {alignment[m]: index
                  for index, entity in enumerate(pred.entities)
                  for m in entity.mentions if m in alignment}
    unresolved = []
    for entity in gold.entities:
        if entity.is_singleton():
            continue
        hits = Counter(cluster_of[m] for m in entity.mentions
                       if m in cluster_of)
        if definition == "links":
            resolved = any(count >= 2 for count in hits.values())
        else:
            resolved = bool(hits)
        if not resolved:
            unresolved.append(entity)
    return unresolved


def has_muc_correct_link(entity, pred, alignment):
    """Whether two of the entity's mentions were claimed by system mentions
    of one system entity: a link that MUC counts as correct."""
    entity_of = {}  # each claimed gold mention -> its claimant's entity
    for index, system in enumerate(pred.entities):
        for mention in system.mentions:
            if mention in alignment:
                entity_of[alignment[mention]] = index
    return any(a in entity_of and entity_of.get(b) == entity_of[a]
               for a, b in combinations(entity.mentions, 2))


@pytest.fixture(scope="module")
def rule_pairs(pair_docs, tmp_path_factory):
    """(gold, system) document pairs: the fixture pair, the four pairs of
    a generated corpus, and a pair with an entity that the system misses
    altogether."""
    root = generated_pair(tmp_path_factory.mktemp("generated"))
    name = "en_synth-corefud-train.conllu"
    generated = list(document_pairs(
        parse_file(root / "gold" / "en_synth" / name),
        parse_file(root / "pred" / name)))
    assert len(generated) == 4
    return [pair_docs, *generated, _undetected_corpus_pair()]


@pytest.mark.parametrize("definition", UNRESOLVED_DEFINITIONS)
@pytest.mark.parametrize("mode", MATCH_MODES)
def test_unresolved_entities_match_the_reference(rule_pairs, mode,
                                                 definition):
    found = 0
    for gold, pred in rule_pairs:
        alignment = align_mentions(gold, pred, mode)
        unresolved = unresolved_entities(gold, pred, alignment, definition)
        assert unresolved == reference_unresolved(gold, pred, alignment,
                                                  definition)
        found += len(unresolved)
    assert found  # the pairs exercise the rule


@pytest.mark.parametrize("mode", MATCH_MODES)
def test_unresolved_under_links_means_no_muc_correct_link(rule_pairs, mode):
    for gold, pred in rule_pairs:
        alignment = align_mentions(gold, pred, mode)
        unresolved = unresolved_entities(gold, pred, alignment, "links")
        expected = [e for e in gold.entities if not e.is_singleton()
                    and not has_muc_correct_link(e, pred, alignment)]
        assert unresolved == expected


def test_an_unknown_definition_is_refused_first(pair_docs):
    gold, pred = pair_docs
    with pytest.raises(ValueError, match="unknown definition 'any'"):
        unresolved_entities(gold, pred, {}, "any")


def test_one_overlap_table_per_document_pair(pair_docs, monkeypatch):
    calls = []
    overlaps = metrics.overlaps

    def counted(clusters, other):
        calls.append(1)
        return overlaps(clusters, other)
    monkeypatch.setattr(metrics, "overlaps", counted)
    monkeypatch.setattr(errors, "overlaps", counted)
    for mode in MATCH_MODES:
        calls.clear()
        metrics.score_pairs([pair_docs], mode)
        assert len(calls) == 3  # MUC, B³ and CEAFe once each
        calls.clear()
        analyze_errors([pair_docs], mode)
        assert len(calls) == 1
