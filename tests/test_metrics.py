from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import conllu, parse_conllu
from corefkit.model import Document, Entity, Mention
from corefkit.metrics import (AlignmentError, ClusterSet, Scores,
                              ScoreReport, _max_assignment, align_mentions,
                              b_cubed, b_cubed_counts, ceafe, ceafe_counts,
                              document_pairs, macro_average, muc, muc_counts,
                              overlaps, remapped_cluster_set, score_pairs)
from support import documents_text, make_corpus, tok, watch_parses
from test_heads import documents


def clusters(*groups):
    return ClusterSet([set(g) for g in groups])


# ------------------------------------------------------------ hand values

def test_identity_scores_one():
    gold = clusters("abc", "de")
    pred = clusters("abc", "de")
    for metric in (muc, b_cubed, ceafe):
        assert metric(gold, pred) == Scores(1.0, 1.0, 1.0)


def test_muc_worked_example():
    gold = clusters("abc", "d")
    pred = clusters("ab", "cd")
    scores = muc(gold, pred)
    assert scores == Scores(0.5, 0.5, 0.5)


def test_b_cubed_worked_example():
    gold = clusters("abc", "d")
    pred = clusters("ab", "cd")
    scores = b_cubed(gold, pred)
    assert scores.recall == pytest.approx(2 / 3)
    assert scores.precision == pytest.approx(3 / 4)
    assert scores.f1 == pytest.approx(12 / 17)


def test_ceafe_worked_example():
    gold = clusters("ab", "cd")
    pred = clusters("abcd")
    scores = ceafe(gold, pred)
    assert scores.recall == pytest.approx(1 / 3)
    assert scores.precision == pytest.approx(2 / 3)


def test_empty_pred_b_cubed_zero():
    gold = clusters("ab")
    pred = clusters()
    scores = b_cubed(gold, pred)
    assert scores.precision == 0.0
    assert scores.recall == 0.0


def test_empty_inputs_zero_everywhere():
    empty = clusters()
    for metric in (muc, b_cubed, ceafe):
        assert metric(empty, empty) == Scores(0.0, 0.0, 0.0)


def test_cluster_set_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        clusters("ab", "bc")


def test_remapped_cluster_set_keys_and_policy(pair_docs):
    gold, _ = pair_docs
    everything, same = remapped_cluster_set(gold, gold, "exact", "include")
    assert len(everything.clusters) == 3
    assert same.clusters == everything.clusters
    assert len(set().union(*everything.clusters)) == len(gold.mentions())
    linked_only, _ = remapped_cluster_set(gold, gold, "exact", "exclude")
    assert sorted(len(c) for c in linked_only.clusters) == [2, 3]


def test_conll_f1_is_mean_of_three():
    report = ScoreReport(Scores(1, 1, 0.3), Scores(1, 1, 0.6),
                         Scores(1, 1, 0.9))
    assert report.conll_f1 == pytest.approx(0.6)


def test_macro_average():
    assert macro_average([50.0, 60.0]) == pytest.approx(55.0)
    assert macro_average([42.0]) == 42.0
    with pytest.raises(ValueError):
        macro_average([])


# -------------------------------------------------------------- alignment

def _doc_pair(gold_entity_lines, pred_entity_lines):
    base = [
        ("the", "DET", 2, "det"),
        ("castle", "NOUN", 4, "nsubj"),
        ("nearby", "ADV", 2, "advmod"),
        ("fell", "VERB", 0, "root"),
    ]

    def render(entity_misc):
        lines = ["# newdoc id = d1", "# global.Entity = eid-etype-head-other",
                 "# sent_id = s1"]
        for i, (form, upos, head, rel) in enumerate(base, start=1):
            lines.append(tok(i, form, upos, head, rel,
                             misc=entity_misc.get(i, "_")))
        lines.append("")
        return parse_conllu("\n".join(lines) + "\n").documents[0]

    return render(gold_entity_lines), render(pred_entity_lines)


def test_align_identity_is_total_bijection(pair_docs):
    gold, _ = pair_docs
    for mode in ("exact", "head"):
        alignment = align_mentions(gold, gold, mode)
        assert len(alignment) == len(gold.mentions())
        assert set(alignment.keys()) == set(alignment.values())


def test_align_head_mode_matches_shortened_span():
    # gold span tokens 1-3 with head "castle" (2); pred span 1-2
    gold, pred = _doc_pair(
        {1: "Entity=(e1-x-2-", 3: "Entity=e1)"},
        {1: "Entity=(p1-x-2-", 2: "Entity=p1)"})
    assert align_mentions(gold, pred, "exact") == {}
    alignment = align_mentions(gold, pred, "head")
    assert len(alignment) == 1
    (gold_mention,) = gold.entities[0].mentions
    assert list(alignment.values()) == [gold_mention]


def test_align_disjoint_spans_no_match():
    gold, pred = _doc_pair(
        {1: "Entity=(e1-x-2-", 2: "Entity=e1)"},
        {3: "Entity=(p1-x-1-)"})
    assert align_mentions(gold, pred, "exact") == {}
    assert align_mentions(gold, pred, "head") == {}


def test_align_rejects_different_segmentation():
    gold = make_corpus([tok(1, "a", "VERB", 0, "root")]).documents[0]
    pred = make_corpus([tok(1, "a", "VERB", 0, "root"),
                        tok(2, "b", "NOUN", 1, "obj")]).documents[0]
    with pytest.raises(AlignmentError, match="token counts"):
        align_mentions(gold, pred)


@st.composite
def _aligned_sides(draw) -> tuple[Document, Document]:
    """Gold and system documents over one hand-built sentence list. Each
    mention takes a span from a small pool, or part of one, so one side
    often has the same span in two entities and a gold span often holds a
    system span; some mentions carry an annotated head."""
    sentences = draw(documents()).sentences

    def span() -> tuple:
        tokens = draw(st.sampled_from(sentences)).tokens
        picks = draw(st.sets(st.integers(0, len(tokens) - 1), min_size=1,
                             max_size=4))
        return tuple(tokens[i] for i in sorted(picks))

    pool = [span() for _ in range(draw(st.integers(1, 4)))]

    def side(prefix: str) -> Document:
        entities = []
        for e in range(draw(st.integers(0, 4))):
            mentions = []
            for _ in range(draw(st.integers(1, 3))):
                tokens = draw(st.sampled_from(pool))
                if draw(st.booleans()):
                    keep = draw(st.sets(st.sampled_from(tokens), min_size=1))
                    tokens = tuple(t for t in tokens if t in keep)
                head = draw(st.none() | st.integers(1, len(tokens)))
                mentions.append(Mention(
                    f"{prefix}{e}", tokens,
                    attributes={} if head is None else {"head": str(head)},
                    sentences=sentences))
            entities.append(Entity(f"{prefix}{e}", mentions))
        return Document("d", sentences=sentences, entities=entities)

    return side("g"), side("p")


def _reference_alignment(gold, pred, mode):
    """Each system mention, in (length, start, end) order, scans every gold
    mention and claims the free one its mode allows of least (length,
    start, end). A tie goes to the earlier in document order; in head mode
    first to the one whose head comes first in the system span."""
    def extent(mention):
        return (len(mention.span), mention.start, mention.end)

    alignment = {}
    for system in sorted(pred.mentions(), key=extent):
        nodes = [(t.sent_index, t.index) for t in system.span]
        best = best_rank = None
        for candidate in gold.mentions():
            if candidate in alignment.values():
                continue
            gold_nodes = {(t.sent_index, t.index) for t in candidate.span}
            head = (candidate.head.sent_index, candidate.head.index)
            if mode == "exact" and gold_nodes == set(nodes):
                rank = extent(candidate)
            elif (mode == "head" and head in nodes
                  and gold_nodes >= set(nodes)):
                rank = (extent(candidate), nodes.index(head))
            else:
                continue
            if best is None or rank < best_rank:
                best, best_rank = candidate, rank
        if best is not None:
            alignment[system] = best
    return alignment


@settings(max_examples=300, deadline=None)
@given(_aligned_sides())
def test_alignment_matches_a_scan_of_every_gold_mention(sides):
    gold, pred = sides
    for mode in ("exact", "head"):
        assert (align_mentions(gold, pred, mode)
                == _reference_alignment(gold, pred, mode))


# -------------------------------------------------- dataset-level scoring

def test_score_identity_pair(pair_docs):
    gold, _ = pair_docs
    report = score_pairs([(gold, gold)], "exact", "exclude")
    assert report.muc == Scores(1.0, 1.0, 1.0)
    assert report.conll_f1 == 1.0


def test_score_fixture_pair_hand_computed(pair_docs):
    # gold: {John, He, man}, {dog, it}; system: {John, He}, {man, it},
    # dog a singleton (dropped under exclude), stick undetected.
    gold, pred = pair_docs
    report = score_pairs([(gold, pred)], "exact", "exclude")
    assert report.muc.recall == pytest.approx(1 / 3)
    assert report.muc.precision == pytest.approx(1 / 2)
    assert report.muc.f1 == pytest.approx(0.4)
    assert report.b_cubed.recall == pytest.approx(13 / 30)
    assert report.b_cubed.precision == pytest.approx(3 / 4)
    assert report.b_cubed.f1 == pytest.approx(39 / 71)
    assert report.ceafe.recall == pytest.approx(0.65)
    assert report.ceafe.precision == pytest.approx(0.65)
    assert report.conll_f1 == pytest.approx((0.4 + 39 / 71 + 0.65) / 3)


def test_all_singleton_pred_under_exclude_has_zero_recall():
    def render(*entity_ids):
        return make_corpus([
            tok(i, f"w{i}", "NOUN", 0 if i == 1 else 1,
                "root" if i == 1 else "dep", misc=f"Entity=({eid}-x-1-)")
            for i, eid in enumerate(entity_ids, start=1)]).documents[0]
    gold, pred = render("e1", "e1", "e1"), render("p1", "p2", "p3")
    gold_set, pred_set = remapped_cluster_set(gold, pred, "exact", "exclude")
    assert len(gold_set.clusters) == 1
    assert not pred_set.clusters
    assert score_pairs([(gold, pred)], "exact", "exclude").muc.recall == 0.0


def test_unknown_singleton_policy_raises(pair_docs):
    gold, pred = pair_docs
    with pytest.raises(ValueError, match="unknown singleton policy 'drop'"):
        remapped_cluster_set(gold, pred, "exact", "drop")


def test_score_include_policy_keeps_singletons(pair_docs):
    gold, pred = pair_docs
    include = score_pairs([(gold, pred)], "exact", "include")
    exclude = score_pairs([(gold, pred)], "exact", "exclude")
    assert include.b_cubed.recall > exclude.b_cubed.recall


def _dog_pair(pred_misc):
    """Gold: 'the big dog' (annotated head 3) and 'it', one entity."""
    def render(misc):
        return make_corpus([
            tok(1, "the", "DET", 3, "det", misc=misc.get(1, "_")),
            tok(2, "big", "ADJ", 3, "amod", misc=misc.get(2, "_")),
            tok(3, "dog", "NOUN", 4, "nsubj", misc=misc.get(3, "_")),
            tok(4, "saw", "VERB", 0, "root"),
            tok(5, "it", "PRON", 4, "obj", misc=misc.get(5, "_")),
        ]).documents[0]
    return (render({1: "Entity=(e1-x-3-", 3: "Entity=e1)",
                    5: "Entity=(e1-x-1-)"}), render(pred_misc))


def test_an_excluded_system_singleton_claims_no_gold_mention():
    # 'dog' alone would be aligned first, being shorter, and claim the gold
    # mention that 'big dog' matches by head
    linked = {2: "Entity=(p1-x-2-", 3: "Entity=p1)", 5: "Entity=(p1-x-1-)"}
    gold, pred = _dog_pair(linked)
    assert score_pairs([(gold, pred)], "head", "exclude").conll_f1 == 1.0
    gold, pred = _dog_pair({**linked, 3: "Entity=(p2-x-1-)p1)"})
    report = score_pairs([(gold, pred)], "head", "exclude")
    assert report.muc == Scores(1.0, 1.0, 1.0)
    assert report.conll_f1 == 1.0
    # kept under include, the singleton takes the gold mention
    assert score_pairs([(gold, pred)], "head", "include").muc.f1 == 0.0


def _random_document(rng, text, eid):
    """The one-sentence document parsed from text, its non-singleton and
    its singleton entities: hand-built mentions of random spans, at most
    three tokens long."""
    document = parse_conllu(text).documents[0]
    tokens = document.sentences[0].tokens

    def mention(name):
        start = rng.randrange(len(tokens))
        end = rng.randrange(start, min(start + 3, len(tokens)))
        return Mention(name, tuple(tokens[start:end + 1]),
                       sentences=document.sentences)

    linked, singletons = [], []
    for i in range(rng.randint(0, 3)):
        name = f"{eid}{i}"
        linked.append(Entity(name, [mention(name)
                                    for _ in range(rng.randint(2, 3))]))
    for i in range(rng.randint(1, 3)):
        name = f"{eid}s{i}"
        singletons.append(Entity(name, [mention(name)]))
    return document, linked, singletons


def _with(rng, entities, singletons):
    """entities, in their order, with singletons put in at random places."""
    out = list(entities)
    for singleton in singletons:
        out.insert(rng.randint(0, len(out)), singleton)
    return out


def test_excluded_singletons_never_move_a_score():
    rng = random.Random(2022)
    for _ in range(300):
        n = rng.randint(2, 7)
        # token 1 is the root, every other token attaches to an earlier one
        text = "\n".join(["# newdoc id = d"] + [
            tok(i, f"w{i}", "NOUN", 0 if i == 1 else rng.randint(1, i - 1),
                "root" if i == 1 else "dep") for i in range(1, n + 1)]) + "\n"
        gold, gold_linked, gold_singletons = _random_document(rng, text, "g")
        pred, pred_linked, pred_singletons = _random_document(rng, text, "p")
        for mode in ("exact", "head"):
            scores = set()
            for with_gold, with_pred in ((False, False), (True, False),
                                         (False, True), (True, True)):
                gold.entities = _with(rng, gold_linked,
                                      gold_singletons if with_gold else [])
                pred.entities = _with(rng, pred_linked,
                                      pred_singletons if with_pred else [])
                scores.add(score_pairs([(gold, pred)], mode, "exclude"))
            assert len(scores) == 1, (mode, text)


# ------------------------------------------------------------- properties

def _random_clustering(rng, universe, max_clusters=6):
    members = [m for m in universe if rng.random() < 0.8]
    rng.shuffle(members)
    if not members:
        return []
    n_clusters = rng.randint(1, min(max_clusters, len(members)))
    groups = [[] for _ in range(n_clusters)]
    for i, member in enumerate(members):
        groups[i % n_clusters].append(member)
    return [set(g) for g in groups if g]


def test_overlaps_count_shared_keys_both_ways():
    rng = random.Random(29)
    for _ in range(300):
        universe = range(rng.randint(0, 30))
        gold = _random_clustering(rng, universe, max_clusters=8)
        pred = _random_clustering(rng, universe, max_clusters=8)
        rows, cols = overlaps(gold, pred)
        # each count is |K∩R|; a pair that shares nothing has no entry
        assert rows == [{r: len(k & o) for r, o in enumerate(pred) if k & o}
                        for k in gold]
        # the second direction is the transpose of the first
        assert cols == [{g: row[r] for g, row in enumerate(rows) if r in row}
                        for r in range(len(pred))]
        assert overlaps(pred, gold) == (cols, rows)


def textbook_muc(keys, response):
    """Σ(|K| − |p(K)|) and Σ(|K| − 1) over the key clusters K, where p(K)
    is the partition of K by the response clusters; a key that no response
    cluster holds is a part of its own."""
    correct = total = 0
    for key in keys:
        parts = [key & other for other in response if key & other]
        n_parts = len(parts) + len(key - set().union(*parts))
        correct += len(key) - n_parts
        total += len(key) - 1
    return correct, total


def textbook_b_cubed(keys, response):
    """The sum over every key k of |K∩R| / |K|, where K is the key cluster
    holding k and R the response cluster holding k (none: empty), and the
    number of keys."""
    total = Fraction(0)
    for key in keys:
        for k in key:
            other = next((o for o in response if k in o), set())
            total += Fraction(len(key & other), len(key))
    return total, sum(len(key) for key in keys)


def test_muc_and_b_cubed_follow_their_textbook_definitions():
    rng = random.Random(30)
    one_sided = 0
    for _ in range(300):
        universe = range(rng.randint(0, 30))
        gold = _random_clustering(rng, universe, max_clusters=8)
        pred = _random_clustering(rng, universe, max_clusters=8)
        gold_keys, pred_keys = set().union(*gold), set().union(*pred)
        one_sided += bool(gold_keys - pred_keys and pred_keys - gold_keys)
        sets = ClusterSet(gold), ClusterSet(pred)
        # precision reads the system clusters as the keys, against gold
        assert muc_counts(*sets) == (*textbook_muc(pred, gold),
                                     *textbook_muc(gold, pred))
        assert b_cubed_counts(*sets) == (*textbook_b_cubed(pred, gold),
                                         *textbook_b_cubed(gold, pred))
    assert one_sided > 100  # each side holds keys the other lacks


def phi(a, b):
    """CEAFe's entity similarity 2|K∩R| / (|K|+|R|), on the sets."""
    return 2 * len(a & b) / (len(a) + len(b))


def brute_force_ceafe_total(gold, pred):
    """Max total similarity over all one-to-one cluster alignments."""
    if not gold or not pred:
        return 0.0
    if len(gold) <= len(pred):
        return max(sum(phi(g, p) for g, p in zip(gold, perm))
                   for perm in permutations(pred, len(gold)))
    return max(sum(phi(g, p) for g, p in zip(perm, pred))
               for perm in permutations(gold, len(pred)))


def test_ceafe_matches_brute_force_on_random_instances():
    rng = random.Random(20240817)
    for _ in range(300):
        universe = range(rng.randint(1, 12))
        gold = ClusterSet(_random_clustering(rng, universe))
        pred = ClusterSet(_random_clustering(rng, universe))
        best, _, best2, _ = ceafe_counts(gold, pred)
        expected = brute_force_ceafe_total(gold.clusters, pred.clusters)
        assert best == pytest.approx(expected)
        assert best2 == pytest.approx(expected)


@pytest.mark.parametrize("weight", ["integer", "real"])
def test_max_assignment_matches_brute_force_on_dense_matrices(weight):
    # Dense matrices of arbitrary weights, where most cells compete: the
    # overlap matrices CEAFe builds are sparse and rarely wider than 3×3.
    rng = random.Random(f"max-assignment-{weight}")
    draw = ((lambda: rng.randint(0, 9)) if weight == "integer"
            else (lambda: rng.uniform(-5.0, 5.0)))
    for n_rows in range(2, 7):
        for n_cols in range(n_rows, 8):
            for _ in range(12 if n_rows * n_cols < 30 else 4):
                weights = [[draw() for _ in range(n_cols)]
                           for _ in range(n_rows)]
                cols = _max_assignment(weights)
                assert sorted(cols) == sorted(set(cols))
                assert len(cols) == n_rows and 0 <= min(cols) \
                    and max(cols) < n_cols
                best = max(sum(row[c] for row, c in zip(weights, perm))
                           for perm in permutations(range(n_cols), n_rows))
                assert sum(row[c] for row, c in zip(weights, cols)) \
                    == pytest.approx(best, abs=1e-9), weights


SHAPES = ("free", "blocks", "ties", "merged", "same", "empty")


@st.composite
def cluster_pairs(draw):
    """Gold and system clusterings of at most 7 clusters each, in one of
    several shapes: unrelated labels, three disjoint overlap components,
    two-key clusters with many equal φ, one merged system cluster, system
    equal to gold, and an empty system side."""
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    n_keys = rng.randint(1, 14)

    def labels():
        n = rng.randint(1, 7)
        return [rng.randrange(n) if rng.random() < 0.85 else None
                for _ in range(n_keys)]

    gold_labels = labels()
    pred_labels = labels()
    if shape == "blocks":
        gold_labels = [2 * (k % 3) + rng.randrange(2) for k in range(n_keys)]
        pred_labels = [2 * (k % 3) + rng.randrange(2) for k in range(n_keys)]
    elif shape == "ties":
        order = rng.sample(range(n_keys), n_keys)
        gold_labels = [k // 2 for k in range(n_keys)]
        pred_labels = [order.index(k) // 2 for k in range(n_keys)]
    elif shape == "merged":
        pred_labels = [0 if g is not None else p
                       for g, p in zip(gold_labels, pred_labels)]
    elif shape == "same":
        pred_labels = gold_labels
    elif shape == "empty":
        pred_labels = [None] * n_keys

    def clustering(labels):
        groups: dict[int, set] = {}
        for key, group in enumerate(labels):
            if group is not None:
                groups.setdefault(group, set()).add(key)
        return ClusterSet(list(groups.values()))

    return shape, clustering(gold_labels), clustering(pred_labels)


@settings(max_examples=300, deadline=None)
@given(cluster_pairs())
def test_ceafe_counts_match_brute_force(case):
    shape, gold, pred = case
    assert len(gold.clusters) <= 7 and len(pred.clusters) <= 7
    expected = brute_force_ceafe_total(gold.clusters, pred.clusters)
    best, n_pred, best2, n_gold = ceafe_counts(gold, pred)
    assert best == best2 == pytest.approx(expected)
    assert (n_pred, n_gold) == (len(pred.clusters), len(gold.clusters))
    if shape == "empty":
        assert (best, n_pred) == (0.0, 0)
    if shape == "same" and gold.clusters:
        assert ceafe(gold, pred) == Scores(1.0, 1.0, 1.0)


@settings(max_examples=200)
@given(st.data())
def test_permutation_invariance(data):
    universe = list(range(10))
    seed = data.draw(st.integers(0, 2 ** 30))
    rng = random.Random(seed)
    gold_sets = _random_clustering(rng, universe)
    pred_sets = _random_clustering(rng, universe)
    gold = ClusterSet([set(s) for s in gold_sets])
    pred = ClusterSet([set(s) for s in pred_sets])
    shuffled_gold = list(gold_sets)
    shuffled_pred = list(pred_sets)
    rng.shuffle(shuffled_gold)
    rng.shuffle(shuffled_pred)
    gold2 = ClusterSet([set(s) for s in shuffled_gold])
    pred2 = ClusterSet([set(s) for s in shuffled_pred])
    for metric in (muc, b_cubed, ceafe):
        first = metric(gold, pred)
        second = metric(gold2, pred2)
        assert first.precision == pytest.approx(second.precision)
        assert first.recall == pytest.approx(second.recall)


def test_b_cubed_counts_exactly_invariant_under_relabelling():
    # Relabelling the keys changes the order in which sets iterate them;
    # the sums must not depend on it.
    rng = random.Random(1680)
    for _ in range(300):
        universe = range(rng.randint(1, 40))
        gold_sets = _random_clustering(rng, universe, max_clusters=8)
        pred_sets = _random_clustering(rng, universe, max_clusters=8)
        labels = rng.sample(range(10 ** 6), len(universe))

        def relabelled(sets):
            return ClusterSet([{labels[key] for key in s} for s in sets])

        assert b_cubed_counts(relabelled(gold_sets), relabelled(pred_sets)) \
            == b_cubed_counts(ClusterSet(gold_sets), ClusterSet(pred_sets))


def test_removing_correct_link_never_raises_muc_recall():
    rng = random.Random(99)
    for _ in range(200):
        universe = range(rng.randint(2, 10))
        gold = ClusterSet(_random_clustering(rng, universe))
        pred_sets = _random_clustering(rng, universe)
        splittable = [i for i, s in enumerate(pred_sets) if len(s) >= 2]
        if not splittable:
            continue
        index = rng.choice(splittable)
        moved = next(iter(pred_sets[index]))
        weakened = [set(s) for s in pred_sets]
        weakened[index].discard(moved)
        weakened.append({moved})
        before = muc(gold, ClusterSet(pred_sets)).recall
        after = muc(gold, ClusterSet(weakened)).recall
        assert after <= before + 1e-12


def test_scores_bounded_fuzz():
    rng = random.Random(7)
    for _ in range(500):
        universe = range(rng.randint(1, 14))
        gold = ClusterSet(_random_clustering(rng, universe))
        pred = ClusterSet(_random_clustering(rng, universe))
        for metric in (muc, b_cubed, ceafe):
            scores = metric(gold, pred)
            for value in (scores.precision, scores.recall, scores.f1):
                assert 0.0 <= value <= 1.0
            assert scores.f1 <= max(scores.precision, scores.recall) + 1e-12


# ---------------------------------------------------- pairing documents

def _docs(*ids):
    return [Document(doc_id) for doc_id in ids]


def _pair_ids(gold, pred):
    return [(g.doc_id, p.doc_id)
            for g, p in document_pairs(gold, pred, "xx")]


@pytest.mark.parametrize("pred_ids", [
    "abcd", "dcba", "badc", "cdab",
], ids=["in-order", "reversed", "swapped", "rotated"])
def test_document_pairs_pair_system_documents_in_any_order(pred_ids):
    assert _pair_ids(_docs(*"abcd"), _docs(*pred_ids)) == \
        [(d, d) for d in "abcd"]


def test_document_pairs_read_as_they_pair():
    read = []

    def stream(side, ids):
        for document in _docs(*ids):
            read.append((side, document.doc_id))
            yield document
    pairs = document_pairs(stream("gold", "abc"), stream("pred", "acb"), "xx")
    assert [g.doc_id for g, _ in [next(pairs)]] == ["a"]
    assert read == [("gold", "a"), ("pred", "a")]
    assert next(pairs)[0].doc_id == "b"  # c came early and waits for its turn
    assert read[2:] == [("gold", "b"), ("pred", "c"), ("pred", "b")]
    assert next(pairs)[1].doc_id == "c"
    assert read[5:] == [("gold", "c")]
    assert next(pairs, None) is None


def test_document_pairs_keeps_no_pair_it_yielded(tmp_path, monkeypatch):
    for side in ("gold", "pred"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "x.conllu").write_text(documents_text(range(2)),
                                                  "utf-8")
    sides, most_alive = watch_parses(monkeypatch)
    gold, pred = (conllu.iter_documents(tmp_path / side / "x.conllu")
                  for side in ("gold", "pred"))
    pairs = document_pairs(gold, pred, "xx")
    while next(pairs, None) is not None:  # the caller drops each pair
        pass
    assert sides.count("gold") == sides.count("pred") == 4
    assert most_alive == {"gold": 0, "pred": 0}


@pytest.mark.parametrize("gold, pred, message", [
    ("ab", "a", "system output misses document 'b'"),
    ("a", "ab", "system output has unknown document 'b'"),
    ("a", "ba", "system output has unknown document 'b'"),
    ("a", "cab", "system output has unknown document 'c'"),
    ("ab", "aab", "duplicate doc ids in system output"),
    ("ab", "baa", "duplicate doc ids in system output"),
    ("aab", "ab", "duplicate doc ids in gold"),
    ("", "", None),
])
def test_document_pairs_name_the_first_fault_of_the_walk(gold, pred,
                                                         message):
    if message is None:
        assert _pair_ids(_docs(*gold), _docs(*pred)) == []
        return
    with pytest.raises(AlignmentError, match=f"^xx: {message}$"):
        _pair_ids(_docs(*gold), _docs(*pred))


def test_score_pairs_of_no_pairs_is_none():
    assert score_pairs([], "exact", "exclude") is None
    assert score_pairs(iter(()), "head", "include") is None
