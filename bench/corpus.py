"""Seeded generator of CorefUD-style corpora for the benchmark.

Standard library only. ``generate(shape, seed, root)`` writes a gold tree of
``<dataset>-corefud-<split>.conllu`` files, a system-output tree with the
same file names whose Entity annotation is perturbed (dropped, shifted,
split, merged and spurious mentions), and beside each gold file a
``.spans.tsv`` listing the mention spans the annotation is meant to encode.
It returns a ``Manifest`` with the counts the benchmark checks outputs
against. The same shape and seed always give the same bytes.

Every corner case of the format appears in every workload: nested,
crossing and discontinuous mentions, empty nodes, multiword-token ranges,
singletons and annotated heads. The shapes differ only in how much of each.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ENTITY_LAYOUT = "eid-etype-head-other"
GENRES = ("news", "fiction", "wiki", "speech", "academic")
ETYPES = ("person", "place", "organization", "object", "event", "abstract")
WORD_ORDER = {"en": "SVO", "cs": "SVO", "es": "SVO", "hu": "NoDominant",
              "tr": "SOV"}

# (upos, weight, deprels the token may take when it is not the root)
_UPOS = (
    ("NOUN", 22, ("nsubj", "obj", "obl", "nmod", "appos", "conj", "iobj",
                  "compound", "nsubj:pass", "obl:tmod")),
    ("PROPN", 7, ("nsubj", "obj", "flat", "nmod", "appos", "vocative")),
    ("PRON", 9, ("nsubj", "obj", "nmod:poss", "obl", "iobj", "expl")),
    ("VERB", 12, ("advcl", "ccomp", "xcomp", "acl", "parataxis", "conj",
                  "csubj", "acl:relcl")),
    ("DET", 12, ("det", "det:poss")),
    ("ADJ", 8, ("amod", "advmod", "conj")),
    ("ADP", 10, ("case", "fixed")),
    ("ADV", 5, ("advmod", "discourse")),
    ("AUX", 4, ("aux", "cop", "aux:pass")),
    ("CCONJ", 3, ("cc",)),
    ("NUM", 3, ("nummod",)),
    ("PUNCT", 5, ("punct",)),
)
_UPOS_NAMES = tuple(u for u, _, _ in _UPOS)
_UPOS_WEIGHTS = tuple(w for _, w, _ in _UPOS)
_DEPRELS = {u: d for u, _, d in _UPOS}
_NOMINAL = ("NOUN", "PROPN", "PRON")
_GENDERS = ("Masc", "Fem", "Neut")
_NUMBERS = ("Sing", "Plur")


@dataclass(frozen=True)
class Perturbation:
    """Probabilities with which the system output departs from gold."""

    drop: float = 0.15      # per mention
    shift: float = 0.10     # per contiguous multi-node mention: move one edge
    split: float = 0.15     # per entity of four or more mentions
    merge: float = 0.08     # per entity: absorb a later entity
    spurious: float = 0.08  # extra one-token mentions, per gold mention


@dataclass(frozen=True)
class Shape:
    """Everything the generator varies between workloads."""

    datasets: tuple[str, ...]           # "<language>_<name>"
    files_per_dataset: int
    docs_per_file: int
    sentences: tuple[int, int]          # per document, inclusive range
    tokens: tuple[int, int]             # surface tokens per sentence
    chain: float                        # chance a token hangs below the last
                                        # attached one (tree depth)
    mentions_per_sentence: float
    max_mention_width: int
    nested: float                       # share of mentions placed inside one
    crossing: float                     # share overlapping one partially
    discontinuous: float                # share with two parts
    empty_nodes: float                  # empty nodes per sentence
    mwt: float                          # multiword-token ranges per sentence
    singletons: float                   # share of entities kept singleton
    join: float                         # chance a mention joins an entity
    annotated_heads: float              # share of multi-node mentions with
                                        # a head attribute
    export_width: int                   # --max-width of the span export
    perturbation: Perturbation = field(default_factory=Perturbation)


@dataclass
class FileCounts:
    documents: int = 0
    sentences: int = 0
    tokens: int = 0      # surface tokens
    mentions: int = 0
    entities: int = 0
    candidate_spans: int = 0  # records of the span export at export_width


@dataclass
class Manifest:
    gold_root: Path
    pred_root: Path
    word_order: Path
    export_width: int
    files: dict[str, FileCounts]        # gold path (str) -> counts
    datasets: dict[str, list[str]]      # dataset -> its gold paths

    def total(self, attr: str, dataset: str | None = None) -> int:
        paths = self.datasets[dataset] if dataset else self.files
        return sum(getattr(self.files[p], attr) for p in paths)


# ------------------------------------------------------------- sentences

@dataclass
class _Node:
    index: str
    form: str
    upos: str
    feats: str
    head: str
    deprel: str
    deps: str
    space_after: bool = True
    depth: int = 0
    brackets: list[str] = field(default_factory=list)


def _feats(rng: random.Random, upos: str) -> str:
    if upos in ("NOUN", "PROPN"):
        return f"Gender={rng.choice(_GENDERS)}|Number={rng.choice(_NUMBERS)}"
    if upos == "PRON":
        items = []
        if rng.random() < 0.8:
            items.append(f"Gender={rng.choice(_GENDERS)}")
        items.append(f"Number={rng.choice(_NUMBERS)}")
        items.append("Person=3")
        items.append("PronType=" + ("Prs" if rng.random() < 0.75 else "Dem"))
        return "|".join(items)
    if upos == "DET":
        return "Definite=" + rng.choice(("Def", "Ind")) + "|PronType=Art"
    if upos == "VERB":
        return "Tense=" + rng.choice(("Past", "Pres"))
    return "_"


def _sentence(rng: random.Random, shape: Shape) -> list[_Node]:
    n = rng.randint(*shape.tokens)
    upos = rng.choices(_UPOS_NAMES, _UPOS_WEIGHTS, k=n)
    # Head tree: attach tokens in random order, each below the previously
    # attached token (building chains) or below a shallow one.
    order = list(range(n))
    rng.shuffle(order)
    parent = [-1] * n
    depth = [0] * n
    shallow = [order[0]]
    for prev, t in zip(order, order[1:]):
        p = prev if rng.random() < shape.chain else rng.choice(shallow)
        parent[t] = p
        depth[t] = depth[p] + 1
        if depth[t] <= 1:
            shallow.append(t)
    root = order[0]
    upos[root] = "VERB"
    nodes = []
    for i in range(n):
        form = f"{upos[i].lower()}{rng.randrange(400)}"
        if upos[i] == "PUNCT":
            form = rng.choice((".", ",", ";"))
        deprel = "root" if i == root else rng.choice(_DEPRELS[upos[i]])
        nodes.append(_Node(str(i + 1), form, upos[i], _feats(rng, upos[i]),
                           str(parent[i] + 1), deprel, "_",
                           depth=depth[i]))
    for i in range(n - 1):
        if nodes[i + 1].upos == "PUNCT":
            nodes[i].space_after = False
    # Empty nodes (zero pronouns) go after a surface token; their governor
    # is given in DEPS only.
    empty_after: dict[int, int] = {}
    for _ in range(_count(rng, shape.empty_nodes)):
        k = rng.randint(1, n)
        empty_after[k] = empty_after.get(k, 0) + 1
    out: list[_Node] = []
    for i, node in enumerate(nodes, start=1):
        out.append(node)
        for j in range(1, empty_after.get(i, 0) + 1):
            gov = rng.randint(1, n)
            out.append(_Node(f"{i}.{j}", "_", "PRON",
                             f"Gender={rng.choice(_GENDERS)}|Number="
                             f"{rng.choice(_NUMBERS)}|PronType=Prs",
                             "_", "_", f"{gov}:{rng.choice(('nsubj', 'obj'))}",
                             depth=depth[gov - 1] + 1))
    return out


def _count(rng: random.Random, mean: float) -> int:
    """Small non-negative integer with the given mean."""
    whole = int(mean)
    return whole + (1 if rng.random() < mean - whole else 0)


def _mwt_ranges(rng: random.Random, nodes: list[_Node],
                shape: Shape) -> dict[int, str]:
    """Multiword-token range lines keyed by the node position they precede.
    A range never encloses an empty node."""
    ranges: dict[int, str] = {}
    for _ in range(_count(rng, shape.mwt)):
        pos = rng.randrange(len(nodes) - 1)
        a, b = nodes[pos], nodes[pos + 1]
        if "." in a.index or "." in b.index or pos in ranges \
                or pos - 1 in ranges or pos + 1 in ranges:
            continue
        form = a.form + b.form
        ranges[pos] = "\t".join((f"{a.index}-{b.index}", form)
                                + ("_",) * 8)
    return ranges


# -------------------------------------------------------------- mentions

@dataclass
class _Mention:
    sent: int
    parts: tuple[tuple[int, int], ...]   # inclusive node ranges, in order
    head: int | None = None              # 1-based within the node span
    etype: str = "object"

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(i for a, b in self.parts for i in range(a, b + 1))

    @property
    def first(self) -> tuple[int, int]:
        return (self.sent, self.parts[0][0])

    @property
    def last(self) -> tuple[int, int]:
        return (self.sent, self.parts[-1][1])


def _pick_span(rng: random.Random, nodes: list[_Node],
               existing: list[_Mention],
               shape: Shape) -> tuple[tuple[int, int], ...] | None:
    n = len(nodes)
    roll = rng.random()
    wide = [m for m in existing if len(m.parts) == 1
            and m.parts[0][1] - m.parts[0][0] >= 1]
    if wide and roll < shape.nested:
        a, b = rng.choice(wide).parts[0]
        x = rng.randint(a, b)
        y = rng.randint(x, b)
        return ((x, y),) if (x, y) != (a, b) else None
    roll -= shape.nested
    if wide and roll < shape.crossing:
        a, b = rng.choice(wide).parts[0]
        if b + 1 >= n:
            return None
        x = rng.randint(a + 1, b)
        y = rng.randint(b + 1, min(n - 1, b + shape.max_mention_width))
        return ((x, y),)
    roll -= shape.crossing
    width = min(n, 1 + int(rng.expovariate(2.0 / shape.max_mention_width)))
    width = min(width, shape.max_mention_width)
    if roll < shape.discontinuous and n >= 4:
        a = rng.randrange(n - 3)
        b = rng.randint(a, min(a + 2, n - 3))
        c = rng.randint(b + 2, min(b + 4, n - 1))
        d = rng.randint(c, min(c + 2, n - 1))
        return ((a, b), (c, d))
    if width == 1:
        # one-node mentions favour nominal heads and empty nodes
        nominal = [i for i, t in enumerate(nodes) if t.upos in _NOMINAL]
        if nominal and rng.random() < 0.8:
            i = rng.choice(nominal)
            return ((i, i),)
    a = rng.randrange(n - width + 1)
    return ((a, a + width - 1),)


def _syntactic_head(nodes: list[_Node], span: tuple[int, ...]) -> int:
    """1-based position in the span of its shallowest node."""
    best = min(range(len(span)), key=lambda i: (nodes[span[i]].depth, i))
    return best + 1


def _sentence_mentions(rng: random.Random, sent: int, nodes: list[_Node],
                       shape: Shape, seen: set) -> list[_Mention]:
    mentions: list[_Mention] = []
    for i, node in enumerate(nodes):
        if "." in node.index and rng.random() < 0.9:
            mentions.append(_Mention(sent, ((i, i),), 1))
            seen.add((sent, (i,)))
    for _ in range(_count(rng, shape.mentions_per_sentence)):
        parts = _pick_span(rng, nodes, mentions, shape)
        if parts is None:
            continue
        mention = _Mention(sent, parts)
        key = (sent, mention.nodes)
        if key in seen:
            continue
        seen.add(key)
        span = mention.nodes
        if len(span) == 1:
            mention.head = 1
        elif rng.random() < shape.annotated_heads:
            mention.head = _syntactic_head(nodes, span)
        mentions.append(mention)
    for mention in mentions:
        mention.etype = rng.choice(ETYPES)
    return mentions


def _cluster(rng: random.Random, mentions: list[_Mention],
             shape: Shape) -> list[list[_Mention]]:
    """Group mentions (in document order) into entities whose mentions do
    not overlap one another."""
    entities: list[list[_Mention]] = []
    open_entities: list[int] = []
    for mention in sorted(mentions, key=lambda m: (m.first, m.last)):
        joinable = [e for e in open_entities[-40:]
                    if entities[e][-1].last < mention.first]
        if joinable and rng.random() < shape.join:
            # recent entities are likelier antecedents
            e = joinable[-1 - min(len(joinable) - 1,
                                  int(rng.expovariate(0.3)))]
            entities[e].append(mention)
            mention.etype = entities[e][0].etype
            continue
        entities.append([mention])
        if rng.random() >= shape.singletons:
            open_entities.append(len(entities) - 1)
    return entities


# -------------------------------------------------------------- encoding

def _encode(sentences: list[list[_Node]], entities: list[list[_Mention]],
            ids: list[str]) -> None:
    """Write Entity brackets for the given clusters onto the nodes."""
    closes: dict[tuple[int, int], list[tuple[int, str]]] = {}
    singles: dict[tuple[int, int], list[str]] = {}
    opens: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for eid, mentions in zip(ids, entities):
        for mention in mentions:
            n_parts = len(mention.parts)
            for p, (a, b) in enumerate(mention.parts, start=1):
                bid = eid if n_parts == 1 else f"{eid}[{p}/{n_parts}]"
                if p == 1:
                    head = "" if mention.head is None else str(mention.head)
                    label = f"{bid}-{mention.etype}-{head}-"
                else:
                    label = bid
                if a == b:
                    singles.setdefault((mention.sent, a), []).append(
                        f"({label})")
                else:
                    opens.setdefault((mention.sent, a), []).append(
                        (b, f"({label}"))
                    closes.setdefault((mention.sent, b), []).append(
                        (a, f"{bid})"))
    for s, sentence in enumerate(sentences):
        for i, node in enumerate(sentence):
            # inner mentions close first; outer mentions open first
            parts = [t for _, t in sorted(closes.get((s, i), ()),
                                          key=lambda c: -c[0])]
            parts += singles.get((s, i), [])
            parts += [t for _, t in sorted(opens.get((s, i), ()),
                                           key=lambda o: -o[0])]
            node.brackets = parts


def _render(doc_id: str, sentences: list[list[_Node]],
            ranges: list[dict[int, str]]) -> list[str]:
    lines = []
    for s, (nodes, mwt) in enumerate(zip(sentences, ranges)):
        if s == 0:
            lines.append(f"# newdoc id = {doc_id}")
            lines.append(f"# global.Entity = {ENTITY_LAYOUT}")
        lines.append(f"# sent_id = {doc_id}-s{s + 1}")
        text = " ".join(n.form for n in nodes if "." not in n.index)
        lines.append(f"# text = {text}")
        for i, node in enumerate(nodes):
            if i in mwt:
                lines.append(mwt[i])
            misc = []
            if node.brackets:
                misc.append("Entity=" + "".join(node.brackets))
            if not node.space_after:
                misc.append("SpaceAfter=No")
            lines.append("\t".join((
                node.index, node.form,
                "_" if node.form == "_" else node.form.rstrip("0123456789"),
                node.upos, "_", node.feats, node.head, node.deprel,
                node.deps, "|".join(misc) or "_")))
        lines.append("")
    return lines


# ------------------------------------------------------------ perturbing

def _perturb(rng: random.Random, sentences: list[list[_Node]],
             entities: list[list[_Mention]],
             p: Perturbation) -> list[list[_Mention]]:
    out: list[list[_Mention]] = []
    for mentions in entities:
        kept = []
        for m in mentions:
            if rng.random() < p.drop:
                continue
            m = _Mention(m.sent, m.parts, m.head, m.etype)
            a, b = m.parts[0]
            if len(m.parts) == 1 and b > a and rng.random() < p.shift:
                if rng.random() < 0.5 and b + 1 < len(sentences[m.sent]):
                    m.parts = ((a, b + 1),)
                else:
                    m.parts = ((a + 1, b),)
                m.head = None
            kept.append(m)
        if len(kept) >= 4 and rng.random() < p.split:
            cut = rng.randint(1, len(kept) - 1)
            out.append(kept[:cut])
            kept = kept[cut:]
        if kept:
            out.append(kept)
    merged: list[list[_Mention]] = []
    absorbed: set[int] = set()
    for i, mentions in enumerate(out):
        if i in absorbed:
            continue
        if rng.random() < p.merge and i + 1 < len(out):
            j = rng.randint(i + 1, min(len(out) - 1, i + 30))
            if j not in absorbed:
                absorbed.add(j)
                mentions = mentions + out[j]
        merged.append(mentions)
    n_gold = sum(len(e) for e in entities)
    for _ in range(int(n_gold * p.spurious)):
        s = rng.randrange(len(sentences))
        i = rng.randrange(len(sentences[s]))
        mention = _Mention(s, ((i, i),), 1, "object")
        if merged and rng.random() < 0.5:
            rng.choice(merged).append(mention)
        else:
            merged.append([mention])
    return _legal(merged)


def _legal(entities: list[list[_Mention]]) -> list[list[_Mention]]:
    """Drop mentions that repeat a span or overlap a mention of their own
    entity, which the bracket notation cannot express unambiguously."""
    seen: set = set()
    out = []
    for mentions in entities:
        kept: list[_Mention] = []
        for m in sorted(mentions, key=lambda m: (m.first, m.last)):
            key = (m.sent, m.nodes)
            if key in seen or (kept and not kept[-1].last < m.first):
                continue
            seen.add(key)
            kept.append(m)
        if kept:
            out.append(kept)
    out.sort(key=lambda e: (e[0].first, e[0].last))
    return out


# ------------------------------------------------------------ generation

def candidate_spans(n: int, width: int) -> int:
    """Contiguous spans of at most width tokens in a sentence of n."""
    return sum(n - w + 1 for w in range(1, min(width, n) + 1))


def generate(shape: Shape, seed: int, root: Path) -> Manifest:
    """Write gold, system and intended-span files under root."""
    rng = random.Random(f"corefkit-bench:{seed}")
    gold_root = root / "gold"
    pred_root = root / "pred"
    word_order = root / "word_order.tsv"
    root.mkdir(parents=True, exist_ok=True)
    languages = sorted({d.split("_", 1)[0] for d in shape.datasets})
    word_order.write_text("".join(f"{lang}\t{WORD_ORDER[lang]}\n"
                                  for lang in languages), encoding="utf-8")
    manifest = Manifest(gold_root, pred_root, word_order, shape.export_width,
                        {}, {})
    splits = ("train", "dev", "test")
    doc_number = 0
    for dataset in shape.datasets:
        for split in splits[:shape.files_per_dataset]:
            name = f"{dataset}-corefud-{split}.conllu"
            gold_path = gold_root / dataset / name
            counts = FileCounts()
            gold_lines: list[str] = []
            pred_lines: list[str] = []
            span_lines: list[str] = []
            for _ in range(shape.docs_per_file):
                doc_number += 1
                genre = rng.choice(GENRES)
                doc_id = f"{dataset.replace('_', '')}_{genre}_{doc_number:05d}"
                sentences = [_sentence(rng, shape) for _ in range(
                    rng.randint(*shape.sentences))]
                ranges = [_mwt_ranges(rng, s, shape) for s in sentences]
                seen: set = set()
                mentions = [m for s, nodes in enumerate(sentences)
                            for m in _sentence_mentions(rng, s, nodes, shape,
                                                        seen)]
                entities = _cluster(rng, mentions, shape)
                ids = [f"e{i}" for i in range(1, len(entities) + 1)]
                _encode(sentences, entities, ids)
                gold_lines += _render(doc_id, sentences, ranges)
                for eid, ms in zip(ids, entities):
                    for m in ms:
                        nodes = sentences[m.sent]
                        span_lines.append("\t".join((
                            doc_id, eid, str(m.sent),
                            ",".join(nodes[i].index for i in m.nodes))))
                system = _perturb(rng, sentences, entities, shape.perturbation)
                _encode(sentences, system,
                        [f"e{i}" for i in range(1, len(system) + 1)])
                pred_lines += _render(doc_id, sentences, ranges)
                counts.documents += 1
                counts.sentences += len(sentences)
                counts.entities += len(entities)
                counts.mentions += len(mentions)
                for nodes in sentences:
                    n = sum(1 for t in nodes if "." not in t.index)
                    counts.tokens += n
                    counts.candidate_spans += candidate_spans(
                        n, shape.export_width)
            gold_path.parent.mkdir(parents=True, exist_ok=True)
            gold_path.write_text("\n".join(gold_lines) + "\n",
                                 encoding="utf-8")
            pred_path = pred_root / name
            pred_path.parent.mkdir(parents=True, exist_ok=True)
            pred_path.write_text("\n".join(pred_lines) + "\n",
                                 encoding="utf-8")
            spans_path(gold_path).write_text("\n".join(span_lines) + "\n",
                                             encoding="utf-8")
            manifest.files[str(gold_path)] = counts
            manifest.datasets.setdefault(dataset, []).append(str(gold_path))
    return manifest


def spans_path(gold_path: Path) -> Path:
    return gold_path.with_name(gold_path.name[:-len(".conllu")] + ".spans.tsv")


def read_spans(gold_path: Path) -> dict[str, list[tuple[str, int, str]]]:
    """Intended mention spans per document: (entity id, sentence index,
    comma-joined node indices), sorted."""
    spans: dict[str, list[tuple[str, int, str]]] = {}
    for line in spans_path(gold_path).read_text(encoding="utf-8").splitlines():
        if line:
            doc_id, eid, sent, nodes = line.split("\t")
            spans.setdefault(doc_id, []).append((eid, int(sent), nodes))
    return {d: sorted(v) for d, v in spans.items()}


# -------------------------------------------------------------- workloads

WORKLOADS: dict[str, Shape] = {
    # Release-shaped: many short documents, shallow trees, dense annotation
    # with every corner case; parsing, entity decoding and the statistics
    # do the work, CEAFe matrices stay small.
    "release": Shape(
        datasets=("en_synth", "cs_synth", "es_synth", "hu_synth"),
        files_per_dataset=2, docs_per_file=5, sentences=(12, 18),
        tokens=(12, 24), chain=0.2, mentions_per_sentence=5.0,
        max_mention_width=6, nested=0.25, crossing=0.06, discontinuous=0.04,
        empty_nodes=0.4, mwt=0.3, singletons=0.2, join=0.6,
        annotated_heads=0.8, export_width=4),
    # A few very long documents with thousands of entities: the dense
    # |G|x|P| CEAFe matrix and mention alignment dominate score and errors.
    "long-docs": Shape(
        datasets=("en_long",), files_per_dataset=1, docs_per_file=2,
        sentences=(360, 390), tokens=(14, 22), chain=0.2,
        mentions_per_sentence=3.0, max_mention_width=5, nested=0.15,
        crossing=0.03, discontinuous=0.02, empty_nodes=0.2, mwt=0.2,
        singletons=0.2, join=0.45, annotated_heads=0.7, export_width=2,
        perturbation=Perturbation(drop=0.15, shift=0.1, split=0.3,
                                  merge=0.2, spurious=0.1)),
    # Long sentences with deep head chains and sparse mentions: each of the
    # O(n*w) export candidates walks the head chain, so head resolution
    # dominates and decoding, statistics and metrics are nearly idle.
    "deep-spans": Shape(
        datasets=("tr_deep",), files_per_dataset=2, docs_per_file=4,
        sentences=(10, 10), tokens=(40, 60), chain=0.9,
        mentions_per_sentence=1.5, max_mention_width=8, nested=0.1,
        crossing=0.03, discontinuous=0.03, empty_nodes=0.2, mwt=0.2,
        singletons=0.1, join=0.6, annotated_heads=0.3, export_width=10),
}
