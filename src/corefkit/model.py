"""Document model for CoNLL-U treebanks with CorefUD entity annotations.

Tokens keep their raw column values so that serialization can reproduce the
input byte for byte; parsed views (feats, enhanced dependencies) are derived
on demand, and a mention's head and attributes on first read.

Every module loads this one, so it states the class rule for all of
corefkit: no class comes from the standard library's data-class decorator.
Its module loads `inspect`, `ast` and `dis` (about 6 ms), and each
decorated class runs generated code as its module loads (1-4 ms a
module). An immutable result is a `typing.NamedTuple`; any other class
lists its `__slots__` and writes its `__init__`, where `None` stands for a
container default so that no two instances share one. The classes below
compare by identity; a class that compares by value derives from `Record`.
"""
from __future__ import annotations

from typing import Iterator

# The choices of head_of, corpora.discover_datasets, metrics.align_mentions,
# metrics.ClusterSet and errors.analyze_errors, the keys of
# analysis.STATISTICS in report order (those that read mention vectors
# apart), and analysis.genre_counts's default. They live here so that the
# command line can offer them without importing those modules.
HEAD_RULES = ("annotated", "syntactic")
STATISTICS = ("head-position", "mention-types", "anaphor-antecedent",
              "first-mention", "entity-size", "competing", "genre",
              "semantic-distance")
VECTOR_STATISTICS = ("semantic-distance",)
SPLITS = ("train", "dev", "test")
MATCH_MODES = ("exact", "head")
SINGLETON_POLICIES = ("include", "exclude")
UNRESOLVED_DEFINITIONS = ("links", "membership")
DEFAULT_GENRE_PATTERN = r"^[^_]+_([^_]+)"

# Called, then cleared, just before the first record that warn() emits:
# cli.main sets it for its run to configure logging, so that a run loads
# and configures `logging` only once it has something to log.
before_first_record = None


def warn(logger: str, message: str, *args) -> None:
    """Emit a WARNING record on the named logger. `logging` (about 6 ms
    with what it loads) is imported here, on the first record, so that a
    run with nothing to warn of never loads it."""
    global before_first_record
    import logging
    hook, before_first_record = before_first_record, None
    if hook is not None:
        hook()
    logging.getLogger(logger).warning(message, *args)


class Record:
    """Base of a __slots__ class that compares by value: instances of one
    class are equal when their slot values are."""

    __slots__ = ()
    __hash__ = None  # mutable, so unhashable

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._values()!r}"


class DataError(Exception):
    """Base of every error in the input data rather than in the call; the
    command line reports each with exit code 2. Subclasses keep their
    standard base too: ParseError is also a ValueError, WordOrderError a
    KeyError."""


# Parent positions of a node with no parent and of one whose parent id
# names no node of its sentence.
ROOT = -1
UNKNOWN = -2

# The most digits a numeral that names a node, a HEAD or a part may have.
# int() reads this many under any limit sys.set_int_max_str_digits allows,
# and no sentence or document has nodes or parts to need more; so a longer
# numeral is malformed, and int() is not asked to read it.
MAX_DIGITS = 640


def parse_kv_items(raw: str) -> list[tuple[str, str | None]]:
    """Split a FEATS/MISC column into ordered (name, value) pairs.

    An item without '=' is kept with value None so it can be re-rendered
    verbatim. '_' means the column is empty.
    """
    if raw == "_" or raw == "":
        return []
    items: list[tuple[str, str | None]] = []
    for part in raw.split("|"):
        name, sep, value = part.partition("=")
        items.append((name, value if sep else None))
    return items


class Token:
    """One CoNLL-U node: a surface token or an empty node (index i.j)."""

    __slots__ = ("index", "form", "lemma", "upos", "xpos", "feats_raw",
                 "head", "deprel", "deps_raw", "misc_raw", "is_empty",
                 "sent_index", "order", "_feats")

    def __init__(self, index: str, form: str, lemma: str, upos: str,
                 xpos: str, feats_raw: str, head: int | None, deprel: str,
                 deps_raw: str, misc_raw: str, is_empty: bool,
                 sent_index: int = -1, order: int = -1) -> None:
        # the parser builds one per node: plain assignments only
        self.index = index
        self.form = form
        self.lemma = lemma
        self.upos = upos
        self.xpos = xpos
        self.feats_raw = feats_raw
        self.head = head
        self.deprel = deprel
        self.deps_raw = deps_raw
        self.misc_raw = misc_raw
        self.is_empty = is_empty
        self.sent_index = sent_index
        self.order = order
        self._feats = None

    @property
    def feats(self) -> dict[str, str | None]:
        if self._feats is None:
            self._feats = dict(parse_kv_items(self.feats_raw))
        return self._feats

    def deps_pairs(self) -> list[tuple[str, str]]:
        """Enhanced-dependency (head id, relation) pairs from DEPS."""
        if self.deps_raw in ("_", ""):
            return []
        pairs = []
        for part in self.deps_raw.split("|"):
            head_id, _, rel = part.partition(":")
            pairs.append((head_id, rel))
        return pairs

    def effective_deprel(self) -> str | None:
        """Relation label used by the analyses: DEPREL for surface tokens,
        the first enhanced relation for empty nodes."""
        if self.is_empty:
            pairs = self.deps_pairs()
            return pairs[0][1] if pairs else None
        return self.deprel if self.deprel not in ("_", "") else None

    def line(self) -> str:
        head = "_" if self.head is None else str(self.head)
        return "\t".join((self.index, self.form, self.lemma, self.upos,
                          self.xpos, self.feats_raw, head, self.deprel,
                          self.deps_raw, self.misc_raw))


def parent_positions(tokens: list[Token]) -> list[int]:
    """Position of each node's parent among tokens, a sentence's nodes in
    file order (ROOT: none; UNKNOWN: names no node here). A surface node's
    parent is the HEAD-th surface node, an empty node's the node its first
    DEPS head names; HEAD 0 or '_', DEPS head 0 or no DEPS name none."""
    n = len(tokens)  # if all are surface nodes, token h is the h-th node
    parents = [ROOT if not (h := t.head) else h - 1 if 0 < h <= n
               else UNKNOWN for t in tokens if not t.is_empty]
    if len(parents) == n:
        return parents
    position, surface, empty = {}, [], []
    for i, token in enumerate(tokens):
        position[token.index] = i
        (empty if token.is_empty else surface).append(i)
    n = len(surface)  # the h-th surface node is surface[h - 1]
    parents = [p if p < 0 else surface[p] if p < n else UNKNOWN
               for p in parents]
    for i in empty:
        pairs = tokens[i].deps_pairs()
        parents.insert(i, ROOT if not pairs or pairs[0][0] == "0"
                       else position.get(pairs[0][0], UNKNOWN))
    return parents


class Sentence:
    """Comment lines plus nodes in file order; multiword-token range lines
    are kept aside with the token offset they precede."""

    __slots__ = ("comments", "tokens", "mwt_ranges", "sent_id", "first_line",
                 "_parents", "_depths")

    def __init__(self, comments: list[str] | None = None,
                 tokens: list[Token] | None = None,
                 mwt_ranges: list[tuple[int, tuple[str, ...]]] | None = None,
                 sent_id: str | None = None, first_line: int = 0) -> None:
        self.comments = [] if comments is None else comments
        self.tokens = [] if tokens is None else tokens
        self.mwt_ranges = [] if mwt_ranges is None else mwt_ranges
        self.sent_id = sent_id
        # file line of its first node or range line, or 0
        self.first_line = first_line
        self._parents = None
        self._depths = None

    def parents(self) -> list[int]:
        """parent_positions of the nodes, set by the parser or on first use."""
        if self._parents is None:
            self._parents = parent_positions(self.tokens)
        return self._parents

    def depth(self, position: int) -> int:
        """Head-chain hops from the node at position to the root. A chain
        that meets an unknown parent counts as very deep: the hops taken
        until then plus the number of nodes. Depths are worked out on first
        use and kept. A chain that runs into a cycle, which only a
        hand-built sentence can hold, raises ValueError."""
        depths = self._depths
        if depths is None:
            depths = self._depths = [None] * len(self.tokens)
        known = depths[position]
        if known is not None:
            return known
        parents = self.parents()
        path = [position]
        parent = parents[position]
        while parent >= 0 and depths[parent] is None:
            if len(path) == len(parents):
                raise ValueError(f"node {self.tokens[position].index} "
                                 f"leads into a head cycle")
            path.append(parent)
            parent = parents[parent]
        base = (0 if parent == ROOT else len(parents) if parent == UNKNOWN
                else depths[parent] + 1)
        for node in reversed(path):
            depths[node] = base
            base += 1
        return depths[position]

    def surface_tokens(self) -> list[Token]:
        return [t for t in self.tokens if not t.is_empty]

    def n_surface(self) -> int:
        return sum(1 for t in self.tokens if not t.is_empty)

    def lines(self) -> list[str]:
        """The sentence's lines in file order; each range line goes before
        the node at its offset, and ranges are kept in file order."""
        out = list(self.comments)
        start = 0
        for offset, cols in self.mwt_ranges:
            out.extend(map(Token.line, self.tokens[start:offset]))
            out.append("\t".join(cols))
            start = offset
        out.extend(map(Token.line, self.tokens[start:]))
        return out


class Mention:
    """A coreference span, possibly discontinuous, possibly an empty node.

    sentences is the sentence list of the document the span lies in, not
    the Document, so that a parsed corpus holds no reference cycle.

    attributes maps the ``# global.Entity`` field names after eid to the
    values of the mention's opening bracket; a discontinuous mention takes
    part 1's. The parser passes the bracket's text and the document's field
    names instead of a dict, and the dict is built from them on first read
    (bracket_attributes) and kept; assigning one replaces it."""

    __slots__ = ("entity_id", "span", "n_parts", "_attributes", "sentences",
                 "_head", "_syntactic_head", "_bracket", "_field_names")

    def __init__(self, entity_id: str, span: tuple[Token, ...],
                 n_parts: int = 1, attributes: dict[str, str] | None = None,
                 sentences: list[Sentence] | None = None, bracket: str = "",
                 field_names: tuple[str, ...] = ()) -> None:
        self.entity_id = entity_id
        self.span = span
        self.n_parts = n_parts
        self._attributes = attributes  # None: not built yet
        self.sentences = sentences
        self._head = None
        self._syntactic_head = None
        self._bracket = bracket
        self._field_names = field_names

    @property
    def attributes(self) -> dict[str, str]:
        attributes = self._attributes
        if attributes is None:
            attributes = self._attributes = bracket_attributes(
                self._bracket, self._field_names)
        return attributes

    @attributes.setter
    def attributes(self, attributes: dict[str, str]) -> None:
        self._attributes = attributes

    @property
    def head(self) -> Token:
        """The head by mention_head's rule, annotated head preferred,
        resolved on first read and kept. A mention without sentences has
        one only when it is one token or its annotated head is valid."""
        head = self._head
        if head is None:
            head = self._head = mention_head(self, self)
        return head

    @property
    def start(self) -> tuple[int, int]:
        token = self.span[0]
        return (token.sent_index, token.order)

    @property
    def end(self) -> tuple[int, int]:
        token = self.span[-1]
        return (token.sent_index, token.order)

    @property
    def sent_index(self) -> int:
        return self.span[0].sent_index


def bracket_attributes(bracket: str, field_names: tuple[str, ...]
                       ) -> dict[str, str]:
    """The attributes of an opening Entity bracket's text, such as
    ``e1-person-2``: field_names, the layout's names after eid, zipped with
    the values after eid, the last value keeping any further '-'."""
    return dict(zip(field_names, bracket.split("-", len(field_names))[1:]))


class Entity:
    """All mentions of one coreference cluster, in document order."""

    __slots__ = ("entity_id", "mentions")

    def __init__(self, entity_id: str,
                 mentions: list[Mention] | None = None) -> None:
        self.entity_id = entity_id
        self.mentions = [] if mentions is None else mentions

    def is_singleton(self) -> bool:
        return len(self.mentions) == 1


class Document:
    __slots__ = ("doc_id", "sentences", "entities", "language", "dataset")

    def __init__(self, doc_id: str, sentences: list[Sentence] | None = None,
                 entities: list[Entity] | None = None, language: str = "",
                 dataset: str = "") -> None:
        self.doc_id = doc_id
        self.sentences = [] if sentences is None else sentences
        self.entities = [] if entities is None else entities
        self.language = language
        self.dataset = dataset

    def mentions(self) -> list[Mention]:
        out = [m for e in self.entities for m in e.mentions]
        out.sort(key=lambda m: (m.start, m.end))
        return out


class Corpus:
    __slots__ = ("documents", "dataset", "language")

    def __init__(self, documents: list[Document] | None = None,
                 dataset: str = "", language: str = "") -> None:
        self.documents = [] if documents is None else documents
        self.dataset = dataset
        self.language = language

    def __iter__(self) -> Iterator[Document]:
        """The documents, in order: a corpus stands where a stream of
        documents is read."""
        return iter(self.documents)


def mention_head(mention: Mention, document: Document | Mention,
                 prefer_annotated: bool = True) -> Token:
    """Resolve the head token of a mention.

    Of document only ``sentences`` is read, so a parsed mention, which
    holds its document's sentence list, can stand in for its document.

    An explicit head attribute from the entity annotation (1-based position
    within the span, in at most MAX_DIGITS ASCII digits) wins when present and
    ``prefer_annotated`` is set.
    Otherwise the syntactic head: the span token closest to the root, the
    leftmost on a tie (span tokens are in document order). Depth falls by
    one along every parent edge, so its parent lies outside the span. A
    hand-built sentence whose head chain runs into a cycle raises
    ValueError (see Sentence.depth).
    """
    span = mention.span
    if len(span) == 1:
        return span[0]
    if prefer_annotated:
        annotated = mention.attributes.get("head", "")
        if annotated.isdigit() and annotated.isascii() \
                and len(annotated) <= MAX_DIGITS:
            i = int(annotated)
            if 1 <= i <= len(span):
                return span[i - 1]
    sentences = document.sentences
    return min(span, key=lambda t: sentences[t.sent_index].depth(t.order))


def head_of(mention: Mention, head_rule: str) -> Token:
    """The head a ``--head-rule`` picks, kept on the mention: Mention.head
    for 'annotated'; for 'syntactic', mention_head's rule with the annotated
    head ignored (the parent-outside-span rule), resolved on first use.
    Both read the mention's own sentences."""
    if head_rule == "annotated":
        return mention.head
    if head_rule == "syntactic":
        head = mention._syntactic_head
        if head is None:
            head = mention._syntactic_head = mention_head(
                mention, mention, prefer_annotated=False)
        return head
    raise ValueError(f"unknown head rule {head_rule!r}")


def span_parts(span: tuple[Token, ...]) -> list[list[Token]]:
    """Split a span into maximal contiguous runs.

    Adjacency means consecutive positions in the sentence node list, or
    consecutive surface indices (so candidate spans that skip an interleaved
    empty node still form one run).
    """
    parts: list[list[Token]] = []
    for token in span:
        if parts:
            prev = parts[-1][-1]
            if token.sent_index == prev.sent_index and (
                    token.order == prev.order + 1
                    or (not token.is_empty and not prev.is_empty
                        and int(token.index) == int(prev.index) + 1)):
                parts[-1].append(token)
                continue
        parts.append([token])
    return parts


def span_key(span: tuple[Token, ...]) -> str:
    """Deterministic text key for a span: indices comma-joined within a
    contiguous run, runs joined by '+'."""
    return "+".join(",".join(t.index for t in part) for part in span_parts(span))


def mention_key(mention: Mention, doc_id: str) -> tuple[str, int, str]:
    """Key used to address a mention from outside (vector files, exports)."""
    return (doc_id, mention.sent_index, span_key(mention.span))
