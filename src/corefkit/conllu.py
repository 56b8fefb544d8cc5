"""CoNLL-U parsing and serialization with CorefUD entity decoding.

The Entity MISC attribute uses bracket notation: ``(e1-etype-1-`` opens a
mention, ``e1)`` closes it, ``(e1-...)`` does both on one token. Brackets of
different entities may nest or overlap; discontinuous mentions carry a part
suffix ``e1[2/3]``. Field layout inside an opening bracket follows the
file's ``# global.Entity`` declaration, from the document that makes it on.
One pass over a document's tokens builds each mention at its closing
bracket, keeping its opening bracket's text for Mention.attributes to read
on first use; one stable sort by (first position, last position, eid) then
orders the mentions, and grouping them by eid in that order gives the
entities. resolve_entities says how ties go and which of several faults is
reported. A file's documents come out one at a time, each once it has been
read (iter_documents); parse_file and parse_conllu collect them into a
Corpus.
"""
from __future__ import annotations

import io
import re
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .model import (MAX_DIGITS, UNKNOWN, Corpus, DataError, Document, Entity,
                    Mention, Sentence, Token, parent_positions, warn)

DEFAULT_ENTITY_FIELDS = ("eid", "etype", "head", "other")

# One self-closing, opening or closing bracket inside an Entity value, or
# else the character where the brackets stop.
_BRACKET = re.compile(r"\(([^()]+)\)|\(([^()]+)|([^()]+)\)|(.)", re.S)
_PART_SUFFIX = re.compile(r"^(.*)\[([0-9]+)/([0-9]+)\]$")
_RANGE = re.compile(r"^([1-9][0-9]*)-([1-9][0-9]*)$")
_EMPTY = re.compile(r"^(0|[1-9][0-9]*)\.([1-9][0-9]*)$")
# Each MISC item named Entity: "=" and its value, or "" without an '='.
_ENTITY_ITEM = re.compile(r"(?:^|\|)Entity(=[^|]*)?(?=\||\Z)")


class ParseError(ValueError, DataError):
    """Malformed input data; carries file and line information."""

    def __init__(self, message: str, filename: str = "", line: int = 0):
        self.filename = filename
        self.line = line
        where = f"{filename or '<input>'}:{line}: " if line else ""
        super().__init__(f"{where}{message}")


def parse_conllu(text: str, dataset: str = "", language: str = "",
                 filename: str = "") -> Corpus:
    """Parse CoNLL-U text into a Corpus.

    Comment lines, MISC attributes, and multiword-token range lines are
    preserved verbatim for round-tripping; entity annotations are decoded
    per document. filename names the source in errors and warnings.
    """
    _refuse_bom(text, filename)
    return Corpus(list(_parse_stream(io.StringIO(text), dataset, language,
                                     filename)), dataset, language)


def parse_file(path: str | Path, dataset: str = "", language: str = "") -> Corpus:
    """Parse the CoNLL-U file at path; parse errors name it."""
    return Corpus(list(iter_documents(path, dataset=dataset,
                                      language=language)), dataset, language)


def iter_documents(path: str | Path, dataset: str = "",
                   language: str = "") -> Iterator[Document]:
    """The documents of the CoNLL-U file at path, as parse_file parses
    them, each yielded once the next '# newdoc' line or the end of the file
    is read. No reference to a yielded document is kept, so once the caller
    drops it, it is freed before the next one is parsed. A fault raises
    ParseError naming the file when the parse reaches it, after the
    documents before it have been yielded. The file stays open until the
    last document is out or the generator is closed."""
    path = Path(path)
    with open_text(path) as handle:
        yield from _parse_stream(handle, dataset, language, str(path))


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open the UTF-8 text file at path for reading. A byte-order mark, or
    a byte that is not UTF-8 met while the block reads the file, raises
    ParseError naming str(path) and the line."""
    try:
        with open(path, encoding="utf-8") as handle:
            # peeked, not read, so that a pipe loses nothing
            _refuse_bom(handle.buffer.peek(3)[:3].decode("utf-8", "ignore"),
                       str(path))
            yield handle
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _refuse_bom(start: str, filename: str) -> None:
    """Raise ParseError on line 1 of filename when start, the beginning of
    its text, is a byte-order mark, which would hide a first column or '#'."""
    if start.startswith("\ufeff"):
        raise ParseError("file starts with a UTF-8 byte-order mark; save it "
                         "without one", filename, 1)


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError naming the first line of the file that is not UTF-8;
    only read after decoding the file failed."""
    line_no = 0
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                exc = line_exc
                break
    return ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 "
                      f"({exc.reason})", str(path), line_no)


def _parse_stream(stream: Iterable[str], dataset: str, language: str,
                  filename: str) -> Iterator[Document]:
    n_documents = 0  # the documents built so far
    doc_sentences: list[Sentence] = []
    doc_id: str | None = None
    sentence: Sentence | None = None
    tokens: list[Token] = []  # the nodes of sentence
    empty: list[int] = []  # the positions of its empty nodes
    n = 1  # the index its next surface token must have
    first_line = 0
    prev_empty_minor = 0
    prev_range_end = 0
    seen_sent_ids: set[str] = set()
    seen_doc_ids: set[str] = set()
    layout: tuple[str, ...] | None = None  # the file's global.Entity
    # Local to this parse, so nothing is kept once it ends: ids[i] is the
    # surface index i, head_values maps each valid HEAD text seen to its
    # value, and shared holds one object per repeated column text. LEMMA
    # has a vocabulary as large as a file's, so lemmas holds its texts for
    # the current document only.
    ids = ["0", "1"]
    head_values: dict[str, int | None] = {"_": None, "0": 0}
    shared: dict[str, str] = {}
    share = shared.setdefault
    lemmas: dict[str, str] = {}
    share_lemma = lemmas.setdefault

    def flush_document() -> Document | None:
        """The document read so far, None when it has no sentence; the
        next one starts empty."""
        nonlocal doc_sentences, doc_id, seen_sent_ids, layout, n_documents
        document = None
        if doc_sentences:
            n_documents += 1
            resolved_id = doc_id or f"{dataset or 'doc'}#{n_documents}"
            if resolved_id in seen_doc_ids:
                warn(__name__, "%s: duplicated doc id %r",
                     filename or "<input>", resolved_id)
            seen_doc_ids.add(resolved_id)
            document = Document(
                doc_id=resolved_id,
                sentences=doc_sentences, language=language, dataset=dataset)
            layout = entity_field_layout(document, filename, layout)
            document.entities = resolve_entities(
                document, filename, layout or DEFAULT_ENTITY_FIELDS)
        doc_sentences = []
        doc_id = None
        seen_sent_ids = set()
        lemmas.clear()
        return document

    def flush_sentence(line_no: int) -> None:
        nonlocal sentence, tokens, empty, n, first_line, prev_empty_minor
        nonlocal prev_range_end
        if sentence is None:
            return
        if not tokens:
            raise ParseError("sentence without token lines", filename, line_no)
        sentence.tokens = tokens
        sentence.first_line = first_line
        if prev_range_end >= n:
            offset, cols = sentence.mwt_ranges[-1]
            raise ParseError(
                f"token range {cols[0]} ends after the last token "
                f"{n - 1} of its sentence", filename,
                first_line + offset + len(sentence.mwt_ranges) - 1)
        sentence._parents = parent_positions(tokens)
        _check_heads(sentence, empty, filename)
        if sentence.sent_id is not None:
            if sentence.sent_id in seen_sent_ids:
                warn(__name__, "%s: duplicated sent_id %r within document %r",
                     filename or "<input>", sentence.sent_id, doc_id)
            seen_sent_ids.add(sentence.sent_id)
        doc_sentences.append(sentence)
        sentence = None
        tokens = []
        empty = []
        n = 1
        first_line = prev_empty_minor = prev_range_end = 0

    line_no = 0
    for line_no, line in enumerate(stream, start=1):
        if line[:1] == "#":
            line = line.rstrip("\r\n")
            if tokens:
                raise ParseError("comment line inside token block",
                                 filename, line_no)
            is_newdoc = line == "# newdoc" or line.startswith("# newdoc ")
            if is_newdoc and (doc_sentences or doc_id is not None):
                document = flush_document()
                if document is not None:
                    yield document
                    # not held while the next document is parsed
                    del document
            if sentence is None:
                sentence = Sentence()
            sentence.comments.append(line)
            if is_newdoc:
                _, _, value = line.partition("=")
                doc_id = value.strip() if value else ""
            elif line.startswith("# sent_id"):
                sentence.sent_id = line.partition("=")[2].strip()
            continue

        cols = line.split("\t")
        if len(cols) != 10:
            # CRLF input is non-canonical but parseable
            if line.rstrip("\r\n"):
                raise ParseError(
                    f"expected 10 tab-separated columns, got {len(cols)}",
                    filename, line_no)
            flush_sentence(line_no)
            continue
        index, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
        if sentence is None:
            sentence = Sentence()
        if not first_line:
            first_line = line_no
        if index == ids[n]:
            index = ids[n]
            n += 1
            if n == len(ids):
                ids.append(str(n))
            prev_empty_minor = 0
            is_empty = False
        elif index.isdigit() and index.isascii() and index[0] != "0":
            raise ParseError(
                f"non-monotonic token index {index} after {n - 1}",
                filename, line_no)
        elif match := _RANGE.match(index):
            start, end = match.groups()
            # an end of more than MAX_DIGITS digits names no token
            end = int(end) if len(end) <= MAX_DIGITS else 0
            if start != ids[n] or not prev_range_end < n <= end:
                raise ParseError(f"non-monotonic token range {index}",
                                 filename, line_no)
            prev_range_end = end
            cols[9] = misc.rstrip("\r\n")
            sentence.mwt_ranges.append((len(tokens), tuple(cols)))
            continue
        elif match := _EMPTY.match(index):
            major, minor = match.groups()
            if major != ids[n - 1] or minor != str(prev_empty_minor + 1):
                raise ParseError(f"non-monotonic empty-node index {index}",
                                 filename, line_no)
            prev_empty_minor += 1
            empty.append(len(tokens))
            index = share(index, index)
            is_empty = True
        else:
            raise ParseError(f"malformed token index {index!r}",
                             filename, line_no)
        head_value = head_values.get(head, -1)
        if head_value == -1:
            if not (head.isdigit() and head.isascii() and head[0] != "0"
                    and len(head) <= MAX_DIGITS):
                raise ParseError(f"malformed HEAD value {head!r}",
                                 filename, line_no)
            head_value = head_values[head] = int(head)
        # a '# newdoc' line has flushed any previous document by now
        tokens.append(Token(
            index, form, share_lemma(lemma, lemma), share(upos, upos),
            share(xpos, xpos), share(feats, feats), head_value,
            share(deprel, deprel), share(deps, deps), misc.rstrip("\r\n"),
            is_empty, len(doc_sentences), len(tokens)))

    if sentence is not None:
        if tokens or sentence.mwt_ranges:
            flush_sentence(line_no)
        else:
            raise ParseError("trailing comments without a sentence",
                             filename, line_no)
    document = flush_document()
    if document is not None:
        yield document


def _check_heads(sentence: Sentence, empty: list[int],
                 filename: str) -> None:
    """Raise ParseError naming the node's line at the first fault of: a HEAD
    past the last surface token (an empty node's HEAD too), then, on the
    parent positions, a surface cycle, an empty node whose first DEPS head
    names no node, an empty-node cycle. empty holds the empty nodes'
    positions; a surface parent is a surface node, so the walks from
    surface nodes meet no empty one."""
    tokens = sentence.tokens
    parents = sentence.parents()
    n = len(tokens) - len(empty)
    if UNKNOWN in parents or empty and any(tokens[i].head for i in empty):
        for order, token in enumerate(tokens):
            if token.head is not None and token.head > n:
                raise ParseError(
                    f"token {token.index} head {token.head} refers to a "
                    f"nonexistent token (sentence has {n})", filename,
                    _node_line(sentence, order))
    walked = [-1] * len(tokens)
    for order in empty:  # so that no walk starts here before the surface ones
        walked[order] = len(tokens)
    node = _cycle(parents, walked, range(len(tokens)))
    if node is None and empty:
        for order in empty:
            if parents[order] == UNKNOWN:
                raise ParseError(
                    f"empty node {tokens[order].index} DEPS head "
                    f"{tokens[order].deps_pairs()[0][0]} refers to a "
                    f"nonexistent node", filename, _node_line(sentence, order))
            walked[order] = -1
        node = _cycle(parents, walked, empty)
    if node is not None:
        raise ParseError(f"token {tokens[node].index} is on a head cycle",
                         filename, _node_line(sentence, node))


def _cycle(parents: list[int], walked: list[int],
           starts: Iterable[int]) -> int | None:
    """Walk up parents from each start in turn, marking in walked (-1: not
    yet) the start that reached each node first; return the first node where
    a walk re-enters its own path, or None."""
    for start in starts:
        node = start
        while node >= 0 and walked[node] < 0:
            walked[node] = start
            node = parents[node]
        if node >= 0 and walked[node] == start:
            return node
    return None


def entity_field_layout(document: Document, filename: str = "",
                        declared: tuple[str, ...] | None = None,
                        ) -> tuple[str, ...] | None:
    """The field names of the ``# global.Entity`` declaration in force in
    document, None when there is none. Like every CoNLL-U Plus global
    comment, a declaration holds to the end of its file: declared is the
    layout an earlier document of the file declared. Repeating it is fine.
    A declaration that differs from an earlier one, or whose first field is
    not eid, raises ParseError naming its line."""
    for sentence in document.sentences:
        for k, comment in enumerate(sentence.comments):
            if not comment.startswith("# global.Entity"):
                continue
            value = comment.partition("=")[2].strip()
            fields = tuple(value.split("-"))
            if not value or fields == declared:
                continue
            # comments are the lines right before the first node
            line = sentence.first_line and (
                sentence.first_line - len(sentence.comments) + k)
            if declared is not None:
                raise ParseError(
                    f"global.Entity layout {value!r} in document "
                    f"{document.doc_id!r} differs from the earlier "
                    f"declaration {'-'.join(declared)!r}", filename, line)
            if fields[0] != "eid":
                raise ParseError(
                    f"unsupported global.Entity layout {value!r} in "
                    f"document {document.doc_id!r} (first field must "
                    f"be eid)", filename, line)
            declared = fields
    return declared


def _node_line(sentence: Sentence, order: int) -> int:
    """File line of the node at position order in sentence: the sentence's
    first node line plus the node and range lines before it; 0 when the
    sentence has no recorded line."""
    if not sentence.first_line:
        return 0
    ranges = sum(1 for offset, _ in sentence.mwt_ranges if offset <= order)
    return sentence.first_line + order + ranges


def _line(document: Document, token: Token) -> int:
    return _node_line(document.sentences[token.sent_index], token.order)


def resolve_entities(document: Document, filename: str = "",
                     layout: tuple[str, ...] | None = None) -> list[Entity]:
    """Decode Entity bracket annotations into entities in one pass over the
    tokens: each mention's span is built when its closing bracket is read,
    a discontinuous one when its parts have closed in order 1..n. Heads are
    left to Mention.head, and attributes to Mention.attributes, which
    builds them from the opening bracket's text on first read. layout is
    the ``# global.Entity`` layout in force; None reads the document's own
    declaration (see entity_field_layout), else the CorefUD one.

    Mentions are sorted once, by (first position, last position, eid), a
    stable sort, then grouped by eid in that order: an entity's mentions
    come by first then last position, mentions of one span in the order
    they closed, and entities by the (first, last, eid) of their first
    mention. A discontinuous mention is placed by its first part's start
    and its last part's end.

    Raises ParseError naming the line of the token at fault: the first
    fault met in token order, else an unclosed bracket, else missing parts.
    """
    if layout is None:
        layout = (entity_field_layout(document, filename)
                  or DEFAULT_ENTITY_FIELDS)
    names = layout[1:]
    # eid is the bracket's text up to the first '-', the whole of it when
    # the layout has no other field
    eid_cut = 1 if names else 0

    sentences = document.sentences
    flat = tuple(chain.from_iterable(s.tokens for s in sentences))
    find_items = _ENTITY_ITEM.findall
    find_brackets = _BRACKET.findall
    # eid -> (first position, opening bracket text) of each open bracket
    open_stacks: dict[str, list[tuple[int, str]]] = {}
    # eid -> (next part index, part count, positions so far, part 1's text)
    pending: dict[str, tuple[int, int, list[int], str]] = {}
    # (first position, last position, eid, mention) of each mention
    closed: list[tuple[int, int, str, Mention]] = []

    for position, token in enumerate(flat):
        if "Entity" not in token.misc_raw:
            continue
        items = find_items(token.misc_raw)
        if len(items) > 1:
            raise ParseError(
                f"{len(items)} Entity items in MISC of token {token.index} "
                f"(sentence {token.sent_index + 1})",
                filename, _line(document, token))
        value = items[0][1:] if items else ""
        if not value:
            continue
        for both, opened, bracket_id, junk in find_brackets(value):
            if junk:
                raise ParseError(
                    f"malformed Entity annotation {value!r} on token "
                    f"{token.index} (sentence {token.sent_index + 1})",
                    filename, _line(document, token))
            if not bracket_id:
                text = both or opened
                bracket_id = text.split("-", eid_cut)[0]
                stack = open_stacks.get(bracket_id)
                if stack is None:
                    open_stacks[bracket_id] = [(position, text)]
                else:
                    stack.append((position, text))
                if opened:
                    continue
            stack = open_stacks.get(bracket_id)
            if not stack:
                raise ParseError(
                    f"Entity close {bracket_id!r} without matching open "
                    f"(sentence {token.sent_index + 1})",
                    filename, _line(document, token))
            first, text = stack.pop()
            eid, last, part_n = bracket_id, position, 1
            if bracket_id[-1] == "]" and (
                    suffix := _PART_SUFFIX.match(bracket_id)):
                eid, i_text, n_text = suffix.groups()
                if max(len(i_text), len(n_text)) > MAX_DIGITS \
                        or not 1 <= int(i_text) <= int(n_text):
                    raise ParseError(f"invalid part index in {bracket_id!r}",
                                     filename, _line(document, token))
                part_i, part_n = int(i_text), int(n_text)
                state = pending.pop(eid, None)
                if part_i == 1:
                    if state is not None:
                        raise ParseError(
                            f"unmatched part indices for entity {eid!r}: new "
                            f"mention starts while part {state[0]}/"
                            f"{state[1]} is expected",
                            filename, _line(document, token))
                    state = (1, part_n, [], text)
                if state is None or state[:2] != (part_i, part_n):
                    raise ParseError(
                        f"unmatched part indices for entity {eid!r}: got "
                        f"part {part_i}/{part_n}",
                        filename, _line(document, token))
                _, _, parts, text = state
                parts.extend(range(first, position + 1))
                if part_i < part_n:
                    pending[eid] = (part_i + 1, part_n, parts, text)
                    continue
                parts.sort()
                first, last = parts[0], parts[-1]
                span = tuple([flat[i] for i in parts])
            else:
                span = flat[first:position + 1]
            closed.append((first, last, eid, Mention(
                eid, span, part_n, None, sentences, text, names)))

    for bracket_id, stack in open_stacks.items():
        if stack:
            first, _ = stack[-1]
            raise ParseError(
                f"unbalanced Entity bracket {bracket_id!r} opened in "
                f"sentence {flat[first].sent_index + 1} never closed "
                f"before end of document {document.doc_id!r}",
                filename, _line(document, flat[first]))
    for eid, (next_part, part_n, parts, _) in pending.items():
        raise ParseError(
            f"unmatched part indices for entity {eid!r}: parts after "
            f"{next_part - 1}/{part_n} missing at end of document",
            filename, _line(document, flat[parts[-1]]))

    closed.sort(key=itemgetter(0, 1, 2))
    groups: dict[str, list[Mention]] = {}
    for _, _, eid, mention in closed:
        groups.setdefault(eid, []).append(mention)
    return [Entity(eid, group) for eid, group in groups.items()]


def serialize(corpus: Corpus) -> str:
    """Render a corpus back to CoNLL-U text. Byte-identical to the input for
    files in canonical form (LF endings, no trailing whitespace, attributes
    in original order)."""
    chunks: list[str] = []
    for document in corpus.documents:
        for sentence in document.sentences:
            chunks.extend(sentence.lines())
            chunks.append("")
    if not chunks:
        return ""
    return "\n".join(chunks) + "\n"
