"""CoNLL-U parsing and serialization with CorefUD entity decoding.

The Entity MISC attribute uses bracket notation: ``(e1-etype-1-`` opens a
mention, ``e1)`` closes it, ``(e1-...)`` does both on one token. Brackets of
different entities may nest or overlap; discontinuous mentions carry a part
suffix ``e1[2/3]``. Field layout inside an opening bracket follows the
``# global.Entity`` declaration of the document. One pass over a document's
tokens builds each mention at its closing bracket; resolve_entities says
which of several faults is reported.
"""
from __future__ import annotations

import io
import logging
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .model import (Corpus, DataError, Document, Entity, Mention, Sentence,
                    Token, mention_head)

log = logging.getLogger(__name__)

DEFAULT_ENTITY_FIELDS = ("eid", "etype", "head", "other")

# One opening, self-closing, or closing bracket inside an Entity value.
_BRACKET = re.compile(r"\(([^()]+)\)|\(([^()]+)|([^()]+)\)")
_PART_SUFFIX = re.compile(r"^(.*)\[([0-9]+)/([0-9]+)\]$")
_RANGE = re.compile(r"^([1-9][0-9]*)-([1-9][0-9]*)$")
_EMPTY = re.compile(r"^([0-9]+)\.([1-9][0-9]*)$")


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
    return _parse_stream(io.StringIO(text), dataset, language, filename)


def parse_file(path: str | Path, dataset: str = "", language: str = "") -> Corpus:
    """Parse the CoNLL-U file at path; parse errors name it."""
    path = Path(path)
    with open_text(path) as handle:
        return _parse_stream(handle, dataset, language, str(path))


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open the UTF-8 text file at path for reading. A byte that is not
    UTF-8, met while the block reads the file, raises ParseError naming
    str(path) and the line that does not decode."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


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
                  filename: str) -> Corpus:
    corpus = Corpus(dataset=dataset, language=language)
    doc_sentences: list[Sentence] = []
    doc_id: str | None = None
    sentence: Sentence | None = None
    prev_surface = 0
    prev_empty_minor = 0
    prev_range_end = 0
    seen_sent_ids: set[str] = set()
    seen_doc_ids: set[str] = set()

    def flush_document() -> None:
        nonlocal doc_sentences, doc_id, seen_sent_ids
        if doc_sentences:
            number = len(corpus.documents) + 1
            resolved_id = doc_id or f"{dataset or 'doc'}#{number}"
            if resolved_id in seen_doc_ids:
                log.warning("%s: duplicated doc id %r",
                            filename or "<input>", resolved_id)
            seen_doc_ids.add(resolved_id)
            document = Document(
                doc_id=resolved_id,
                sentences=doc_sentences, language=language, dataset=dataset)
            document.entities = resolve_entities(document, filename=filename)
            corpus.documents.append(document)
        doc_sentences = []
        doc_id = None
        seen_sent_ids = set()

    def flush_sentence(line_no: int) -> None:
        nonlocal sentence, prev_surface, prev_empty_minor, prev_range_end
        if sentence is None:
            return
        if not sentence.tokens:
            raise ParseError("sentence without token lines", filename, line_no)
        if prev_range_end > prev_surface:
            offset, cols = sentence.mwt_ranges[-1]
            raise ParseError(
                f"token range {cols[0]} ends after the last token "
                f"{prev_surface} of its sentence", filename,
                sentence.first_line + offset + len(sentence.mwt_ranges) - 1)
        _check_heads(sentence, prev_surface, filename)
        if sentence.sent_id is not None:
            if sentence.sent_id in seen_sent_ids:
                log.warning("%s: duplicated sent_id %r within document %r",
                            filename or "<input>", sentence.sent_id, doc_id)
            seen_sent_ids.add(sentence.sent_id)
        doc_sentences.append(sentence)
        sentence = None
        prev_surface = 0
        prev_empty_minor = 0
        prev_range_end = 0

    line_no = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")  # CRLF input is non-canonical but parseable
        if line == "":
            flush_sentence(line_no)
            continue
        if line.startswith("#"):
            if sentence is not None and sentence.tokens:
                raise ParseError("comment line inside token block",
                                 filename, line_no)
            is_newdoc = line == "# newdoc" or line.startswith("# newdoc ")
            if is_newdoc and (doc_sentences or doc_id is not None):
                flush_document()
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
            raise ParseError(
                f"expected 10 tab-separated columns, got {len(cols)}",
                filename, line_no)
        if sentence is None:
            sentence = Sentence()
        if not sentence.first_line:
            sentence.first_line = line_no
        index = cols[0]
        if index.isdigit() and index.isascii() and index[0] != "0":
            if int(index) != prev_surface + 1:
                raise ParseError(
                    f"non-monotonic token index {index} after {prev_surface}",
                    filename, line_no)
            prev_surface += 1
            prev_empty_minor = 0
            is_empty = False
        elif match := _RANGE.match(index):
            start, end = int(match.group(1)), int(match.group(2))
            if start != prev_surface + 1 or not prev_range_end < start <= end:
                raise ParseError(f"non-monotonic token range {index}",
                                 filename, line_no)
            prev_range_end = end
            sentence.mwt_ranges.append((len(sentence.tokens), tuple(cols)))
            continue
        elif match := _EMPTY.match(index):
            major, minor = int(match.group(1)), int(match.group(2))
            if major != prev_surface or minor != prev_empty_minor + 1:
                raise ParseError(f"non-monotonic empty-node index {index}",
                                 filename, line_no)
            prev_empty_minor = minor
            is_empty = True
        else:
            raise ParseError(f"malformed token index {index!r}",
                             filename, line_no)
        # a '# newdoc' line has flushed any previous document by now
        sentence.tokens.append(_make_token(
            cols, is_empty, len(doc_sentences), len(sentence.tokens),
            filename, line_no))

    if sentence is not None:
        if sentence.tokens:
            flush_sentence(line_no)
        elif sentence.comments:
            raise ParseError("trailing comments without a sentence",
                             filename, line_no)
    flush_document()
    return corpus


def _make_token(cols: list[str], is_empty: bool, sent_index: int, order: int,
                filename: str, line_no: int) -> Token:
    head_raw = cols[6]
    if head_raw == "_":
        head = None
    else:
        try:
            head = int(head_raw)
        except ValueError:
            raise ParseError(f"malformed HEAD value {head_raw!r}",
                             filename, line_no) from None
    return Token(index=cols[0], form=cols[1], lemma=cols[2], upos=cols[3],
                 xpos=cols[4], feats_raw=cols[5], head=head, deprel=cols[7],
                 deps_raw=cols[8], misc_raw=cols[9], is_empty=is_empty,
                 sent_index=sent_index, order=order)


def _check_heads(sentence: Sentence, n: int, filename: str) -> None:
    """Raise ParseError naming the node's line when a HEAD names no token,
    or where the first walk up the parents re-enters its own path: surface
    HEADs first (a surface parent is a surface token), then empty nodes."""
    heads = [0]  # HEAD of surface token i, 0 for the root or '_'
    empty: dict[str, str | None] = {}  # empty node id -> parent id
    for order, token in enumerate(sentence.tokens):
        if token.head is not None and not 0 <= token.head <= n:
            raise ParseError(
                f"token {token.index} head {token.head} refers to a "
                f"nonexistent token (sentence has {n})", filename,
                _node_line(sentence, order))
        if token.is_empty:
            empty[token.index] = token.parent_id()
        else:
            heads.append(token.head or 0)
    walked = [0] * (n + 1)  # the walk that reached surface token i first
    for start in range(1, n + 1):
        node = start
        while node and not walked[node]:
            walked[node] = start
            node = heads[node]
        if node and walked[node] == start:
            raise _cycle_error(sentence, str(node), filename)
    walked_empty: dict[str, str] = {}
    for start in empty:
        node = start
        while node in empty and node not in walked_empty:
            walked_empty[node] = start
            node = empty[node]
        if walked_empty.get(node) == start:
            raise _cycle_error(sentence, node, filename)


def _cycle_error(sentence: Sentence, index: str, filename: str) -> ParseError:
    order = next(k for k, t in enumerate(sentence.tokens) if t.index == index)
    return ParseError(f"token {index} is on a head cycle", filename,
                      _node_line(sentence, order))


def entity_field_layout(document: Document,
                        filename: str = "") -> tuple[str, ...]:
    """Field names declared by ``# global.Entity``, defaulting to the
    CorefUD layout. A layout whose first field is not eid raises ParseError
    naming the declaration's line."""
    for sentence in document.sentences:
        for k, comment in enumerate(sentence.comments):
            if comment.startswith("# global.Entity"):
                value = comment.partition("=")[2].strip()
                if value:
                    if value.partition("-")[0] != "eid":
                        # comments are the lines right before the first node
                        line = sentence.first_line and (
                            sentence.first_line - len(sentence.comments) + k)
                        raise ParseError(
                            f"unsupported global.Entity layout {value!r} in "
                            f"document {document.doc_id!r} (first field must "
                            f"be eid)", filename, line)
                    return tuple(value.split("-"))
    return DEFAULT_ENTITY_FIELDS


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


def resolve_entities(document: Document, filename: str = "") -> list[Entity]:
    """Decode Entity bracket annotations into entities in one pass over the
    tokens: each mention, with its head, is built when its closing bracket
    is read, a discontinuous one when its parts have closed in order 1..n.
    Raises ParseError naming the line of the token at fault: the first
    fault met in token order, else an unclosed bracket, else missing parts.
    """
    layout = entity_field_layout(document, filename)
    n_extra = len(layout) - 1

    flat = [t for s in document.sentences for t in s.tokens]
    open_stacks: dict[str, list[tuple[int, dict[str, str]]]] = {}
    # eid -> (next part index, part count, tokens so far, attributes)
    pending: dict[str, tuple[int, int, list[Token], dict[str, str]]] = {}
    mentions: dict[str, list[Mention]] = {}

    for position, token in enumerate(flat):
        if "Entity=" not in token.misc_raw:
            continue
        value = token.misc_value("Entity")
        if not value:
            continue
        consumed = 0
        for match in _BRACKET.finditer(value):
            if match.start() != consumed:
                break
            consumed = match.end()
            both, opened, closed = match.groups()
            if closed is None:
                fields = (both or opened).split("-", n_extra)
                open_stacks.setdefault(fields[0], []).append(
                    (position, dict(zip(layout[1:], fields[1:]))))
            if opened is not None:
                continue
            bracket_id = closed or fields[0]
            stack = open_stacks.get(bracket_id)
            if not stack:
                raise ParseError(
                    f"Entity close {bracket_id!r} without matching open "
                    f"(sentence {token.sent_index + 1})",
                    filename, _line(document, token))
            start, attributes = stack.pop()
            eid, tokens, part_n = bracket_id, flat[start:position + 1], 1
            if suffix := _PART_SUFFIX.match(bracket_id):
                eid, part_i, part_n = (suffix.group(1), int(suffix.group(2)),
                                       int(suffix.group(3)))
                if not 1 <= part_i <= part_n:
                    raise ParseError(f"invalid part index in {bracket_id!r}",
                                     filename, _line(document, token))
                state = pending.pop(eid, None)
                if part_i == 1:
                    if state is not None:
                        raise ParseError(
                            f"unmatched part indices for entity {eid!r}: new "
                            f"mention starts while part {state[0]}/"
                            f"{state[1]} is expected",
                            filename, _line(document, token))
                    state = (1, part_n, [], attributes)
                if state is None or state[:2] != (part_i, part_n):
                    raise ParseError(
                        f"unmatched part indices for entity {eid!r}: got "
                        f"part {part_i}/{part_n}",
                        filename, _line(document, token))
                _, _, parts, attributes = state
                parts.extend(tokens)
                if part_i < part_n:
                    pending[eid] = (part_i + 1, part_n, parts, attributes)
                    continue
                tokens = sorted(parts, key=lambda t: t.pos)
            mention = Mention(entity_id=eid, span=tuple(tokens),
                              n_parts=part_n, attributes=attributes)
            mention.head = mention_head(mention, document)
            mentions.setdefault(eid, []).append(mention)
        if consumed != len(value):
            raise ParseError(
                f"malformed Entity annotation {value!r} on token "
                f"{token.index} (sentence {token.sent_index + 1})",
                filename, _line(document, token))

    for bracket_id, stack in open_stacks.items():
        if stack:
            start, _ = stack[-1]
            raise ParseError(
                f"unbalanced Entity bracket {bracket_id!r} opened in "
                f"sentence {flat[start].sent_index + 1} never closed "
                f"before end of document {document.doc_id!r}",
                filename, _line(document, flat[start]))
    for eid, (next_part, part_n, tokens, _) in pending.items():
        raise ParseError(
            f"unmatched part indices for entity {eid!r}: parts after "
            f"{next_part - 1}/{part_n} missing at end of document",
            filename, _line(document, tokens[-1]))

    entities = [Entity(eid, sorted(group, key=lambda m: (m.start, m.end)))
                for eid, group in mentions.items()]
    entities.sort(key=lambda e: (e.mentions[0].start, e.mentions[0].end,
                                 e.entity_id))
    return entities


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
