"""Mention-type and dependency-relation classification.

Mentions fall into five types by the UPOS of their head word, with empty
nodes counted as zero pronouns regardless of UPOS. The 37 base universal
dependency relations are grouped into 12 categories, one letter each.
"""
from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from . import model

if TYPE_CHECKING:
    from .model import Mention, Token


class MentionType(enum.Enum):
    NOMINAL_NOUN = "nominal_noun"
    PROPER_NOUN = "proper_noun"
    OVERT_PRONOUN = "overt_pronoun"
    ZERO_PRONOUN = "zero_pronoun"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


class UdCategory(enum.Enum):
    S = "core arguments_subject"
    O = "core arguments_object"  # noqa: E741
    D = "non-core dependents_nominals"
    N = "nominal dependents_nominals"
    C = "clauses"
    M = "modifier words"
    F = "function words"
    R = "coordination"
    W = "MWE"
    L = "loose"
    P = "special"
    T = "other"


_CATEGORY_RELATIONS: dict[UdCategory, tuple[str, ...]] = {
    UdCategory.S: ("nsubj",),
    UdCategory.O: ("obj", "iobj"),
    UdCategory.D: ("obl", "vocative", "expl", "dislocated"),
    UdCategory.N: ("nmod", "appos", "nummod"),
    UdCategory.C: ("csubj", "ccomp", "xcomp", "advcl", "acl"),
    UdCategory.M: ("advmod", "discourse", "amod"),
    UdCategory.F: ("aux", "cop", "mark", "det", "clf", "case"),
    UdCategory.R: ("conj", "cc"),
    UdCategory.W: ("fixed", "flat", "compound"),
    UdCategory.L: ("list", "parataxis"),
    UdCategory.P: ("orphan", "goeswith", "reparandum"),
    UdCategory.T: ("punct", "root", "dep"),
}

RELATION_CATEGORIES: dict[str, UdCategory] = {
    relation: category
    for category, relations in _CATEGORY_RELATIONS.items()
    for relation in relations
}


def base_relation(deprel: str) -> str:
    """Strip the language-specific subtype: nsubj:pass -> nsubj."""
    return deprel.split(":", 1)[0]


def ud_category(deprel: str | None) -> UdCategory:
    """Map a dependency relation label onto its category.

    Labels are compared exactly (UD labels are lowercase). A missing label
    maps to the catch-all category; an unknown one does too, with a warning
    once per run.
    """
    if deprel is None or deprel in ("", "_"):
        return UdCategory.T
    base = base_relation(deprel)
    category = RELATION_CATEGORIES.get(base)
    if category is None:
        if base not in model.warned_relations:
            model.warned_relations.add(base)
            model.warn(__name__, "unknown dependency relation %r mapped to "
                       "category T", base)
        return UdCategory.T
    return category


def classify_mention_type(head: Token) -> MentionType:
    """Type of a mention given its resolved head token."""
    if head.is_empty:
        return MentionType.ZERO_PRONOUN
    if head.upos == "NOUN":
        return MentionType.NOMINAL_NOUN
    if head.upos == "PROPN":
        return MentionType.PROPER_NOUN
    if head.upos == "PRON":
        return MentionType.OVERT_PRONOUN
    return MentionType.OTHER


def is_premodified(mention: Mention, head: Token) -> bool:
    """Whether the mention has several tokens and ends in its head."""
    return len(mention.span) > 1 and mention.span[-1] is head


def category_table() -> list[tuple[str, str, str]]:
    """Rows (letter, display name, comma-joined relations) for export."""
    return [(category.name, category.value, ", ".join(relations))
            for category, relations in _CATEGORY_RELATIONS.items()]
