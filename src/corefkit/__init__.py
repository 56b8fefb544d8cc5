"""Toolkit for multilingual coreference corpora in the CorefUD flavor of
CoNLL-U: parsing, linguistic statistics, evaluation metrics, error analysis
of system output, and feature export.

The names below are imported from their modules on first access, so that
``import corefkit`` (which every ``corefkit`` command runs) loads no
submodule by itself."""

__version__ = "0.1.0"

# The module that defines each re-exported name.
_HOMES = {
    **dict.fromkeys(("ParseError", "iter_documents", "parse_conllu",
                     "parse_file", "resolve_entities", "serialize"),
                    "conllu"),
    **dict.fromkeys(("Corpus", "Document", "Entity", "Mention", "Sentence",
                     "Token", "mention_head", "mention_key", "span_key"),
                    "model"),
    **dict.fromkeys(("MentionType", "UdCategory", "classify_mention_type",
                     "ud_category"), "taxonomy"),
}
__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
