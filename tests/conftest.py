from __future__ import annotations

import pytest

from corefkit import parse_file
from support import DATA


@pytest.fixture(scope="session")
def basic_corpus():
    return parse_file(DATA / "basic.conllu", dataset="fixture", language="es")


@pytest.fixture(scope="session")
def pair_docs():
    gold = parse_file(DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu",
                      dataset="en_pairset", language="en")
    pred = parse_file(DATA / "score" / "pred" / "en_pairset.conllu",
                      dataset="en_pairset", language="en")
    return gold.documents[0], pred.documents[0]
