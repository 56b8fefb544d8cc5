"""The checks a library call makes of its arguments: each call outside its
domain raises, with a message that names what was wrong."""
from __future__ import annotations

import pytest

from corefkit.analysis import CompetingAntecedentStats, competing_antecedents
from corefkit.features import iter_feature_records
from corefkit.metrics import AlignmentError, align_mentions
from corefkit.model import Corpus, Document, Mention, head_of
from corefkit.reports import DatasetReport
from corefkit.taxonomy import MentionType


def _competing(kind: MentionType) -> CompetingAntecedentStats:
    return CompetingAntecedentStats(kind, 1, 1, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _competing(MentionType.OVERT_PRONOUN)
     + _competing(MentionType.ZERO_PRONOUN),
     ValueError, "^cannot pool stats for different pronoun kinds$"),
    (lambda: competing_antecedents(Corpus(), MentionType.NOMINAL_NOUN),
     ValueError, "^kind must be a pronoun type, got nominal_noun$"),
    (lambda: next(iter_feature_records([], {}, target="all")),
     ValueError, "^unknown export target 'all'$"),
    (lambda: align_mentions(Document("d1"), Document("d1"), "fuzzy"),
     ValueError, "^unknown match mode 'fuzzy'$"),
    (lambda: align_mentions(Document("d1"), Document("d2")),
     AlignmentError, "^document ids differ: 'd1' vs 'd2'$"),
    (lambda: head_of(Mention("e1", ()), "semantic"),
     ValueError, "^unknown head rule 'semantic'$"),
    (lambda: DatasetReport("en_x", "s").row("k"), KeyError, "^'k'$"),
], ids=["pool-competing-across-kinds", "competing-non-pronoun",
        "export-target", "match-mode", "document-ids", "head-rule",
        "report-row"])
def test_a_call_outside_its_domain_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
