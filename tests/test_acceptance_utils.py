"""Exercise the data-gated acceptance machinery on a synthetic release.

The real releases are optional downloads; this module proves the whole
pipeline behind the corpus-gated criteria (discovery, per-file process
pool, per-dataset merging, language pooling, system error reports) runs
end to end on miniature data.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

import acceptance_util as util
from corefkit.analysis import genre_rates
from corefkit.metrics import AlignmentError
from corefkit.taxonomy import MentionType
from support import DATA, tok

# Two en_gum documents whose ids carry the genre: one personal pronoun in
# two vlog tokens, none in the academic ones.
GUM = "\n".join([
    "# newdoc id = GUM_vlog_hello", "# sent_id = v1",
    tok(1, "I", "PRON", 2, "nsubj", feats="Number=Sing|PronType=Prs"),
    tok(2, "tried", "VERB", 0, "root"), "",
    "# newdoc id = GUM_academic_dry", "# sent_id = a1",
    tok(1, "Results", "NOUN", 2, "nsubj"),
    tok(2, "follow", "VERB", 0, "root"), "", ""]).encode("utf-8")


@pytest.fixture
def synthetic_release(tmp_path, monkeypatch):
    root = tmp_path / "release"
    basic = (DATA / "basic.conllu").read_bytes()
    gold = (DATA / "score" / "gold" / "en_pairset-corefud-dev.conllu") \
        .read_bytes()
    for dataset, content in (("xx_alpha", basic), ("xx_gamma", basic),
                             ("yy_beta", gold), ("en_gum", GUM)):
        directory = root / f"CorefUD_{dataset}"
        directory.mkdir(parents=True)
        (directory / f"{dataset}-corefud-train.conllu").write_bytes(content)
    monkeypatch.setenv(util.COREFUD_ENV, str(root))
    monkeypatch.setenv(util.CRAC22_GOLD_ENV, str(DATA / "score" / "gold"))
    monkeypatch.setenv(util.CRAC22_BASELINE_ENV,
                       str(DATA / "score" / "pred"))
    monkeypatch.setenv(util.CRAC22_UFAL_ENV, str(DATA / "score" / "pred"))
    util._cache.clear()
    yield root
    util._cache.clear()


def test_timed_statistics_pipeline(synthetic_release):
    reports, elapsed = util.timed_corpus_statistics()
    assert set(reports) == {"xx_alpha", "xx_gamma", "yy_beta", "en_gum"}
    assert reports["xx_alpha"].value("mentions") == 10
    assert reports["yy_beta"].value("entities") == 3
    assert elapsed > 0


def test_release_analysis_merging_and_pooling(synthetic_release):
    data = util.release_analysis()
    assert set(data) == {"xx_alpha", "xx_gamma", "yy_beta", "en_gum"}
    info = data["xx_alpha"]
    assert info["types"].row("zero_pronoun").numerator == 1
    assert info["competing_overt"].n_pronouns == 2

    pooled = util.by_language(data, "head_annotated")
    assert set(pooled) == {"xx", "yy", "en"}
    # two identical xx datasets pool to doubled denominators
    assert pooled["xx"].row("premodified_of_all").denominator == 20

    # the rankings hold one Counter per anaphor type, in MentionType order
    overt = list(MentionType).index(MentionType.OVERT_PRONOUN)
    rankings = util.by_language(data, "rankings")
    single = data["xx_alpha"]["rankings"][overt]
    assert rankings["xx"][overt] == single + single


def test_release_analysis_shapes_read_by_acceptance(synthetic_release):
    data = util.release_analysis()
    syntactic = util.by_language(data, "head_syntactic")
    assert syntactic["xx"].row("premodified_of_all").denominator == 20
    assert syntactic["xx"].value("premodified_of_multitoken") is not None

    assert data["xx_alpha"]["first"].value("first_is_longest") == 100
    assert data["en_gum"]["first"].value("first_is_longest") is None

    zero = (data["xx_alpha"]["competing_zero"]
            + data["xx_gamma"]["competing_zero"])
    assert zero.kind is MentionType.ZERO_PRONOUN
    assert (zero.n_pronouns, zero.n_valid) == (2, 0)
    assert zero.mean_competitors is None

    assert "genre" not in data["xx_alpha"]
    rates = dict(genre_rates(*data["en_gum"]["genre"]))
    assert rates == {"academic": 0, "vlog": Fraction(8000 * 1, 2)}


def test_system_error_reports_pipeline(synthetic_release):
    reports = util.system_error_reports(util.CRAC22_BASELINE_ENV, "exact")
    assert set(reports) == {"en_pairset"}
    report = reports["en_pairset"]
    assert report.unresolved_pct == Fraction(50)
    head_mode = util.system_error_reports(util.CRAC22_BASELINE_ENV, "head")
    assert head_mode["en_pairset"].n_entities == 2


def test_system_error_reports_reject_an_extra_document(synthetic_release,
                                                      tmp_path, monkeypatch):
    pred = (DATA / "score" / "pred" / "en_pairset.conllu") \
        .read_text(encoding="utf-8")
    (tmp_path / "en_pairset.conllu").write_text(
        pred + pred.replace("pair-doc1", "pair-doc2"), encoding="utf-8")
    monkeypatch.setenv(util.CRAC22_BASELINE_ENV, str(tmp_path))
    with pytest.raises(AlignmentError, match="^en_pairset: system output "
                       "has unknown document 'pair-doc2'$"):
        util.system_error_reports(util.CRAC22_BASELINE_ENV, "exact")


def test_data_root_skips_without_env(monkeypatch):
    monkeypatch.delenv(util.COREFUD_ENV, raising=False)
    util._cache.clear()
    with pytest.raises(pytest.skip.Exception):
        util.data_root(util.COREFUD_ENV)
