"""The text front end against the code it replaced, and two invariances.

Each clause is tokenized once and each regex pass runs only when a cheap
test shows it can match. The ``_ref_*`` oracles of
``tests/frontend_reference.py`` rescan every text as the front end used to,
and every output here must equal theirs: on Hypothesis text built from URLs,
RT markers, dates, signed numbers, marked words, tag literals, digits from
other scripts and letters that casefold specially, and on every replica of
the three benchmark inputs.
"""

from dataclasses import replace
from datetime import datetime

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finemo.cli import read_tweets
from finemo.features import extract_numeric
from finemo.lexicons import load_lexicons
from finemo.segmenter import (
    ADDITIVE_WORDS,
    WORD_RE,
    RawTweet,
    Segment,
    group_forward,
    replicate_per_asset,
    scan_clause,
    segment_clauses,
    segment_tweet,
)
from finemo.textproc import clean_filter, process, tag_numbers
from perfbench.workloads import SPECS
from tests.frontend_reference import (
    _ref_clean_filter,
    _ref_extract_numeric,
    _ref_find_assets,
    _ref_group_forward_pairs,
    _ref_process,
    _ref_replicate_per_asset,
    _ref_segment_clauses,
    _ref_tag_numbers,
)

PIECES = [
    # URLs of each form, and near misses of the URL pre-test
    "https://t.co/S73BxUSKiR", "http://bolsa.es/a?b=1", "t.co/xyz", "www.ibex.es", "xt.co/a",
    "http", "https:/", "HTTP://A.B", "wwwx", "www.",
    # RT markers
    "RT", "RT:", "RT @SAN", "rt", "ARTE", "xRT", "RT.",
    # dates, signed numbers, decimal commas, percentages
    "12/05", "+12/05", "30-07-2019", "2019/7/30", "1/2/3/4", "-2,5%", "+1,3%", "+8", "-1.000,25",
    "9375", "3%", "%", "-", "+", "1,5", "2,48", "0,",
    # marked words, aliases with trailing marks, tickers
    "$BBVA", "#Ibex35", "@SAN", "$$SAN", "#mayorcaída", "$pero", "@y", "santander.", "ALUA.BA",
    "KO.", "bankia,", "telefónica", "$tef:", "IBEX35?", "MT",
    # marks and runs of punctuation
    "!", "¡", "?", "¿", "!!!", "?!", "...", ";", ":", "(", ")", '"', "'",
    # tag literals and a near miss
    "TICKER", "OTHER_TICKER", "NEGATIVE", "POSITIVE", "NUMBER", "TICKERS",
    # digits from other scripts
    "٣", "²", "٣٤/٥", "①",
    # letters that casefold specially, alone and in boundary or lexicon words
    "ſ", "K", "İ", "ß", "ﬅ", "İS", "mientraſ", "MIENTRAS", "AUNQUE", "Pero", "Y", "QUE", "And",
    # boundary, additive and relative words, lexicon words, abbreviations
    "y", "and", "que", "that", "mientras", "aunque", "pero", "no", "muy", "nunca", "caída",
    "miedo", "alegría", "sube", "baja", "mercado", "sigue", "sigen", "el", "ebitda", "IPO",
]
SEPARATORS = [" ", " ", "", ". ", ", ", ",", " - ", "-", "\t", "\n", "... "]


@st.composite
def texts(draw, pieces=PIECES):
    words = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=14))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
    return "".join(sep + word for sep, word in zip(seps, words)).lstrip() or words[0]


def _tweet(text):
    return RawTweet(id="t", timestamp=datetime(2019, 8, 1, 10, 0), text=text)


def _ref_scan(clause, lx):
    """``scan_clause``'s record as separate rescans of the clause."""
    words = [w.casefold() for w in WORD_RE.findall(clause)]
    additive = any(w in ADDITIVE_WORDS for w in words)
    return clause, _ref_find_assets(clause, lx), additive, words[0] if words else None


def _assert_normalization_equal(seg, lx):
    assert tag_numbers(seg.text) == _ref_tag_numbers(seg.text)
    assert clean_filter(seg.text, lx) == _ref_clean_filter(seg.text, lx)
    tagged = tag_numbers(seg.text)
    assert clean_filter(tagged, lx) == _ref_clean_filter(tagged, lx)
    ps = process(seg, lx)
    assert ps == _ref_process(seg, lx)
    numeric = extract_numeric(ps, seg.text, lx)
    assert numeric == _ref_extract_numeric(ps, seg.text, lx)
    assert {type(v) for v in numeric} == {int}


def _assert_front_end_equal(tweet, lx):
    """Every stage of ``tweet`` equals its oracle; returns the replica count."""
    clauses = segment_clauses(tweet.text)
    assert clauses == _ref_segment_clauses(tweet.text)
    scans = [scan_clause(c, lx) for c in clauses]
    assert scans == [_ref_scan(c, lx) for c in clauses]
    assert group_forward(scans) == _ref_group_forward_pairs([(c, _ref_find_assets(c, lx)) for c in clauses])
    n = 0
    for seg in segment_tweet(tweet, lx):
        replicas = replicate_per_asset(seg)
        assert replicas == _ref_replicate_per_asset(seg)
        for replica in replicas:
            _assert_normalization_equal(replica, lx)
            n += 1
    return n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(texts())
def test_front_end_equals_the_oracles(lx, text):
    _assert_front_end_equal(_tweet(text), lx)
    # process and extract_numeric on the raw text, marks, URLs and all
    _assert_normalization_equal(Segment(text, (), "SAN"), lx)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(texts(), max_size=6))
def test_grouping_equals_the_rescans_on_any_clauses(lx, clauses):
    scans = [scan_clause(c, lx) for c in clauses]
    assert scans == [_ref_scan(c, lx) for c in clauses]
    assert group_forward(scans) == _ref_group_forward_pairs([(c, _ref_find_assets(c, lx)) for c in clauses])


# aliases whose surface forms casefold specially: "ß" and "ẞ" to "ss", "İ"
# to "i" and a combining dot; "Inditex" with a plain "I" names no ticker
_FOLDING_ALIASES = {"strasse": "STR", "i\u0307nditex": "ITX"}
_ALIAS_FORMS = ["Straße", "STRAẞE", "strasse", "İnditex", "İNDİTEX", "Inditex", "santander", "ibex", "bbva", "sab.mc", "alua.ba"]


@st.composite
def _marked_tokens(draw):
    """An alias form in mixed case, with a marker and trailing marks."""
    form = draw(st.sampled_from(_ALIAS_FORMS))
    cases = draw(st.lists(st.sampled_from([str.lower, str.upper, str]), min_size=len(form), max_size=len(form)))
    marker = draw(st.sampled_from(["", "$", "#", "@", "$$", "#@"]))
    trailing = draw(st.sampled_from(["", ".", "..", "...", ",", "!", "?.", ".;", ":"]))
    return marker + "".join(case(c) for case, c in zip(cases, form)) + trailing


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_marked_tokens(), st.sampled_from(PIECES)), min_size=1, max_size=10), st.data())
def test_scan_clause_finds_the_mentions_of_the_ticker_lookup(lx, words, data):
    # scan_clause looks each token up by its casefolded word; the oracle
    # calls lookup_ticker on the token without its trailing dots
    lexicons = replace(lx, tickers={**lx.tickers, **_FOLDING_ALIASES})
    seps = data.draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)))
    text = "".join(sep + word for sep, word in zip(seps, words))
    assert scan_clause(text, lexicons)[1] == _ref_find_assets(text, lexicons)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_front_end_equals_the_oracles_on_benchmark_inputs(name, benchmark_inputs):
    workload = benchmark_inputs[name]
    lx = load_lexicons(workload.lexicons)
    replicas = sum(_assert_front_end_equal(tweet, lx) for tweet in read_tweets(workload.tweets))
    assert replicas > workload.n_tweets


# -- invariances: an unnamed ticker in place of a mention, or appended --

ASSET_PIECES = PIECES + ["$SAN", "BBVA", "Santander", "amazon!", "#CABK", "@Apple", "sab.mc", "$ALUA.BA"]


def _instances(text, lx):
    """(segment index, focus, tokens, numeric counters) of every replica."""
    return [
        (index, replica.focus, ps.tokens, extract_numeric(ps, replica.text, lx))
        for index, seg in enumerate(segment_tweet(_tweet(text), lx))
        for replica in replicate_per_asset(seg)
        for ps in [process(replica, lx)]
    ]


def _unnamed_tickers(text, lx):
    named = {ticker for ticker, _ in _ref_find_assets(text, lx)}
    return sorted(set(lx.tickers.values()) - named)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=texts(ASSET_PIECES), data=st.data())
def test_an_unnamed_ticker_in_place_of_a_mention_changes_no_replica(lx, text, data):
    mentions = _ref_find_assets(text, lx)
    named = [ticker for ticker, _ in mentions]
    # a mention whose ticker the tweet names once: its replicas keep their
    # number. Neither it nor the new ticker holds a digit, since
    # split_asset_lists counts the digits of a mention as a number.
    once = [(t, (s, e)) for t, (s, e) in mentions if named.count(t) == 1 and not any(c.isdigit() for c in text[s:e])]
    assume(once)
    ticker, (start, end) = data.draw(st.sampled_from(once), label="mention")
    new = data.draw(st.sampled_from([x for x in _unnamed_tickers(text, lx) if not any(c.isdigit() for c in x)]), label="new")
    before = _instances(text, lx)
    after = _instances(f"{text[:start]}${new}{text[end:]}", lx)
    assert [(i, new if f == ticker else f, tokens, numeric) for i, f, tokens, numeric in before] == after


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=texts(ASSET_PIECES), data=st.data())
def test_an_appended_clause_on_an_unnamed_ticker_changes_no_earlier_replica(lx, text, data):
    new = data.draw(st.sampled_from(_unnamed_tickers(text, lx)), label="new")
    before = _instances(text, lx)
    after = _instances(f"{text}. ${new} cotiza estable.", lx)
    assert after[: len(before)] == before
    assert [focus for _, focus, _, _ in after[len(before):]] == [new]
