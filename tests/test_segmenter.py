import re
import sys
from dataclasses import replace
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo.cli import build_instances, read_tweets
from finemo.lexicons import load_lexicons
from finemo.segmenter import (
    ADDITIVE_WORDS,
    BOUNDARY_WORDS,
    FOCUS_TAG,
    NUMBER_RE,
    OTHER_TAG,
    RELATIVE_WORDS,
    WORD_RE,
    EmotionLabel,
    RawTweet,
    Segment,
    _BOUNDARY_RE,
    _TOKEN_RE,
    group_forward,
    replicate_per_asset,
    scan_clause,
    segment_clauses,
    segment_tweet,
    split_asset_lists,
)
from perfbench.workloads import SPECS
from tests.frontend_reference import _ref_find_assets, _ref_segment_clauses
from tests.segmentation_cases import CASES


def _tweet(text: str) -> RawTweet:
    return RawTweet(id="t", timestamp=datetime(2019, 8, 1, 10, 0), text=text)


def test_emotion_label_parse():
    assert EmotionLabel.parse("P") is EmotionLabel.PRECAUTION
    assert EmotionLabel.parse("n") is EmotionLabel.NEUTRAL
    assert EmotionLabel.parse("OPPORTUNITY") is EmotionLabel.OPPORTUNITY
    with pytest.raises(ValueError):
        EmotionLabel.parse("X")


def _loop_parse(value):
    """``EmotionLabel.parse`` as a loop over the labels, as it was before
    the lookup table."""
    key = value.strip().rstrip("+-").casefold()
    for label in EmotionLabel:
        if key in (label.value.casefold(), label.name.casefold()):
            return label
    raise ValueError(f"unknown emotion label: {value!r}")


_SPELLINGS = [s for label in EmotionLabel for s in (label.value, label.name)]
_label_text = st.one_of(
    st.sampled_from(_SPELLINGS),
    # each spelling in random case, near misses and any short text
    st.sampled_from(_SPELLINGS).flatmap(
        lambda s: st.tuples(*(st.sampled_from([c, c.lower(), c.upper()]) for c in s)).map("".join)
    ),
    st.sampled_from(["precautioN-x", "neutrals", "opportunit", "", "PN", "ñ", "ß"]),
    st.text(max_size=4),
)
# whitespace, no-break and ideographic spaces among it, and the marks
_around = st.text(alphabet=" \t\n\xa0\u3000+-", max_size=3)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(before=_around, text=_label_text, after=_around)
def test_emotion_label_parse_matches_the_loop(before, text, after):
    value = before + text + after
    try:
        expected = _loop_parse(value)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            EmotionLabel.parse(value)
        assert str(raised.value) == str(exc)
    else:
        assert EmotionLabel.parse(value) is expected


def test_raw_tweet_validation():
    with pytest.raises(ValueError):
        RawTweet(id="", timestamp=datetime(2019, 8, 1), text="hola")
    with pytest.raises(ValueError):
        RawTweet(id="t", timestamp=datetime(2019, 8, 1), text="   ")


def test_clause_splitting_boundaries():
    text = (
        "BBVA no puede superar resistencia intraday mientras Santander sigue "
        "presionando a la baja aunque podría confirmar corrección"
    )
    assert segment_clauses(text) == [
        "BBVA no puede superar resistencia intraday",
        "mientras Santander sigue presionando a la baja",
        "aunque podría confirmar corrección",
    ]


def test_decimal_commas_do_not_split():
    assert segment_clauses("baja -2,48% hoy") == ["baja -2,48% hoy"]


def test_boundary_word_never_splits_at_clause_start():
    # a clause that already starts with a boundary word stays whole
    assert segment_clauses("mientras todo sube") == ["mientras todo sube"]


@pytest.mark.parametrize("word", sorted(BOUNDARY_WORDS))
def test_each_boundary_word_starts_a_clause(word):
    assert segment_clauses(f"todo sube {word.upper()} nada baja") == [
        "todo sube",
        f"{word.upper()} nada baja",
    ]


def test_boundary_pretest_matches_every_casefold_spelling():
    # the pre-test must match wherever the walk would cut: at every word
    # whose casefold is a boundary word. re.I folds one character at a
    # time, so it suffices that each code point whose casefold is a piece of
    # a boundary word matches in that piece's place ("ſ" for "s" does; "ﬅ",
    # which folds to "st", stands in no boundary word).
    pieces = {w[i:j] for w in BOUNDARY_WORDS for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    checked = 0
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        folded = char.casefold()
        if folded not in pieces:
            continue
        for word in BOUNDARY_WORDS:
            at = word.find(folded)
            while at >= 0:
                spelled = word[:at] + char + word[at + len(folded):]
                if WORD_RE.fullmatch(spelled):
                    assert _BOUNDARY_RE.fullmatch(spelled), (hex(code), word)
                    checked += 1
                at = word.find(folded, at + 1)
    # the lower- and uppercase ASCII letter of each letter place, and "ſ"
    assert checked > 2 * sum(map(len, BOUNDARY_WORDS))


def test_handcrafted_corpus(lx):
    for text, expected in CASES:
        got = [(s.text, s.asset_names) for s in segment_tweet(_tweet(text), lx)]
        assert got == [tuple(e) for e in expected], text


def test_group_forward_rule_order(lx):
    # rule 1 groups the asset-free clause first, then rule 2 merges; the
    # merged clause's span moves with it
    clauses = ["El $IBEX35 cae", "sin freno", "que $TEF aguante"]
    assert group_forward([scan_clause(c, lx) for c in clauses]) == [
        ("El $IBEX35 cae sin freno que $TEF aguante", [("IBEX35", (3, 10)), ("TEF", (29, 33))])
    ]


def test_split_asset_lists_requires_multiple_numbers(lx):
    def split(text):
        return split_asset_lists((text, _ref_find_assets(text, lx)))

    assert split("$BBVA $SAN suben 3%") == [
        ("$BBVA $SAN suben 3%", [("BBVA", (0, 5)), ("SAN", (6, 10))])
    ]
    # each piece holds one asset, its span relative to the piece
    assert split("$BBVA -1% $SAN +2%") == [
        ("$BBVA -1%", [("BBVA", (0, 5))]), ("$SAN +2%", [("SAN", (0, 4))])
    ]


def test_find_assets_spans(lx):
    text = "$BKIA y BBVA."
    assets = scan_clause(text, lx)[1]
    assert assets == _ref_find_assets(text, lx) == [("BKIA", (0, 5)), ("BBVA", (8, 12))]
    assert text[0:5] == "$BKIA"
    assert text[8:12] == "BBVA"


def test_replicate_per_asset_tags_focus(lx):
    text = "Dice cosas de $BBVA que $SAN confirmará con $BBVA"
    seg = Segment(text=text, assets=tuple(_ref_find_assets(text, lx)))
    replicas = replicate_per_asset(seg)
    assert [r.focus for r in replicas] == ["BBVA", "SAN"]
    assert replicas[0].text == f"Dice cosas de {FOCUS_TAG} que {OTHER_TAG} confirmará con {FOCUS_TAG}"
    assert replicas[1].text == f"Dice cosas de {OTHER_TAG} que {FOCUS_TAG} confirmará con {OTHER_TAG}"


@pytest.mark.parametrize("word", ["TICKERS", "tickers", FOCUS_TAG, OTHER_TAG])
def test_tag_letters_in_raw_text_bear_no_asset(lx, word):
    # segmentation runs on raw text, so a word that spells a tag is an
    # ordinary word: its asset-free clause joins the group before it
    got = [s.text for s in segment_tweet(_tweet(f"$SAN sube fuerte. Los {word} hoy"), lx)]
    assert got == [f"$SAN sube fuerte Los {word} hoy"]


def test_replicate_requires_assets():
    with pytest.raises(ValueError):
        replicate_per_asset(Segment(text="hola", assets=()))


WORDS = [
    "mercado", "sube", "baja", "hoy", "sesión", "banca", "fuerte", "$BBVA",
    "$SAN", "#Ibex35", "BKIA", "-2,5%", "+1,3%", "y", "que", "mientras",
]


# aliases, markers, trailing punctuation and the tags themselves
ASSET_FORMS = [
    "Santander", "santander.", "telefónica", "@Apple", "$ALUA.BA", "ALUA.BA", "#CABK",
    "KO.", "bankia,", "$SAN.", "amazon!", "IBEX35?", "$tef:", "sab.mc", "MT", "mt.",
    FOCUS_TAG, OTHER_TAG,
]


SEPARATORS = [" ", " ", " ", ". ", ", ", " - "]


@st.composite
def tweets(draw, words=WORDS, separators=SEPARATORS):
    words = draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    seps = draw(
        st.lists(st.sampled_from(separators),
                 min_size=len(words) - 1, max_size=len(words) - 1)
    )
    text = words[0]
    for sep, word in zip(seps, words[1:]):
        text += sep + word
    return text


@settings(max_examples=150, deadline=None)
@given(tweets())
def test_segmentation_properties(lx, text):
    result = segment_tweet(_tweet(text), lx)
    again = segment_tweet(_tweet(text), lx)
    # deterministic
    assert [(s.text, s.assets) for s in result] == [(s.text, s.assets) for s in again]
    for seg in result:
        # only asset-bearing segments survive
        assert seg.assets
        assert seg.text.strip()
        # spans index into the segment's own text
        for ticker, (start, end) in seg.assets:
            assert 0 <= start < end <= len(seg.text)
        # every word of the segment occurs in the input
        for word in seg.text.split():
            assert word in text
    # segmentation never invents length
    assert sum(len(s.text) for s in result) <= len(text) + len(result)


@settings(max_examples=100, deadline=None)
@given(tweets())
def test_clauses_cover_all_words(text):
    clauses = segment_clauses(text)
    import re

    def words(s):
        return [w for w in re.findall(r"[\w.,%+-]+", s) if re.search(r"\w", w)]

    original = words(text)
    from_clauses = [w for c in clauses for w in words(c)]
    # clause splitting only removes separators, never words
    assert [w.strip(".,") for w in from_clauses] == [w.strip(".,") for w in original]


def _assert_replicas_are_tagged(tweet, lx):
    # process() tags no assets: a replica must hold no mention left to tag
    for seg in segment_tweet(tweet, lx):
        for replica in replicate_per_asset(seg):
            assert _ref_find_assets(replica.text, lx) == []


def test_sample_replicas_are_already_tagged(lx, sample_paths):
    for tweet in read_tweets(sample_paths["tweets"]):
        _assert_replicas_are_tagged(tweet, lx)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tweets(WORDS + ASSET_FORMS))
def test_replicas_are_already_tagged(lx, text):
    _assert_replicas_are_tagged(_tweet(text), lx)


class _CountingTickers(dict):
    """A ticker table that counts the lookups made with ``get``."""

    calls = 0

    def get(self, key, default=None):
        self.calls += 1
        return super().get(key, default)


def test_one_ticker_lookup_per_token(lx, sample_paths):
    # every ticker lookup of the front end is one ``get`` on the table, by
    # scan_clause or by lookup_ticker
    tickers = _CountingTickers(lx.tickers)
    tweets = list(read_tweets(sample_paths["tweets"]))
    assert list(build_instances(tweets, replace(lx, tickers=tickers)))
    assert 0 < tickers.calls <= sum(len(_TOKEN_RE.findall(t.text)) for t in tweets)


# -- oracle: the segmenter that rescanned every clause, group and piece --


def _ref_has_ticker(text, lx):
    return bool(_ref_find_assets(text, lx))


def _ref_words(text):
    return [w.casefold() for w in re.findall(r"\w[\w.]*", text, re.UNICODE)]


def _ref_group_forward(clauses, lx):
    groups = []
    aux = ""
    for clause in clauses:
        words = set(_ref_words(clause))
        starts_group = (
            _ref_has_ticker(clause, lx)
            or any(w in words for w in ADDITIVE_WORDS)
            or "," in clause
            or "-" in clause
        )
        if starts_group:
            if aux:
                groups.append(aux)
            aux = clause
        else:
            aux = f"{aux} {clause}".strip() if aux else clause
    if aux:
        groups.append(aux)

    merged = []
    for group in groups:
        first = _ref_words(group)[:1]
        if (
            merged
            and first
            and first[0] in RELATIVE_WORDS
            and _ref_has_ticker(merged[-1], lx)
            and _ref_has_ticker(group, lx)
        ):
            merged[-1] = f"{merged[-1]} {group}"
        else:
            merged.append(group)
    return merged


def _ref_split_asset_lists(segment, lx):
    if len(NUMBER_RE.findall(segment)) <= 1:
        return [segment]
    assets = _ref_find_assets(segment, lx)
    if len(assets) <= 1:
        return [segment]
    cuts = [start for _, (start, _) in assets[1:]]
    pieces = []
    prev = 0
    for cut in cuts:
        piece = segment[prev:cut].strip()
        if piece:
            pieces.append(piece)
        prev = cut
    tail = segment[prev:].strip()
    if tail:
        pieces.append(tail)
    return pieces


def _ref_segment_tweet(tweet, lx):
    clauses = segment_clauses(tweet.text)
    segments = []
    for group in _ref_group_forward(clauses, lx):
        for piece in _ref_split_asset_lists(group, lx):
            assets = _ref_find_assets(piece, lx)
            if assets:
                segments.append(Segment(text=piece, assets=tuple(assets)))
    return segments


# ellipses, runs of marks, decimal and leading or trailing commas, hyphens
# with and without spaces, digits from other scripts
CLAUSE_PIECES = [
    "sube", "1,5", "2", ",", ", ", " ,", ",3", "4,", "...", ". ", "!!", "!! ", "?!", ";",
    ":", " - ", " -", "- ", "-", "a -b", " - - ", "  ", "\t", "\n", "y", "pero", "$SAN.",
    "1.000,5%", "٣", "²,", ",٣", ".x", "x.", " ",
]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(CLAUSE_PIECES), max_size=14).map("".join))
def test_segment_clauses_equals_character_walk(text):
    assert segment_clauses(text) == _ref_segment_clauses(text)


def _assert_same_as_oracle(tweets, lx):
    n = 0
    for tweet in tweets:
        assert segment_tweet(tweet, lx) == _ref_segment_tweet(tweet, lx), tweet.text
        n += 1
    return n


# tag literals and their prefixes, markers glued to words, a marked
# boundary word and a ticker glued to another by a dot
ORACLE_WORDS = WORDS + ASSET_FORMS + ["TICKERS", "x$BBVA", "$pero", "BBVA.SAN", "aunque"]
# separators with no space, ellipses and semicolons
ORACLE_SEPARATORS = SEPARATORS + ["...", "; ", ",", "-", "- ", "!! "]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tweets(ORACLE_WORDS, ORACLE_SEPARATORS))
def test_segment_tweet_equals_oracle_on_mixes(lx, text):
    _assert_same_as_oracle([_tweet(text)], lx)


def test_segment_tweet_equals_oracle_on_sample(lx, sample_paths):
    assert _assert_same_as_oracle(read_tweets(sample_paths["tweets"]), lx) > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_segment_tweet_equals_oracle_on_benchmark_inputs(name, benchmark_inputs):
    workload = benchmark_inputs[name]
    assert _assert_same_as_oracle(read_tweets(workload.tweets), load_lexicons(workload.lexicons)) > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_segment_clauses_equals_character_walk_on_benchmark_inputs(name, benchmark_inputs):
    n = 0
    for n, tweet in enumerate(read_tweets(benchmark_inputs[name].tweets), start=1):
        assert segment_clauses(tweet.text) == _ref_segment_clauses(tweet.text), tweet.text
    assert n == benchmark_inputs[name].n_tweets
