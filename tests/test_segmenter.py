from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo.cli import read_tweets
from finemo.segmenter import (
    FOCUS_TAG,
    OTHER_TAG,
    EmotionLabel,
    RawTweet,
    Segment,
    find_assets,
    group_forward,
    replicate_per_asset,
    segment_clauses,
    segment_tweet,
    split_asset_lists,
)
from finemo.textproc import tag_assets
from tests.segmentation_cases import CASES


def _tweet(text: str) -> RawTweet:
    return RawTweet(id="t", timestamp=datetime(2019, 8, 1, 10, 0), text=text)


def test_emotion_label_parse():
    assert EmotionLabel.parse("P") is EmotionLabel.PRECAUTION
    assert EmotionLabel.parse("n") is EmotionLabel.NEUTRAL
    assert EmotionLabel.parse("OPPORTUNITY") is EmotionLabel.OPPORTUNITY
    with pytest.raises(ValueError):
        EmotionLabel.parse("X")


def test_raw_tweet_validation():
    with pytest.raises(ValueError):
        RawTweet(id="", timestamp=datetime(2019, 8, 1), text="hola")
    with pytest.raises(ValueError):
        RawTweet(id="t", timestamp=datetime(2019, 8, 1), text="   ")


def test_clause_splitting_boundaries(lx):
    text = (
        "BBVA no puede superar resistencia intraday mientras Santander sigue "
        "presionando a la baja aunque podría confirmar corrección"
    )
    assert segment_clauses(text, lx) == [
        "BBVA no puede superar resistencia intraday",
        "mientras Santander sigue presionando a la baja",
        "aunque podría confirmar corrección",
    ]


def test_decimal_commas_do_not_split(lx):
    assert segment_clauses("baja -2,48% hoy", lx) == ["baja -2,48% hoy"]


def test_boundary_word_never_splits_at_clause_start(lx):
    # a clause that already starts with a boundary word stays whole
    assert segment_clauses("mientras todo sube", lx) == ["mientras todo sube"]


def test_handcrafted_corpus(lx):
    for text, expected in CASES:
        got = [(s.text, s.asset_names) for s in segment_tweet(_tweet(text), lx)]
        assert got == [tuple(e) for e in expected], text


def test_group_forward_rule_order(lx):
    # rule 1 groups the asset-free clause first, then rule 2 merges
    clauses = ["El $IBEX35 cae", "sin freno", "que $TEF aguante"]
    assert group_forward(clauses, lx) == ["El $IBEX35 cae sin freno que $TEF aguante"]


def test_split_asset_lists_requires_multiple_numbers(lx):
    assert split_asset_lists("$BBVA $SAN suben 3%", lx) == ["$BBVA $SAN suben 3%"]
    assert split_asset_lists("$BBVA -1% $SAN +2%", lx) == ["$BBVA -1%", "$SAN +2%"]


def test_find_assets_spans(lx):
    text = "$BKIA y BBVA."
    assets = find_assets(text, lx)
    assert assets == [("BKIA", (0, 5)), ("BBVA", (8, 12))]
    assert text[0:5] == "$BKIA"
    assert text[8:12] == "BBVA"


def test_replicate_per_asset_tags_focus(lx):
    text = "Dice cosas de $BBVA que $SAN confirmará con $BBVA"
    seg = Segment(tweet_id="t", text=text, assets=tuple(find_assets(text, lx)))
    replicas = replicate_per_asset(seg)
    assert [r.focus for r in replicas] == ["BBVA", "SAN"]
    assert replicas[0].text == f"Dice cosas de {FOCUS_TAG} que {OTHER_TAG} confirmará con {FOCUS_TAG}"
    assert replicas[1].text == f"Dice cosas de {OTHER_TAG} que {FOCUS_TAG} confirmará con {OTHER_TAG}"


def test_replicate_requires_assets():
    with pytest.raises(ValueError):
        replicate_per_asset(Segment(tweet_id="t", text="hola", assets=()))


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


@st.composite
def tweets(draw, words=WORDS):
    words = draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    seps = draw(
        st.lists(st.sampled_from([" ", " ", " ", ". ", ", ", " - "]),
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
def test_clauses_cover_all_words(lx, text):
    clauses = segment_clauses(text, lx)
    import re

    def words(s):
        return [w for w in re.findall(r"[\w.,%+-]+", s) if re.search(r"\w", w)]

    original = words(text)
    from_clauses = [w for c in clauses for w in words(c)]
    # clause splitting only removes separators, never words
    assert [w.strip(".,") for w in from_clauses] == [w.strip(".,") for w in original]


def _assert_replicas_are_tagged(tweet, lx):
    # process() tags asset mentions again; on a replica that must change nothing
    for seg in segment_tweet(tweet, lx):
        for replica in replicate_per_asset(seg):
            assert tag_assets(replica.text, replica.focus, lx) == replica.text


def test_sample_replicas_are_already_tagged(lx, sample_paths):
    for tweet in read_tweets(sample_paths["tweets"]):
        _assert_replicas_are_tagged(tweet, lx)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tweets(WORDS + ASSET_FORMS))
def test_replicas_are_already_tagged(lx, text):
    _assert_replicas_are_tagged(_tweet(text), lx)
