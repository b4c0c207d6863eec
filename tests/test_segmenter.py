import re
import sys
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo.cli import build_instances, read_tweets
from finemo.lexicons import load_lexicons, lookup_ticker
from finemo.segmenter import (
    ADDITIVE_WORDS,
    BOUNDARY_WORDS,
    FOCUS_TAG,
    NUMBER_RE,
    OTHER_TAG,
    RELATIVE_WORDS,
    EmotionLabel,
    RawTweet,
    Segment,
    _TOKEN_RE,
    find_assets,
    group_forward,
    replicate_per_asset,
    segment_clauses,
    segment_tweet,
    split_asset_lists,
)
from perfbench.workloads import SPECS, generate
from tests.conftest import ROOT
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


def test_handcrafted_corpus(lx):
    for text, expected in CASES:
        got = [(s.text, s.asset_names) for s in segment_tweet(_tweet(text), lx)]
        assert got == [tuple(e) for e in expected], text


def test_group_forward_rule_order(lx):
    # rule 1 groups the asset-free clause first, then rule 2 merges; the
    # merged clause's span moves with it
    clauses = ["El $IBEX35 cae", "sin freno", "que $TEF aguante"]
    assert group_forward([(c, find_assets(c, lx)) for c in clauses]) == [
        ("El $IBEX35 cae sin freno que $TEF aguante", [("IBEX35", (3, 10)), ("TEF", (29, 33))])
    ]


def test_split_asset_lists_requires_multiple_numbers(lx):
    def split(text):
        return split_asset_lists((text, find_assets(text, lx)))

    assert split("$BBVA $SAN suben 3%") == [
        ("$BBVA $SAN suben 3%", [("BBVA", (0, 5)), ("SAN", (6, 10))])
    ]
    # each piece holds one asset, its span relative to the piece
    assert split("$BBVA -1% $SAN +2%") == [
        ("$BBVA -1%", [("BBVA", (0, 5))]), ("$SAN +2%", [("SAN", (0, 4))])
    ]


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
            assert find_assets(replica.text, lx) == []


def test_sample_replicas_are_already_tagged(lx, sample_paths):
    for tweet in read_tweets(sample_paths["tweets"]):
        _assert_replicas_are_tagged(tweet, lx)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tweets(WORDS + ASSET_FORMS))
def test_replicas_are_already_tagged(lx, text):
    _assert_replicas_are_tagged(_tweet(text), lx)


def test_one_ticker_lookup_per_token(lx, sample_paths, monkeypatch):
    calls = 0

    def counting(token, lexicons):
        nonlocal calls
        calls += 1
        return lookup_ticker(token, lexicons)

    for name, module in list(sys.modules.items()):
        if name.startswith("finemo") and getattr(module, "lookup_ticker", None) is lookup_ticker:
            monkeypatch.setattr(module, "lookup_ticker", counting)
    tweets = list(read_tweets(sample_paths["tweets"]))
    assert list(build_instances(tweets, lx))
    assert 0 < calls <= sum(len(_TOKEN_RE.findall(t.text)) for t in tweets)


# -- oracle: the segmenter that rescanned every clause, group and piece --


def _ref_has_ticker(text, lx):
    return bool(find_assets(text, lx)) or FOCUS_TAG in text


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
    assets = find_assets(segment, lx)
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
            assets = find_assets(piece, lx)
            if assets:
                segments.append(Segment(tweet_id=tweet.id, text=piece, assets=tuple(assets)))
    return segments


def _ref_segment_clauses(text):
    """``segment_clauses`` as a walk over every character."""
    chunks = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        cut = False
        if c in ".;:!?":
            j = i
            while j + 1 < n and text[j + 1] in ".;:!?":
                j += 1
            if j + 1 >= n or text[j + 1].isspace():
                chunks.append(text[start:i])
                i = j + 1
                start = i
                cut = True
        elif c == ",":
            prev_digit = i > 0 and text[i - 1].isdigit()
            next_digit = i + 1 < n and text[i + 1].isdigit()
            if not (prev_digit and next_digit):
                chunks.append(text[start:i])
                start = i + 1
                i += 1
                cut = True
        elif c == "-" and i > 0 and text[i - 1] == " " and i + 1 < n and text[i + 1] == " ":
            chunks.append(text[start:i])
            start = i + 1
            i += 1
            cut = True
        if not cut:
            i += 1
    chunks.append(text[start:])

    clauses = []
    for chunk in chunks:
        piece_start = 0
        pieces = []
        for m in re.finditer(r"\w[\w.]*", chunk):
            if m.group(0).casefold() in BOUNDARY_WORDS and m.start() > piece_start:
                before = chunk[piece_start:m.start()]
                if before.strip():
                    pieces.append(before)
                    piece_start = m.start()
        pieces.append(chunk[piece_start:])
        clauses.extend(p.strip() for p in pieces if p.strip())
    return clauses


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


@pytest.fixture(scope="module")
def benchmark_inputs(tmp_path_factory):
    """The three benchmark workloads at seed 5, generated once."""
    return {
        name: generate(name, 5, f"{ROOT}/data", str(tmp_path_factory.mktemp(name)))
        for name in sorted(SPECS)
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_segment_tweet_equals_oracle_on_benchmark_inputs(name, benchmark_inputs):
    workload = benchmark_inputs[name]
    assert _assert_same_as_oracle(read_tweets(workload.tweets), load_lexicons(workload.lexicons)) > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_segment_clauses_equals_character_walk_on_benchmark_inputs(name, benchmark_inputs):
    tweets = read_tweets(benchmark_inputs[name].tweets)
    for tweet in tweets:
        assert segment_clauses(tweet.text) == _ref_segment_clauses(tweet.text), tweet.text
    assert tweets
