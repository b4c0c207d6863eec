import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo import cli, lexicons, textproc
from finemo.lexicons import LexiconSet, load_lexicons
from finemo.segmenter import Segment, find_assets
from finemo.textproc import (
    TAGS,
    _edit_distance,
    clean_filter,
    lemmatize_correct,
    process,
    split_hashtags,
    tag_assets,
    tag_numbers,
)


def _segment(text, lx, focus=None):
    return Segment(tweet_id="t", text=text, assets=tuple(find_assets(text, lx)), focus=focus)


def _mini_lexicon(**overrides) -> LexiconSet:
    base = dict(
        tickers={},
        stopwords=frozenset(),
        keep_words=frozenset(),
        polarity={},
        emotions={},
        adverbs={},
        abbreviations=frozenset(),
        freq_corpus={},
        dictionary={},
    )
    base.update(overrides)
    return LexiconSet(**base)


def test_full_normalization_golden(lx):
    text = (
        "$Bankia sigue el crack bursátil. -1,925 euros, del IBEX35 "
        "#mayorcaída https://t.co/S73BxUSKiR"
    )
    ps = process(_segment(text, lx, focus="BKIA"), lx)
    assert ps.tokens == (
        "TICKER", "seguir", "bursátil", "NEGATIVE", "euros",
        "OTHER_TICKER", "mayor", "caída",
    )
    assert ps.raw_len == len(text)
    assert ps.focus == "BKIA"


def test_tag_assets_focus_vs_other(lx):
    out = tag_assets("$BKIA frente a BBVA", "BKIA", lx)
    assert out == "TICKER frente a OTHER_TICKER"
    out = tag_assets("$BKIA frente a BBVA", None, lx)
    assert out == "OTHER_TICKER frente a OTHER_TICKER"


def test_tag_numbers_cases():
    assert tag_numbers("-1,925 euros") == "NEGATIVE euros"
    assert tag_numbers("+8,08% arriba") == "POSITIVE arriba"
    assert tag_numbers("vale 9375 puntos") == "vale NUMBER puntos"
    # dates pass through untouched
    assert tag_numbers("30-07-2019 baja -2,48%") == "30-07-2019 baja NEGATIVE"
    assert tag_numbers("el 30/07 a las 9") == "el 30/07 a las NUMBER"


def test_clean_filter_drops_noise(lx):
    out = clean_filter("RT el mercado sube https://t.co/xyz $BBVA #hoy", lx)
    assert "https" not in out and "RT" not in out
    assert "$" not in out and "#" not in out
    assert "el" not in out.split()


def test_clean_filter_keeps_keepwords_and_tags(lx):
    out = clean_filter("no sube el TICKER, NEGATIVE!", lx)
    tokens = out.split()
    assert "no" in tokens  # keep-word despite stopword list
    assert "TICKER" in tokens and "NEGATIVE" in tokens  # tags survive punctuation


def test_split_hashtags_golden(lx):
    assert split_hashtags("mayorcaída", lx) == ["mayor", "caída"]
    assert split_hashtags("mayor", lx) == ["mayor"]  # already a word
    assert split_hashtags("zzzqqq", lx) == ["zzzqqq"]  # unsegmentable


def test_split_hashtags_maximizes_frequency_product():
    # "abc" splits as a|bc (0.5*0.4=0.2) or ab|c (0.3*0.3=0.09)
    mini = _mini_lexicon(
        dictionary={"a": "a", "bc": "bc", "ab": "ab", "c": "c"},
        freq_corpus={"a": 0.5, "bc": 0.4, "ab": 0.3, "c": 0.3},
    )
    assert split_hashtags("abc", mini) == ["a", "bc"]


def test_lemmatize_exact_and_corrected(lx):
    assert lemmatize_correct("sigue", lx) == "seguir"
    assert lemmatize_correct("sigen", lx) == "seguir"  # distance-1 misspelling
    assert lemmatize_correct("TICKER", lx) == "TICKER"
    assert lemmatize_correct("zzzzzzzz", lx) == "zzzzzzzz"


def test_correction_prefers_frequency_then_lexicographic():
    mini = _mini_lexicon(
        dictionary={"xyzb": "lemab", "xyzc": "lemac"},
        freq_corpus={"xyzb": 0.1, "xyzc": 0.9},
    )
    # both candidates at distance 1: higher frequency wins
    assert lemmatize_correct("xyza", mini) == "lemac"
    tie = _mini_lexicon(
        dictionary={"xyzb": "lemab", "xyzc": "lemac"},
        freq_corpus={"xyzb": 0.5, "xyzc": 0.5},
    )
    # frequency tie: lexicographically smaller form wins
    assert lemmatize_correct("xyza", tie) == "lemab"


def test_correction_caps_edit_distance():
    mini = _mini_lexicon(dictionary={"abcdefgh": "x"}, freq_corpus={"abcdefgh": 0.5})
    assert lemmatize_correct("abcde", mini) == "abcde"  # distance 3 > 2


def test_correction_reaches_two_insertions_past_the_longest_form():
    mini = _mini_lexicon(dictionary={"abcd": "x", "ab": "y"}, freq_corpus={})
    assert lemmatize_correct("abcdzz", mini) == "x"
    assert lemmatize_correct("abcdzzz", mini) == "abcdzzz"


def test_process_inserts_focus_tag_when_missing(lx):
    # focus asset mentioned only via an alias the cleaner strips is not the
    # case here; force it by passing focus without a mention
    seg = Segment(tweet_id="t", text="la banca sube", assets=(("BBVA", (0, 2)),), focus="BBVA")
    ps = process(seg, lx)
    assert ps.tokens[0] == "TICKER"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(
    ["el", "mercado", "sube", "no", "muy", "$BBVA", "TICKER", "-2,5%", "hoy!", "RT"]
), min_size=1, max_size=10).map(" ".join))
def test_clean_filter_idempotent(lx, text):
    once = clean_filter(text, lx)
    assert clean_filter(once, lx) == once


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(
    ["el", "mercado", "sigue", "bursátil", "$BKIA", "BBVA", "-1,925", "euros", "#mayorcaída"]
), min_size=1, max_size=10).map(" ".join))
def test_process_deterministic_and_clean(lx, text):
    seg = _segment(text, lx, focus="BKIA")
    first = process(seg, lx)
    second = process(seg, lx)
    assert first.tokens == second.tokens
    for token in first.tokens:
        assert token and " " not in token
        assert "$" not in token and "#" not in token


# -- spelling correction: the symmetric-delete index against the linear scan --


def _scan_lemmatize(token: str, lx: LexiconSet) -> str:
    """The linear scan the delete index replaced: every form is scored."""
    if token in TAGS:
        return token
    lemma = lx.dictionary.get(token)
    if lemma is not None:
        return lemma
    best = None
    for form in lx.dictionary:
        dist = _edit_distance(token, form)
        if dist > 2:
            continue
        key = (dist, -lx.freq_corpus.get(form, 0.0), form)
        if best is None or key < best:
            best = key
    return token if best is None else lx.dictionary[best[2]]


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _syllable_lexicon() -> LexiconSet:
    """2000 forms of one to four consonant-vowel syllables (with ñ and á),
    few distinct frequencies so that ties are common, and some forms without
    a frequency at all."""
    rng = random.Random(0)
    syllables = [c + v for c in "bcdfglmnprstvñ" for v in "aeiouá"]
    forms = {"a", "e", "o"}
    while len(forms) < 2000:
        forms.add("".join(rng.choices(syllables, k=rng.randint(1, 4))))
    forms = sorted(forms)
    freq = {f: rng.choice((0.1, 0.2, 0.5)) for f in forms if rng.random() < 0.9}
    return _mini_lexicon(
        dictionary={f: f"lema{i}" for i, f in enumerate(forms)},
        freq_corpus=freq,
    )


# dictionary letters plus letters that no dictionary here contains
_EDIT_ALPHABET = "abcdeilmnorstuáñüwkéú"


@st.composite
def _misspelled(draw, forms):
    """A dictionary form after 0-3 substitutions, insertions, deletions or
    adjacent transpositions, or a free string of length 0-2."""
    if not forms or draw(st.integers(0, 4)) == 0:
        return draw(st.text(_EDIT_ALPHABET, min_size=0, max_size=2))
    word = draw(st.sampled_from(forms))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("sub", "ins", "del", "swap")))
        i = draw(st.integers(0, len(word)))
        char = draw(st.sampled_from(_EDIT_ALPHABET))
        if op == "ins":
            word = word[:i] + char + word[i:]
        elif op == "sub" and i < len(word):
            word = word[:i] + char + word[i + 1:]
        elif op == "del" and i < len(word):
            word = word[:i] + word[i + 1:]
        elif op == "swap" and i + 1 < len(word):
            word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
    return word


@pytest.fixture(scope="module")
def syllable_lx():
    return _syllable_lexicon()


@pytest.mark.parametrize("which", ["bundled", "syllables", "empty"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_index_correction_equals_scan(lx, syllable_lx, which, data):
    lexicon = {"bundled": lx, "syllables": syllable_lx, "empty": _mini_lexicon()}[which]
    token = data.draw(_misspelled(sorted(lexicon.dictionary)), label="token")
    assert lemmatize_correct(token, lexicon) == _scan_lemmatize(token, lexicon)


def test_index_correction_equals_scan_on_short_tokens(syllable_lx):
    # every string of length 0-2 over a few letters: their 2-deletion sets
    # contain "", which is a delete of every form of length <= 2
    letters = "aeñáüwk"
    tokens = ["", *letters, *(a + b for a in letters for b in letters)]
    for token in tokens:
        assert lemmatize_correct(token, syllable_lx) == _scan_lemmatize(token, syllable_lx)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.text("abcñá", max_size=7),
    st.text("abcñá", max_size=7),
    st.integers(0, 3),
)
def test_edit_distance_is_capped_levenshtein(a, b, cap):
    exact = _levenshtein(a, b)
    assert _edit_distance(a, b, cap) == (exact if exact <= cap else cap + 1)


def _dp_edit_distance(a: str, b: str, cap: int = 2) -> int:
    """The row-by-row DP that the bit-parallel distance replaced, with its
    length check and its early exit once a whole row exceeds ``cap``."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return min(prev[-1], cap + 1)


def _frontier_deletes(word: str, depth: int = 2) -> set[str]:
    """The frontier expansion that the direct two-deletion loop replaced."""
    out = frontier = {word}
    for _ in range(depth):
        frontier = {w[:i] + w[i + 1:] for w in frontier for i in range(len(w))}
        out = out | frontier
    return out


# up to two insertions past the longest form of the bundled dictionary
_MAX_TOKEN = 13 + 2
# repeated letters make equal deletes and equal characters common; the
# others are any characters, astral ones included
_unicode_text = st.text(
    st.one_of(st.sampled_from("aañá"), st.characters(exclude_categories=["Cs"])),
    max_size=_MAX_TOKEN,
)


def test_longest_form_of_the_bundled_dictionary(lx):
    assert max(map(len, lx.dictionary)) + 2 == _MAX_TOKEN


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_unicode_text, _unicode_text, st.one_of(st.integers(0, 3), st.integers(4, 2 * _MAX_TOKEN)))
def test_bit_parallel_distance_matches_the_dp(a, b, cap):
    assert _edit_distance(a, b, cap) == _dp_edit_distance(a, b, cap)


def test_bit_parallel_distance_matches_the_dp_on_candidate_pairs(syllable_lx):
    rng = random.Random(5)
    forms = sorted(syllable_lx.dictionary)
    pairs = 0
    for form in rng.sample(forms, 300):
        for token in (form[1:], form + "ñ", form[:1] + "w" + form[2:], form[::-1]):
            for candidate in syllable_lx.delete_index.candidates(token):
                assert _edit_distance(token, candidate) == _dp_edit_distance(token, candidate)
                pairs += 1
    assert pairs > 3000


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unicode_text)
def test_deletes_match_the_frontier_expansion(word):
    assert lexicons._deletes(word) == _frontier_deletes(word)


class _CountingIndex(lexicons.DeleteIndex):
    builds = 0

    def __init__(self, forms):
        type(self).builds += 1
        super().__init__(forms)


def test_delete_index_is_built_lazily_once_per_lexicon_set(monkeypatch, sample_paths):
    monkeypatch.setattr(lexicons, "DeleteIndex", _CountingIndex)
    monkeypatch.setattr(_CountingIndex, "builds", 0)
    fresh = load_lexicons(sample_paths["lexicons"])
    assert "delete_index" not in vars(fresh)

    # dictionary forms, tags and stopwords only: no correction needed
    known = " ".join(["$BKIA", "sigue", "el", "mercado", "-2,5%", "sube"])
    ps = process(_segment(known, fresh, focus="BKIA"), fresh)
    assert all(t in TAGS or t in fresh.dictionary.values() for t in ps.tokens)
    assert _CountingIndex.builds == 0 and "delete_index" not in vars(fresh)

    assert lemmatize_correct("sigen", fresh) == "seguir"
    index = fresh.delete_index
    assert lemmatize_correct("mercadp", fresh) == "mercado"
    assert fresh.delete_index is index and _CountingIndex.builds == 1

    swapped = replace(fresh, dictionary={"zafiro": "zafiro"})
    assert "delete_index" not in vars(swapped)
    assert lemmatize_correct("zafira", swapped) == "zafiro"
    assert lemmatize_correct("sigen", swapped) == "sigen"
    assert swapped.delete_index is not index and _CountingIndex.builds == 2


def test_delete_index_is_not_pickled(lx):
    lemmatize_correct("sigen", lx)
    copy = pickle.loads(pickle.dumps(lx))
    assert "delete_index" not in vars(copy)
    assert copy == lx and lemmatize_correct("sigen", copy) == "seguir"


def test_correction_scores_a_tenth_of_the_scan_on_the_sample(monkeypatch, sample_paths):
    calls = {"distance": 0, "oov": 0}
    fresh = load_lexicons(sample_paths["lexicons"])
    real_distance, real_lemmatize = textproc._edit_distance, textproc.lemmatize_correct

    def counting_distance(a, b, cap=2):
        calls["distance"] += 1
        return real_distance(a, b, cap)

    def counting_lemmatize(token, lx):
        calls["oov"] += token not in TAGS and token not in lx.dictionary
        return real_lemmatize(token, lx)

    monkeypatch.setattr(textproc, "_edit_distance", counting_distance)
    monkeypatch.setattr(textproc, "lemmatize_correct", counting_lemmatize)
    assert list(cli.build_instances(cli.read_tweets(sample_paths["tweets"]), fresh))
    scan_calls = calls["oov"] * len(fresh.dictionary)
    assert scan_calls == 3458  # 38 out-of-dictionary tokens x 91 forms
    assert 0 < calls["distance"] <= scan_calls // 10
