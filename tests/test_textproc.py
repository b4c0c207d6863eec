import os
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo import cli, lexicons, textproc
from finemo.lexicons import LexiconSet, load_lexicons
from finemo.segmenter import Segment, replicate_per_asset, segment_tweet
from finemo.textproc import (
    TAGS,
    _edit_distance,
    clean_filter,
    lemmatize_correct,
    process,
    split_hashtags,
    tag_numbers,
)
from tests.frontend_reference import _ref_find_assets, _ref_lemma_counts


def _replicas(text, lx, focus):
    """``text`` as process() receives it: one replicate_per_asset replica per
    asset, or ``text`` itself with ``focus`` when it names no asset."""
    seg = Segment(text=text, assets=tuple(_ref_find_assets(text, lx)), focus=focus)
    return replicate_per_asset(seg) if seg.assets else [seg]


def _replica(text, lx, focus):
    (replica,) = [r for r in _replicas(text, lx, focus) if r.focus == focus]
    return replica


def _mini_lexicon(**overrides) -> LexiconSet:
    base = dict(
        tickers={},
        stopwords=frozenset(),
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
    replica = _replica(text, lx, "BKIA")
    ps = process(replica, lx)
    assert ps.tokens == (
        "TICKER", "seguir", "bursátil", "NEGATIVE", "euros",
        "OTHER_TICKER", "mayor", "caída",
    )
    assert ps.raw_len == len(replica.text)


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
    seg = Segment(text="la banca sube", assets=(("BBVA", (0, 2)),), focus="BBVA")
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
    for seg in _replicas(text, lx, "BKIA"):
        first = process(seg, lx)
        second = process(seg, lx)
        assert first.tokens == second.tokens
        for token in first.tokens:
            assert token and " " not in token
            assert "$" not in token and "#" not in token


def test_process_calls_split_and_correction_through_the_module(monkeypatch, benchmark_inputs):
    # perfbench wraps these two names to count out-of-dictionary and
    # corrected tokens: a fast path that skips them would change its counters
    workload = benchmark_inputs["typo-lexicon"]
    lexicon = load_lexicons(workload.lexicons)
    real_split, real_lemmatize = textproc.split_hashtags, textproc.lemmatize_correct
    split_calls, lemmatize_calls = [], []

    def counting_split(token, lx):
        split_calls.append(token)
        return real_split(token, lx)

    def counting_lemmatize(token, lx):
        lemmatize_calls.append(token)
        return real_lemmatize(token, lx)

    monkeypatch.setattr(textproc, "split_hashtags", counting_split)
    monkeypatch.setattr(textproc, "lemmatize_correct", counting_lemmatize)
    pieces = 0
    for tweet in cli.read_tweets(workload.tweets):
        for seg in segment_tweet(tweet, lexicon):
            for replica in replicate_per_asset(seg):
                split_calls.clear()
                lemmatize_calls.clear()
                process(replica, lexicon)
                cleaned = clean_filter(tag_numbers(replica.text), lexicon).split()
                assert split_calls == cleaned
                assert lemmatize_calls == [p for t in cleaned for p in real_split(t, lexicon)]
                pieces += len(lemmatize_calls)
    assert pieces > workload.n_tweets


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


class _StubIndex:
    """A delete index whose candidates are ``forms``, whatever the token:
    a form far from the token stands for a delete-hash collision."""

    def __init__(self, forms):
        self.forms = forms

    def candidates(self, token):
        return list(self.forms)


# (token, {form: frequency or None for a form missing from freq.tsv}, the
# forms the stub index returns or None for the real index, the best form)
_RANKED_CASES = {
    # the most frequent form is at distance 2, a rarer one at distance 1
    "nearer-beats-frequent": ("abcx", {"abyz": 0.9, "abcd": 0.1}, None, "abcd"),
    # equal frequencies at distance 2: the smaller form wins
    "tie-at-distance-2": ("abcd", {"abzz": 0.5, "abyy": 0.5, "qqqq": 0.5}, None, "abyy"),
    # 0.0 and a missing frequency are both keyed -0.0: the smaller form wins
    "missing-ties-zero": ("abcx", {"abce": 0.0, "abcd": None, "abcf": None}, None, "abcd"),
    "zero-ties-missing": ("abcx", {"abcd": 0.0, "abce": None}, None, "abcd"),
    # a form with a frequency beats a missing one at the same distance
    "frequency-beats-missing": ("abcx", {"abce": 1e-9, "abcd": None}, None, "abce"),
    # a collision ranked first, three or more edits away, is skipped
    "collision-ranked-first": ("abcx", {"zzzzzz": 0.9, "qrst": 0.8, "abzz": 0.1}, ["zzzzzz", "qrst", "abzz"], "abzz"),
    "only-collisions": ("abcx", {"zzzzzz": 0.9, "qrst": 0.8}, ["qrst", "zzzzzz"], None),
}


@pytest.mark.parametrize("case", sorted(_RANKED_CASES))
def test_ranked_correction_equals_scan(case):
    token, freqs, stub, best = _RANKED_CASES[case]
    mini = _mini_lexicon(
        dictionary={form: f"lema-{form}" for form in freqs},
        freq_corpus={form: f for form, f in freqs.items() if f is not None},
    )
    if stub is not None:
        vars(mini)["delete_index"] = _StubIndex(stub)
    expected = token if best is None else f"lema-{best}"
    assert lemmatize_correct(token, mini) == _scan_lemmatize(token, mini) == expected


def test_ranked_correction_stops_at_the_first_form_at_distance_1(monkeypatch):
    # casx is 2 edits from cosa, cesa and tasa and 1 from casa and caso
    freqs = {"cosa": 0.9, "cesa": 0.5, "tasa": 0.3, "casa": 0.2, "caso": 0.2, "cama": 0.1}
    mini = _mini_lexicon(dictionary={f: f"lema-{f}" for f in freqs}, freq_corpus=freqs)
    assert set(mini.delete_index.candidates("casx")) == set(freqs)
    scored = []
    real_distance = textproc._edit_distance

    def recording_distance(a, b, cap=2):
        scored.append((b, cap))
        return real_distance(a, b, cap)

    monkeypatch.setattr(textproc, "_edit_distance", recording_distance)
    assert lemmatize_correct("casx", mini) == "lema-casa"
    # in (-freq, form) order: cosa is a hit at 2, so the cap falls to 1;
    # cesa and tasa miss; casa is at distance 1 and ends the scan
    assert scored == [("cosa", 2), ("cesa", 1), ("tasa", 1), ("casa", 1)]
    monkeypatch.undo()
    assert _scan_lemmatize("casx", mini) == "lema-casa"


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


def _deletes(word: str) -> set[str]:
    """``word`` and every string reachable from it by one or two
    single-character deletions, as strings: the keys of the index before
    it hashed deletions without making them.

    Each pair of deleted positions p < q is made once: delete p, then the
    character that was at q, which now sits at q - 1 >= p."""
    n = len(word)
    ones = [word[:i] + word[i + 1:] for i in range(n)]
    out = {word, *ones}
    out.update([one[:j] + one[j + 1:] for i, one in enumerate(ones) for j in range(i, n - 1)])
    return out


def _string_index(forms) -> dict[str, set[str]]:
    """Every delete string of ``forms``, with the forms it comes from."""
    index: dict[str, set[str]] = {}
    for form in forms:
        for key in _deletes(form):
            index.setdefault(key, set()).add(form)
    return index


def _poly_hash(text: str) -> int:
    """The index's hash of ``text`` on Python ints: the sum of
    ord(text[k]) * B^k, mod 2^64."""
    return sum(ord(ch) * lexicons._BASE ** k for k, ch in enumerate(text)) % 2**64


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` by ``ord``, not by the UTF-32 encode that
    the index uses."""
    return np.array([ord(ch) for ch in text], dtype=np.uint64)


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
def test_delete_hashes_match_the_frontier_expansion(word):
    deletes = _frontier_deletes(word)
    assert _deletes(word) == deletes
    expected = {_poly_hash(key) for key in deletes}
    # the build, over the forms of one length, and the query, over one row
    index = lexicons.DeleteIndex([word])
    assert set(index._hashes.tolist()) == expected
    assert set(index._hashes_of(_code_points(word)).tolist()) == expected
    assert len(index._hashes) == len(index._ids) <= len(deletes)


@pytest.mark.parametrize("which", ["bundled", "syllables", "typo-lexicon"])
def test_index_holds_as_many_pairs_as_the_string_index(lx, syllable_lx, benchmark_inputs, which):
    if which == "typo-lexicon":
        lexicon = load_lexicons(os.path.join(benchmark_inputs[which].root, "lexicons"))
    else:
        lexicon = {"bundled": lx, "syllables": syllable_lx}[which]
    forms = list(lexicon.dictionary)
    index = lexicons.DeleteIndex(forms)
    pairs = sum(map(len, _string_index(forms).values()))
    assert len(index._hashes) == len(index._ids) == pairs
    assert index._hashes.dtype == np.uint64 and index._ids.dtype == np.intc
    assert np.all(index._hashes[1:] >= index._hashes[:-1])
    # one weight matrix per length met: the forms', then each query's
    lengths = set(map(len, forms))
    assert set(index._weight_cache) == lengths
    index.candidates("x" * (max(lengths) + 2))
    assert set(index._weight_cache) == lengths | {max(lengths) + 2}


def test_index_candidates_within_distance_2_equal_the_string_index(syllable_lx):
    # the tokens of test_bit_parallel_distance_matches_the_dp_on_candidate_pairs
    rng = random.Random(5)
    forms = sorted(syllable_lx.dictionary)
    strings = _string_index(forms)
    for form in rng.sample(forms, 300):
        for token in (form[1:], form + "ñ", form[:1] + "w" + form[2:], form[::-1]):
            found = set(syllable_lx.delete_index.candidates(token))
            shared = {f for key in _deletes(token) for f in strings.get(key, ())}
            assert shared <= found
            assert {f for f in found if _levenshtein(token, f) <= 2} == {
                f for f in shared if _levenshtein(token, f) <= 2
            }


def test_lone_surrogate_tokens_are_corrected_as_the_scan_does(lx, syllable_lx):
    # json.loads makes a lone surrogate of a "\udc80" escape
    assert lemmatize_correct("mercad\udc80", lx) == _scan_lemmatize("mercad\udc80", lx) == "mercado"
    for token in ("\ud800mercado", "merc\udfffado", "\udc80", "ba\ud83d\ude00"):
        for lexicon in (lx, syllable_lx):
            assert lemmatize_correct(token, lexicon) == _scan_lemmatize(token, lexicon)


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
    ps = process(_replica(known, fresh, "BKIA"), fresh)
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


CACHES = {"delete_index", "lemma_counts", "corrections", "splits"}


def _assert_copy_starts_without_caches(lx):
    for copy in (replace(lx), pickle.loads(pickle.dumps(lx))):
        assert copy == lx
        assert not CACHES & set(vars(copy))
        assert lemmatize_correct("sigen", copy) == lemmatize_correct("sigen", lx) == "seguir"
        assert split_hashtags("mayorcaída", copy) == split_hashtags("mayorcaída", lx)
        assert copy.lemma_counts == lx.lemma_counts


def test_delete_index_is_not_pickled(lx):
    # a copy (dataclasses.replace or pickle) carries no index or lemma table
    # built for the original
    lemmatize_correct("sigen", lx)
    assert lx.lemma_counts["no"]
    assert {"delete_index", "lemma_counts"} <= set(vars(lx))
    _assert_copy_starts_without_caches(lx)
    swapped = replace(lx, polarity={**lx.polarity, "no": "positive"})
    assert swapped == replace(lx, polarity=swapped.polarity) != lx
    assert swapped.lemma_counts["no"] != lx.lemma_counts["no"]
    assert swapped.lemma_counts["no"] == tuple(_ref_lemma_counts("no", swapped))


@pytest.mark.parametrize("which", ["bundled", "typo-lexicon"])
def test_lemma_counts_equal_the_per_lemma_sums(lx, benchmark_inputs, which):
    lexicon = lx if which == "bundled" else load_lexicons(benchmark_inputs[which].lexicons)
    table = lexicon.lemma_counts
    words = {*lexicon.adverbs, *lexicon.polarity, *lexicon.emotions}
    assert set(table) == words and len(words) > 20
    for word in words:
        assert tuple(table[word]) == tuple(_ref_lemma_counts(word, lexicon)), word
    # a lemma in no lexicon counts nothing
    assert _ref_lemma_counts("zzz", lexicon) == [0] * 10 and "zzz" not in table


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


# -- the per-token normalization memos against the unmemoized bodies --


def _unmemoized_split(token: str, lx: LexiconSet) -> list[str]:
    if token in lx.dictionary or token in TAGS:
        return [token]
    return textproc._split(token, lx)


@st.composite
def _normalization_tokens(draw, forms):
    """Misspelled forms, compounds of up to three forms, and tags, with
    repeats."""
    token = st.one_of(
        _misspelled(forms),
        st.lists(st.sampled_from(forms), min_size=1, max_size=3).map("".join),
        st.sampled_from(TAGS),
    )
    tokens = draw(st.lists(token, min_size=1, max_size=8))
    return tokens + draw(st.lists(st.sampled_from(tokens), max_size=4))


@pytest.mark.parametrize("which", ["bundled", "syllables"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_memoized_normalization_equals_unmemoized(lx, syllable_lx, which, data):
    lexicon = {"bundled": lx, "syllables": syllable_lx}[which]
    tokens = data.draw(_normalization_tokens(sorted(lexicon.dictionary)), label="tokens")
    lexicon.corrections.clear()
    lexicon.splits.clear()
    for _ in ("cold", "warm"):
        for token in tokens:
            parts = split_hashtags(token, lexicon)
            assert parts == _unmemoized_split(token, lexicon)
            parts.append("changed")  # a caller's list is its own
            assert lemmatize_correct(token, lexicon) == _scan_lemmatize(token, lexicon)
    oov = {t for t in tokens if t not in TAGS and t not in lexicon.dictionary}
    assert set(lexicon.corrections) == set(lexicon.splits) == oov


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_replaced_lexicons_never_read_the_old_memos(syllable_lx, data):
    forms = sorted(syllable_lx.dictionary)
    tokens = data.draw(_normalization_tokens(forms), label="tokens")
    for token in tokens:  # warm the memos of the original
        split_hashtags(token, syllable_lx)
        lemmatize_correct(token, syllable_lx)
    kept = data.draw(st.sets(st.sampled_from(forms), max_size=200), label="kept")
    swapped = replace(syllable_lx, dictionary={f: f"otro{f}" for f in kept})
    assert "corrections" not in vars(swapped) and "splits" not in vars(swapped)
    for token in tokens:
        assert split_hashtags(token, swapped) == _unmemoized_split(token, swapped)
        assert lemmatize_correct(token, swapped) == _scan_lemmatize(token, swapped)


def test_pickled_lexicons_drop_the_memos_and_compare_equal(lx):
    assert lemmatize_correct("sigen", lx) == "seguir"
    assert split_hashtags("mayorcaída", lx) == ["mayor", "caída"]
    assert lx.corrections["sigen"] == "seguir" and lx.splits["mayorcaída"] == ("mayor", "caída")
    assert lx.lemma_counts and CACHES <= set(vars(lx))
    _assert_copy_starts_without_caches(lx)
