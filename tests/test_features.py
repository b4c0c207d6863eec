import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from datetime import date, datetime
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from finemo.cli import PipelineConfig, Vectorizer, build_instances, feature_stream, main, read_tweets
from finemo.features import (
    BOW_COLUMNS,
    BOW_SIZE,
    DENSE_NAMES,
    MAX_DF,
    MIN_DF,
    N_BOW,
    N_DENSE,
    N_NUMERIC,
    NGRAM_MAX,
    NUMERIC_NAMES,
    NUMERIC_COLUMNS,
    TREND_COLUMN,
    FeatureVector,
    PriceSeries,
    TrendUnavailableError,
    VocabularyError,
    VocabularyModel,
    RUN_SIZE,
    _count_ngrams,
    count_together,
    _df_filter,
    _norm_tokens,
    char_ngrams,
    charwb_ngrams,
    compute_trend,
    extract_numeric,
    fit_vocabularies,
    vectorize,
    word_ngrams,
)
from finemo.lexicons import MEMO_SIZE, load_lexicons
from finemo.segmenter import CLASS_ORDER, EmotionLabel, Segment, replicate_per_asset
from finemo.synthetic import make_planted_stream
from finemo.textproc import ProcessedSegment, process
from tests.conftest import SAMPLE_DIR
from tests.frontend_reference import _ref_find_assets

import os
import weakref

# published counter profiles for the two reference texts
SAMPLE_1_TEXT = (
    "30-07-2019 #Ibex35 -2,48% sigen llegando resultados llega agosto mucho "
    "cuidado con piratas de guante blancoveremos si es movido o no..."
)
SAMPLE_1_EXPECTED = {
    "LEN_TWEET": 135,
    "NEG_PERC": 1,
    "TOTAL_PERC": 1,
    "ADVERBS": 2,
    "ADVERBS_NEG": 1,
    "ADVERBS_INT": 1,
    "NEG_POLARITY": 1,
    "POS_POLARITY": 2,
}

SAMPLE_2_TEXT = (
    "#IBEX35 La superación, otra vez, del 9375 del índice, aupado "
    "posiblemente por una recuperación de la banca, que ha estado muy "
    "castigada ya."
)
SAMPLE_2_EXPECTED = {
    "LEN_TWEET": 139,
    "POS_NUM": 1,
    "TOTAL_NUM": 1,
    "ADVERBS": 2,
    "ADVERBS_DOUBT": 1,
    "ADVERBS_INT": 1,
    "POS_POLARITY": 2,
}


def _numeric_for_text(text, lx, focus="IBEX35"):
    seg = Segment(text=text, assets=tuple(_ref_find_assets(text, lx)))
    (replica,) = [r for r in replicate_per_asset(seg) if r.focus == focus]
    # the published profiles count LEN_TWEET on the text as posted, before
    # its tickers were tagged
    ps = replace(process(replica, lx), raw_len=len(text))
    return ps, tuple(extract_numeric(ps, replica.text, lx))


def _expected_tuple(profile):
    return tuple(profile.get(name, 0) for name in NUMERIC_NAMES)


def test_numeric_golden_sample_1(lx):
    assert len(SAMPLE_1_TEXT) == 135
    _, numeric = _numeric_for_text(SAMPLE_1_TEXT, lx)
    assert numeric == _expected_tuple(SAMPLE_1_EXPECTED)


def test_numeric_golden_sample_2(lx):
    assert len(SAMPLE_2_TEXT) == 139
    _, numeric = _numeric_for_text(SAMPLE_2_TEXT, lx)
    assert numeric == _expected_tuple(SAMPLE_2_EXPECTED)


def _counts(fv):
    """The count columns of ``fv``: the first ``n_counts`` pairs of ``items()``."""
    return dict(islice(fv.items(), fv.n_counts))


def test_bow_hit_goldens(lx):
    ps1, _ = _numeric_for_text(SAMPLE_1_TEXT, lx)
    ps2, _ = _numeric_for_text(SAMPLE_2_TEXT, lx)
    # BOW entries are stored and matched casefolded, tags included
    vm = VocabularyModel(
        char_vocab={}, word_vocab={}, wordbound_vocab={},
        bow_pre=["mucho cuidar"], bow_neu=[], bow_opp=["vez number"],
    )
    fv1 = vectorize(ps1, vm, (0,) * N_NUMERIC, False)
    fv2 = vectorize(ps2, vm, (0,) * N_NUMERIC, False)
    pre_col, neu_col, opp_col = vm.n_text_columns, vm.n_text_columns + 1, vm.n_text_columns + 2
    assert _counts(fv1).get(pre_col) == 1.0
    assert _counts(fv1).get(opp_col) is None
    assert _counts(fv2).get(opp_col) == 1.0
    assert _counts(fv2).get(pre_col) is None


def _scan_bow_hits(tokens, vm):
    """The per-entry scan the BOW index replaced: every entry of every list
    is looked up in the segment's unigram and bigram counts."""
    uni_bi = Counter(word_ngrams([t.casefold() for t in tokens], 1, 2))
    return [sum(uni_bi[e] for e in bow) for bow in (vm.bow_pre, vm.bow_neu, vm.bow_opp)]


_BOW_WORDS = ("sube", "Baja", "mucho", "cuidar", "ser", "bajista")
# a small alphabet, so the three lists often share or repeat entries; an
# entry with upper case never matches, as in a hand-edited vocabulary
_bow_entry = st.one_of(
    st.sampled_from(_BOW_WORDS),
    st.tuples(st.sampled_from(_BOW_WORDS), st.sampled_from(_BOW_WORDS)).map(" ".join),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tokens=st.lists(st.sampled_from(_BOW_WORDS), max_size=12),
    bows=st.lists(st.lists(_bow_entry, max_size=8), min_size=3, max_size=3),
)
def test_bow_hits_equal_entry_scan(tokens, bows):
    vm = VocabularyModel(
        char_vocab={}, word_vocab={}, wordbound_vocab={},
        bow_pre=bows[0], bow_neu=bows[1], bow_opp=bows[2],
    )
    seg = ProcessedSegment(tokens=tuple(tokens), raw_len=0)
    fv = vectorize(seg, vm, (0,) * N_NUMERIC, False)
    assert fv.dense[BOW_COLUMNS].tolist() == _scan_bow_hits(tokens, vm)


def test_ablated_planted_stream_has_no_bow_hits():
    stream, vm = make_planted_stream(300, seed=1, warmup=100, ablate_bow=True)
    assert vm.bow_index == {}
    assert not any(fv.dense[BOW_COLUMNS].any() for fv, _ in stream)
    full, _ = make_planted_stream(300, seed=1, warmup=100)
    assert any(fv.dense[BOW_COLUMNS].any() for fv, _ in full)


def test_trend_goldens():
    prices = PriceSeries.from_csv(os.path.join(SAMPLE_DIR, "prices.csv"))
    # posted Tuesday 2019-07-30: close falls 9200 -> 9100
    assert compute_trend("IBEX35", datetime(2019, 7, 30, 10, 0), prices) is False
    # posted Tuesday 2019-08-06: close rises 9000 -> 9050
    assert compute_trend("IBEX35", datetime(2019, 8, 6, 10, 0), prices) is True


def test_trend_skips_weekends():
    prices = PriceSeries()
    prices.add("XX", date(2019, 8, 2), 10.0)  # Friday
    prices.add("XX", date(2019, 8, 6), 12.0)  # Tuesday
    # posted Monday: previous working day is Friday, next is Tuesday
    assert compute_trend("XX", datetime(2019, 8, 5, 9, 0), prices) is True


@pytest.mark.parametrize("day", [3, 4])  # Saturday, Sunday
def test_trend_of_a_weekend_post_compares_friday_with_monday(day):
    prices = PriceSeries()
    prices.add("XX", date(2019, 8, 2), 10.0)  # Friday
    message = "^missing close for XX on 2019-08-02 or 2019-08-05$"
    with pytest.raises(TrendUnavailableError, match=message):
        compute_trend("XX", datetime(2019, 8, day, 9, 0), prices)
    prices.add("XX", date(2019, 8, 5), 9.0)  # Monday
    assert compute_trend("XX", datetime(2019, 8, day, 9, 0), prices) is False


def test_trend_missing_close_raises():
    prices = PriceSeries()
    prices.add("XX", date(2019, 8, 2), 10.0)
    with pytest.raises(TrendUnavailableError):
        compute_trend("XX", datetime(2019, 8, 5, 9, 0), prices)


def test_price_series_validation():
    prices = PriceSeries()
    with pytest.raises(ValueError):
        prices.add("XX", date(2019, 8, 2), 0.0)
    prices.add("XX", date(2019, 8, 2), 10.0)
    with pytest.raises(ValueError):
        prices.add("xx", date(2019, 8, 2), 11.0)  # duplicate, case-insensitive


def test_ngram_analyzers_small_cases():
    assert char_ngrams("abc", 1, 2) == ["a", "b", "c", "ab", "bc"]
    assert word_ngrams(["a", "b", "c"], 1, 2) == ["a", "b", "c", "a b", "b c"]
    # word-bound grams pad each token and never cross spaces
    grams = charwb_ngrams(["ab"], 2, 4)
    assert " a" in grams and "b " in grams and " ab " in grams
    assert all(" " not in g or g.startswith(" ") or g.endswith(" ") for g in grams)
    # tokens shorter than n contribute the whole padded token once
    assert charwb_ngrams(["a"], 4, 4) == [" a "]


_DOCS = [
    ("mucho cuidar banca", EmotionLabel.PRECAUTION),
    ("mucho cuidar caída", EmotionLabel.PRECAUTION),
    ("mercado sesión normal", EmotionLabel.NEUTRAL),
    ("mercado sesión banca", EmotionLabel.NEUTRAL),
    ("ganancia alcista banca", EmotionLabel.OPPORTUNITY),
    ("ganancia subir fuerte", EmotionLabel.OPPORTUNITY),
]
_LABELS = [label for _, label in _DOCS]


def _corpus():
    return [
        ProcessedSegment(tokens=tuple(text.split()), raw_len=len(text))
        for text, _ in _DOCS
    ]


def _fit_every_ngram(corpus, labels=None):
    """``fit_vocabularies`` with the document-frequency bounds opened to
    [0, 1], so that a corpus of a few segments keeps every n-gram it has."""
    with mock.patch.multiple("finemo.features", MIN_DF=0.0, MAX_DF=1.0):
        return fit_vocabularies(corpus, labels)


def test_bow_exclusivity():
    vm = _fit_every_ngram(_corpus(), _LABELS)
    pre, neu, opp = set(vm.bow_pre), set(vm.bow_neu), set(vm.bow_opp)
    assert "mucho cuidar" in pre
    assert not pre & neu and not pre & opp and not neu & opp
    # terms in two classes are excluded everywhere
    assert "banca" not in pre | neu | opp


def test_bow_ranking_frequency_then_lexicographic():
    vm = _fit_every_ngram(_corpus(), _LABELS)
    # "ganancia" appears twice in opportunity docs, everything else once
    assert vm.bow_opp[0] == "ganancia"
    assert vm.bow_opp[1:] == sorted(vm.bow_opp[1:])


def test_df_bounds_respected():
    # enough segments that MIN_DF drops a word of one segment but keeps one
    # of three, and MAX_DF drops what more than half the segments share
    corpus = _corpus() * 400 + [_processed(["único"])] + [_processed(["trío"])] * 3
    vm = fit_vocabularies(corpus)
    n = len(corpus)
    for vocab, analyzer in (
        (vm.char_vocab, lambda s: char_ngrams(" ".join(s.tokens), 1, 4)),
        (vm.word_vocab, lambda s: word_ngrams(list(s.tokens), 1, 4)),
        (vm.wordbound_vocab, lambda s: charwb_ngrams(list(s.tokens), 1, 4)),
    ):
        df = Counter(term for seg in corpus for term in set(analyzer(seg)))
        assert set(vocab) == {term for term, d in df.items() if MIN_DF * n <= d <= MAX_DF * n}
    assert "único" not in vm.word_vocab and "trío" in vm.word_vocab
    assert "a" not in vm.char_vocab  # in every segment but the last four


def _fit_oracle(corpus, labels=None):
    """``fit_vocabularies`` as it was before it enumerated n-grams once per
    distinct token and token boundary: every segment's text is sliced whole."""
    if not corpus:
        raise VocabularyError("empty fitting corpus")
    char_df: Counter = Counter()
    word_df: Counter = Counter()
    wb_df: Counter = Counter()
    class_docs: dict[EmotionLabel, set[str]] = {c: set() for c in CLASS_ORDER}
    term_freq: Counter = Counter()

    known = [None] * len(corpus) if labels is None else labels
    for seg, label in zip(corpus, known, strict=True):
        tokens = _norm_tokens(seg)
        text = " ".join(tokens)
        char_df.update(set(char_ngrams(text, 1, NGRAM_MAX)))
        word_df.update(set(word_ngrams(tokens, 1, NGRAM_MAX)))
        wb_df.update(set(charwb_ngrams(tokens, 1, NGRAM_MAX)))
        if label is not None:
            candidates = word_ngrams(tokens, 1, 2)
            class_docs[label].update(candidates)
            term_freq.update(candidates)

    n_docs = len(corpus)
    bows: dict[EmotionLabel, list[str]] = {}
    for cls in CLASS_ORDER:
        others = set().union(*(class_docs[o] for o in CLASS_ORDER if o is not cls))
        exclusive = class_docs[cls] - others
        ranked = sorted(exclusive, key=lambda t: (-term_freq[t], t))
        bows[cls] = ranked[:BOW_SIZE]

    return VocabularyModel(
        char_vocab=_df_filter(char_df, n_docs),
        word_vocab=_df_filter(word_df, n_docs),
        wordbound_vocab=_df_filter(wb_df, n_docs),
        bow_pre=bows[EmotionLabel.PRECAUTION],
        bow_neu=bows[EmotionLabel.NEUTRAL],
        bow_opp=bows[EmotionLabel.OPPORTUNITY],
    )


# words of one to five letters from a few letters, so that tokens and the
# text around their spaces repeat; one-letter words such as Spanish "y",
# "a" and "e" let a 4-gram that starts on a space reach the token after next
_SHORT_TOKEN = st.one_of(st.sampled_from(["y", "a", "e"]), st.text("aeyns", min_size=1, max_size=5))
_SHORT_SEGMENTS = st.lists(st.lists(_SHORT_TOKEN, min_size=1, max_size=8), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(corpus=_SHORT_SEGMENTS, every_ngram=st.booleans(), data=st.data())
def test_fit_equals_the_per_segment_oracle(corpus, every_ngram, data):
    segments = [_processed(tokens) for tokens in corpus]
    segments += [_processed(corpus[0][:1]), _processed(corpus[0][:1] * 3)]
    label = st.one_of(st.none(), st.sampled_from(CLASS_ORDER))
    labels = data.draw(st.one_of(st.none(), st.lists(label, min_size=len(segments), max_size=len(segments))))
    # the bounds opened to [0, 1] keep every n-gram of a small corpus
    bounds = (0.0, 1.0) if every_ngram else (MIN_DF, MAX_DF)
    with mock.patch.multiple("finemo.features", MIN_DF=bounds[0], MAX_DF=bounds[1]):
        want = _fit_oracle(segments, labels).to_json()
        assert fit_vocabularies(segments, labels).to_json() == want


@pytest.mark.parametrize("warmup", [10, 31])
def test_fit_equals_the_per_segment_oracle_on_the_sample(warmup, sample_paths):
    lx = load_lexicons(sample_paths["lexicons"])
    tweets = read_tweets(sample_paths["tweets"])
    window = list(islice(build_instances(tweets, lx, sample_paths["labels"]), warmup))
    assert len(window) == warmup
    segments, labels = [inst.processed for inst in window], [inst.label for inst in window]
    for given_labels in (labels, None):
        want = _fit_oracle(segments, given_labels).to_json()
        assert fit_vocabularies(segments, given_labels).to_json() == want


def test_vectorize_counts_match_manual_recount():
    corpus = _corpus()
    vm = _fit_every_ngram(corpus, _LABELS)
    seg = corpus[0]
    fv = vectorize(seg, vm, (0,) * N_NUMERIC, False)
    text = " ".join(seg.tokens)
    expected = Counter()
    for gram in char_ngrams(text, 1, 4):
        if gram in vm.char_vocab:
            expected[vm.char_vocab[gram]] += 1
    offset = len(vm.char_vocab)
    for gram in word_ngrams(list(seg.tokens), 1, 4):
        if gram in vm.word_vocab:
            expected[offset + vm.word_vocab[gram]] += 1
    offset += len(vm.word_vocab)
    for gram in charwb_ngrams(list(seg.tokens), 1, 4):
        if gram in vm.wordbound_vocab:
            expected[offset + vm.wordbound_vocab[gram]] += 1
    text_part = {k: v for k, v in _counts(fv).items() if k < vm.n_text_columns}
    assert text_part == {k: float(v) for k, v in expected.items()}


def test_dense_block_and_items_consistent():
    numeric = tuple(range(N_NUMERIC))
    fv = FeatureVector(
        text={0: 2.0, 7: 1.0},
        dense=np.array([3.0, 1.0, 4.0, *numeric, True], dtype=float), n_text=97,
    )
    dense = fv.dense
    assert list(dense[:3]) == [3.0, 1.0, 4.0]  # last three sparse columns
    assert list(dense[3 : 3 + N_NUMERIC]) == [float(v) for v in numeric]
    assert dense[-1] == 1.0
    items = dict(fv.items())
    assert items[0] == 2.0
    assert items[100 + 5] == 5.0  # numeric block offset by sparse_dim
    assert items[100 + N_NUMERIC] == 1.0  # trend column
    assert 100 + 0 not in items  # zero numerics omitted


def test_numeric_length_validated():
    with pytest.raises(ValueError):
        FeatureVector(text={}, dense=np.array([1.0, 2.0]), n_text=10)


def test_selection_mask_filters_all_blocks():
    corpus = _corpus()
    vm = _fit_every_ngram(corpus, _LABELS)
    keep_numeric = vm.n_text_columns + 3 + 2
    vm = replace(vm, selection_mask={0, 1, keep_numeric})  # drops trend and most columns
    fv = vectorize(corpus[0], vm, tuple(range(N_NUMERIC)), True)
    assert set(_counts(fv)) <= {0, 1}
    assert fv.dense[NUMERIC_COLUMNS][2] == 2
    assert sum(fv.dense[NUMERIC_COLUMNS]) == 2  # every other numeric zeroed
    assert not fv.dense[TREND_COLUMN]


def test_vocabulary_json_round_trip():
    vm = _fit_every_ngram(_corpus(), _LABELS)
    vm = replace(vm, selection_mask={1, 5, 9})
    back = VocabularyModel.from_json(vm.to_json())
    assert back.char_vocab == vm.char_vocab
    assert back.word_vocab == vm.word_vocab
    assert back.wordbound_vocab == vm.wordbound_vocab
    assert back.bow_pre == vm.bow_pre
    assert back.selection_mask == vm.selection_mask
    assert back.to_json() == vm.to_json()


def test_vocabulary_version_check():
    vm = _fit_every_ngram(_corpus(), _LABELS)
    payload = vm.to_json().replace('"version": 1', '"version": 99')
    with pytest.raises(VocabularyError, match="version"):
        VocabularyModel.from_json(payload)


def test_empty_corpus_rejected():
    with pytest.raises(VocabularyError):
        fit_vocabularies([])


def test_one_label_per_segment():
    with pytest.raises(ValueError):
        fit_vocabularies(_corpus(), labels=_LABELS[:-1])
    with pytest.raises(ValueError):
        fit_vocabularies(_corpus(), labels=[])


def test_vocabulary_json_refuses_another_ngram_range():
    # a vocabulary.json file comes from outside the program; its n-grams
    # must be the ones this program counts
    payload = _fit_every_ngram(_corpus(), _LABELS).to_json()
    assert '"ngram_range": [1, 4]' in payload
    for other in ("[2, 3]", "[0, 4]"):
        with pytest.raises(VocabularyError, match="n-gram range"):
            VocabularyModel.from_json(payload.replace("[1, 4]", other, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=N_NUMERIC, max_size=N_NUMERIC),
       st.booleans())
def test_items_reconstruct_dense_blocks(values, trend):
    fv = FeatureVector(
        text={}, dense=np.array([0, 0, 0, *values, trend], dtype=float), n_text=7
    )
    items = dict(fv.items())
    rebuilt = [items.get(10 + i, 0.0) for i in range(N_NUMERIC)]
    assert rebuilt == [float(v) for v in values]
    assert items.get(10 + N_NUMERIC, 0.0) == float(trend)


def test_marks_and_lexicon_counters(lx):
    text = "¡Cuidado! ¿Sube el ebitda? miedo y alegría, no posiblemente"
    seg = Segment(text=text, assets=(("BBVA", (0, 1)),), focus="BBVA")
    ps = process(seg, lx)
    numeric = dict(zip(NUMERIC_NAMES, extract_numeric(ps, text, lx)))
    assert numeric["EXCLAMATION"] == 2  # both ¡ and !
    assert numeric["INTERROGATION"] == 2
    assert numeric["FIN_ABBR"] == 1
    assert numeric["NEG_EMOTION"] == 1  # miedo
    assert numeric["POS_EMOTION"] == 1  # alegría
    assert numeric["ADVERBS_NEG"] == 1  # no
    assert numeric["ADVERBS_DOUBT"] == 1  # posiblemente


@pytest.fixture(scope="module")
def sample_stream(sample_paths):
    vectorizer, pairs = feature_stream(PipelineConfig(**sample_paths, warmup=10))
    return vectorizer.vm, list(pairs)


def test_vectorized_dense_block_has_one_entry_per_name(sample_stream):
    _, pairs = sample_stream
    assert all(len(fv.dense) == len(DENSE_NAMES) for _, fv in pairs)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_masking_after_vectorize_equals_masking_inside(sample_stream, data):
    # feature_stream masks its warmup vectors afterwards and the Vectorizer
    # masks the rest of the stream inside vectorize; both must give the same
    # vector
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    mask = data.draw(
        st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1)))
    )
    masked_vm = replace(vm, selection_mask=mask)
    for inst, fv in pairs:
        inside = vectorize(
            inst.processed,
            masked_vm,
            tuple(fv.dense[NUMERIC_COLUMNS]),
            bool(fv.dense[TREND_COLUMN]),
        )
        expected = {col: v for col, v in fv.items() if col in mask}
        assert dict(inside.items()) == dict(fv.masked(mask).items()) == expected


def _assert_arrays_are_items(fv):
    indices, values = fv.arrays
    pairs = list(fv.items())
    assert indices.dtype == np.intp and values.dtype == np.float64
    assert indices.tolist() == [col for col, _ in pairs]
    assert values.tolist() == [float(v) for _, v in pairs]
    assert not indices.flags.writeable and not values.flags.writeable


def test_arrays_are_the_only_sparse_form_kept(sample_stream):
    _, pairs = sample_stream
    for fv in [FeatureVector(text={3: 1.0}, dense=np.zeros(N_DENSE), n_text=5),
               *(fv for _, fv in pairs)]:
        fv.arrays  # the first read builds the arrays
        # neither the n-gram dict nor the function that counts it survive
        assert not any(isinstance(v, dict) or callable(v) for v in vars(fv).values())
        assert not hasattr(fv, "text") and not hasattr(fv, "counts")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_n_counts_is_the_count_prefix(sample_stream, data):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    mask = data.draw(st.sets(st.sampled_from(used)))
    n_count_columns = vm.n_text_columns + N_BOW
    for _, fv in pairs:
        for vec in (fv, fv.masked(mask)):
            indices = vec.arrays[0].tolist()
            prefix = [col < n_count_columns for col in indices]
            assert prefix == [True] * vec.n_counts + [False] * (len(indices) - vec.n_counts)


def _assert_ascending_and_split(fv):
    """``arrays[0]`` strictly ascending, and its first ``n_counts`` entries
    the count columns: every one after them a numeric counter or the trend."""
    indices = fv.arrays[0]
    assert (np.diff(indices) > 0).all()
    n_count_columns = fv.n_text + N_BOW
    assert (indices[: fv.n_counts] < n_count_columns).all()
    assert (indices[fv.n_counts :] >= n_count_columns).all()


@pytest.mark.parametrize("percentile", [0, 15])
def test_sample_arrays_are_in_ascending_column_order(percentile, sample_paths):
    vectorizer, pairs = feature_stream(
        PipelineConfig(**sample_paths, warmup=10, percentile=percentile)
    )
    vectors = [fv for _, fv in pairs]
    used = sorted({col for fv in vectors for col in fv.arrays[0].tolist()})
    dense = range(vectorizer.vm.n_text_columns, vectorizer.vm.total_dim)
    masks = [set(used[::2]), set(used[1::3]) | set(dense)]
    for fv in vectors:
        _assert_ascending_and_split(fv)
        for mask in masks:
            _assert_ascending_and_split(fv.masked(mask))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    text=st.dictionaries(st.integers(0, 49), st.floats(0.5, 9.0), max_size=30),
    dense=st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=N_DENSE, max_size=N_DENSE),
    data=st.data(),
)
def test_dict_vector_arrays_are_in_ascending_column_order(text, dense, data):
    # the same counts inserted in another order give the same vector
    shuffled = {col: text[col] for col in data.draw(st.permutations(list(text)))}
    fv = FeatureVector(text=shuffled, dense=np.array(dense), n_text=50)
    _assert_ascending_and_split(fv)
    # each value stays with its column
    expected = {**text, **{50 + k: v for k, v in enumerate(dense) if v}}
    assert dict(fv.items()) == expected
    mask = data.draw(st.sets(st.integers(0, fv.total_dim - 1)))
    masked = fv.masked(mask)
    _assert_ascending_and_split(masked)
    assert dict(masked.items()) == {col: v for col, v in expected.items() if col in mask}


def test_arrays_are_the_items_read_only_and_built_once(sample_stream):
    _, pairs = sample_stream
    empty = FeatureVector(text={}, dense=np.zeros(N_DENSE), n_text=5)
    for fv in [empty, *(fv for _, fv in pairs)]:
        _assert_arrays_are_items(fv)
        assert fv.arrays is fv.arrays
        indices, values = fv.arrays
        with pytest.raises(ValueError, match="read-only"):
            values *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            indices[:] = 0
    assert empty.arrays[0].size == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_masked_vector_does_not_inherit_cached_arrays(sample_stream, data):
    _, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    mask = data.draw(st.sets(st.sampled_from(used)))
    for _, fv in pairs:
        indices, values = fv.arrays  # cache the unmasked arrays first
        masked = fv.masked(mask)
        _assert_arrays_are_items(masked)
        keep = [col in mask for col in indices.tolist()]
        assert masked.arrays[0].tolist() == indices[keep].tolist()
        assert masked.arrays[1].tolist() == values[keep].tolist()


def _dict_masked(fv, mask):
    """``masked()`` as it was before the copies filtered the arrays: the kept
    n-gram counts go back into a dict, which the copy counts and sorts again,
    and the dense block is masked entry by entry."""
    indices, values = fv.arrays
    n = len(indices) - np.count_nonzero(fv.dense)
    return FeatureVector(
        {i: v for i, v in zip(indices[:n].tolist(), values[:n].tolist()) if i in mask},
        np.where([fv.n_text + k in mask for k in range(N_DENSE)], fv.dense, 0.0),
        fv.n_text,
    )


def _assert_same_masked(got, want):
    """Same columns, values and order, ``n_counts``, dense bytes and
    read-only flags; ``got`` already holds its arrays."""
    assert "arrays" in vars(got)
    assert not any(isinstance(v, dict) or callable(v) for v in vars(got).values())
    assert got.n_text == want.n_text
    for g, w in zip(got.arrays, want.arrays):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert not g.flags.writeable and not w.flags.writeable
    assert got.n_counts == want.n_counts
    assert got.dense.dtype == want.dense.dtype and got.dense.tobytes() == want.dense.tobytes()
    assert not got.dense.flags.writeable and not want.dense.flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_masked_copies_equal_the_dict_path_on_the_sample(sample_stream, data):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    dense = list(range(vm.n_text_columns, vm.total_dim))
    mask = data.draw(
        st.sets(st.one_of(st.sampled_from(used), st.sampled_from(dense), st.integers(0, vm.total_dim)))
    )
    for _, fv in pairs:
        _assert_same_masked(fv.masked(mask), _dict_masked(fv, mask))
        # a copy of a copy too
        twice = fv.masked(mask).masked(set(used[::2]))
        _assert_same_masked(twice, _dict_masked(_dict_masked(fv, mask), set(used[::2])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    text=st.dictionaries(st.integers(0, 49), st.floats(0.5, 9.0), max_size=30),
    dense=st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]), min_size=N_DENSE, max_size=N_DENSE),
    mask=st.sets(st.integers(-1, 50 + N_DENSE)),
    deferred=st.booleans(),
)
def test_masked_copies_equal_the_dict_path_on_any_vector(text, dense, mask, deferred):
    def make():
        counts = dict(text)
        return FeatureVector((lambda: counts) if deferred else counts, np.array(dense), 50)

    _assert_same_masked(make().masked(mask), _dict_masked(make(), mask))


def test_warmup_vectors_are_masked_copies_born_with_their_arrays(sample_paths):
    cfg = PipelineConfig(**sample_paths, warmup=10, percentile=15)
    vectorizer, pairs = feature_stream(cfg)
    warmup = [fv for _, fv in islice(pairs, cfg.warmup)]
    for fv in warmup:
        # nothing has read them since feature_stream masked them
        assert "arrays" in vars(fv)
        assert not any(isinstance(v, dict) or callable(v) for v in vars(fv).values())
    # the Vectorizer masks the rest of the stream's dense blocks with this
    vm = vectorizer.vm
    assert vm.dense_keep is vm.dense_keep
    assert vm.dense_keep.tolist() == [vm.n_text_columns + k in vm.selection_mask for k in range(N_DENSE)]


def _eager_vectorize(seg, vm, numeric, trend):
    """``vectorize`` as it was before the n-gram counts were deferred: every
    n-gram is counted at once, and under a mask the vector is built whole
    and then copied through ``masked()``."""
    if vm is None:
        raise VocabularyError("vocabulary model not fitted")
    tokens = _norm_tokens(seg)
    text = " ".join(tokens)
    n_min, n_max = 1, NGRAM_MAX

    counts: dict[int, float] = {}
    offset = 0
    for grams, vocab in (
        (char_ngrams(text, n_min, n_max), vm.char_vocab),
        (word_ngrams(tokens, n_min, n_max), vm.word_vocab),
        (charwb_ngrams(tokens, n_min, n_max), vm.wordbound_vocab),
    ):
        for gram in grams:
            idx = vocab.get(gram)
            if idx is not None:
                key = offset + idx
                counts[key] = counts.get(key, 0.0) + 1.0
        offset += len(vocab)

    hits = [0] * N_BOW
    for gram in word_ngrams(tokens, 1, 2):
        for k in vm.bow_index.get(gram, ()):
            hits[k] += 1
    fv = FeatureVector(
        text=counts,
        dense=np.array([*hits, *numeric, trend], dtype=float),
        n_text=vm.n_text_columns,
    )
    return fv if vm.selection_mask is None else fv.masked(vm.selection_mask)


def _assert_same_vector(got, want):
    """Same items() order, dense bytes and arrays bytes."""
    assert got.n_text == want.n_text
    assert list(got.items()) == list(want.items())
    assert got.dense.tobytes() == want.dense.tobytes()
    for g, w in zip(got.arrays, want.arrays):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _rebuild(build, vm, inst, fv):
    """``build`` (vectorize or the eager oracle) on the segment, numeric
    counters and trend that gave the unmasked ``fv``."""
    numeric = tuple(fv.dense[NUMERIC_COLUMNS])
    return build(inst.processed, vm, numeric, bool(fv.dense[TREND_COLUMN]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_deferred_counts_equal_eager_vectorize(sample_stream, data):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    mask = data.draw(
        st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1)))
    )
    masked_vm = replace(vm, selection_mask=mask)
    for inst, fv in pairs:
        eager = _rebuild(_eager_vectorize, vm, inst, fv)
        _assert_same_vector(fv, eager)
        _assert_same_vector(_rebuild(vectorize, vm, inst, fv), eager)
        eager_masked = _rebuild(_eager_vectorize, masked_vm, inst, fv)
        _assert_same_vector(_rebuild(vectorize, masked_vm, inst, fv), eager_masked)
        _assert_same_vector(_rebuild(vectorize, vm, inst, fv).masked(mask), eager_masked)


def test_deferred_counts_keep_the_mask_in_force_at_vectorize(sample_stream):
    vm, pairs = sample_stream
    vm = replace(vm)  # a model of this test's own, selection_mask None
    mask = {col for col, _ in pairs[0][1].items()}
    eager = [_rebuild(_eager_vectorize, vm, inst, fv) for inst, fv in pairs]
    unmasked = [_rebuild(vectorize, vm, inst, fv) for inst, fv in pairs]
    # feature_stream sets the mask after it has built the warmup vectors
    vm = replace(vm, selection_mask=mask)
    eager_masked = [_rebuild(_eager_vectorize, vm, inst, fv) for inst, fv in pairs]
    masked = [_rebuild(vectorize, vm, inst, fv) for inst, fv in pairs]
    vm = replace(vm, selection_mask=None)  # nor does clearing it unmask the later ones
    assert any(list(e.items()) != list(m.items()) for e, m in zip(eager, eager_masked))
    for got, want in [*zip(unmasked, eager), *zip(masked, eager_masked)]:
        _assert_same_vector(got, want)


def _counter_arrays(seg, vm, dense):
    """``arrays`` as they were made before one sort counted the n-grams:
    one ``Counter`` over ``_count_ngrams``'s columns, read out with two
    ``np.fromiter`` calls and put in column order with ``argsort``."""
    counts = Counter(_count_ngrams(seg, vm))
    n, nonzero = len(counts), np.flatnonzero(dense)
    columns = np.fromiter(counts, np.intp, n)
    order = columns.argsort()
    indices = np.concatenate([columns[order], vm.n_text_columns + nonzero])
    values = np.concatenate([np.fromiter(counts.values(), float, n)[order], dense[nonzero]])
    indices.flags.writeable = False
    values.flags.writeable = False
    return indices, values


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_sorted_counts_equal_the_counter_conversion(sample_stream, data):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    drawn = data.draw(st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1))))
    segments = [inst.processed for inst, _ in pairs]
    # no n-gram at all, none in the vocabulary, and repeated n-grams
    segments += [_processed([]), _processed(["☃"]), _processed(["sube"] * 4), _processed(segments[0].tokens * 3)]
    repeated = empty = 0
    for mask in (None, drawn, set()):
        model = replace(vm, selection_mask=mask)
        for seg in segments:
            fv = vectorize(seg, model, _NUMERIC, True)
            want = _counter_arrays(seg, model, fv.dense)
            assert fv.arrays[0].dtype == np.intp and fv.arrays[1].dtype == np.float64
            for got, w in zip(fv.arrays, want):
                assert got.dtype == w.dtype and got.tobytes() == w.tobytes()
                assert not got.flags.writeable and not w.flags.writeable
            ngrams = len(fv.arrays[0]) - np.count_nonzero(fv.dense)
            repeated += bool((fv.arrays[1][:ngrams] > 1.0).any())
            empty += ngrams == 0
    assert repeated and empty >= 2 + len(segments)


def _sorted_counts(flat):
    """The (ascending distinct columns, float counts) of a list of columns
    with repeats, from one sort: a run of equal columns is one count. A
    vector's counts were made so, one vector at a time, before vectors
    counted a run at a time."""
    columns = np.array(flat, dtype=np.intp)
    columns.sort()
    first = np.empty(len(columns), dtype=bool)
    first[:1] = True
    np.not_equal(columns[1:], columns[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return columns[starts], np.diff(np.append(starts, len(columns))).astype(float)


def _sorted_arrays(seg, vm, dense):
    """One vector's ``arrays`` from ``_sorted_counts`` and its dense nonzeros."""
    columns, counts = _sorted_counts(_count_ngrams(seg, vm))
    nonzero = np.flatnonzero(dense)
    return (
        np.concatenate([columns, vm.n_text_columns + nonzero]),
        np.concatenate([counts, dense[nonzero]]),
    )


def _assert_same_arrays(got, want):
    """Same dtypes and bytes, and ``got`` read-only."""
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert not g.flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    run_size=st.sampled_from([1, 2, 3, RUN_SIZE]),
    memo_size=st.sampled_from([1, 3, MEMO_SIZE]),
)
def test_run_counts_equal_the_per_vector_oracles(sample_stream, data, run_size, memo_size):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    drawn = data.draw(st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1))))
    model = replace(vm, selection_mask=data.draw(st.sampled_from([None, drawn, set()])))
    # segments with no n-gram, none in the vocabulary, repeated n-grams, and
    # the sample's; each with an all-zero dense block or the sample's counters
    special = [_processed([]), _processed(["☃"]), _processed(["sube"] * 4)]
    sample = [(inst.processed, fv.dense) for inst, fv in pairs]
    rows = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(special), st.just(None)),
                st.sampled_from(sample),
            ),
            min_size=1,
            max_size=2 * run_size + 2,
        )
    )
    vectors = []
    for seg, dense in rows:
        numeric, trend = ((0,) * N_NUMERIC, False) if dense is None else (
            tuple(dense[NUMERIC_COLUMNS]), bool(dense[TREND_COLUMN])
        )
        vectors.append(vectorize(seg, model, numeric, trend))
    with mock.patch("finemo.features.RUN_SIZE", run_size):
        count_together(vectors)
    # the first read may fall anywhere in a run, and a memo smaller than a
    # run's distinct tokens overflows while the run is counted
    first = data.draw(st.integers(0, len(vectors) - 1))
    with mock.patch("finemo.lexicons.MEMO_SIZE", memo_size):
        vectors[first].arrays
        assert len(model.ngram_memo) <= memo_size
    mask = data.draw(st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1))))
    for (seg, _), fv in zip(rows, vectors):
        sorted_arrays = _sorted_arrays(seg, model, fv.dense)
        _assert_same_arrays(fv.arrays, sorted_arrays)
        _assert_same_arrays(fv.arrays, _counter_arrays(seg, model, fv.dense))
        assert fv.arrays[0].dtype == np.intp and fv.arrays[1].dtype == np.float64
        assert fv.n_counts == len(sorted_arrays[0]) - np.count_nonzero(fv.dense[N_BOW:])
        assert not any(isinstance(v, dict) or callable(v) for v in vars(fv).values())
        # a masked copy of a run member
        keep = np.array([col in mask for col in sorted_arrays[0].tolist()], dtype=bool)
        copy = fv.masked(mask)
        _assert_same_arrays(copy.arrays, [a[keep] for a in sorted_arrays])
    if any(dense is None for _, dense in rows):
        assert any(not fv.dense.any() for fv in vectors)


def test_runs_tie_only_deferred_vectors_and_hold_no_member(sample_stream, monkeypatch):
    vm, pairs = sample_stream
    segments = [inst.processed for inst, _ in pairs][:7]
    counted = []

    def counting(seg, model):
        counted.append(seg)
        return _count_ngrams(seg, model)

    monkeypatch.setattr("finemo.features._count_ngrams", counting)
    monkeypatch.setattr("finemo.features.RUN_SIZE", 3)
    born = FeatureVector({3: 1.0}, np.zeros(N_DENSE), vm.n_text_columns)
    vectors = [vectorize(seg, vm, _NUMERIC, True) for seg in segments]
    vectors.insert(2, born)
    count_together(vectors)
    assert born._text == {3: 1.0}
    runs = [fv._text for fv in vectors if fv is not born]
    # runs of 3, 3 and a ragged 1, in stream order
    assert [len({id(r) for r in runs[i : i + 3]}) for i in (0, 3, 6)] == [1, 1, 1]
    assert len({id(r) for r in runs}) == 3
    # a run refers to no member, so a member is freed as soon as it is dropped
    probe = weakref.ref(vectors[1])
    del vectors[1]
    assert probe() is None
    # reading the fifth vector counts its whole run, in stream order, and
    # leaves the run nothing but its arrays and bounds
    run = runs[3]
    vectors[5].arrays
    assert counted == segments[3:6]
    assert run.counts is None and run.denses is None
    assert len(run.bounds) == 4
    for fv, seg in zip([v for v in vectors if v is not born], [segments[0], *segments[2:]]):
        _assert_same_arrays(fv.arrays, _counter_arrays(seg, vm, fv.dense))
    assert counted == [segments[i] for i in (3, 4, 5, 0, 1, 2, 6)]
    assert born.arrays[0].tolist() == [3]


# argv of train-eval on the sample past --warmup 10, and the n-gram counts
# its 31 vectors make: the trees read only the dense block, chi-squared
# reads the 10 warmup vectors, and SGD and NB read every vector
_CLI_ORACLE_CASES = {
    "rf-stacked": (["--learner", "rf", "--stacked"], 0),
    "rf-stacked-percentile": (["--learner", "rf", "--stacked", "--percentile", "15"], 10),
    "sgd-stacked": (["--learner", "sgd", "--stacked"], 31),
    "sgd-stacked-percentile": (["--learner", "sgd", "--stacked", "--percentile", "15"], 31),
    "nb-single": (["--learner", "nb", "--single"], 31),
}


def _train_eval(argv, out_dir):
    """(stdout, {file name: bytes}) of one train-eval run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--out", str(out_dir)]) == 0
    return stdout.getvalue(), {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", sorted(_CLI_ORACLE_CASES))
def test_cli_counts_each_vector_at_most_once_and_matches_eager(
    case, monkeypatch, tmp_path, sample_paths
):
    learner_args, expected_counts = _CLI_ORACLE_CASES[case]
    argv = ["train-eval", "--warmup", "10", *learner_args]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _count_ngrams(*args)

    monkeypatch.setattr("finemo.features._count_ngrams", counting)
    deferred = _train_eval(argv, tmp_path / "deferred")
    assert calls == expected_counts
    monkeypatch.setattr("finemo.cli.vectorize", _eager_vectorize)
    assert _train_eval(argv, tmp_path / "eager") == deferred
    assert calls == expected_counts


def _stream_prefix(workload, out_dir, n_tweets):
    """Input flags for the first ``n_tweets`` tweets of a generated
    benchmark workload and their labels, with its lexicons and prices."""
    out_dir.mkdir()
    with open(workload.tweets, encoding="utf-8") as fh:
        tweets = list(islice(fh, n_tweets))
    ids = {str(json.loads(line)["id"]) for line in tweets}
    with open(workload.labels, encoding="utf-8") as fh:
        labels = [line for line in fh if line.split("\t")[0] in ids]
    (out_dir / "tweets.jsonl").write_text("".join(tweets), encoding="utf-8")
    (out_dir / "labels.tsv").write_text("".join(labels), encoding="utf-8")
    return {
        "lexicons": workload.lexicons, "prices": workload.prices,
        "tweets": str(out_dir / "tweets.jsonl"), "labels": str(out_dir / "labels.tsv"),
    }


@pytest.mark.parametrize("learner", ["nb", "sgd"])
@pytest.mark.parametrize("mode", ["--single", "--stacked"])
@pytest.mark.parametrize("inputs", ["sample", "typo-lexicon", "replay-linear"])
def test_outputs_do_not_depend_on_the_block_or_run_size(
    learner, mode, inputs, monkeypatch, tmp_path, sample_paths, benchmark_inputs
):
    # the default block and run size, and blocks and runs of one and three,
    # which end runs and blocks inside the warmup window and the stream
    if inputs == "sample":
        paths, warmup = sample_paths, "10"
    else:
        paths, warmup = _stream_prefix(benchmark_inputs[inputs], tmp_path / "inputs", 60), "30"
    for percentile in ("0", "15"):
        argv = ["train-eval", "--warmup", warmup, "--learner", learner, mode, "--percentile", percentile]
        for key in ("lexicons", "tweets", "labels", "prices"):
            argv += [f"--{key}", paths[key]]
        want = _train_eval(argv, tmp_path / f"default-{percentile}")
        for size in (1, 3):
            monkeypatch.setattr("finemo.cli.BLOCK", size)
            monkeypatch.setattr("finemo.features.RUN_SIZE", size)
            assert _train_eval(argv, tmp_path / f"{size}-{percentile}") == want
            monkeypatch.undo()


@pytest.mark.parametrize("learner, counts", [("dt", False), ("rf", False), ("nb", True), ("sgd", True)])
def test_only_runs_that_count_ngrams_build_the_count_tables(
    learner, counts, monkeypatch, tmp_path, sample_paths
):
    vectorizers = []
    fit = feature_stream

    def recording(cfg):
        vectorizer, pairs = fit(cfg)
        vectorizers.append(vectorizer)
        return vectorizer, pairs

    monkeypatch.setattr("finemo.cli.feature_stream", recording)
    argv = ["train-eval", "--warmup", "10", "--learner", learner]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    _train_eval(argv, tmp_path)
    (vectorizer,) = vectorizers
    assert ("count_tables" in vars(vectorizer.vm)) is counts


@pytest.mark.parametrize(
    "percentile, digest", [(0, "f3a97977731d0203"), (15, "4e8c7b42dd8c0235")]
)
def test_a_reloaded_vocabulary_gives_the_runs_vectors(percentile, digest, tmp_path, sample_paths):
    # the vocabulary.json of a train-eval run, read back, vectorizes every
    # instance past the warmup as the run did
    argv = ["train-eval", "--warmup", "10", "--learner", "sgd", "--percentile", str(percentile)]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    _, files = _train_eval(argv, tmp_path)
    assert hashlib.sha256(files["vocabulary.json"]).hexdigest()[:16] == digest
    reloaded = Vectorizer(
        load_lexicons(sample_paths["lexicons"]),
        PriceSeries.from_csv(sample_paths["prices"]),
        VocabularyModel.from_json(files["vocabulary.json"].decode("utf-8")),
    )
    _, pairs = feature_stream(PipelineConfig(**sample_paths, warmup=10, percentile=percentile))
    rest = list(islice(pairs, 10, None))
    assert len(rest) == 21
    for inst, fv in rest:
        _assert_same_vector(reloaded(inst), fv)


# -- the per-token n-gram column memo against the eager oracle --

# "ß" casefolds to two letters and "A" to "a"; a space inside a token and
# the empty token are no normalized output, but the count must not care
_MEMO_TOKEN = st.text("abAß ", max_size=5)
_NUMERIC = (0,) * N_NUMERIC


def _processed(tokens):
    return ProcessedSegment(tokens=tuple(tokens), raw_len=0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    corpus=st.lists(st.lists(_MEMO_TOKEN, min_size=1, max_size=6), min_size=1, max_size=6),
    memo_size=st.sampled_from([1, 3, MEMO_SIZE]),
    data=st.data(),
)
def test_memoized_counts_equal_eager_vectorize(corpus, memo_size, data):
    pool = sorted({t for tokens in corpus for t in tokens})
    # fitted by the oracle, which slices each text whole: it shares no
    # boundary code with the count
    with mock.patch.multiple("finemo.features", MIN_DF=0.0, MAX_DF=1.0):
        fitted = _fit_oracle([_processed(tokens) for tokens in corpus])
    segments = [_processed(tokens) for tokens in corpus]
    segments += [_processed([t]) for t in pool]  # one-token segments
    segments.append(_processed([pool[0]] * 3))  # one token repeated
    segments += [
        _processed(tokens)
        for tokens in data.draw(
            st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=8), max_size=4)
        )
    ]
    columns = st.integers(0, fitted.total_dim - 1)
    mask_a, mask_b = data.draw(st.sets(columns)), data.draw(st.sets(columns))
    deferred = []
    # a memo smaller than a segment's distinct tokens overflows inside it
    with mock.patch("finemo.lexicons.MEMO_SIZE", memo_size):
        for mask in (None, mask_a, None, mask_b):
            vm = replace(fitted, selection_mask=mask)
            for _ in ("cold", "warm"):
                for seg in segments:
                    want = _eager_vectorize(seg, vm, _NUMERIC, False)
                    _assert_same_vector(vectorize(seg, vm, _NUMERIC, False), want)
                    assert len(vm.ngram_memo) <= memo_size
            # counted after the next model has been made, with the tables
            # and the memo of the model that built them
            deferred += [
                (vectorize(seg, vm, _NUMERIC, False), _eager_vectorize(seg, vm, _NUMERIC, False))
                for seg in segments
            ]
        for got, want in deferred:
            _assert_same_vector(got, want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(corpus=_SHORT_SEGMENTS, memo_size=st.sampled_from([1, 3, MEMO_SIZE]), data=st.data())
def test_boundary_memo_counts_equal_eager_vectorize(corpus, memo_size, data):
    segments = [_processed(tokens) for tokens in corpus]
    # the first token alone, and repeated; three one-letter words in a row
    segments += [_processed(corpus[0][:1]), _processed(corpus[0][:1] * 3)]
    segments.append(_processed(["no", "y", "a", "e", "sí"]))
    # every n-gram of the segments, fitted by the oracle, so that an n-gram
    # the memoized fit misses still has a column
    with mock.patch.multiple("finemo.features", MIN_DF=0.0, MAX_DF=1.0):
        fitted = _fit_oracle(segments)
    mask = data.draw(st.sets(st.integers(0, fitted.total_dim - 1)))
    # a memo smaller than a segment's distinct keys overflows inside it
    with mock.patch("finemo.lexicons.MEMO_SIZE", memo_size):
        for selection in (None, mask):
            vm = replace(fitted, selection_mask=selection)
            for _ in ("cold", "warm"):
                for seg in segments:
                    want = _eager_vectorize(seg, vm, _NUMERIC, False)
                    _assert_same_vector(vectorize(seg, vm, _NUMERIC, False), want)
                    assert len(vm.boundary_memo) <= memo_size


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_count_tables_hold_the_retained_columns(sample_stream, data):
    vm, pairs = sample_stream
    used = sorted({col for _, fv in pairs for col, _ in fv.items()})
    drawn = data.draw(
        st.sets(st.one_of(st.sampled_from(used), st.integers(0, vm.total_dim - 1)))
    )
    for mask in (None, drawn):
        model = replace(vm, selection_mask=mask)
        vocabs = (model.char_vocab, model.word_vocab, model.wordbound_vocab)
        offset, found = 0, []
        for table, vocab in zip(model.count_tables, vocabs):
            for gram, column in table.items():
                assert column == offset + vocab[gram]
                assert mask is None or column in mask
            found += table.values()
            offset += len(vocab)
        # every retained n-gram column, each in exactly one table
        assert sorted(found) == [
            col for col in range(model.n_text_columns) if mask is None or col in mask
        ]
        with pytest.raises(FrozenInstanceError):
            model.selection_mask = drawn


def test_replaced_model_starts_new_tables_and_an_empty_memo(sample_stream):
    vm, pairs = sample_stream
    vm = replace(vm)  # a model of this test's own, selection_mask None
    seg = pairs[0][0].processed
    vectorize(seg, vm, _NUMERIC, False).arrays
    memo, tables = vm.ngram_memo, vm.count_tables
    assert set(memo) == set(_norm_tokens(seg))
    entries = dict(memo)
    assert vm.ngram_memo is memo and vm.count_tables is tables
    assert tables[0] is vm.char_vocab  # unmasked char indices are global columns
    mask = set(sorted(col for col, _ in pairs[0][1].items())[::2])
    masked = replace(vm, selection_mask=mask)
    assert masked.ngram_memo == {}
    assert not any(new is old for new, old in zip(masked.count_tables, tables))
    vectorize(seg, masked, _NUMERIC, False).arrays
    assert set(masked.ngram_memo) == set(memo) and masked.ngram_memo != memo
    # the old model keeps its own tables and memo
    assert vm.ngram_memo is memo and vm.count_tables is tables and memo == entries
    assert replace(masked).ngram_memo == {}  # a copy under the same mask too


def test_memos_never_exceed_the_bound(sample_paths):
    lx = load_lexicons(sample_paths["lexicons"])
    vm = _fit_every_ngram([_processed(["mercado", "sube"])])
    memos = {
        "corrections": lx.corrections, "splits": lx.splits, "n-grams": vm.ngram_memo,
        "boundaries": vm.boundary_memo,
    }
    peak = dict.fromkeys(memos, 0)
    # more distinct out-of-dictionary tokens than the bound, with repeats
    letters = "bcdfghjklmnpqrstvwxz"
    words = [
        "zq" + "".join(letters[i // 20**k % 20] for k in range(3))
        for i in range(MEMO_SIZE + 500)
    ]
    for start in range(0, len(words), 4):
        chunk = words[start : start + 6]
        seg = Segment(text=" ".join(chunk), assets=(), focus=None)
        vectorize(process(seg, lx), vm, _NUMERIC, False).arrays
        for name, memo in memos.items():
            assert len(memo) <= MEMO_SIZE, name
            peak[name] = max(peak[name], len(memo))
    for name, memo in memos.items():
        # each memo filled up to within a segment of the bound, then was cleared
        assert MEMO_SIZE - 6 < peak[name] and 0 < len(memo) < peak[name] - 6, name
