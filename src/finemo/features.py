"""Vocabulary fitting and feature extraction.

This module alone spells out the hybrid feature vector's column layout,
[text n-grams | DENSE_NAMES]:
  text n-grams    - char n-grams | word n-grams | within-word char n-grams
  BOW_COLUMNS     - three per-emotion BOW hit counters
  NUMERIC_COLUMNS - 20 integer counters (see NUMERIC_NAMES)
  TREND_COLUMN    - upward (1) / downward (0) price movement around post time
The n-grams and the BOW counters are the count columns. A vector keeps the
count tables of the (frozen) model that built it; set a mask with ``replace``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import cached_property, partial
from itertools import accumulate, chain

import numpy as np

from finemo.lexicons import LexiconSet, remember, text_lines
from finemo.segmenter import CLASS_ORDER, NUMBER_RE, WORD_RE, EmotionLabel
from finemo.textproc import _DATE_RE, _DIGIT_RE, ProcessedSegment

NUMERIC_NAMES = (
    "LEN_TWEET",
    "NEG_NUM",
    "POS_NUM",
    "TOTAL_NUM",
    "NEG_PERC",
    "POS_PERC",
    "TOTAL_PERC",
    "FIN_ABBR",
    "EXCLAMATION",
    "INTERROGATION",
    "ADVERBS",
    "ADVERBS_NEG",
    "ADVERBS_POS",
    "ADVERBS_DOUBT",
    "ADVERBS_INT",
    "NEG_POLARITY",
    "NEU_POLARITY",
    "POS_POLARITY",
    "NEG_EMOTION",
    "POS_EMOTION",
)

N_NUMERIC = len(NUMERIC_NAMES)
N_BOW = len(CLASS_ORDER)

DENSE_NAMES = ("BOW_PRECAUTION", "BOW_NEUTRAL", "BOW_OPPORTUNITY", *NUMERIC_NAMES, "TREND")
N_DENSE = len(DENSE_NAMES)
# positions inside the dense block; dense position k is global column n_text + k
BOW_COLUMNS = slice(0, N_BOW)
NUMERIC_COLUMNS = slice(N_BOW, N_BOW + N_NUMERIC)
TREND_COLUMN = N_DENSE - 1

# n-grams of every kind are 1 to NGRAM_MAX long; an n-gram is kept when its
# document frequency over the warmup window is within [MIN_DF, MAX_DF] of the
# segments, and each emotion's bag of words keeps up to BOW_SIZE entries
NGRAM_MAX = 4
MIN_DF = 0.001
MAX_DF = 0.5
BOW_SIZE = 500

VOCAB_FORMAT_VERSION = 1


class VocabularyError(Exception):
    pass


class PriceError(ValueError):
    """A closing price that is malformed, non-positive or given twice."""


class TrendUnavailableError(Exception):
    """No closing price on one of the two reference working days."""


def char_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    return [text[i : i + n] for n in range(n_min, n_max + 1) for i in range(len(text) - n + 1)]


def word_ngrams(tokens: list[str], n_min: int, n_max: int) -> list[str]:
    return [
        " ".join(tokens[i : i + n])
        for n in range(n_min, n_max + 1)
        for i in range(len(tokens) - n + 1)
    ]


def charwb_ngrams(tokens: list[str], n_min: int, n_max: int) -> list[str]:
    """Char n-grams that never span a space; tokens are space-padded."""
    out = []
    for token in tokens:
        padded = f" {token} "
        for n in range(n_min, n_max + 1):
            if n >= len(padded):
                out.append(padded)
                break
            out += [padded[i : i + n] for i in range(len(padded) - n + 1)]
    return out


def _boundary_keys(tokens: list[str]) -> list[tuple[str, str]]:
    """For each space of ``" ".join(tokens)``, the key of the char n-grams
    that cross it: the last ``NGRAM_MAX - 1`` characters of the token
    before it (all of a shorter token) and the ``NGRAM_MAX`` characters
    from the space on (fewer at the end of the text). A 4-gram can reach
    past a one-character token, so the key is not just the next token."""
    text = " ".join(tokens)
    keys, end = [], -1
    for token in tokens[:-1]:
        start = end + 1
        end = start + len(token)
        keys.append((text[max(start, end - NGRAM_MAX + 1) : end], text[end : end + NGRAM_MAX]))
    return keys


def _boundary_ngrams(suffix: str, following: str) -> list[str]:
    """The char n-grams of the text that ``_boundary_keys`` gives as
    (``suffix``, ``following``) which start in ``suffix`` or on the space
    after it, and reach that space.

    Every char n-gram of a joined text starts in exactly one token or on
    the space after it, and none crosses the end of the text, so the
    tokens' own char n-grams and these make all of them."""
    window, space = suffix + following, len(suffix)
    return [
        window[i : i + n]
        for n in range(1, NGRAM_MAX + 1)
        for i in range(max(0, space - n + 1), min(space, len(window) - n) + 1)
    ]


@dataclass(frozen=True)
class VocabularyModel:
    """Fitted vocabularies, per-emotion BOW lists and the selection mask.

    A fixed value: ``dataclasses.replace`` with a new mask, BOW lists or
    vocabularies makes a new model, whose derived state is built on first
    use and kept as long as the model: ``bow_index``, the ``count_tables``
    that number and select the n-gram columns, the ``column_keep`` and
    ``dense_keep`` tables that select the columns and the dense columns, and
    the ``ngram_memo`` and ``boundary_memo``.
    A vector keeps the model that built it until it counts its n-grams.
    """

    char_vocab: dict[str, int]
    word_vocab: dict[str, int]
    wordbound_vocab: dict[str, int]
    bow_pre: list[str]
    bow_neu: list[str]
    bow_opp: list[str]
    selection_mask: set[int] | None = None

    @cached_property
    def bow_index(self) -> dict[str, list[int]]:
        """Each BOW entry's positions in CLASS_ORDER, once per list holding it."""
        index: dict[str, list[int]] = {}
        for k, bow in enumerate((self.bow_pre, self.bow_neu, self.bow_opp)):
            for entry in bow:
                index.setdefault(entry, []).append(k)
        return index

    @cached_property
    def bow_prefixes(self) -> frozenset[str]:
        """Every start of a BOW entry that ends right before one of the
        entry's spaces: the first token of each bigram that can be an entry.
        An entry may hold more than one space, as a lemma may."""
        return frozenset(
            entry[:i] for entry in self.bow_index for i, ch in enumerate(entry) if ch == " "
        )

    @cached_property
    def count_tables(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Char, word and within-word tables from n-gram to global column,
        each holding only the columns ``selection_mask`` keeps (all without
        a mask). Unmasked, the char table is ``char_vocab`` itself."""
        mask, offset, tables = self.selection_mask, 0, []
        for vocab in (self.char_vocab, self.word_vocab, self.wordbound_vocab):
            if mask is None and offset == 0:
                tables.append(vocab)
            else:
                pairs = ((gram, offset + i) for gram, i in vocab.items())
                tables.append({g: c for g, c in pairs if mask is None or c in mask})
            offset += len(vocab)
        return tuple(tables)

    @cached_property
    def column_keep(self) -> np.ndarray:
        """Per global column, whether ``selection_mask`` keeps it; read only
        under a mask."""
        width = self.total_dim
        return np.fromiter(map(self.selection_mask.__contains__, range(width)), bool, width)

    @cached_property
    def dense_keep(self) -> np.ndarray:
        """Per dense position, whether ``selection_mask`` keeps its global
        column: the dense end of ``column_keep``."""
        return self.column_keep[self.n_text_columns :]

    @cached_property
    def ngram_memo(self) -> dict[str, tuple]:
        """``_token_columns`` by token, cleared at ``MEMO_SIZE`` entries."""
        return {}

    @cached_property
    def boundary_memo(self) -> dict[tuple[str, str], tuple]:
        """The char columns of ``_boundary_ngrams`` by its key, cleared at
        ``MEMO_SIZE`` entries."""
        return {}

    @property
    def n_text_columns(self) -> int:
        return len(self.char_vocab) + len(self.word_vocab) + len(self.wordbound_vocab)

    @property
    def total_dim(self) -> int:
        return self.n_text_columns + N_DENSE

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": VOCAB_FORMAT_VERSION,
                "ngram_range": [1, NGRAM_MAX],
                "char_vocab": self.char_vocab,
                "word_vocab": self.word_vocab,
                "wordbound_vocab": self.wordbound_vocab,
                "bow_pre": self.bow_pre,
                "bow_neu": self.bow_neu,
                "bow_opp": self.bow_opp,
                "selection_mask": sorted(self.selection_mask)
                if self.selection_mask is not None
                else None,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, payload: str) -> "VocabularyModel":
        data = json.loads(payload)
        if data.get("version") != VOCAB_FORMAT_VERSION:
            raise VocabularyError(f"unsupported vocabulary version: {data.get('version')}")
        if data.get("ngram_range") != [1, NGRAM_MAX]:
            raise VocabularyError(
                f"unsupported n-gram range: {data.get('ngram_range')}, expected [1, {NGRAM_MAX}]"
            )
        return cls(
            char_vocab=data["char_vocab"],
            word_vocab=data["word_vocab"],
            wordbound_vocab=data["wordbound_vocab"],
            bow_pre=data["bow_pre"],
            bow_neu=data["bow_neu"],
            bow_opp=data["bow_opp"],
            selection_mask=set(data["selection_mask"])
            if data["selection_mask"] is not None
            else None,
        )


# vectors tied by ``count_together`` count their n-grams RUN_SIZE at a time
RUN_SIZE = 32


class FeatureVector:
    """One segment in the hybrid layout.

    ``dense`` holds the DENSE_NAMES block, read-only, with ``dense[k]`` at
    global column ``n_text + k``. ``text`` gives the n-gram counts, all below
    ``n_text``, in one of two forms:
      - a function of no arguments that returns a list of global columns,
        one entry per n-gram occurrence in any order, as ``vectorize``
        defers them. It is called on the first read of ``arrays`` and never
        when only ``dense`` is read; ``count_together`` may hand it to a run
        of vectors that count together, and a vector that is never tied
        counts as a run of one.
      - the finished ``arrays``, as ``mask_together`` makes them.
    ``arrays`` is the one sparse form the vector keeps; once it is built,
    the function or run is gone.
    """

    def __init__(
        self,
        text: Callable[[], list[int]] | tuple[np.ndarray, np.ndarray],
        dense: np.ndarray,
        n_text: int,
    ):
        if dense.shape != (N_DENSE,):
            raise ValueError(f"dense block must have {N_DENSE} entries")
        dense.flags.writeable = False
        if callable(text):
            self._text = text
            self._row = 0  # this vector's row in its _Run, once it has one
        else:
            self.arrays = text
        self.dense = dense
        self.n_text = n_text

    @property
    def total_dim(self) -> int:
        return self.n_text + N_DENSE

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All nonzero columns as read-only (global columns, values) arrays,
        in ascending column order: the n-grams, then the nonzero dense
        columns (BOW counters, numeric counters, trend).

        A member of a run reads its slice of the run's arrays, which the
        first read of any member builds."""
        text, self._text = self._text, None
        if isinstance(text, _Run):
            return text.row(self._row)
        arrays, _ = _count_run([text()], [self.dense], self.n_text)
        return arrays

    @cached_property
    def n_counts(self) -> int:
        """How many leading ``arrays`` entries are count columns: the n-grams
        and the BOW counters."""
        return len(self.arrays[0]) - np.count_nonzero(self.dense[N_BOW:])

    def items(self):
        """``arrays`` as (global column, value) pairs of Python numbers."""
        return zip(*(a.tolist() for a in self.arrays))


def mask_together(vectors: Sequence[FeatureVector], keep: np.ndarray) -> list[FeatureVector]:
    """A copy of each of ``vectors``, which share one ``n_text``, with
    every global column ``c`` where ``keep[c]`` is False zeroed.

    The copies keep the entries of the vectors' ``arrays`` whose columns
    ``keep`` holds: one lookup in ``keep`` and one compress over the
    vectors' concatenated arrays, whose read-only slices the copies hold,
    so each is born with its ``arrays`` and never counts or sorts. One
    ``np.where`` over the stacked dense blocks masks them, as ``vectorize``
    masks one under a masked model."""
    arrays = [fv.arrays for fv in vectors]
    indices = np.concatenate([a[0] for a in arrays])
    values = np.concatenate([a[1] for a in arrays])
    kept = keep[indices]
    # kept entries before each vector's first entry, and after the last
    before = np.zeros(len(kept) + 1, dtype=np.intp)
    np.cumsum(kept, out=before[1:])
    bounds = before[[0, *accumulate(len(a[0]) for a in arrays)]].tolist()
    indices, values = indices[kept], values[kept]
    indices.flags.writeable = False
    values.flags.writeable = False
    n_text = vectors[0].n_text
    denses = np.where(keep[n_text:], np.stack([fv.dense for fv in vectors]), 0.0)
    return [
        FeatureVector((indices[start:end], values[start:end]), dense, n_text)
        for dense, start, end in zip(denses, bounds, bounds[1:])
    ]


class _Run:
    """The deferred n-gram counts of consecutive vectors, made on the first
    read of any member's ``arrays``.

    A run holds each member's count function and dense block and their
    ``n_text``, never the member, so no reference cycle keeps either
    alive. Filled, it calls the functions in member order, counts with
    ``_count_run`` and drops them and the dense blocks; it then holds only
    the run's arrays and each member's bounds in them, and the arrays
    outlive it as long as a member's slice does."""

    __slots__ = ("counts", "denses", "n_text", "arrays", "bounds")

    def __init__(self, members: Sequence[FeatureVector]):
        self.counts = [fv._text for fv in members]
        self.denses = [fv.dense for fv in members]
        self.n_text = members[0].n_text
        self.arrays = None

    def row(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Member ``row``'s ``arrays``: read-only slices of the run's."""
        if self.arrays is None:
            flats = [count() for count in self.counts]
            self.arrays, self.bounds = _count_run(flats, self.denses, self.n_text)
            self.counts = self.denses = None
        start, end = self.bounds[row], self.bounds[row + 1]
        indices, values = self.arrays
        return indices[start:end], values[start:end]


def count_together(vectors: Sequence[FeatureVector]) -> None:
    """Tie each ``RUN_SIZE`` consecutive vectors of ``vectors``, whose n-gram
    counts are deferred and not yet read, as ``vectorize`` makes them, to
    one ``_Run``: the first ``arrays`` read of any of them counts them all
    with one sort. The vectors share one ``n_text``, as those of one
    vocabulary do."""
    for start in range(0, len(vectors), RUN_SIZE):
        members = vectors[start : start + RUN_SIZE]
        run = _Run(members)
        for row, fv in enumerate(members):
            fv._text, fv._row = run, row


def _count_run(
    flats: Sequence[list[int]], denses: Sequence[np.ndarray], n_text: int
) -> tuple[tuple[np.ndarray, np.ndarray], list[int]]:
    """The ``arrays`` of consecutive vectors as one read-only (columns,
    values) pair, and the bounds of vector r's entries in it, ``bounds[r]``
    to ``bounds[r + 1]``. ``flats[r]`` lists vector r's n-gram columns with
    repeats, ``denses[r]`` is its dense block.

    Vector r's global columns are keyed ``r * stride + column``, the
    offsets added in numpy. One sort of the keys puts every vector's
    entries in column order, vector after vector; a run of equal keys is
    one count, and each nonzero dense entry, a key of its own, gets its
    value in place of its count of one."""
    stride = n_text + N_DENSE
    offsets = np.arange(0, len(flats) * stride, stride)
    lengths = [len(flat) for flat in flats]
    text_keys = np.fromiter(chain.from_iterable(flats), np.intp, sum(lengths))
    text_keys += np.repeat(offsets, lengths)
    dense = np.concatenate(denses)
    nonzero = np.flatnonzero(dense)
    dense_keys = (offsets[:, None] + np.arange(n_text, stride)).ravel()[nonzero]
    keys = np.concatenate([text_keys, dense_keys])
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    keys = keys[starts]
    values = np.diff(np.append(starts, len(first))).astype(float)
    values[np.searchsorted(keys, dense_keys)] = dense[nonzero]
    bounds = np.searchsorted(keys, offsets).tolist()
    bounds.append(len(keys))
    indices = keys % stride
    indices.flags.writeable = False
    values.flags.writeable = False
    return (indices, values), bounds


def _norm_tokens(seg: ProcessedSegment) -> list[str]:
    return [t.casefold() for t in seg.tokens]


def _df_filter(doc_freq: Counter, n_docs: int) -> dict[str, int]:
    lo = MIN_DF * n_docs
    hi = MAX_DF * n_docs
    kept = sorted(term for term, df in doc_freq.items() if lo <= df <= hi)
    return {term: i for i, term in enumerate(kept)}


def fit_vocabularies(
    corpus: list[ProcessedSegment], labels: Sequence[EmotionLabel | None] | None = None
) -> VocabularyModel:
    """Fit the three textual vocabularies and per-emotion exclusive BOWs;
    ``labels`` gives each segment's gold label (None: unknown) for the BOWs."""
    if not corpus:
        raise VocabularyError("empty fitting corpus")
    char_df: Counter = Counter()
    word_df: Counter = Counter()
    wb_df: Counter = Counter()
    class_docs: dict[EmotionLabel, set[str]] = {c: set() for c in CLASS_ORDER}
    term_freq: Counter = Counter()

    # a segment's char n-grams are those of its tokens and of the spaces
    # between them (see _boundary_ngrams), and its within-word n-grams those
    # of its tokens: each is enumerated once per distinct token or key
    own: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    crossing: dict[tuple[str, str], tuple[str, ...]] = {}
    known = [None] * len(corpus) if labels is None else labels
    for seg, label in zip(corpus, known, strict=True):
        tokens = _norm_tokens(seg)
        chars: set[str] = set()
        wordbound: set[str] = set()
        for token in tokens:
            grams = own.get(token)
            if grams is None:
                grams = remember(own, token, (
                    tuple(char_ngrams(token, 1, NGRAM_MAX)),
                    tuple(charwb_ngrams([token], 1, NGRAM_MAX)),
                ))
            chars.update(grams[0])
            wordbound.update(grams[1])
        for key in _boundary_keys(tokens):
            cross = crossing.get(key)
            if cross is None:
                cross = remember(crossing, key, tuple(_boundary_ngrams(*key)))
            chars.update(cross)
        char_df.update(chars)
        word_df.update(set(word_ngrams(tokens, 1, NGRAM_MAX)))
        wb_df.update(wordbound)
        if label is not None:
            candidates = word_ngrams(tokens, 1, 2)
            class_docs[label].update(candidates)
            term_freq.update(candidates)

    n_docs = len(corpus)
    char_vocab = _df_filter(char_df, n_docs)
    word_vocab = _df_filter(word_df, n_docs)
    wb_vocab = _df_filter(wb_df, n_docs)

    bows: dict[EmotionLabel, list[str]] = {}
    for cls in CLASS_ORDER:
        others = set().union(*(class_docs[o] for o in CLASS_ORDER if o is not cls))
        exclusive = class_docs[cls] - others
        ranked = sorted(exclusive, key=lambda t: (-term_freq[t], t))
        bows[cls] = ranked[:BOW_SIZE]

    return VocabularyModel(
        char_vocab=char_vocab,
        word_vocab=word_vocab,
        wordbound_vocab=wb_vocab,
        bow_pre=bows[EmotionLabel.PRECAUTION],
        bow_neu=bows[EmotionLabel.NEUTRAL],
        bow_opp=bows[EmotionLabel.OPPORTUNITY],
    )


# a row of zeros: extract_numeric's ten lexicon sums exist with no lemma hit
_NO_HITS = (0,) * 10


def extract_numeric(
    seg: ProcessedSegment, pre_clean_text: str, lx: LexiconSet
) -> list[int]:
    """The 20 numeric counters.

    Number/percentage/mark counts come from ``pre_clean_text`` (the
    asset-tagged text before stopword removal); lexicon counts come from the
    processed lemmas, one ``lx.lemma_counts`` lookup each. Date-like tokens
    are not numeric values; unsigned numbers count as positive.

    A list, not a tuple: CPython 3.11 puts every freed tuple of 20 items
    on a free list that it never takes one from again, so one tuple per
    instance would keep up to 2000 of them (390 KiB) for the whole run.
    """
    neg_num = pos_num = neg_perc = pos_perc = total_num = total_perc = 0
    if _DIGIT_RE.search(pre_clean_text) is not None:
        for m in NUMBER_RE.finditer(_DATE_RE.sub(" ", pre_clean_text)):
            token = m.group(0)
            negative = token.startswith("-")
            if token.endswith("%"):
                total_perc += 1
                neg_perc += negative
                pos_perc += not negative
            else:
                total_num += 1
                neg_num += negative
                pos_num += not negative

    words = [w.casefold() for w in WORD_RE.findall(pre_clean_text)]
    fin_abbr = sum(w in lx.abbreviations for w in words)
    exclamation = pre_clean_text.count("!") + pre_clean_text.count("¡")
    interrogation = pre_clean_text.count("?") + pre_clean_text.count("¿")

    table = lx.lemma_counts
    hits = [table[t] for t in map(str.casefold, seg.tokens) if t in table]
    return [
        seg.raw_len,
        neg_num,
        pos_num,
        total_num,
        neg_perc,
        pos_perc,
        total_perc,
        fin_abbr,
        exclamation,
        interrogation,
        *map(sum, zip(*hits, _NO_HITS)),
    ]


@dataclass
class PriceSeries:
    """Per-ticker closing prices by date."""

    closes: dict[str, dict[date, float]] = field(default_factory=dict)

    def add(self, ticker: str, day: date, close: float) -> None:
        if not (math.isfinite(close) and close > 0):
            raise PriceError(f"close for {ticker} on {day} must be positive, got {close}")
        series = self.closes.setdefault(ticker.casefold(), {})
        if day in series:
            raise PriceError(f"duplicate price for {ticker} on {day}")
        series[day] = close

    def get(self, ticker: str, day: date) -> float | None:
        return self.closes.get(ticker.casefold(), {}).get(day)

    @classmethod
    def from_csv(cls, path: str) -> "PriceSeries":
        """Read ``ticker,date,close`` rows; a bad row raises PriceError
        naming the file and line."""
        series = cls()
        reader = csv.reader(line for _, line in text_lines(path, newline=""))
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "ticker":
                continue
            try:
                if len(row) < 3:
                    raise ValueError("expected ticker,date,close")
                series.add(row[0], date.fromisoformat(row[1]), float(row[2]))
            except ValueError as exc:
                raise PriceError(f"{path}:{reader.line_num}: {exc}") from None
        return series


def _working_day(day: date, step: int) -> date:
    """The first Monday-to-Friday day after ``day`` (``step`` 1) or before it (-1)."""
    day += timedelta(days=step)
    while day.weekday() >= 5:
        day += timedelta(days=step)
    return day


def compute_trend(ticker: str, post_time: datetime, prices: PriceSeries) -> bool:
    """True iff the close after the post date exceeds the close before it.

    Working days skip Saturday/Sunday (no holiday calendar). Raises
    TrendUnavailableError when either close is missing.
    """
    post_day = post_time.date()
    prev_day, next_day = _working_day(post_day, -1), _working_day(post_day, 1)
    prev_close = prices.get(ticker, prev_day)
    next_close = prices.get(ticker, next_day)
    if prev_close is None or next_close is None:
        raise TrendUnavailableError(
            f"missing close for {ticker} on {prev_day} or {next_day}"
        )
    return next_close > prev_close


def _columns(grams: list[str], table: dict[str, int]) -> tuple[int, ...]:
    """The columns in ``table`` of ``grams``, as the table's own int
    objects, so a memo entry makes no new ints."""
    return tuple([c for c in map(table.get, grams) if c is not None])


def _token_columns(
    token: str, tables: tuple[dict[str, int], dict[str, int], dict[str, int]]
) -> tuple[int, ...]:
    """The columns in ``tables`` of the n-grams that ``token`` alone makes:
    its char n-grams, its word unigram and its within-word n-grams."""
    char_table, word_table, wordbound_table = tables
    return (
        _columns(char_ngrams(token, 1, NGRAM_MAX), char_table)
        + _columns([token], word_table)
        + _columns(charwb_ngrams([token], 1, NGRAM_MAX), wordbound_table)
    )


def _count_ngrams(seg: ProcessedSegment, vm: VocabularyModel) -> list[int]:
    """The global column that ``vm.count_tables`` give each n-gram
    occurrence of ``seg``, with repeats and unordered: ``_count_run``
    counts and orders them, with those of the other vectors of its run, by
    one sort.

    ``vm.ngram_memo`` maps a casefolded token to its ``_token_columns``, and
    ``vm.boundary_memo`` maps a ``_boundary_keys`` key to the char columns
    of its ``_boundary_ngrams``, under these tables; a missing entry is
    added, and each memo is cleared at ``MEMO_SIZE`` entries. Only word
    n-grams with n >= 2 are looked up here.
    """
    tables, memo, boundary_memo = vm.count_tables, vm.ngram_memo, vm.boundary_memo
    char_table, word_table, _ = tables
    tokens = _norm_tokens(seg)
    flat: list[int] = []
    for token in tokens:
        own = memo.get(token)
        if own is None:
            own = remember(memo, token, _token_columns(token, tables))
        flat += own
    for key in _boundary_keys(tokens):
        cross = boundary_memo.get(key)
        if cross is None:
            cross = remember(boundary_memo, key, _columns(_boundary_ngrams(*key), char_table))
        flat += cross
    flat += _columns(word_ngrams(tokens, 2, NGRAM_MAX), word_table)
    return flat


def vectorize(
    seg: ProcessedSegment,
    vm: VocabularyModel,
    numeric: Sequence[int],
    trend: bool,
) -> FeatureVector:
    """Map one processed segment onto the hybrid feature space.

    The dense block is built now. The n-gram counts are counted on their
    first read, alone or with the other vectors of the run that
    ``count_together`` ties the vector to, with the count tables and the
    memos of ``vm``, which the vector or its run keeps until then; a
    pipeline that never reads them never builds the tables.
    """
    tokens = _norm_tokens(seg)
    index, prefixes = vm.bow_index, vm.bow_prefixes
    hits = [0] * N_BOW
    # the unigrams, and only the bigrams whose first token starts an entry
    grams = [*tokens, *(f"{a} {b}" for a, b in zip(tokens, tokens[1:]) if a in prefixes)]
    for gram in grams:
        for k in index.get(gram, ()):
            hits[k] += 1
    dense = np.array([*hits, *numeric, trend], dtype=float)
    n_text = vm.n_text_columns
    if vm.selection_mask is not None:
        dense = np.where(vm.dense_keep, dense, 0.0)
    # the segment, not its casefolded tokens: a block of vectors waiting
    # for their first read then holds no copies of the tokens
    return FeatureVector(partial(_count_ngrams, seg, vm), dense, n_text)
