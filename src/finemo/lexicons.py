"""Dictionary resources used across the pipeline.

All resources are UTF-8 plain-text files, one entry per line, living in a
single directory:

    tickers.tsv        canonical<TAB>alias1<TAB>alias2...
    stopwords.txt      one lowercase word per line
    keepwords.txt      semantically loaded function words kept despite stopwords
    polarity.tsv       word<TAB>neg|neu|pos
    emotions.tsv       word<TAB>neg|pos
    adverbs.tsv        word<TAB>comma-separated classes (negation, affirmation,
                       doubt, intensifier)
    abbreviations.txt  financial abbreviations
    freq.tsv           word<TAB>relative frequency in (0, 1]
    dictionary.tsv     inflected form<TAB>lemma

Lines starting with '#' are comments.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np


# every per-token memo (spelling correction, hashtag splits, n-gram columns)
# is cleared when it holds this many entries, so it cannot grow with the stream
MEMO_SIZE = 4096


class LexiconError(Exception):
    """Raised on missing files, malformed lines or duplicate entries."""


POLARITY_CODES = {"neg": "negative", "neu": "neutral", "pos": "positive"}
EMOTION_CODES = {"neg": "negative_emotion", "pos": "positive_emotion"}
ADVERB_CLASSES = frozenset({"negation", "affirmation", "doubt", "intensifier"})

_FILES = {
    "tickers": "tickers.tsv",
    "stopwords": "stopwords.txt",
    "keepwords": "keepwords.txt",
    "polarity": "polarity.tsv",
    "emotions": "emotions.tsv",
    "adverbs": "adverbs.tsv",
    "abbreviations": "abbreviations.txt",
    "freq": "freq.tsv",
    "dictionary": "dictionary.tsv",
}


@dataclass(frozen=True)
class LexiconSet:
    """Immutable bundle of all lexicon resources. Safe to share across threads.

    Besides the resources it keeps three caches, each built on first use:
    the spelling-correction ``delete_index``, and the ``corrections`` and
    ``splits`` memos in which ``textproc`` keeps the ``lemmatize_correct``
    and ``split_hashtags`` result of each out-of-dictionary token. A memo is
    cleared when it holds ``MEMO_SIZE`` entries. The caches are not fields:
    equality ignores them, and a pickled copy or a ``dataclasses.replace``
    starts without them.
    """

    tickers: dict[str, str]  # case-folded alias -> canonical ticker
    stopwords: frozenset[str]
    keep_words: frozenset[str]
    polarity: dict[str, str]  # word -> negative|neutral|positive
    emotions: dict[str, str]  # word -> negative_emotion|positive_emotion
    adverbs: dict[str, frozenset[str]]
    abbreviations: frozenset[str]
    freq_corpus: dict[str, float]
    dictionary: dict[str, str]  # inflected form -> lemma

    @cached_property
    def delete_index(self) -> DeleteIndex:
        """Spelling-correction index over ``dictionary``, built on first use."""
        return DeleteIndex(self.dictionary)

    @cached_property
    def corrections(self) -> dict[str, str]:
        """``lemmatize_correct``'s result by out-of-dictionary token."""
        return {}

    @cached_property
    def splits(self) -> dict[str, tuple[str, ...]]:
        """``split_hashtags``'s result by out-of-dictionary token."""
        return {}

    def __getstate__(self) -> dict:
        # the index holds this process's string hashes, and the memos are
        # only caches: a copy builds its own
        state = dict(self.__dict__)
        for cache in ("delete_index", "corrections", "splits"):
            state.pop(cache, None)
        return state


def remember(memo: dict, key, value):
    """Store ``value`` under ``key`` and return it; a memo that already
    holds ``MEMO_SIZE`` entries is cleared first."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def _deletes(word: str) -> set[str]:
    """``word`` and every string reachable from it by one or two
    single-character deletions.

    Each pair of deleted positions p < q is made once: delete p, then the
    character that was at q, which now sits at q - 1 >= p."""
    n = len(word)
    ones = [word[:i] + word[i + 1:] for i in range(n)]
    out = {word, *ones}
    out.update([one[:j] + one[j + 1:] for i, one in enumerate(ones) for j in range(i, n - 1)])
    return out


class DeleteIndex:
    """Symmetric-delete index over dictionary forms (SymSpell, Garbe 2012).

    Every string reachable by at most two deletions from a form, the form
    included, is keyed by its ``hash`` in one sorted int64 array, next to an
    int32 array of form ids: 12 bytes per (delete string, form) pair, about
    0.7 MB for 2.2k forms. A form within Levenshtein distance 2 of a token
    shares one of these strings with the token: delete the substituted and
    inserted characters from the token and the substituted and deleted ones
    from the form. So ``candidates`` returns every such form; a hash
    collision only adds a candidate, which the caller's distance check
    rejects. ``_deletes`` makes each pair of deleted positions once, so a
    form of length n costs about n^2 / 2 string slices. String hashes are
    salted per process, so the index is never pickled.
    """

    def __init__(self, forms) -> None:
        self._forms = tuple(forms)
        self._max_len = max(map(len, self._forms), default=0)
        hashes, ids = array("q"), array("i")
        for form_id, form in enumerate(self._forms):
            keys = _deletes(form)
            hashes.extend(map(hash, keys))
            ids.extend(repeat(form_id, len(keys)))
        hashes = np.frombuffer(hashes, dtype=np.int64)
        order = np.argsort(hashes)
        self._hashes = hashes[order]
        self._ids = np.frombuffer(ids, dtype=np.intc)[order]

    def candidates(self, token: str) -> list[str]:
        """Every form within Levenshtein distance 2 of ``token``, plus forms
        that only share a delete string (or its hash) with it."""
        if len(token) > self._max_len + 2:
            return []
        keys = np.fromiter(map(hash, _deletes(token)), dtype=np.int64)
        lo = np.searchsorted(self._hashes, keys, side="left").tolist()
        hi = np.searchsorted(self._hashes, keys, side="right").tolist()
        found = {i for a, b in zip(lo, hi) if a < b for i in self._ids[a:b].tolist()}
        return [self._forms[i] for i in found]


def _read_lines(path: str, name: str) -> list[tuple[int, str]]:
    if not os.path.isfile(path):
        raise LexiconError(f"{name} lexicon not found: {path}")
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            out.append((lineno, line))
    return out


def _malformed(name: str, lineno: int, line: str) -> LexiconError:
    return LexiconError(f"malformed {name} line {lineno}: {line!r}")


def load_lexicons(dir_path: str) -> LexiconSet:
    """Load and validate all lexicon files from ``dir_path``.

    Entries are case-folded. Keep-words win over stopwords. Duplicate ticker
    aliases (after case folding) are an error.
    """
    paths = {key: os.path.join(dir_path, fname) for key, fname in _FILES.items()}

    tickers: dict[str, str] = {}
    for lineno, line in _read_lines(paths["tickers"], "tickers"):
        parts = [p.strip() for p in line.split("\t") if p.strip()]
        if not parts:
            raise _malformed("tickers", lineno, line)
        canonical = parts[0]
        for alias in parts:
            key = alias.casefold()
            if key in tickers:
                raise LexiconError(
                    f"duplicate ticker alias {alias!r} (tickers.tsv line {lineno})"
                )
            tickers[key] = canonical

    stopwords = {line.strip().casefold() for _, line in _read_lines(paths["stopwords"], "stopwords")}
    keep_words = {line.strip().casefold() for _, line in _read_lines(paths["keepwords"], "keepwords")}
    stopwords -= keep_words

    polarity: dict[str, str] = {}
    for lineno, line in _read_lines(paths["polarity"], "polarity"):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1].strip() not in POLARITY_CODES:
            raise _malformed("polarity", lineno, line)
        polarity[parts[0].strip().casefold()] = POLARITY_CODES[parts[1].strip()]

    emotions: dict[str, str] = {}
    for lineno, line in _read_lines(paths["emotions"], "emotions"):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1].strip() not in EMOTION_CODES:
            raise _malformed("emotions", lineno, line)
        emotions[parts[0].strip().casefold()] = EMOTION_CODES[parts[1].strip()]

    adverbs: dict[str, frozenset[str]] = {}
    for lineno, line in _read_lines(paths["adverbs"], "adverbs"):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _malformed("adverbs", lineno, line)
        classes = frozenset(c.strip() for c in parts[1].split(",") if c.strip())
        if not classes or not classes <= ADVERB_CLASSES:
            raise _malformed("adverbs", lineno, line)
        adverbs[parts[0].strip().casefold()] = classes

    abbreviations = {
        line.strip().casefold() for _, line in _read_lines(paths["abbreviations"], "abbreviations")
    }

    freq_corpus: dict[str, float] = {}
    for lineno, line in _read_lines(paths["freq"], "freq"):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _malformed("freq", lineno, line)
        try:
            value = float(parts[1])
        except ValueError:
            raise _malformed("freq", lineno, line) from None
        if not 0.0 < value <= 1.0:
            raise LexiconError(f"freq value out of (0,1] on line {lineno}: {line!r}")
        freq_corpus[parts[0].strip().casefold()] = value

    dictionary: dict[str, str] = {}
    for lineno, line in _read_lines(paths["dictionary"], "dictionary"):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise _malformed("dictionary", lineno, line)
        dictionary[parts[0].strip().casefold()] = parts[1].strip().casefold()

    return LexiconSet(
        tickers=tickers,
        stopwords=frozenset(stopwords),
        keep_words=frozenset(keep_words),
        polarity=polarity,
        emotions=emotions,
        adverbs=adverbs,
        abbreviations=frozenset(abbreviations),
        freq_corpus=freq_corpus,
        dictionary=dictionary,
    )


def lookup_ticker(text_token: str, lx: LexiconSet) -> str | None:
    """Return the canonical ticker for a token, or None.

    Leading $/#/@ markers are stripped before matching so detection works on
    raw, uncleaned text. Matching is case-insensitive.
    """
    token = text_token.lstrip("$#@").casefold()
    if not token:
        return None
    hit = lx.tickers.get(token)
    if hit is not None:
        return hit
    # tolerate trailing sentence punctuation glued to the token
    return lx.tickers.get(token.rstrip(".,;:!?"))
