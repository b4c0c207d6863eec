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

Blank lines and lines whose first non-blank character is '#' are skipped
(``data_lines``). Words are case-folded. A word given twice in a two-column
file, or a ticker alias given twice, is refused; every refusal names the
file and line.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import combinations

import numpy as np


# every per-token memo (spelling correction, hashtag splits, n-gram columns)
# is cleared when it holds this many entries, so it cannot grow with the stream
MEMO_SIZE = 4096


class LexiconError(Exception):
    """Raised on a missing file, or on a malformed or duplicate entry, which
    the message names as ``path:line``."""


class EncodingError(Exception):
    """Raised on an input line that is not UTF-8, which the message names as
    ``path:line``."""


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

    Besides the resources it keeps four caches, each built on first use:
    the spelling-correction ``delete_index``, the ``lemma_counts`` table of
    ``features.extract_numeric``, and the ``corrections`` and ``splits``
    memos in which ``textproc`` keeps the ``lemmatize_correct`` and
    ``split_hashtags`` result of each out-of-dictionary token. A memo is
    cleared when it holds ``MEMO_SIZE`` entries. The caches are not fields:
    equality ignores them, and neither a ``dataclasses.replace`` copy nor an
    unpickled one holds them.
    """

    tickers: dict[str, str]  # case-folded alias -> canonical ticker
    stopwords: frozenset[str]  # without the keep-words
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
    def lemma_counts(self) -> dict[str, tuple[bool, ...]]:
        """Each adverb, polarity or emotion word's increments of the ten
        lexicon counters of ``NUMERIC_NAMES``, ADVERBS to POS_EMOTION."""
        return {
            word: (
                word in self.adverbs,
                *(c in self.adverbs.get(word, ()) for c in ("negation", "affirmation", "doubt", "intensifier")),
                *(self.polarity.get(word) == p for p in ("negative", "neutral", "positive")),
                *(self.emotions.get(word) == e for e in ("negative_emotion", "positive_emotion")),
            )
            for word in {**self.adverbs, **self.polarity, **self.emotions}
        }

    @cached_property
    def corrections(self) -> dict[str, str]:
        """``lemmatize_correct``'s result by out-of-dictionary token."""
        return {}

    @cached_property
    def splits(self) -> dict[str, tuple[str, ...]]:
        """``split_hashtags``'s result by out-of-dictionary token."""
        return {}

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def remember(memo: dict, key, value):
    """Store ``value`` under ``key`` and return it; a memo that already
    holds ``MEMO_SIZE`` entries is cleared first."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


# the base B of the delete hashes: odd, so each power B^k is a unit mod 2^64
_BASE = 0x9E3779B97F4A7C15


class DeleteIndex:
    """Symmetric-delete index over dictionary forms (SymSpell, Garbe 2012).

    Every string reachable by at most two deletions from a form, the form
    included, is keyed by its hash in one sorted uint64 array, next to an
    int32 array of form ids: 12 bytes per distinct (delete hash, form) pair,
    about 0.7 MB for 2.2k forms. A form within Levenshtein distance 2 of a
    token shares one of these strings with the token: delete the substituted
    and inserted characters from the token and the substituted and deleted
    ones from the form. So ``candidates`` returns every such form; a hash
    collision only adds a candidate, which the caller's distance check
    rejects.

    The hash of a string s is h(s) = sum of ord(s[k]) * B^k mod 2^64, a
    linear map of the code points, so no delete string is ever made: the
    hashes of n code points and of all their one- and two-character
    deletions are one product with the n x (1 + n + n(n - 1) / 2) uint64
    matrix ``_weights(n)``, which holds B^j at the j-th kept character of
    each deletion and 0 at each deleted one. The forms of each length are
    one (forms, n) matrix product: the build takes about 6 ms for 2.2k
    forms, against about 50 ms for the string deletes it replaced. A query
    is the same product on one row. Each ``_weights(n)`` is kept on the
    index for the lengths it meets, forms and queries up to two past the
    longest form, about 15 KB at n = 15. Any ``str`` is accepted, lone
    surrogates included, and no key depends on the salt of ``hash``.
    """

    def __init__(self, forms) -> None:
        self._forms = tuple(forms)
        self._max_len = max(map(len, self._forms), default=0)
        self._weight_cache: dict[int, np.ndarray] = {}
        by_length: dict[int, list[int]] = {}
        for form_id, form in enumerate(self._forms):
            by_length.setdefault(len(form), []).append(form_id)
        hashes, ids = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.intc)]
        for n, form_ids in by_length.items():
            text = "".join([self._forms[i] for i in form_ids])
            rows = np.sort(self._hashes_of(_code_points(text).reshape(len(form_ids), n)), axis=1)
            # repeated letters give equal deletes: keep each hash once per form
            keep = np.ones(rows.shape, dtype=bool)
            keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
            hashes.append(rows[keep])
            ids.append(np.repeat(np.array(form_ids, dtype=np.intc), keep.sum(axis=1)))
        hashes = np.concatenate(hashes)
        order = np.argsort(hashes)
        self._hashes = hashes[order]
        self._ids = np.concatenate(ids)[order]

    def _weights(self, n: int) -> np.ndarray:
        """The n x (1 + n + n(n - 1) / 2) matrix whose columns hash a string
        of length n, then each one-character deletion, then each
        two-character deletion in (p, q) order."""
        weights = self._weight_cache.get(n)
        if weights is None:
            powers = [pow(_BASE, j, 1 << 64) for j in range(n)]
            columns = []
            for gone in [(), *((p,) for p in range(n)), *combinations(range(n), 2)]:
                kept = iter(powers)
                columns.append([0 if k in gone else next(kept) for k in range(n)])
            weights = np.array(columns, dtype=np.uint64).T.copy()
            self._weight_cache[n] = weights
        return weights

    def _hashes_of(self, codes: np.ndarray) -> np.ndarray:
        """The delete hashes of each row of ``codes``, (..., n) code points."""
        return codes @ self._weights(codes.shape[-1])

    def candidates(self, token: str) -> list[str]:
        """Every form within Levenshtein distance 2 of ``token``, plus forms
        that only share a delete hash with it."""
        if len(token) > self._max_len + 2:
            return []
        keys = self._hashes_of(_code_points(token))
        lo = np.searchsorted(self._hashes, keys, side="left").tolist()
        hi = np.searchsorted(self._hashes, keys, side="right").tolist()
        found = {i for a, b in zip(lo, hi) if a < b for i in self._ids[a:b].tolist()}
        return [self._forms[i] for i in found]


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as uint64, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.uint64)


def text_lines(path: str, newline: str | None = None) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line of the UTF-8 file at ``path``, as
    ``open(path, encoding="utf-8-sig", newline=newline)`` reads them, with no
    leading byte-order mark. A line that is not UTF-8 raises ``EncodingError``
    naming ``path:line``: each bad byte decodes to a lone surrogate."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise EncodingError(
                    f"{path}:{lineno}: not UTF-8: byte 0x{byte:02x} at character {exc.start + 1}"
                ) from None
            yield lineno, line


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text_lines(path)`` that is
    neither blank nor a ``#`` comment, without its newline."""
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def _column_map(path: str, parse: Callable[[str], object]) -> dict:
    """The ``word<TAB>value`` rows of ``path`` as {case-folded word:
    parse(stripped value)}. A row without exactly one tab, with an empty
    field, with a value that ``parse`` refuses (``ValueError``) or with a
    word given before is refused, naming ``path:line``."""
    out = {}
    first: dict[str, int] = {}
    for lineno, line in data_lines(path):
        fields = [field.strip() for field in line.split("\t")]
        word = fields[0].casefold()
        try:
            if len(fields) != 2:
                raise ValueError("expected word<TAB>value")
            if not all(fields):
                raise ValueError(f"empty {'value' if word else 'word'}")
            if word in first:
                raise ValueError(f"duplicate word {word!r} (first on line {first[word]})")
            out[word] = parse(fields[1])
        except ValueError as exc:
            raise LexiconError(f"{path}:{lineno}: {exc}: {line!r}") from None
        first[word] = lineno
    return out


def _code(codes: dict[str, str], value: str) -> str:
    if value not in codes:
        raise ValueError(f"expected {'|'.join(codes)}")
    return codes[value]


def _adverb_classes(value: str) -> frozenset[str]:
    classes = frozenset(c.strip() for c in value.split(",") if c.strip())
    if not classes or not classes <= ADVERB_CLASSES:
        raise ValueError(f"expected comma-separated classes from {sorted(ADVERB_CLASSES)}")
    return classes


def _frequency(value: str) -> float:
    freq = float(value)
    if not 0.0 < freq <= 1.0:
        raise ValueError("freq value out of (0,1]")
    return freq


def load_lexicons(dir_path: str) -> LexiconSet:
    """Load and validate all lexicon files from ``dir_path``.

    Entries are case-folded. Keep-words win over stopwords. A ticker alias
    given twice (after case folding) is an error.
    """
    paths = {key: os.path.join(dir_path, fname) for key, fname in _FILES.items()}
    for key, path in paths.items():
        if not os.path.isfile(path):
            raise LexiconError(f"{key} lexicon not found: {path}")

    tickers: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, line in data_lines(paths["tickers"]):
        parts = [p.strip() for p in line.split("\t")]
        if not all(parts):
            raise LexiconError(f"{paths['tickers']}:{lineno}: empty field: {line!r}")
        for alias in parts:
            key = alias.casefold()
            if key in first:
                raise LexiconError(
                    f"{paths['tickers']}:{lineno}: duplicate ticker alias {alias!r} "
                    f"(first on line {first[key]})"
                )
            first[key] = lineno
            tickers[key] = parts[0]

    def words(key: str) -> set[str]:
        return {line.strip().casefold() for _, line in data_lines(paths[key])}

    return LexiconSet(
        tickers=tickers,
        stopwords=frozenset(words("stopwords") - words("keepwords")),
        polarity=_column_map(paths["polarity"], partial(_code, POLARITY_CODES)),
        emotions=_column_map(paths["emotions"], partial(_code, EMOTION_CODES)),
        adverbs=_column_map(paths["adverbs"], _adverb_classes),
        abbreviations=frozenset(words("abbreviations")),
        freq_corpus=_column_map(paths["freq"], _frequency),
        dictionary=_column_map(paths["dictionary"], str.casefold),
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
