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
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat

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

    Besides the resources it keeps three caches, each built on first use:
    the spelling-correction ``delete_index``, and the ``corrections`` and
    ``splits`` memos in which ``textproc`` keeps the ``lemmatize_correct``
    and ``split_hashtags`` result of each out-of-dictionary token. A memo is
    cleared when it holds ``MEMO_SIZE`` entries. The caches are not fields:
    equality ignores them, and a ``dataclasses.replace`` copy starts
    without them.
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
    def corrections(self) -> dict[str, str]:
        """``lemmatize_correct``'s result by out-of-dictionary token."""
        return {}

    @cached_property
    def splits(self) -> dict[str, tuple[str, ...]]:
        """``split_hashtags``'s result by out-of-dictionary token."""
        return {}


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
    salted per process, so an index holds only in the process that built it.
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
