"""Segment text normalization.

Order is fixed: asset tagging -> number tagging -> filtering/cleaning ->
hashtag/compound splitting -> lemmatization with spelling correction.
Tagging precedes cleaning so tickers survive the removal of $/@/# markers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from finemo.lexicons import LexiconSet, lookup_ticker
from finemo.segmenter import FOCUS_TAG, OTHER_TAG, NUMBER_RE, Segment, _TOKEN_RE

TAGS = (FOCUS_TAG, OTHER_TAG, "NEGATIVE", "POSITIVE", "NUMBER")

_URL_RE = re.compile(r"(?:https?://\S+|\bt\.co/\S+|\bwww\.\S+)")
_RT_RE = re.compile(r"\bRT\b[: ]?")
# date-like digit groups joined by hyphens or slashes are not numeric values
_DATE_RE = re.compile(r"\b\d{1,4}(?:[-/]\d{1,2}){1,2}(?:[-/]\d{1,4})?\b")


@dataclass(frozen=True)
class ProcessedSegment:
    tweet_id: str
    focus: str
    tokens: tuple[str, ...]
    raw_len: int
    label: object = None  # gold EmotionLabel, when known; read by fit_vocabularies

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def tag_assets(text: str, focus: str | None, lx: LexiconSet) -> str:
    """Replace every asset mention with TICKER (the focus) or OTHER_TICKER."""
    out = []
    last = 0
    for m in _TOKEN_RE.finditer(text):
        token = m.group(0).rstrip(".")
        if token in (FOCUS_TAG, OTHER_TAG):
            continue
        ticker = lookup_ticker(token, lx)
        if ticker is None:
            continue
        tag = FOCUS_TAG if focus is not None and ticker == focus else OTHER_TAG
        out.append(text[last:m.start()])
        out.append(tag)
        last = m.start() + len(token)
    out.append(text[last:])
    return "".join(out)


_DATE_OR_NUMBER_RE = re.compile(rf"(?P<date>{_DATE_RE.pattern})|{NUMBER_RE.pattern}")


def tag_numbers(text: str) -> str:
    """Replace numeric tokens with NEGATIVE/POSITIVE/NUMBER tags.

    The sign and a trailing percent sign are consumed with the number.
    Date-like patterns are left alone.
    """

    def _tag(m: re.Match) -> str:
        token = m.group(0)
        if m.group("date"):
            return token
        if token.startswith("-"):
            return "NEGATIVE"
        if token.startswith("+"):
            return "POSITIVE"
        return "NUMBER"

    return _DATE_OR_NUMBER_RE.sub(_tag, text)


def clean_filter(text: str, lx: LexiconSet) -> str:
    """Drop URLs, RT markers, $/@/# characters and stopwords; keep the
    keep-words; collapse whitespace."""
    text = _URL_RE.sub(" ", text)
    text = _RT_RE.sub(" ", text)
    text = text.replace("$", "").replace("@", "").replace("#", "")
    kept = []
    for token in text.split():
        stripped = token.strip(".,;:!?¡¿()\"'")
        if not stripped:
            continue
        if stripped in TAGS:
            kept.append(stripped)
            continue
        word = stripped.casefold()
        if word in lx.stopwords and word not in lx.keep_words:
            continue
        kept.append(word)
    return " ".join(kept)


def split_hashtags(token: str, lx: LexiconSet) -> list[str]:
    """Decompose an out-of-dictionary compound into dictionary words.

    Dynamic programming over split points maximizing the product of corpus
    frequencies; the token is returned unchanged when it is already a word
    or no full segmentation exists.
    """
    if token in lx.dictionary or token in TAGS:
        return [token]
    n = len(token)
    best: list[float | None] = [None] * (n + 1)
    back: list[int] = [0] * (n + 1)
    best[0] = 0.0  # log-space
    for i in range(1, n + 1):
        for j in range(max(0, i - 30), i):
            piece = token[j:i]
            if best[j] is None or piece not in lx.dictionary:
                continue
            freq = lx.freq_corpus.get(piece)
            if freq is None or freq <= 0:
                continue
            score = best[j] + math.log(freq)
            if best[i] is None or score > best[i]:
                best[i] = score
                back[i] = j
    if best[n] is None:
        return [token]
    parts = []
    i = n
    while i > 0:
        parts.append(token[back[i]:i])
        i = back[i]
    parts.reverse()
    return parts


def _edit_distance(a: str, b: str, cap: int = 2) -> int:
    """Levenshtein distance of ``a`` and ``b``, or ``cap + 1`` when it
    exceeds ``cap``.

    Bit-parallel (Myers 1999, in Hyyrö's form for the global distance).
    DP row i is the prefix ``a[:i]`` and column j the prefix ``b[:j]``. Bit
    i of ``pv``/``mv`` is set where the current column steps by +1/-1 from
    row i to row i + 1, so one column costs a few operations on Python ints
    of ``len(a)`` bits, for any length. ``dist`` is the column's last entry,
    ``len(a)`` in column 0.
    """
    m = len(a)
    if abs(m - len(b)) > cap:
        return cap + 1
    if not m:
        return min(len(b), cap + 1)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = full, 0, m
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the DP is 0, 1, 2, ...: a +1 step enters at the top
        ph = (ph << 1 | 1) & full
        mh = (mh << 1) & full
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return min(dist, cap + 1)


def lemmatize_correct(token: str, lx: LexiconSet) -> str:
    """Dictionary lemma, or the lemma of the closest dictionary form.

    Spelling correction considers forms within edit distance 2, preferring
    the candidate with the highest corpus frequency, ties broken
    lexicographically. Uncorrectable tokens pass through unchanged.

    Only the forms that ``lx.delete_index`` returns are scored, not the whole
    dictionary. That set holds every form within distance 2, so the result
    equals a scan of every form. The index is built on the first
    out-of-dictionary token and kept on ``lx``; it costs 12 bytes per
    (delete string, form) pair, about 0.7 MB for 2.2k forms. Each
    candidate's distance is the bit-parallel ``_edit_distance``, exact up
    to the cap for any token length.
    """
    if token in TAGS:
        return token
    lemma = lx.dictionary.get(token)
    if lemma is not None:
        return lemma
    best: tuple[int, float, str] | None = None
    for form in lx.delete_index.candidates(token):
        dist = _edit_distance(token, form)
        if dist > 2:
            continue
        key = (dist, -lx.freq_corpus.get(form, 0.0), form)
        if best is None or key < best:
            best = key
    if best is None:
        return token
    return lx.dictionary[best[2]]


def process(seg: Segment, lx: LexiconSet) -> ProcessedSegment:
    """Full normalization of one replicated segment."""
    raw_len = len(seg.text)
    text = tag_assets(seg.text, seg.focus, lx)
    text = tag_numbers(text)
    text = clean_filter(text, lx)
    tokens: list[str] = []
    for token in text.split():
        for word in split_hashtags(token, lx):
            tokens.append(lemmatize_correct(word, lx))
    if seg.focus is not None and FOCUS_TAG not in tokens:
        tokens.insert(0, FOCUS_TAG)
    return ProcessedSegment(
        tweet_id=seg.tweet_id,
        focus=seg.focus or "",
        tokens=tuple(tokens),
        raw_len=raw_len,
    )
