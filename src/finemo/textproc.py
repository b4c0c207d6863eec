"""Segment text normalization.

Order is fixed: number tagging -> filtering/cleaning -> hashtag/compound
splitting -> lemmatization with spelling correction. Asset mentions arrive
already tagged by ``segmenter.replicate_per_asset``, so tickers survive the
removal of $/@/# markers. A regex pass runs only when a cheaper test shows
it can match: number tagging needs a digit, URL removal ``http``, ``t.co/``
or ``www.``, and RT removal ``RT``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from finemo.lexicons import LexiconSet, remember
from finemo.segmenter import FOCUS_TAG, OTHER_TAG, NUMBER_RE, Segment

TAGS = (FOCUS_TAG, OTHER_TAG, "NEGATIVE", "POSITIVE", "NUMBER")

_URL_RE = re.compile(r"(?:https?://\S+|\bt\.co/\S+|\bwww\.\S+)")
_RT_RE = re.compile(r"\bRT\b[: ]?")
# date-like digit groups joined by hyphens or slashes are not numeric values
_DATE_RE = re.compile(r"\b\d{1,4}(?:[-/]\d{1,2}){1,2}(?:[-/]\d{1,4})?\b")
# every date and number holds a digit
_DIGIT_RE = re.compile(r"\d")


@dataclass(frozen=True)
class ProcessedSegment:
    tokens: tuple[str, ...]
    raw_len: int


_DATE_OR_NUMBER_RE = re.compile(rf"(?P<date>{_DATE_RE.pattern})|{NUMBER_RE.pattern}")


def _number_tag(m: re.Match) -> str:
    token = m.group(0)
    if m.group("date"):
        return token
    if token.startswith("-"):
        return "NEGATIVE"
    if token.startswith("+"):
        return "POSITIVE"
    return "NUMBER"


def tag_numbers(text: str) -> str:
    """Replace numeric tokens with NEGATIVE/POSITIVE/NUMBER tags.

    The sign and a trailing percent sign are consumed with the number.
    Date-like patterns are left alone.
    """
    if _DIGIT_RE.search(text) is None:
        return text
    return _DATE_OR_NUMBER_RE.sub(_number_tag, text)


def clean_filter(text: str, lx: LexiconSet) -> str:
    """Drop URLs, RT markers, $/@/# characters and stopwords; collapse
    whitespace. ``load_lexicons`` leaves no keep-word among the stopwords."""
    if "http" in text or "t.co/" in text or "www." in text:
        text = _URL_RE.sub(" ", text)
    if "RT" in text:
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
        if word in lx.stopwords:
            continue
        kept.append(word)
    return " ".join(kept)


def split_hashtags(token: str, lx: LexiconSet) -> list[str]:
    """Decompose an out-of-dictionary compound into dictionary words.

    Dynamic programming over split points maximizing the product of corpus
    frequencies; the token is returned unchanged when it is already a word
    or no full segmentation exists. The split of an out-of-dictionary token
    is computed once and kept in the ``lx.splits`` memo, which is cleared at
    ``MEMO_SIZE`` entries.
    """
    if token in lx.dictionary or token in TAGS:
        return [token]
    parts = lx.splits.get(token)
    if parts is None:
        parts = remember(lx.splits, token, tuple(_split(token, lx)))
    # a new list each call: the caller may change it, the memo must not
    return list(parts)


def _split(token: str, lx: LexiconSet) -> list[str]:
    """``split_hashtags`` of an out-of-dictionary token, without the memo."""
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
    out-of-dictionary token and kept on ``lx``; it keys each deletion by a
    64-bit polynomial hash of its code points, computed as one integer
    matrix product per form length without making the deleted strings:
    about 6 ms and 12 bytes per (delete hash, form) pair, about 0.7 MB, for
    2.2k forms. Any ``str`` is accepted, lone surrogates included. The
    candidates are scored from the most frequent form down, each with the
    bit-parallel ``_edit_distance``, exact up to the cap for any token
    length; the cap falls below each hit's distance, and the first form at
    distance 1 ends the scan (see ``_correct``).

    The result for an out-of-dictionary token is computed once and kept in
    the ``lx.corrections`` memo, which is cleared at ``MEMO_SIZE`` entries.
    """
    if token in TAGS:
        return token
    lemma = lx.dictionary.get(token)
    if lemma is not None:
        return lemma
    lemma = lx.corrections.get(token)
    if lemma is None:
        lemma = remember(lx.corrections, token, _correct(token, lx))
    return lemma


def _correct(token: str, lx: LexiconSet) -> str:
    """``lemmatize_correct`` of an out-of-dictionary token, without the memo.

    The best form has the least ``(dist, -freq, form)`` key, a form missing
    from ``freq_corpus`` counting as frequency 0.0. The candidates are
    scored in ``(-freq, form)`` order, that key's tie-break, so the first
    form found within ``cap`` is the best at its distance and only a nearer
    form can beat it: the cap drops to one below it. The token is not a
    dictionary form, so every form is at least distance 1 from it, and the
    first form at distance 1 ends the scan (Garbe 2012). A candidate beyond
    the cap, such as a delete-hash collision, is never chosen.
    """
    freq = lx.freq_corpus
    ranked = sorted([(-freq.get(form, 0.0), form) for form in lx.delete_index.candidates(token)])
    best, cap = None, 2
    for _, form in ranked:
        dist = _edit_distance(token, form, cap)
        if dist <= cap:
            best, cap = form, dist - 1
            if not cap:
                break
    return token if best is None else lx.dictionary[best]


def process(seg: Segment, lx: LexiconSet) -> ProcessedSegment:
    """Full normalization of one replica from ``replicate_per_asset``, whose
    asset mentions are already TICKER/OTHER_TICKER. ``raw_len`` (LEN_TWEET)
    is the length of that tagged replica, not of the tweet as posted."""
    text = clean_filter(tag_numbers(seg.text), lx)
    tokens: list[str] = []
    for token in text.split():
        for word in split_hashtags(token, lx):
            tokens.append(lemmatize_correct(word, lx))
    if seg.focus is not None and FOCUS_TAG not in tokens:
        tokens.insert(0, FOCUS_TAG)
    return ProcessedSegment(tokens=tuple(tokens), raw_len=len(seg.text))
