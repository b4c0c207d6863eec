"""Clause segmentation of tweets into per-asset declarative segments.

Pipeline: heuristic clause splitting -> forward-propagation grouping
(two rules) -> re-splitting of asset report lists -> retention of
asset-bearing segments only. All operations are pure functions of
(text, LexiconSet).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum

from finemo.lexicons import LexiconSet, lookup_ticker

# numeric token: optional sign, digit runs, comma/dot decimals, optional %
NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)*%?")

# candidate asset token: optional $/#/@ marker, word chars with internal dots
_TOKEN_RE = re.compile(r"[$#@]?\w[\w.]*", re.UNICODE)

_SENT_PUNCT = ".;:!?"

RELATIVE_WORDS = ("que", "that")
ADDITIVE_WORDS = ("y", "and")

FOCUS_TAG = "TICKER"
OTHER_TAG = "OTHER_TICKER"


class EmotionLabel(Enum):
    PRECAUTION = "P"
    NEUTRAL = "N"
    OPPORTUNITY = "O"

    @classmethod
    def parse(cls, value: str) -> "EmotionLabel":
        key = value.strip().rstrip("+-").casefold()
        for label in cls:
            if key in (label.value.casefold(), label.name.casefold()):
                return label
        raise ValueError(f"unknown emotion label: {value!r}")


@dataclass(frozen=True)
class RawTweet:
    id: str
    timestamp: datetime
    text: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("tweet id must be non-empty")
        if not self.text.strip():
            raise ValueError("tweet text must be non-empty")


@dataclass(frozen=True)
class Segment:
    """A per-asset text span.

    assets holds (canonical ticker, (start, end)) character spans into
    ``text``. ``focus`` is set by replicate_per_asset.
    """

    tweet_id: str
    text: str
    assets: tuple[tuple[str, tuple[int, int]], ...]
    focus: str | None = None

    @property
    def asset_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.assets)


def find_assets(text: str, lx: LexiconSet) -> list[tuple[str, tuple[int, int]]]:
    """Locate ticker/alias mentions (with $/#/@ markers included in spans)."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        token = m.group(0)
        end = m.end()
        stripped = token.rstrip(".")
        end -= len(token) - len(stripped)
        if stripped in (FOCUS_TAG, OTHER_TAG):
            continue
        ticker = lookup_ticker(stripped, lx)
        if ticker is not None:
            out.append((ticker, (m.start(), end)))
    return out


def _has_ticker(text: str, lx: LexiconSet) -> bool:
    return bool(find_assets(text, lx)) or FOCUS_TAG in text


def _words(text: str) -> list[str]:
    return [w.casefold() for w in re.findall(r"\w[\w.]*", text, re.UNICODE)]


def segment_clauses(text: str, lx: LexiconSet) -> list[str]:
    """Split text into simple declarative clauses.

    Boundaries: sentence punctuation followed by whitespace/end, commas not
    inside numbers, space-surrounded hyphens, and configured boundary words
    (the word starts the next clause). Worst case the whole text is one
    clause.
    """
    chunks: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        cut = False
        if c in _SENT_PUNCT:
            j = i
            while j + 1 < n and text[j + 1] in _SENT_PUNCT:
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

    boundary = set(lx.boundary_words)
    clauses: list[str] = []
    for chunk in chunks:
        if not chunk.strip():
            continue
        piece_start = 0
        pieces = []
        for m in re.finditer(r"\w[\w.]*", chunk, re.UNICODE):
            if m.group(0).casefold() in boundary and m.start() > piece_start:
                before = chunk[piece_start:m.start()]
                if before.strip():
                    pieces.append(before)
                    piece_start = m.start()
        pieces.append(chunk[piece_start:])
        clauses.extend(p.strip() for p in pieces if p.strip())
    return clauses


def group_forward(clauses: list[str], lx: LexiconSet) -> list[str]:
    """Apply the two forward-propagation grouping rules, in order.

    Rule 1: a clause containing an asset, the additive conjunction, a comma
    or a hyphen starts a new group; anything else is appended to the current
    group. Rule 2: when consecutive groups both contain an asset and the
    later one starts with the relative conjunction, the earlier is merged
    into it.
    """
    groups: list[str] = []
    aux = ""
    for clause in clauses:
        words = set(_words(clause))
        starts_group = (
            _has_ticker(clause, lx)
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

    merged: list[str] = []
    for group in groups:
        first = _words(group)[:1]
        if (
            merged
            and first
            and first[0] in RELATIVE_WORDS
            and _has_ticker(merged[-1], lx)
            and _has_ticker(group, lx)
        ):
            merged[-1] = f"{merged[-1]} {group}"
        else:
            merged.append(group)
    return merged


def split_asset_lists(segment: str, lx: LexiconSet) -> list[str]:
    """Re-split asset report lists.

    When a segment contains more than one numeric token, it is split right
    before each asset occurrence except the first; otherwise it is returned
    unchanged.
    """
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


def segment_tweet(tweet: RawTweet, lx: LexiconSet) -> list[Segment]:
    """Full segmentation of one tweet; only asset-bearing segments remain."""
    clauses = segment_clauses(tweet.text, lx)
    segments: list[Segment] = []
    for group in group_forward(clauses, lx):
        for piece in split_asset_lists(group, lx):
            assets = find_assets(piece, lx)
            if assets:
                segments.append(
                    Segment(tweet_id=tweet.id, text=piece, assets=tuple(assets))
                )
    return segments


def replicate_per_asset(seg: Segment) -> list[Segment]:
    """One replica per distinct asset; focus mentions become TICKER, the
    rest OTHER_TICKER."""
    if not seg.assets:
        raise ValueError("segment has no assets")
    order: list[str] = []
    for ticker, _ in seg.assets:
        if ticker not in order:
            order.append(ticker)
    replicas = []
    for focus in order:
        text = seg.text
        new_assets: list[tuple[str, tuple[int, int]]] = []
        shift = 0
        for ticker, (start, end) in seg.assets:
            tag = FOCUS_TAG if ticker == focus else OTHER_TAG
            s, e = start + shift, end + shift
            text = text[:s] + tag + text[e:]
            new_assets.append((ticker, (s, s + len(tag))))
            shift += len(tag) - (end - start)
        replicas.append(
            replace(seg, text=text, assets=tuple(new_assets), focus=focus)
        )
    return replicas
