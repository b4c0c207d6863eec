"""Clause segmentation of tweets into per-asset declarative segments.

Pipeline: heuristic clause splitting -> forward-propagation grouping
(two rules) -> re-splitting of asset report lists -> retention of
asset-bearing segments only. Each clause is tokenized once (``scan_clause``):
that one pass finds its asset mentions, rule 1's additive conjunction and
rule 2's first word, and grouping and list splitting carry the
(ticker, span) lists along. A chunk is walked for boundary words only when
a case-insensitive regex shows it may hold one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from finemo.lexicons import LexiconSet

# numeric token: optional sign, digit runs, comma/dot decimals, optional %
NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)*%?")

# a word: word chars with internal dots; an asset token may carry a marker
WORD_RE = re.compile(r"\w[\w.]*", re.UNICODE)
_TOKEN_RE = re.compile(r"[$#@]?" + WORD_RE.pattern, re.UNICODE)

# clause cut candidates: a run of sentence punctuation, a comma, a hyphen
# between spaces; segment_clauses decides which of them cut
_CUT_RE = re.compile(r"[.;:!?]+|,|(?<= )-(?= )")

RELATIVE_WORDS = ("que", "that")
ADDITIVE_WORDS = ("y", "and")
# a clause starts at each of these words (case-folded)
BOUNDARY_WORDS = frozenset(("mientras", "aunque", "pero", "y", "que"))
# matches every word whose casefold is a boundary word (re.I folds each
# character, e.g. "ſ" as "s"), so a chunk it misses holds none
_BOUNDARY_RE = re.compile(r"\b(?:%s)\b" % "|".join(sorted(BOUNDARY_WORDS)), re.I)

FOCUS_TAG = "TICKER"
OTHER_TAG = "OTHER_TICKER"


class EmotionLabel(Enum):
    PRECAUTION = "P"
    NEUTRAL = "N"
    OPPORTUNITY = "O"

    @classmethod
    def parse(cls, value: str) -> "EmotionLabel":
        """The label whose letter or name, in any case, is ``value`` without
        its surrounding whitespace and then without its trailing ``+``/``-``
        marks."""
        label = _LABEL_KEYS.get(value.strip().rstrip("+-").casefold())
        if label is None:
            raise ValueError(f"unknown emotion label: {value!r}")
        return label


# EmotionLabel.parse's table: each label's casefolded letter and name
_LABEL_KEYS = {key.casefold(): label for label in EmotionLabel for key in (label.value, label.name)}


# the class order of every learner, confusion matrix and report
CLASS_ORDER = (EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL, EmotionLabel.OPPORTUNITY)


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

    text: str
    assets: tuple[tuple[str, tuple[int, int]], ...]
    focus: str | None = None

    @property
    def asset_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.assets)


Mentions = list[tuple[str, tuple[int, int]]]  # (ticker, (start, end)) in a text
Group = tuple[str, Mentions]  # a clause or group of clauses, and its mentions
# a clause, its mentions, whether it holds an additive conjunction, and its
# first word casefolded (None when it has no word)
Clause = tuple[str, Mentions, bool, str | None]


def scan_clause(text: str, lx: LexiconSet) -> Clause:
    """One ``_TOKEN_RE`` pass over a clause. Mentions are ticker/alias
    tokens, $/#/@ markers included in their spans and trailing dots not; a
    token without its marker is a ``WORD_RE`` word, which the grouping
    rules read.

    Each token is looked up once, by its word casefolded without its
    trailing dots: the key ``lookup_ticker`` makes of the token. Casefolding
    maps each character on its own and no character but "." to a dot, and
    a word ends in a word character, so ``lookup_ticker``'s fallback, which
    strips trailing punctuation, cannot change the key."""
    mentions: Mentions = []
    additive = False
    first = None
    tickers = lx.tickers
    for m in _TOKEN_RE.finditer(text):
        token = m.group(0)
        word = token[1:] if token[0] in "$#@" else token
        folded = word.casefold()
        if first is None:
            first = folded
        additive = additive or folded in ADDITIVE_WORDS
        ticker = tickers.get(folded.rstrip("."))
        if ticker is not None:
            mentions.append((ticker, (m.start(), m.start() + len(token.rstrip(".")))))
    return text, mentions, additive, first


def segment_clauses(text: str) -> list[str]:
    """Split text into simple declarative clauses.

    Boundaries: sentence punctuation followed by whitespace/end, commas not
    inside numbers, space-surrounded hyphens, and BOUNDARY_WORDS (the word
    starts the next clause). Worst case the whole text is one clause.
    """
    chunks: list[str] = []
    start = 0
    n = len(text)
    for m in _CUT_RE.finditer(text):
        i, end = m.span()
        c = text[i]
        if c == ",":
            if 0 < i and end < n and text[i - 1].isdigit() and text[end].isdigit():
                continue
        elif c != "-" and end < n and not text[end].isspace():
            continue
        chunks.append(text[start:i])
        start = end
    chunks.append(text[start:])

    clauses: list[str] = []
    for chunk in chunks:
        if _BOUNDARY_RE.search(chunk) is None:
            if chunk.strip():
                clauses.append(chunk.strip())
            continue
        piece_start = 0
        pieces = []
        for m in WORD_RE.finditer(chunk):
            if m.group(0).casefold() in BOUNDARY_WORDS and m.start() > piece_start:
                before = chunk[piece_start:m.start()]
                if before.strip():
                    pieces.append(before)
                    piece_start = m.start()
        pieces.append(chunk[piece_start:])
        clauses.extend(p.strip() for p in pieces if p.strip())
    return clauses


def _join(first: Group, second: Group) -> Group:
    """Join two groups with one space; the second's spans move with it."""
    shift = len(first[0]) + 1
    moved = [(ticker, (s + shift, e + shift)) for ticker, (s, e) in second[1]]
    return f"{first[0]} {second[0]}", first[1] + moved


def group_forward(clauses: list[Clause]) -> list[Group]:
    """Apply the two forward-propagation grouping rules, in order, to the
    ``scan_clause`` records of a tweet's clauses.

    Rule 1: a clause containing an asset, the additive conjunction, a comma
    or a hyphen starts a new group; anything else is appended to the current
    group. Rule 2: when consecutive groups both contain an asset and the
    later one starts with the relative conjunction, the earlier is merged
    into it. A group's first word is its first clause's: when that clause
    has no word, it has no asset, nor has any clause rule 1 appends, so
    rule 2 never reads it.
    """
    groups: list[tuple[str, Mentions, str | None]] = []
    for text, assets, additive, first in clauses:
        if groups and not (assets or additive or "," in text or "-" in text):
            head, head_assets, head_first = groups[-1]
            groups[-1] = (*_join((head, head_assets), (text, assets)), head_first)
        else:
            groups.append((text, assets, first))
    merged: list[Group] = []
    for text, assets, first in groups:
        if merged and first in RELATIVE_WORDS and merged[-1][1] and assets:
            merged[-1] = _join(merged[-1], (text, assets))
        else:
            merged.append((text, assets))
    return merged


def split_asset_lists(group: Group) -> list[Group]:
    """Re-split an asset report list: a group with more than one numeric
    token is cut right before each asset but the first, so piece k holds
    asset k alone. Any other group is returned whole."""
    text, assets = group
    if len(assets) <= 1 or len(NUMBER_RE.findall(text)) <= 1:
        return [group]
    cuts = [0] + [start for _, (start, _) in assets[1:]]
    return [
        (text[cut:end].rstrip(), [(ticker, (s - cut, e - cut))])
        for cut, end, (ticker, (s, e)) in zip(cuts, cuts[1:] + [len(text)], assets)
    ]


def segment_tweet(tweet: RawTweet, lx: LexiconSet) -> list[Segment]:
    """Full segmentation of one tweet; only asset-bearing segments remain."""
    clauses = [scan_clause(c, lx) for c in segment_clauses(tweet.text)]
    return [
        Segment(text=text, assets=tuple(assets))
        for group in group_forward(clauses)
        for text, assets in split_asset_lists(group)
        if assets
    ]


def replicate_per_asset(seg: Segment) -> list[Segment]:
    """One replica per distinct asset; focus mentions become TICKER, the
    rest OTHER_TICKER. The mention spans must ascend without overlapping,
    as ``segment_tweet`` gives them."""
    if not seg.assets:
        raise ValueError("segment has no assets")
    text, assets = seg.text, seg.assets
    replicas = []
    for focus in dict.fromkeys([ticker for ticker, _ in assets]):
        parts = []
        new_assets: Mentions = []
        prev = at = 0  # the end of the last mention in text and in the replica
        for ticker, (start, end) in assets:
            tag = FOCUS_TAG if ticker == focus else OTHER_TAG
            at += start - prev
            parts += (text[prev:start], tag)
            new_assets.append((ticker, (at, at + len(tag))))
            at += len(tag)
            prev = end
        parts.append(text[prev:])
        replicas.append(Segment("".join(parts), tuple(new_assets), focus))
    return replicas
