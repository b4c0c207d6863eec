"""Clause segmentation of tweets into per-asset declarative segments.

Pipeline: heuristic clause splitting -> forward-propagation grouping
(two rules) -> re-splitting of asset report lists -> retention of
asset-bearing segments only. Each clause is scanned for assets once;
grouping and list splitting carry the (ticker, span) lists along.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum

from finemo.lexicons import LexiconSet, lookup_ticker

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

    tweet_id: str
    text: str
    assets: tuple[tuple[str, tuple[int, int]], ...]
    focus: str | None = None

    @property
    def asset_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.assets)


Mentions = list[tuple[str, tuple[int, int]]]  # (ticker, (start, end)) in a text
Group = tuple[str, Mentions]  # a clause or group of clauses, and its mentions


def find_assets(text: str, lx: LexiconSet) -> Mentions:
    """Locate ticker/alias mentions (with $/#/@ markers included in spans)."""
    out: Mentions = []
    for m in _TOKEN_RE.finditer(text):
        token = m.group(0).rstrip(".")
        if token in (FOCUS_TAG, OTHER_TAG):
            continue
        ticker = lookup_ticker(token, lx)
        if ticker is not None:
            out.append((ticker, (m.start(), m.start() + len(token))))
    return out


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


def _bears_asset(group: Group) -> bool:
    return bool(group[1]) or FOCUS_TAG in group[0]


def group_forward(clauses: list[Group]) -> list[Group]:
    """Apply the two forward-propagation grouping rules, in order, to
    (clause, assets) pairs.

    Rule 1: a clause containing an asset, the additive conjunction, a comma
    or a hyphen starts a new group; anything else is appended to the current
    group. Rule 2: when consecutive groups both contain an asset and the
    later one starts with the relative conjunction, the earlier is merged
    into it.
    """
    groups: list[Group] = []
    for clause in clauses:
        text = clause[0]
        additive = any(w.casefold() in ADDITIVE_WORDS for w in WORD_RE.findall(text))
        if groups and not (_bears_asset(clause) or additive or "," in text or "-" in text):
            groups[-1] = _join(groups[-1], clause)
        else:
            groups.append(clause)
    merged: list[Group] = []
    for group in groups:
        first = WORD_RE.search(group[0])
        relative = first is not None and first[0].casefold() in RELATIVE_WORDS
        if merged and relative and _bears_asset(merged[-1]) and _bears_asset(group):
            merged[-1] = _join(merged[-1], group)
        else:
            merged.append(group)
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
    clauses = [(c, find_assets(c, lx)) for c in segment_clauses(tweet.text)]
    return [
        Segment(tweet_id=tweet.id, text=text, assets=tuple(assets))
        for group in group_forward(clauses)
        for text, assets in split_asset_lists(group)
        if assets
    ]


def replicate_per_asset(seg: Segment) -> list[Segment]:
    """One replica per distinct asset; focus mentions become TICKER, the
    rest OTHER_TICKER."""
    if not seg.assets:
        raise ValueError("segment has no assets")
    replicas = []
    for focus in dict.fromkeys(seg.asset_names):
        text = seg.text
        new_assets: Mentions = []
        shift = 0
        for ticker, (start, end) in seg.assets:
            tag = FOCUS_TAG if ticker == focus else OTHER_TAG
            s, e = start + shift, end + shift
            text = text[:s] + tag + text[e:]
            new_assets.append((ticker, (s, s + len(tag))))
            shift += len(tag) - (end - start)
        replicas.append(replace(seg, text=text, assets=tuple(new_assets), focus=focus))
    return replicas
