"""Seeded workload generator for the benchmark.

Each workload is a directory holding ``tweets.jsonl``, ``labels.tsv``,
``prices.csv`` and a ``lexicons/`` directory, in the formats the
``finemo`` command line reads. The same (workload, seed) pair always gives
the same bytes. Generation needs only the repository's ``data/`` files, never
the program under test, so the benchmark cannot be bent by the code it
measures.

Workloads:

* ``typo-lexicon``: short unique tweets in which 30% of the non-stopword words
  carry a seeded typo, plus one novel hashtag per tweet. A synthetic dictionary of
  about 2.1k forms covers every word without a typo, so the out-of-dictionary
  tokens are one-off typos and the spelling-correction scan does the work.
* ``clean-forest``: short copies of a pool of template tweets, every template
  equally often, each copy with fresh numbers and a fresh dictionary-word
  hashtag. A small dictionary covers every word, so no token is out of
  dictionary, and the short texts keep text processing and vectorization
  cheap next to the stacked adaptive random forest, which does the work.
* ``replay-linear``: the bundled 25-tweet sample replicated verbatim with the
  bundled lexicons. Only tweet order within each copy, timestamps and prices
  depend on the seed, so almost every token repeats.

The synthetic dictionary and the template pool are the same for every seed;
the seed draws the stream. Shares (classes, two-asset and two-sentence
items, numbers, typos) are exact rather than drawn, so every seed gives the
program the same amount of work and the benchmark's spread across seeds
stays small.

Tweets are built so that their segmentation is known in advance: every
sentence is one clause that mentions one or two assets, holds no comma,
hyphen or clause-boundary word, and carries at most one number when it names
two assets. Sentence ``i`` of a tweet is therefore segment ``i``, with one
replica per distinct asset, and the labels file lists exactly those
replicas. Labels come from a keyword rule over the sentence before typos.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
from dataclasses import dataclass
from datetime import date, datetime, timedelta

PRECAUTION_WORDS = (
    "caída", "bajista", "pérdida", "quiebra", "cuidado", "pánico", "miedo", "tristeza",
)
OPPORTUNITY_WORDS = (
    "alcista", "ganancia", "recuperación", "superación", "euforia", "alegría", "subida",
    "rebote",
)
# stopwords that are not clause-boundary words, so they never split a clause
FILLER_STOPWORDS = ("de", "la", "el", "en", "con", "los", "del", "por", "para", "las")
# words the segmenter treats specially; synthetic forms must avoid them
BOUNDARY_WORDS = ("mientras", "aunque", "pero", "y", "que", "and", "that")

_CONSONANTS = "bcdfglmnprstv"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)
# letters absent from every synthetic and bundled dictionary form, used for
# typos and to keep novel hashtags from splitting into dictionary words
_FOREIGN = "kw"
_ENDINGS = {"o": ("o", "os"), "a": ("a", "as"), "ar": ("ar", "a", "an", "ando")}

# sentence and tweet mix, exact in every stream: precaution, opportunity and
# mixed-signal sentences (neutral by the keyword rule) besides plain neutral
CLASS_SHARES = {"P": 0.25, "O": 0.25, "mixed": 0.05}
TWO_ASSET_SHARE = 0.2
NUMBERED_SHARE = 0.6  # of the sentences, where the sentence names one asset
TWO_SENTENCE_SHARE = 1 / 3
# synthetic words per sentence, besides stopwords and keywords: short texts
# keep the clean-forest pipeline's text stages cheap next to its learner
WORDS_PER_SENTENCE = (1, 3)

LEXICON_FILES = (
    "tickers.tsv", "stopwords.txt", "keepwords.txt", "polarity.tsv", "emotions.tsv",
    "adverbs.tsv", "abbreviations.txt", "freq.tsv", "dictionary.tsv",
)


@dataclass(frozen=True)
class Spec:
    """How one workload is generated and which learner runs on it."""

    name: str
    why: str
    learner_args: tuple[str, ...]
    warmup: int
    tweets: int  # for replay-linear: copies of the bundled sample
    lemmas: int = 0
    typo_rate: float = 0.0
    templates: int = 0  # clean-forest: size of the template pool


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="typo-lexicon",
            why="one-off typos and novel hashtags make the textproc correction scan "
            "do nearly all the work; streamml is light and a memo cannot help",
            learner_args=("--learner", "nb", "--single"),
            warmup=60,
            tweets=250,
            lemmas=800,
            typo_rate=0.3,
        ),
        Spec(
            name="clean-forest",
            why="a dictionary that covers every word leaves textproc idle, so the "
            "stacked Hoeffding-tree forest in streamml dominates",
            learner_args=("--learner", "rf", "--stacked"),
            warmup=1000,
            tweets=4200,  # 42 copies of each template
            lemmas=12,
            templates=100,
        ),
        Spec(
            name="replay-linear",
            why="the bundled sample replayed verbatim repeats every token and runs SGD "
            "on the sparse full space plus chi2 selection and a second vectorize pass",
            learner_args=("--learner", "sgd", "--stacked", "--percentile", "15"),
            warmup=1000,
            tweets=100,
        ),
    )
}


@dataclass(frozen=True)
class Generated:
    """Paths and sizes of one generated workload."""

    spec: Spec
    root: str
    n_tweets: int
    n_instances: int  # labeled replicas, one per label row

    @property
    def tweets(self) -> str:
        return os.path.join(self.root, "tweets.jsonl")

    @property
    def labels(self) -> str:
        return os.path.join(self.root, "labels.tsv")

    @property
    def prices(self) -> str:
        return os.path.join(self.root, "prices.csv")

    @property
    def lexicons(self) -> str:
        return os.path.join(self.root, "lexicons")

    def train_eval_argv(self, out_dir: str) -> list[str]:
        return [
            "train-eval",
            "--tweets", self.tweets,
            "--labels", self.labels,
            "--prices", self.prices,
            "--lexicons", self.lexicons,
            "--warmup", str(self.spec.warmup),
            *self.spec.learner_args,
            "--out", out_dir,
        ]


def label_for(words) -> str:
    """Keyword rule: precaution or opportunity words alone decide the class;
    both or neither give neutral."""
    present = set(words)
    pre = not present.isdisjoint(PRECAUTION_WORDS)
    opp = not present.isdisjoint(OPPORTUNITY_WORDS)
    if pre and not opp:
        return "P"
    if opp and not pre:
        return "O"
    return "N"


# ---------------------------------------------------------------- lexicons


def _read_entries(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [
            line.rstrip("\n").split("\t")
            for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]


@dataclass
class Lexicon:
    """What the generator needs to know about a lexicon directory."""

    tickers: list[list[str]]  # canonical first, then aliases
    reserved: set[str]  # case-folded words a synthetic form must not equal
    forms: list[str]  # synthetic forms, most frequent first
    freq: dict[str, float]  # synthetic forms


def _base_lexicon(src: str) -> Lexicon:
    tickers = _read_entries(os.path.join(src, "tickers.tsv"))
    reserved = {alias.casefold() for row in tickers for alias in row}
    for name in ("stopwords.txt", "keepwords.txt", "abbreviations.txt"):
        reserved |= {row[0].strip().casefold() for row in _read_entries(os.path.join(src, name))}
    for name in ("dictionary.tsv", "freq.tsv", "polarity.tsv", "emotions.tsv", "adverbs.tsv"):
        reserved |= {row[0].strip().casefold() for row in _read_entries(os.path.join(src, name))}
    reserved |= set(BOUNDARY_WORDS) | set(PRECAUTION_WORDS) | set(OPPORTUNITY_WORDS)
    return Lexicon(tickers=tickers, reserved=reserved, forms=[], freq={})


def _synthesize(rng: random.Random, lex: Lexicon, n_lemmas: int) -> list[tuple[str, str]]:
    """Add ``n_lemmas`` synthetic lemmas with their inflected forms; returns
    (form, lemma) rows and fills ``lex.forms`` / ``lex.freq``."""
    rows: list[tuple[str, str]] = []
    taken = set(lex.reserved)
    lemmas = 0
    while lemmas < n_lemmas:
        stem = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        ending = rng.choice(sorted(_ENDINGS))
        forms = [stem + suffix for suffix in _ENDINGS[ending]]
        if any(f in taken for f in forms):
            continue
        taken.update(forms)
        lemmas += 1
        rows.extend((form, forms[0]) for form in forms)
    order = [form for form, _ in rows]
    rng.shuffle(order)
    lex.forms = order
    # Zipf-like relative frequencies by shuffled rank
    for rank, form in enumerate(order, start=1):
        lex.freq[form] = 0.02 / rank**0.9
    return rows


def _write_lexicons(
    src: str, dst: str, rows: list[tuple[str, str]], freq: dict[str, float]
) -> None:
    """Copy the bundled lexicons and append dictionary/frequency rows."""
    os.makedirs(dst, exist_ok=True)
    for name in LEXICON_FILES:
        shutil.copyfile(os.path.join(src, name), os.path.join(dst, name))
    if rows:
        with open(os.path.join(dst, "dictionary.tsv"), "a", encoding="utf-8") as fh:
            fh.writelines(f"{form}\t{lemma}\n" for form, lemma in rows)
    if freq:
        with open(os.path.join(dst, "freq.tsv"), "a", encoding="utf-8") as fh:
            fh.writelines(f"{form}\t{value:.6e}\n" for form, value in freq.items())


# ---------------------------------------------------------------- tweets


def _zipf_picker(rng: random.Random, forms: list[str]):
    weights = [1.0 / rank**0.9 for rank in range(1, len(forms) + 1)]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    def pick(k: int) -> list[str]:
        return rng.choices(forms, cum_weights=cum, k=k)

    return pick


def _number(rng: random.Random, label: str) -> str:
    """A signed move for precaution and opportunity, a plain level otherwise."""
    if label == "N":
        return str(rng.randint(10, 9999))
    sign = "-" if label == "P" else "+"
    return f"{sign}{rng.randint(0, 9)},{rng.randint(1, 99):02d}%"


def _mention(rng: random.Random, row: list[str]) -> str:
    alias = rng.choice(row)
    return f"${alias}" if alias == row[0] else rng.choice(("", "#")) + alias


@dataclass
class _Sentence:
    words: list[str]  # synthetic words, stopwords and keywords; typos replace some in place
    mentions: list[tuple[int, str]]  # (position, surface) inserted into words
    canonical: list[str]  # distinct focus tickers, in mention order
    number: str | None
    label: str


def _exact(rng: random.Random, n: int, shares: dict[str, float], rest: str) -> list[str]:
    """``n`` kinds in seeded order, each kind exactly ``round(n * share)``
    times and ``rest`` filling up: seeds change which items get a property,
    never how many, so every seed costs the program about the same."""
    kinds = [kind for kind, share in shares.items() for _ in range(round(n * share))]
    kinds += [rest] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _sentences(rng: random.Random, lex: Lexicon, pick, n: int) -> list[_Sentence]:
    classes = _exact(rng, n, CLASS_SHARES, "N")
    assets = _exact(rng, n, {"2": TWO_ASSET_SHARE}, "1")
    numbered = _exact(rng, n, {"yes": NUMBERED_SHARE}, "no")
    out = []
    for kind, n_assets, number in zip(classes, assets, numbered):
        words = pick(rng.randint(*WORDS_PER_SENTENCE))
        words += rng.sample(FILLER_STOPWORDS, rng.randint(1, 3))
        if kind == "P":
            words += rng.sample(PRECAUTION_WORDS, rng.randint(1, 2))
        elif kind == "O":
            words += rng.sample(OPPORTUNITY_WORDS, rng.randint(1, 2))
        elif kind == "mixed":  # both signals stay neutral under the keyword rule
            words += [rng.choice(PRECAUTION_WORDS), rng.choice(OPPORTUNITY_WORDS)]
        rng.shuffle(words)
        rows = rng.sample(lex.tickers, int(n_assets))
        positions = sorted(rng.randint(0, len(words)) for _ in rows)
        label = label_for(words)
        # a second number would make the segmenter split a two-asset sentence
        # (IBEX35 already carries digits), so only single-asset sentences get one
        out.append(_Sentence(
            words=words,
            mentions=[(pos, _mention(rng, row)) for pos, row in zip(positions, rows)],
            canonical=[row[0] for row in rows],
            number=_number(rng, label) if n_assets == "1" and number == "yes" else None,
            label=label,
        ))
    return out


def _tweets(rng: random.Random, lex: Lexicon, pick, n: int) -> list[list[_Sentence]]:
    """``n`` tweets of one or two sentences each."""
    shape = _exact(rng, n, {"2": TWO_SENTENCE_SHARE}, "1")
    pool = iter(_sentences(rng, lex, pick, n + shape.count("2")))
    return [[next(pool) for _ in range(int(k))] for k in shape]


def _typo(rng: random.Random, word: str, avoid: set[str]) -> str:
    """One substitution, insertion, deletion or transposition that yields no
    word in ``avoid``."""
    for _ in range(20):
        chars = list(word)
        i = rng.randrange(len(chars))
        op = rng.randrange(4)
        letter = rng.choice(_FOREIGN + _VOWELS + _CONSONANTS)
        if op == 0:
            chars[i] = letter
        elif op == 1:
            chars.insert(i, letter)
        elif op == 2 and len(chars) > 3:
            del chars[i]
        elif i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        candidate = "".join(chars)
        if candidate != word and candidate not in avoid:
            return candidate
    return word + rng.choice(_FOREIGN)


def _apply_typos(rng: random.Random, tweets: list[list[_Sentence]], rate: float, avoid: set[str]) -> None:
    """Misspell exactly ``rate`` of the non-stopword words, in place."""
    slots = [
        (s, i) for sentences in tweets for s in sentences
        for i, w in enumerate(s.words) if w not in FILLER_STOPWORDS
    ]
    for s, i in rng.sample(slots, round(rate * len(slots))):
        s.words[i] = _typo(rng, s.words[i], avoid)


def _render(rng: random.Random, s: _Sentence) -> str:
    tokens = list(s.words)
    for offset, (pos, surface) in enumerate(s.mentions):
        tokens.insert(pos + offset, surface)
    if s.number is not None:
        # right after the first mention, as in "$SAN -2,48%"
        first = tokens.index(s.mentions[0][1])
        tokens.insert(first + 1, s.number)
    return " ".join(tokens) + rng.choice(".....!?")


def _timestamps(rng: random.Random, n: int) -> list[datetime]:
    out = []
    t = datetime(2019, 1, 7, 9, 0)
    for _ in range(n):
        t += timedelta(minutes=rng.randint(3, 45))
        if t.hour >= 18:
            t = datetime(t.year, t.month, t.day, 9, rng.randint(0, 30)) + timedelta(days=1)
        out.append(t)
    return out


def _write_prices(path: str, rng: random.Random, tickers: list[str], first: date, last: date) -> None:
    """Seeded random-walk closes on every weekday from a week before the
    first posting day to a week after the last one."""
    days = []
    day = first - timedelta(days=7)
    while day <= last + timedelta(days=7):
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ticker,date,close\n")
        for ticker in tickers:
            close = rng.uniform(5.0, 200.0)
            for day in days:
                close = max(0.5, close * (1.0 + rng.gauss(0.0, 0.02)))
                fh.write(f"{ticker},{day.isoformat()},{close:.2f}\n")


def _write_stream(root: str, tweets: list[tuple[str, datetime, str]], labels: list[tuple]) -> None:
    with open(os.path.join(root, "tweets.jsonl"), "w", encoding="utf-8") as fh:
        for tweet_id, ts, text in tweets:
            record = {"id": tweet_id, "created_at": ts.isoformat(), "text": text}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    with open(os.path.join(root, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# tweet_id\tsegment_index\tfocus_ticker\tlabel\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in labels)


def _synthetic(spec: Spec, rng: random.Random, data_dir: str, root: str) -> tuple[int, int]:
    # the dictionary and, for clean-forest, the template pool are the same
    # for every seed; the seed draws the stream from them
    fixed = random.Random(f"{spec.name}:lexicon")
    src = os.path.join(data_dir, "lexicons")
    lex = _base_lexicon(src)
    rows = _synthesize(fixed, lex, spec.lemmas)
    # every keyword is a dictionary form, so it is never out of dictionary
    # unless a typo hits it
    known = {row[0].strip().casefold() for row in _read_entries(os.path.join(src, "dictionary.tsv"))}
    rows.extend((word, word) for word in PRECAUTION_WORDS + OPPORTUNITY_WORDS if word not in known)
    _write_lexicons(src, os.path.join(root, "lexicons"), rows, lex.freq)

    if spec.templates:
        pool = _tweets(fixed, lex, _zipf_picker(fixed, lex.forms), spec.templates)
        order = []
        while len(order) < spec.tweets:  # every template equally often
            cycle = list(range(spec.templates))
            rng.shuffle(cycle)
            order.extend(cycle)
        stream = [
            [dataclasses.replace(s, number=_number(rng, s.label) if s.number else None) for s in pool[k]]
            for k in order[: spec.tweets]
        ]
        hashtags = ["#" + rng.choice(lex.forms) for _ in stream]
    else:
        stream = _tweets(rng, lex, _zipf_picker(rng, lex.forms), spec.tweets)
        _apply_typos(rng, stream, spec.typo_rate, lex.reserved | set(lex.forms))
        hashtags = [
            "#" + rng.choice(lex.forms) + rng.choice(_FOREIGN) + rng.choice(lex.forms) for _ in stream
        ]

    tweets, labels = [], []
    stamps = _timestamps(rng, len(stream))
    for i, (sentences, hashtag, ts) in enumerate(zip(stream, hashtags, stamps)):
        tweet_id = f"w{i:06d}"
        text = " ".join(_render(rng, s) for s in sentences)
        tweets.append((tweet_id, ts, f"{text} {hashtag}"))
        for index, s in enumerate(sentences):
            labels.extend((tweet_id, index, focus, s.label) for focus in s.canonical)
    _write_stream(root, tweets, labels)
    _write_prices(
        os.path.join(root, "prices.csv"), rng, [row[0] for row in lex.tickers],
        stamps[0].date(), stamps[-1].date(),
    )
    return len(tweets), len(labels)


def _replay(spec: Spec, rng: random.Random, data_dir: str, root: str) -> tuple[int, int]:
    src = os.path.join(data_dir, "lexicons")
    _write_lexicons(src, os.path.join(root, "lexicons"), [], {})
    sample = os.path.join(data_dir, "sample")
    with open(os.path.join(sample, "tweets.jsonl"), encoding="utf-8") as fh:
        base = [json.loads(line) for line in fh if line.strip()]
    base_labels: dict[str, list[list[str]]] = {}
    for row in _read_entries(os.path.join(sample, "labels.tsv")):
        base_labels.setdefault(row[0], []).append(row[1:])
    stamps = _timestamps(rng, spec.tweets * len(base))
    tweets, labels = [], []
    for copy in range(spec.tweets):
        order = list(base)
        rng.shuffle(order)
        for record in order:
            tweet_id = f"r{copy:04d}-{record['id']}"
            tweets.append((tweet_id, stamps[len(tweets)], record["text"]))
            labels.extend((tweet_id, *rest) for rest in base_labels.get(record["id"], []))
    _write_stream(root, tweets, labels)
    tickers = [row[0] for row in _read_entries(os.path.join(src, "tickers.tsv"))]
    _write_prices(os.path.join(root, "prices.csv"), rng, tickers, stamps[0].date(), stamps[-1].date())
    return len(tweets), len(labels)


def generate(name: str, seed: int, data_dir: str, root: str) -> Generated:
    """Write workload ``name`` for ``seed`` into ``root`` (created if needed).

    ``data_dir`` is the repository's ``data/`` directory.
    """
    spec = SPECS[name]
    os.makedirs(root, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    build = _replay if name == "replay-linear" else _synthetic
    n_tweets, n_instances = build(spec, rng, data_dir, root)
    return Generated(spec, root, n_tweets, n_instances)
