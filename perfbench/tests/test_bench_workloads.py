import collections
import filecmp
import json
import os

import finemo.cli as cli
import pytest
from finemo.cli import read_labels, read_tweets
from finemo.features import PriceSeries, compute_trend
from finemo.lexicons import load_lexicons
from finemo.segmenter import NUMBER_RE, replicate_per_asset, segment_tweet
from tracing import Recorder
from workloads import FILLER_STOPWORDS, SPECS, generate

DATA = os.path.join(os.path.dirname(__file__), "..", "..", "data")


@pytest.fixture(scope="module", params=sorted(SPECS))
def workload(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return generate(request.param, 7, DATA, str(root))


def _files(root):
    out = []
    for base, _, names in os.walk(root):
        out.extend(os.path.relpath(os.path.join(base, n), root) for n in names)
    return sorted(out)


def test_same_seed_same_bytes(workload, tmp_path):
    again = generate(workload.spec.name, 7, DATA, str(tmp_path))
    assert _files(workload.root) == _files(again.root)
    _, mismatch, errors = filecmp.cmpfiles(workload.root, again.root, _files(workload.root), shallow=False)
    assert mismatch == [] and errors == []
    other = generate(workload.spec.name, 8, DATA, str(tmp_path / "other"))
    assert not filecmp.cmp(workload.tweets, other.tweets, shallow=False)


def test_labels_cover_exactly_the_segmented_replicas(workload):
    lx = load_lexicons(workload.lexicons)
    replicas = set()
    for tweet in read_tweets(workload.tweets):
        for index, seg in enumerate(segment_tweet(tweet, lx)):
            replicas.update((tweet.id, index, r.focus) for r in replicate_per_asset(seg))
    labels = read_labels(workload.labels)
    assert set(labels) == replicas
    assert len(labels) == workload.n_instances > workload.spec.warmup
    shares = collections.Counter(label.name for label in labels.values())
    assert 0.3 < shares["NEUTRAL"] / len(labels) < 0.7


def test_prices_cover_every_posting_day(workload):
    prices = PriceSeries.from_csv(workload.prices)
    tweets = {t.id: t for t in read_tweets(workload.tweets)}
    for tweet_id, _, focus in read_labels(workload.labels):
        compute_trend(focus, tweets[tweet_id].timestamp, prices)  # raises when a close is missing


def _plain_words(text, lx):
    """Words of a synthetic tweet that are neither mentions, numbers,
    stopwords nor hashtags."""
    out = []
    for token in text.split():
        token = token.rstrip(".!?")
        if token[:1] in "$#" or NUMBER_RE.fullmatch(token) or token in FILLER_STOPWORDS:
            continue
        if token.casefold() in lx.tickers:
            continue
        out.append(token)
    return out


def test_typo_lexicon_has_one_off_typos(tmp_path):
    gen = generate("typo-lexicon", 3, DATA, str(tmp_path))
    lx = load_lexicons(gen.lexicons)
    assert 1500 <= len(lx.dictionary) <= 3000
    words = [w for t in read_tweets(gen.tweets) for w in _plain_words(t.text, lx)]
    oov = [w for w in words if w not in lx.dictionary]
    assert 0.2 < len(oov) / len(words) < 0.4
    assert len(set(oov)) / len(oov) > 0.9
    hashtags = [t.text.split()[-1] for t in read_tweets(gen.tweets)]  # one closes every tweet
    assert all(tag.startswith("#") for tag in hashtags)
    assert len(set(hashtags)) > 0.95 * len(hashtags)


def test_clean_forest_has_no_out_of_dictionary_token(tmp_path):
    gen = generate("clean-forest", 3, DATA, str(tmp_path))
    lx = load_lexicons(gen.lexicons)
    rec = Recorder()
    rec.install()
    try:
        for tweet in read_tweets(gen.tweets):
            # through the names the pipeline calls, which the recorder wraps
            for seg in cli.segment_tweet(tweet, lx):
                for replica in replicate_per_asset(seg):
                    cli.process(replica, lx)
    finally:
        rec.restore()
    assert rec.counters["tokens"] > 5 * gen.n_tweets
    assert rec.counters["oov"] == 0


def test_replay_linear_replays_the_bundled_sample(tmp_path):
    gen = generate("replay-linear", 3, DATA, str(tmp_path))
    with open(os.path.join(DATA, "sample", "tweets.jsonl"), encoding="utf-8") as fh:
        base = collections.Counter(json.loads(line)["text"] for line in fh if line.strip())
    texts = collections.Counter(t.text for t in read_tweets(gen.tweets))
    copies = SPECS["replay-linear"].tweets
    assert texts == collections.Counter({text: n * copies for text, n in base.items()})
    assert filecmp.cmp(
        os.path.join(gen.lexicons, "dictionary.tsv"),
        os.path.join(DATA, "lexicons", "dictionary.tsv"),
        shallow=False,
    )
