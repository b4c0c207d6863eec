import os

import pytest

from finemo.lexicons import load_lexicons
from perfbench.workloads import SPECS, generate

ROOT = os.path.join(os.path.dirname(__file__), "..")
LEXICON_DIR = os.path.join(ROOT, "data", "lexicons")
SAMPLE_DIR = os.path.join(ROOT, "data", "sample")


@pytest.fixture(scope="session")
def lx():
    return load_lexicons(LEXICON_DIR)


@pytest.fixture(scope="session")
def sample_paths():
    return {
        "lexicons": LEXICON_DIR,
        "tweets": os.path.join(SAMPLE_DIR, "tweets.jsonl"),
        "labels": os.path.join(SAMPLE_DIR, "labels.tsv"),
        "prices": os.path.join(SAMPLE_DIR, "prices.csv"),
    }


@pytest.fixture(scope="session")
def benchmark_inputs(tmp_path_factory):
    """The three benchmark workloads at seed 5, generated once."""
    return {
        name: generate(name, 5, os.path.join(ROOT, "data"), str(tmp_path_factory.mktemp(name)))
        for name in sorted(SPECS)
    }
