import os
import shutil

import pytest

from finemo.lexicons import LexiconError, load_lexicons, lookup_ticker
from tests.conftest import LEXICON_DIR


def test_loads_all_resources(lx):
    assert lx.tickers["bkia"] == "BKIA"
    assert lx.tickers["bankia"] == "BKIA"
    assert "el" in lx.stopwords
    assert "no" in lx.keep_words
    assert lx.polarity["caída"] == "negative"
    assert lx.emotions["miedo"] == "negative_emotion"
    assert "negation" in lx.adverbs["no"]
    assert "ebitda" in lx.abbreviations
    assert 0 < lx.freq_corpus["mayor"] <= 1
    assert lx.dictionary["sigue"] == "seguir"


def test_keep_words_removed_from_stopwords(lx):
    assert not (lx.stopwords & lx.keep_words)


def test_ticker_lookup_strips_markers(lx):
    assert lookup_ticker("$BKIA", lx) == "BKIA"
    assert lookup_ticker("#Ibex35", lx) == "IBEX35"
    assert lookup_ticker("@santander", lx) == "SAN"
    assert lookup_ticker("BANKIA", lx) == "BKIA"
    assert lookup_ticker("bbva.", lx) == "BBVA"
    assert lookup_ticker("ALUA.BA", lx) == "ALUA.BA"
    assert lookup_ticker("nadaquever", lx) is None
    assert lookup_ticker("$", lx) is None


def _copy_lexicons(tmp_path):
    dst = tmp_path / "lex"
    shutil.copytree(LEXICON_DIR, dst)
    return dst


def test_missing_file_message(tmp_path):
    dst = _copy_lexicons(tmp_path)
    os.remove(dst / "polarity.tsv")
    with pytest.raises(LexiconError, match="polarity lexicon not found"):
        load_lexicons(str(dst))


def test_duplicate_alias_rejected(tmp_path):
    dst = _copy_lexicons(tmp_path)
    with open(dst / "tickers.tsv", "a", encoding="utf-8") as fh:
        fh.write("XXX\tbankia\n")
    with pytest.raises(LexiconError, match="duplicate ticker alias"):
        load_lexicons(str(dst))


def test_malformed_line_reports_lineno(tmp_path):
    dst = _copy_lexicons(tmp_path)
    with open(dst / "polarity.tsv", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    with open(dst / "polarity.tsv", "a", encoding="utf-8") as fh:
        fh.write("palabra\tbogus\n")
    with pytest.raises(LexiconError, match=f"line {n_lines + 1}"):
        load_lexicons(str(dst))


def test_freq_out_of_range_rejected(tmp_path):
    dst = _copy_lexicons(tmp_path)
    with open(dst / "freq.tsv", "a", encoding="utf-8") as fh:
        fh.write("palabra\t1.5\n")
    with pytest.raises(LexiconError, match="freq value out of"):
        load_lexicons(str(dst))


def test_comments_and_blank_lines_ignored(tmp_path):
    dst = _copy_lexicons(tmp_path)
    with open(dst / "stopwords.txt", "a", encoding="utf-8") as fh:
        fh.write("\n# comentario\n")
    loaded = load_lexicons(str(dst))
    assert "# comentario" not in loaded.stopwords
