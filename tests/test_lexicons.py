import os
import re
import shutil

import pytest

from finemo.lexicons import (
    EMOTION_CODES,
    POLARITY_CODES,
    LexiconError,
    LexiconSet,
    data_lines,
    load_lexicons,
    lookup_ticker,
)
from perfbench.workloads import SPECS
from tests.conftest import LEXICON_DIR


def test_loads_all_resources(lx):
    assert lx.tickers["bkia"] == "BKIA"
    assert lx.tickers["bankia"] == "BKIA"
    assert "el" in lx.stopwords
    assert "no" in _keep_words(LEXICON_DIR) and "no" not in lx.stopwords
    assert lx.polarity["caída"] == "negative"
    assert lx.emotions["miedo"] == "negative_emotion"
    assert "negation" in lx.adverbs["no"]
    assert "ebitda" in lx.abbreviations
    assert 0 < lx.freq_corpus["mayor"] <= 1
    assert lx.dictionary["sigue"] == "seguir"


def _keep_words(dir_path):
    """The case-folded words of ``keepwords.txt`` in ``dir_path``."""
    return {line.strip().casefold() for _, line in data_lines(os.path.join(dir_path, "keepwords.txt"))}


def test_keep_words_removed_from_stopwords(lx):
    assert not (lx.stopwords & _keep_words(LEXICON_DIR))


def test_keep_words_win_over_listed_stopwords(tmp_path):
    # the bundled lists share no word, so list the keep-words as stopwords too
    dst = _copy_lexicons(tmp_path)
    keep = _keep_words(dst)
    _append(dst, "stopwords.txt", *(word.upper() for word in sorted(keep)))
    loaded = load_lexicons(str(dst))
    assert not (loaded.stopwords & keep) and "el" in loaded.stopwords


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


def _append(dst, name, *rows):
    """Append ``rows`` to lexicon ``name``; returns its path and the line
    number of the first appended row."""
    path = dst / name
    with open(path, encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(row + "\n" for row in rows)
    return path, n_lines + 1


def _where(path, lineno, message=""):
    """A pattern for a refusal that starts with ``path:lineno: message``."""
    return "^" + re.escape(f"{path}:{lineno}: {message}")


def test_duplicate_alias_rejected(tmp_path):
    dst = _copy_lexicons(tmp_path)
    first = next(n for n, line in data_lines(str(dst / "tickers.tsv")) if "bankia" in line)
    path, lineno = _append(dst, "tickers.tsv", "XXX\tBankia")
    message = f"duplicate ticker alias 'Bankia' (first on line {first})"
    with pytest.raises(LexiconError, match=_where(path, lineno, message)):
        load_lexicons(str(dst))


@pytest.mark.parametrize("row", ["\tbanco", "BNC\t\tbanco", "BNC\tbanco\t"])
def test_ticker_row_with_an_empty_field_rejected(tmp_path, row):
    dst = _copy_lexicons(tmp_path)
    path, lineno = _append(dst, "tickers.tsv", row)
    with pytest.raises(LexiconError, match=_where(path, lineno, "empty field")):
        load_lexicons(str(dst))


def test_malformed_line_reports_lineno(tmp_path):
    dst = _copy_lexicons(tmp_path)
    path, lineno = _append(dst, "polarity.tsv", "palabra\tbogus")
    with pytest.raises(LexiconError, match=_where(path, lineno, "expected neg|neu|pos")):
        load_lexicons(str(dst))


def test_freq_out_of_range_rejected(tmp_path):
    dst = _copy_lexicons(tmp_path)
    path, lineno = _append(dst, "freq.tsv", "palabra\t1.5")
    with pytest.raises(LexiconError, match=_where(path, lineno, "freq value out of (0,1]")):
        load_lexicons(str(dst))


# each word<TAB>value lexicon: a valid row for a new word, a row whose value
# it refuses, and the start of that refusal
COLUMN_FILES = {
    "polarity.tsv": ("palabra\tneg", "palabra\tbogus", "expected neg|neu|pos"),
    "emotions.tsv": ("palabra\tpos", "palabra\tneu", "expected neg|pos"),
    "adverbs.tsv": ("palabra\tdoubt", "palabra\tdoubt,quizás", "expected comma-separated classes"),
    "freq.tsv": ("palabra\t0.5", "palabra\tmucho", "could not convert string to float"),
    # any lemma but an empty one is valid
    "dictionary.tsv": ("palabra\tpalabra", "palabra\t ", "empty value"),
}


@pytest.mark.parametrize("name", sorted(COLUMN_FILES))
@pytest.mark.parametrize(
    "fault", ["no tab", "two tabs", "bad value", "empty value", "empty word", "duplicate"]
)
def test_column_file_refusals_name_path_and_line(tmp_path, name, fault):
    valid, bad_value, refusal = COLUMN_FILES[name]
    rows, skip, message = {
        "no tab": ([valid.replace("\t", " ")], 0, "expected word<TAB>value"),
        "two tabs": ([valid + "\textra"], 0, "expected word<TAB>value"),
        "bad value": ([bad_value], 0, refusal),
        "empty value": ([valid[:valid.index("\t") + 1] + " "], 0, "empty value"),
        "empty word": (["  " + valid[valid.index("\t"):]], 0, "empty word"),
        # a repeat is found after case folding, and names the first row
        "duplicate": ([valid, "# comentario", valid.upper()], 2, "duplicate word 'palabra'"),
    }[fault]
    dst = _copy_lexicons(tmp_path)
    path, lineno = _append(dst, name, *rows)
    if fault == "duplicate":
        message += f" (first on line {lineno})"
    with pytest.raises(LexiconError, match=_where(path, lineno + skip, message)):
        load_lexicons(str(dst))


def test_comments_and_blank_lines_ignored(tmp_path):
    dst = _copy_lexicons(tmp_path)
    with open(dst / "stopwords.txt", "a", encoding="utf-8") as fh:
        fh.write("\n# comentario\n")
    loaded = load_lexicons(str(dst))
    assert "# comentario" not in loaded.stopwords


def test_data_lines_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("uno\n\n   \n# nota\n  # sangrada\n\tdos\t\ntres", encoding="utf-8")
    assert list(data_lines(str(path))) == [(1, "uno"), (6, "\tdos\t"), (7, "tres")]


def _ref_load_lexicons(dir_path):
    """The loader as it was before the rows of every file went through one
    parser: one loop per file, no checks, for valid lexicons only."""

    def lines(name):
        with open(os.path.join(dir_path, name), encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh]
        return [row for row in rows if row.strip() and not row.lstrip().startswith("#")]

    def pairs(name):
        return [(w.strip().casefold(), v.strip()) for w, v in (r.split("\t") for r in lines(name))]

    def words(name):
        return {row.strip().casefold() for row in lines(name)}

    tickers = {}
    for row in lines("tickers.tsv"):
        aliases = [a.strip() for a in row.split("\t") if a.strip()]
        tickers.update((alias.casefold(), aliases[0]) for alias in aliases)
    return LexiconSet(
        tickers=tickers,
        stopwords=frozenset(words("stopwords.txt") - words("keepwords.txt")),
        polarity={w: POLARITY_CODES[v] for w, v in pairs("polarity.tsv")},
        emotions={w: EMOTION_CODES[v] for w, v in pairs("emotions.tsv")},
        adverbs={
            w: frozenset(c.strip() for c in v.split(",") if c.strip())
            for w, v in pairs("adverbs.tsv")
        },
        abbreviations=frozenset(words("abbreviations.txt")),
        freq_corpus={w: float(v) for w, v in pairs("freq.tsv")},
        dictionary={w: v.casefold() for w, v in pairs("dictionary.tsv")},
    )


def _assert_same_as_oracle(dir_path):
    got, want = load_lexicons(dir_path), _ref_load_lexicons(dir_path)
    assert got == want
    # the spelling-correction index numbers the forms in dictionary order
    assert list(got.dictionary) == list(want.dictionary)
    return len(got.dictionary)


def test_load_lexicons_equals_oracle_on_bundled_lexicons():
    assert _assert_same_as_oracle(LEXICON_DIR) > 0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_load_lexicons_equals_oracle_on_benchmark_inputs(name, benchmark_inputs):
    assert _assert_same_as_oracle(benchmark_inputs[name].lexicons) > 0
